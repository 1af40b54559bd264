"""Differential tests of the column-native assembly.

``build_complex`` writes every face term, and ``_insertion_hom`` every
insertion term, straight into the global sparse columns of a ``BlockHom``.
The references are the blockwise assemblies they replaced,
``oracles.blockwise_differentials`` and ``oracles.blockwise_insertion_blocks``,
which make one ``IntMatrix`` per term and add blocks; both sides are
compared as dense matrices.  The systems cover free, torsion, twisted
(bifunctor) and product coefficients, on full and normalized complexes; the
maps cover every induced chain map, ``homotopy_h`` and both degree -2
families.
"""

import pytest

from bwcoh import bwcomplex
from bwcoh.abgroup import Z, cyclic, from_invariants
from bwcoh.bwcomplex import (
    build_complex, homotopy_h, homotopy_r_horizontal, homotopy_r_vertical,
    induced_map_2, induced_map_nat,
)
from bwcoh.fincat import (
    arrow_category, cyclic_group_category, indiscrete_category,
    total_order_category,
)
from bwcoh.natsys import constant_system
from bwcoh.randgen import InstanceGen
from oracles import (
    blocks_to_matrix, blockwise_differentials, blockwise_insertion_blocks,
    fullness_witness, identity_morphism,
)


def _named_systems():
    gen = InstanceGen("column-assembly")
    z2, arrow = cyclic_group_category(2), arrow_category()
    return {
        "free": constant_system(indiscrete_category(2), Z),
        "torsion": constant_system(cyclic_group_category(3), cyclic(3)),
        "torsion_product": constant_system(arrow, from_invariants(1, (2,))),
        "twisted": gen.hom_system(z2, 4),
        "twisted_free": gen.hom_system(total_order_category(3)),
        "product": gen.system_product(constant_system(z2, cyclic(2)),
                                      gen.hom_system(z2)),
        "indicator_product": gen.system_product(
            constant_system(arrow, cyclic(4)), gen.indicator_system(arrow)),
    }


def _assert_differentials_match(cx):
    oracle = blockwise_differentials(cx)
    for n, d in enumerate(cx.diffs):
        assert d.to_matrix() == blocks_to_matrix(d.src, d.dst, oracle[n]), n


@pytest.mark.parametrize("normalized", [False, True],
                         ids=["full", "normalized"])
@pytest.mark.parametrize("name", sorted(_named_systems()))
def test_differentials_match_blockwise_assembly(name, normalized):
    d = _named_systems()[name]
    _assert_differentials_match(build_complex(d, 3, normalized=normalized))


@pytest.mark.parametrize("normalized", [False, True],
                         ids=["full", "normalized"])
@pytest.mark.parametrize("seed", range(12))
def test_random_differentials_match_blockwise_assembly(seed, normalized):
    gen = InstanceGen(f"column-assembly-{seed}")
    d = gen.system(gen.category(6))
    _assert_differentials_match(
        build_complex(d, 3 + seed % 2, normalized=normalized))


@pytest.fixture
def recorded(monkeypatch):
    """Every ``_insertion_hom`` call, with the blockwise blocks of the same
    call next to its result."""
    calls = []
    real = bwcomplex._insertion_hom

    def recording(cx_src, cx_dst, n, functors, comps, k_hom):
        hom = real(cx_src, cx_dst, n, functors, comps, k_hom)
        calls.append((len(comps), hom, blockwise_insertion_blocks(
            cx_src, cx_dst, n, functors, comps, k_hom)))
        return hom

    monkeypatch.setattr(bwcomplex, "_insertion_hom", recording)
    return calls


def _assert_recorded_match(calls, arities):
    assert {m for m, _, _ in calls} == arities
    for m, hom, blocks in calls:
        assert hom.to_matrix() == blocks_to_matrix(hom.src, hom.dst, blocks)


@pytest.mark.parametrize("seed", range(6))
def test_induced_maps_match_blockwise_assembly(seed, recorded):
    gen = InstanceGen(f"column-maps-{seed}")
    two, d, e = gen.h_instance()
    cx_d, cx_e = build_complex(d, 3), build_complex(e, 3)
    induced_map_2(two.src, cx_d, cx_e)
    induced_map_nat(fullness_witness(two.src)[0], cx_d, cx_e)
    induced_map_nat(identity_morphism(d), cx_d, cx_d)
    _assert_recorded_match(recorded, {0})


@pytest.mark.parametrize("name", ["torsion", "twisted", "product"])
def test_identity_maps_match_blockwise_assembly(name, recorded):
    d = _named_systems()[name]
    cx = build_complex(d, 3)
    induced_map_nat(identity_morphism(d), cx, cx)
    _assert_recorded_match(recorded, {0})


@pytest.mark.parametrize("seed", range(6))
def test_homotopy_h_matches_blockwise_assembly(seed, recorded):
    two, d, e = InstanceGen(f"column-h-{seed}").h_instance()
    homotopy_h(two, build_complex(d, 3), build_complex(e, 3))
    _assert_recorded_match(recorded, {0, 1})


@pytest.mark.parametrize("seed", range(4))
def test_vertical_family_matches_blockwise_assembly(seed, recorded):
    two_a, two_b, d, e = InstanceGen(f"column-v-{seed}").vertical_instance()
    homotopy_r_vertical(two_a, two_b, build_complex(d, 3),
                        build_complex(e, 3))
    _assert_recorded_match(recorded, {0, 1, 2})


@pytest.mark.parametrize("seed", range(4))
def test_horizontal_family_matches_blockwise_assembly(seed, recorded):
    two_a, two_b, d, e, g = \
        InstanceGen(f"column-hz-{seed}").horizontal_instance()
    homotopy_r_horizontal(two_a, two_b, build_complex(d, 3),
                          build_complex(e, 3), build_complex(g, 3))
    _assert_recorded_match(recorded, {0, 1, 2})
