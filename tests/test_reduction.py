"""Differential tests of the sparse cone-reduction engine.

``CochainComplex.cohomology`` and ``cohomology_map`` answer from
``bwcoh.reduction``; the dense ``cohomology_data`` route (``subquotient``),
the dense induced map built on it and the bar-complex oracle are the
references they must agree with.  The cohomology of the normalized complex
(``build_complex(..., normalized=True)``) is checked against the same
full-complex references.
"""

import dataclasses
import random

import pytest

import bwcoh.reduction as reduction
from bwcoh.abgroup import (
    GroupHom, PresentedGroup, Z, cyclic, from_invariants, hom_compose, is_iso,
)
from bwcoh.bwcomplex import (
    HomotopyIdentityError, build_complex, cohomology_map, induced_map_2,
    induced_map_nat,
)
from bwcoh.fincat import arrow_category, cyclic_group_category
from bwcoh.intmat import IntMatrix, smith_normal_form
from bwcoh.natsys import AbNat, constant_system
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import HEADER, category_text, load_workspace
from oracles import (
    bar_cohomology, dense_cohomology_map, identity_morphism, kernel_cokernel,
    with_block,
)

# relation matrices that are not injective: Z/2, and Z/2 ⊕ Z
NON_INJECTIVE = [
    PresentedGroup(1, IntMatrix(1, 2, (2, 4))),
    PresentedGroup(2, IntMatrix(2, 3, (2, 0, 6, 0, 0, 0))),
]


def assert_matches_dense(d, max_degree):
    """The reduced full and normalized complexes both give the invariants
    of the dense full-complex oracle; returns the normalized complex."""
    cx = build_complex(d, max_degree)
    norm = build_complex(d, max_degree, normalized=True)
    for n in range(max_degree):
        dense = cx.cohomology_data(n).group.invariants
        assert cx.cohomology(n) == dense, n
        assert norm.cohomology(n) == dense, n
    return norm


@pytest.mark.parametrize("seed", range(24))
def test_random_systems_match_dense(seed):
    gen = InstanceGen(seed)
    c = gen.category(6)
    assert_matches_dense(gen.system(c), 3 + seed % 2)


@pytest.mark.parametrize("kind", ["torsion", "hom", "representable",
                                  "indicator", "product"])
def test_each_system_kind_matches_dense(kind):
    gen = InstanceGen(f"reduction-{kind}")
    c = gen.category(6)
    d = {
        "torsion": lambda: constant_system(c, cyclic(6)),
        "hom": lambda: gen.hom_system(c, 2),
        "representable": lambda: gen.representable_system(c, True),
        "indicator": lambda: gen.indicator_system(c),
        "product": lambda: gen.system_product(
            constant_system(c, cyclic(4)), gen.hom_system(c, 0)),
    }[kind]()
    assert_matches_dense(d, 4)


def twisted_z8(k):
    """Z/8 on Z/k (k even), g_i acting by 3^(i mod 2) on the left and
    5^(i mod 2) on the right: functorial only modulo 8 (9 and 25 stand for
    1), so d∘d vanishes only modulo relations and the cone needs its S_n."""
    c = cyclic_group_category(k)
    o = c.object_name(0)
    lines = ["system d on c", "  bifunctor:", f"  value {o} {o}: Z/8"]
    for h in range(k):
        for kk in range(k):
            i, j = (int(c.morphism_name(m)[1:]) for m in (h, kk))
            lines.append(f"  act {c.morphism_name(h)} {c.morphism_name(kk)}: "
                         f"[[{3 ** (i % 2) * 5 ** (j % 2)}]]")
    text = HEADER + "\n" + category_text("c", c) + "\n".join(lines) + "\nend\n"
    return load_workspace(text).systems["d"]


@pytest.mark.parametrize("k, max_degree", [(2, 4), (4, 3)])
def test_twisted_system_needs_dd_witness(k, max_degree):
    d = twisted_z8(k)
    cx = build_complex(d, max_degree)
    assert any(any(x.entries) for w in cx.dd_witness for x in w.values())
    norm = assert_matches_dense(d, max_degree)
    assert any(any(x.entries) for w in norm.dd_witness for x in w.values())


# the dense oracle on Z/4 at max-degree 4 takes seconds, so Z/4 stops at 3
@pytest.mark.parametrize("group", NON_INJECTIVE, ids=["z2", "z2+z"])
@pytest.mark.parametrize("cat, max_degree",
                         [(cyclic_group_category(2), 4),
                          (cyclic_group_category(4), 3),
                          (arrow_category(), 4)],
                         ids=["z2", "z4", "arrow"])
def test_non_injective_relations_match_dense(cat, max_degree, group):
    assert group.injective is not group
    assert group.injective.invariants == group.invariants
    assert_matches_dense(constant_system(cat, group), max_degree)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("coeff", [Z, cyclic(2), cyclic(3)],
                         ids=["Z", "Z/2", "Z/3"])
def test_cyclic_groups_match_bar_oracle(k, coeff):
    degrees = 4 if k < 4 else 3
    d = constant_system(cyclic_group_category(k), coeff)
    oracle = bar_cohomology(k, coeff, degrees)
    for normalized in (False, True):
        cx = build_complex(d, degrees, normalized=normalized)
        assert [cx.cohomology(n) for n in range(degrees)] == oracle, \
            normalized


def test_corrupted_cone_entry_is_caught(monkeypatch):
    # free coefficients leave T^{-1} empty, so only ∂_1∘∂_0 can see the change
    d = constant_system(cyclic_group_category(3), Z)
    cone = reduction._cone

    def corrupted(complex_):
        diffs = cone(complex_)
        # one entry of ∂_0 into a basis element whose ∂_1 column is nonzero
        row = next(i for i, col in diffs[2].items() if col)
        diffs[1][0][row] = diffs[1][0].get(row, 0) + 1
        return diffs

    monkeypatch.setattr(reduction, "_cone", corrupted)
    for normalized in (False, True):
        cx = build_complex(d, 3, normalized=normalized)
        with pytest.raises(HomotopyIdentityError, match="from degree 0"):
            cx.cohomology(0)


def test_differential_not_preserving_relations_is_caught():
    # Z ⊕ Z/2: sending the torsion generator to the free one maps the
    # relation 2·e1 to 2·e0, which is not a relation
    cx = build_complex(
        constant_system(cyclic_group_category(2), from_invariants(1, (2,))), 3)
    cx.diffs[1] = with_block(cx.diffs[1], (0, 0),
                             IntMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(HomotopyIdentityError,
                       match=r"from degree 1 does not preserve relations: "
                             r"target \(g0,g0\), source \(g0\)"):
        cx.cohomology(0)


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_smith(seed):
    # a product through a narrow middle, so the rank is often deficient
    rng = random.Random(seed)
    rows, mid, cols = (rng.randint(1, 9) for _ in range(3))

    def sparse_random(r, c):
        return IntMatrix(r, c, tuple(rng.choice([0, 0, 0, 1, -1, 2, -3])
                                     for _ in range(r * c)))
    m = sparse_random(rows, mid) @ sparse_random(mid, cols)
    _, s, _ = smith_normal_form(m)
    rank = sum(1 for i in range(min(rows, cols)) if s.at(i, i))
    sparse = {j: {i: m.at(i, j) for i in range(rows) if m.at(i, j)}
              for j in range(cols)}
    assert reduction._rank(sparse) == rank


# ---------------------------------------------------------------------------
# induced maps through the pivot log

def residue_comparison(cx, n):
    """Projection (dense H^n -> residue H^n) and lift (residue -> dense) on
    the kernel bases, after checking that they are mutually inverse, that
    the residue H^n has the invariants of H^n and that projecting a lift
    gives it back exactly."""
    red = cx.reduced()
    dense, res = cx.cohomology_data(n), red.subquotient(n)
    assert res.group.invariants == cx.cohomology(n), n
    lifts = []
    for j in range(res.basis.cols):
        z = res.basis.column(j)
        x = red.lift(n, z)
        assert red.project(n, x) == z, (n, j)
        lifts.append([x.get(i, 0) for i in range(dense.basis.rows)])
    projections = [
        red.project(n, {i: v for i, v in enumerate(dense.basis.column(j))
                        if v})
        for j in range(dense.basis.cols)]
    psi = GroupHom.create(dense.group, res.group,
                          res.express(from_columns(projections,
                                                   res.basis.rows)))
    phi = GroupHom.create(res.group, dense.group,
                          dense.express(from_columns(lifts,
                                                     dense.basis.rows)))
    assert hom_compose(phi, psi).equal_mod(GroupHom.identity(dense.group))
    assert hom_compose(psi, phi).equal_mod(GroupHom.identity(res.group))
    return psi


def from_columns(cols, rows):
    return IntMatrix(rows, len(cols),
                     tuple(c[i] for i in range(rows) for c in cols))


def assert_map_matches_dense(cmap):
    for n in range(cmap.max_degree):
        fast, dense = cohomology_map(cmap, n), dense_cohomology_map(cmap, n)
        assert is_iso(fast) == is_iso(dense), n
        assert kernel_cokernel(fast) == kernel_cokernel(dense), n
        # the same map once both sides are identified with the dense H^n
        psi_a = residue_comparison(cmap.source, n)
        psi_b = residue_comparison(cmap.target, n)
        assert hom_compose(fast, psi_a).equal_mod(hom_compose(psi_b, dense))


@pytest.mark.parametrize("seed", range(12))
def test_induced_maps_match_dense(seed):
    # both legs of a seeded two-morphism; about a third carry a scalar twist
    # by 2, 3 or -1, so some of these maps are not isomorphisms
    two, d, e = InstanceGen(f"maps-{seed}").h_instance()
    cx_src, cx_dst = build_complex(d, 3), build_complex(e, 3)
    for m in (two.src, two.dst):
        assert_map_matches_dense(induced_map_2(m, cx_src, cx_dst))


def scalar_endomorphism(d, k, max_degree):
    """The chain endomorphism induced by multiplication by k on D."""
    cx = build_complex(d, max_degree)
    nat = AbNat(d.functor, d.functor, tuple(
        GroupHom(v, v, IntMatrix.identity(v.generators).scale(k))
        for v in d.functor.values))
    m = dataclasses.replace(identity_morphism(d), nat=nat)
    return induced_map_nat(m, cx, cx)


def _product_system():
    gen = InstanceGen("maps-product")
    c = gen.category(6)
    return gen.system_product(constant_system(c, cyclic(4)),
                              gen.hom_system(c, 0))


@pytest.mark.parametrize("k", [2, 3, -1])
@pytest.mark.parametrize("system, max_degree", [
    (lambda: constant_system(cyclic_group_category(2), Z), 4),
    (lambda: constant_system(cyclic_group_category(3), cyclic(6)), 3),
    (lambda: twisted_z8(2), 4),
    (_product_system, 3),
    (lambda: constant_system(arrow_category(), NON_INJECTIVE[1]), 4),
], ids=["free", "torsion", "twisted", "product", "non_injective"])
def test_scalar_maps_match_dense(system, max_degree, k):
    assert_map_matches_dense(scalar_endomorphism(system(), k, max_degree))
