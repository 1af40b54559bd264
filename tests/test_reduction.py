"""Differential tests of the sparse cone-reduction engine.

``CochainComplex.cohomology`` and ``cohomology_map`` answer from
``bwcoh.reduction``; the dense ``cohomology_data`` route (``subquotient``),
the dense induced map built on it and the bar-complex oracle are the
references they must agree with.  The cohomology of the normalized complex
(``build_complex(..., normalized=True)``) is checked against the same
full-complex references.
"""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

import bwcoh.reduction as reduction
from bwcoh.abgroup import (
    GroupHom, PresentedGroup, Z, cyclic, from_invariants, hom_compose, is_iso,
)
from bwcoh.bwcomplex import (
    HomotopyIdentityError, build_complex, cohomology_map, induced_map_2,
    induced_map_nat,
)
from bwcoh.fincat import (
    arrow_category, cyclic_group_category, monoid_category,
)
from bwcoh.intmat import IntMatrix, smith_normal_form
from bwcoh.natsys import AbNat, constant_system
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import HEADER, category_text, load_workspace
from oracles import (
    assert_q_witness, bar_cohomology, dense_cohomology_map, identity_morphism,
    kernel_cokernel, with_block,
)

WORKSPACES = Path(__file__).resolve().parent.parent / "workspaces"

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
    assert any(cx.dd_witness)
    norm = assert_matches_dense(d, max_degree)
    assert any(norm.dd_witness)


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


def test_boundary_at_forced_zero_coordinate_is_caught():
    # every cocycle of the top residue vanishes on a dropped column, so a
    # boundary with an entry there means ∂∘∂ != 0
    red = build_complex(constant_system(cyclic_group_category(3), cyclic(3)),
                        4).reduced()
    dropped = reduction._forced_zero(red.diffs[4])
    assert dropped
    col = next(c for c in red.diffs[3].values() if c)
    col[min(dropped)] = col.get(min(dropped), 0) + 1
    with pytest.raises(HomotopyIdentityError,
                       match=r"residue ∂∘∂ != 0 into degree 3"):
        red.subquotient(3)


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


def test_least_block_not_preserving_relations_is_named():
    # two blocks of the differential from degree 1 break relations; the
    # error names the least (target, source) in key order, (1, 1), not
    # (2, 0), whose source column comes first
    cx = build_complex(
        constant_system(cyclic_group_category(2), from_invariants(1, (2,))), 3)
    breaks = IntMatrix.from_rows([[0, 1], [0, 0]])
    cx.diffs[1] = with_block(with_block(cx.diffs[1], (2, 0), breaks),
                             (1, 1), breaks)
    with pytest.raises(HomotopyIdentityError,
                       match=r"from degree 1 does not preserve relations: "
                             r"target \(g0,g1\), source \(g1\)"):
        cx.cohomology(0)


# the cone's Q_n, with D_n R_n = R_{n+1} Q_n, against dense products

@pytest.mark.parametrize("seed", range(24))
def test_q_witness_on_random_systems(seed):
    gen = InstanceGen(seed)
    c = gen.category(6)
    cx = build_complex(gen.system(c), 3 + seed % 2)
    for diff in cx.diffs:
        assert assert_q_witness(diff) is None


@pytest.mark.parametrize("kind", ["torsion", "sign", "twisted", "z2", "z2+z"])
def test_q_witness_on_torsion_twisted_and_non_injective(kind):
    z2 = cyclic_group_category(2)
    d = {
        "torsion": lambda: constant_system(cyclic_group_category(3),
                                           cyclic(6)),
        # the sign module of the cyclic workspace, on Z/4 instead of Z
        "sign": lambda: load_workspace(
            (WORKSPACES / "cyclic.bwcoh").read_text().replace(
                "value s s: Z\n", "value s s: Z/4\n")).systems["z2_sign"],
        "twisted": lambda: twisted_z8(2),
        "z2": lambda: constant_system(z2, NON_INJECTIVE[0]),
        "z2+z": lambda: constant_system(z2, NON_INJECTIVE[1]),
    }[kind]()
    for normalized in (False, True):
        cx = build_complex(d, 4, normalized=normalized)
        for diff in cx.diffs:
            assert assert_q_witness(diff) is None
        assert any(diff.to_witness()[0] for diff in cx.diffs)


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_smith(seed):
    # a product through a narrow middle, so the rank is often deficient
    rng = random.Random(seed)
    rows, mid, cols = (rng.randint(1, 9) for _ in range(3))

    def sparse_random(r, c):
        return IntMatrix(r, c, tuple(rng.choice([0, 0, 0, 1, -1, 2, -3])
                                     for _ in range(r * c)))
    m = sparse_random(rows, mid) @ sparse_random(mid, cols)
    rank = len(smith_normal_form(m))
    sparse = {j: {i: m.at(i, j) for i in range(rows) if m.at(i, j)}
              for j in range(cols)}
    assert reduction._rank(sparse) == rank


# ---------------------------------------------------------------------------
# closed forms of group cohomology, at degrees the bar oracle cannot reach

def symmetric3():
    """S3 as a one-object category: pabc is the permutation 0->a, 1->b,
    2->c, and p then q is q∘p."""
    perms = list(itertools.permutations(range(3)))
    op = [[perms.index(tuple(q[p[i]] for i in range(3))) for q in perms]
          for p in perms]
    return monoid_category(op, 0, ["p" + "".join(map(str, p)) for p in perms])


def test_symmetric3_workspace_holds_this_category():
    text = (WORKSPACES / "symmetric3.bwcoh").read_text(encoding="utf-8")
    assert category_text("s3", symmetric3()) in text


# Baues-Wirsching cohomology of a group with constant coefficients is its
# group cohomology (Brown, Cohomology of Groups, ch. III-IV)
@pytest.mark.parametrize("cat, coeff, expected", [
    # H^4 = Z/6 needs the pivots 2 and 3 merged into one invariant
    (symmetric3(), Z, ["Z", "0", "Z/2", "0", "Z/6"]),
    (symmetric3(), cyclic(2), ["Z/2"] * 5),
    (symmetric3(), cyclic(3), ["Z/3", "0", "0", "Z/3"]),
    # H^n(Z/k; Z/m) = Z/gcd(k, m) for n >= 1
    (cyclic_group_category(6), cyclic(4), ["Z/4", "Z/2", "Z/2", "Z/2"]),
], ids=["s3_z", "s3_z2", "s3_z3", "z6_z4"])
def test_group_cohomology_closed_forms(cat, coeff, expected):
    cx = build_complex(constant_system(cat, coeff), len(expected),
                       normalized=True)
    assert [cx.cohomology(n).human() for n in range(len(expected))] == expected


# ---------------------------------------------------------------------------
# the elimination itself, pinned

def s3_complex(system, max_degree, normalized):
    ws = load_workspace(
        (WORKSPACES / "symmetric3.bwcoh").read_text(encoding="utf-8"))
    return build_complex(ws.systems[system], max_degree,
                         normalized=normalized)


def short_digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# pivot and residue digests recorded from the elimination with a set per
# row and a (cost, k, i, j) tuple per candidate; a leaner bookkeeping must
# take the same pivots in the same order and leave the same residue
@pytest.mark.parametrize("system, max_degree, normalized, pivots, residue, "
                         "pivot_counts, residue_columns", [
    ("const_z", 5, True, "d121a9155bee29ee", "459f28e0ba93e744",
     [0, 0, 4, 20, 104, 520], [0, 1, 1, 1, 1, 1]),
    ("const_z", 4, False, "2d8503c26f2e8b56", "85b37a96c2676d0f",
     [0, 0, 5, 30, 184], [0, 1, 1, 1, 2]),
    ("const_z2", 5, True, "13c0ec66f002ec44", "d40e585f098cfd71",
     [0, 4, 24, 124, 624, 520], [1, 2, 2, 2, 2, 2606]),
    ("const_z2", 4, False, "f6819d5179bf618d", "8a2ac8a7e098ba29",
     [0, 5, 35, 214, 184], [1, 2, 2, 3, 1114]),
    ("const_z3", 5, True, "13c0ec66f002ec44", "cefbdb068faae2fe",
     [0, 4, 24, 124, 624, 520], [1, 2, 2, 2, 2, 2606]),
    ("const_z3", 4, False, "f6819d5179bf618d", "e962cef378820e68",
     [0, 5, 35, 214, 184], [1, 2, 2, 3, 1114]),
], ids=["z_norm5", "z_full4", "z2_norm5", "z2_full4", "z3_norm5", "z3_full4"])
def test_symmetric3_elimination_is_pinned(system, max_degree, normalized,
                                          pivots, residue, pivot_counts,
                                          residue_columns):
    red = s3_complex(system, max_degree, normalized).reduced()
    assert [len(log) for log in red.log] == pivot_counts
    assert [len(cols) for cols in red.diffs] == residue_columns
    assert short_digest([[(i, j, p) for i, j, p, _, _ in log]
                         for log in red.log]) == pivots
    assert short_digest([sorted((j, i, v) for j, col in cols.items()
                                for i, v in col.items())
                         for cols in red.diffs]) == residue


def test_reduction_bookkeeping_stays_small():
    # tracemalloc peak: 6.10 MiB with a set per row and a tuple per
    # candidate, 3.26 MiB with a list per row and one int per candidate
    cx = s3_complex("const_z", 5, True)
    tracemalloc.start()
    try:
        [cx.cohomology(n) for n in range(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.68 * 2 ** 20, peak


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
    nat = AbNat(tuple(
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
@pytest.mark.parametrize("system, max_degree, top_residue", [
    (lambda: constant_system(cyclic_group_category(2), Z), 4, None),
    (lambda: constant_system(cyclic_group_category(3), cyclic(6)), 3, None),
    (lambda: twisted_z8(2), 4, None),
    (_product_system, 3, None),
    (lambda: constant_system(arrow_category(), NON_INJECTIVE[1]), 4, None),
    # the degree-4 relations keep 62 columns in the top residue, and all
    # but 7 of them are forced to zero
    (lambda: constant_system(cyclic_group_category(3), cyclic(3)), 4, (62, 7)),
], ids=["free", "torsion", "twisted", "product", "non_injective", "tall"])
def test_scalar_maps_match_dense(system, max_degree, top_residue, k):
    cmap = scalar_endomorphism(system(), k, max_degree)
    assert_map_matches_dense(cmap)
    if top_residue:
        red, top = cmap.source.reduced(), max_degree - 1
        assert (len(red.diffs[top + 1]),
                red.subquotient(top).ambient.generators) == top_residue
