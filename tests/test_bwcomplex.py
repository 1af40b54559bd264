import dataclasses
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh import bwcomplex
from bwcoh.abgroup import (
    GroupInvariants, PresentedGroup, Z, cyclic, from_invariants,
)
from bwcoh.bwcomplex import (
    BlockHom, CochainMap, DegreeOutOfRange, DegreeTruncation, Homotopy1,
    HomotopyIdentityError, ProductGroup, build_complex, cohomology_map,
    homotopy_class_equal, homotopy_h, homotopy_r_horizontal,
    homotopy_r_vertical, induced_map_2, induced_map_nat, is_cohomology_iso,
)
from bwcoh.cli import main
from bwcoh.factorization import build_factorization
from bwcoh.fincat import (
    Functor, ShapeMismatch, arrow_category, cyclic_group_category,
    discrete_category, identity_nat, indiscrete_category, make_category,
    terminal_category, total_order_category,
)
from bwcoh.intmat import IntMatrix
from bwcoh.natsys import (
    AbNat, NatSysMorphism, constant_system, identity_two_morphism,
    pullback_along_nat,
)
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import load_workspace
from oracles import (
    bar_cohomology, block_hom, blocks_to_matrix, blockwise_differentials,
    fullness_witness, identity_morphism, matvec, nerve_cohomology,
    with_block,
)


def inv(rank, *torsion):
    return GroupInvariants(rank, tuple(torsion))


def test_terminal_complex():
    cx = build_complex(constant_system(terminal_category(), Z), 4)
    for n in range(5):
        assert cx.groups[n].group.invariants == inv(1)
    assert cx.cohomology(0) == inv(1)
    for n in range(1, 4):
        assert cx.cohomology(n) == inv(0)


def test_product_group_invariants_examples():
    # coprime torsion merges, 1s are dropped, free ranks add
    assert ProductGroup((cyclic(2), cyclic(3))).invariants == inv(0, 6)
    assert ProductGroup((cyclic(4), Z, cyclic(6), from_invariants(2))
                        ).invariants == inv(3, 2, 12)
    assert ProductGroup(()).invariants == inv(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_product_group_invariants_match_the_block_diagonal(seed):
    # the factors' invariants give what reducing the block-diagonal
    # relations of their direct product gives
    rng = random.Random(seed)
    factors = []
    for _ in range(rng.randint(1, 5)):
        g, r = rng.randint(0, 3), rng.randint(0, 3)
        rels = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(r)] for _ in range(g)]
        ) if g and r else IntMatrix.zeros(g, r)
        factors.append(PresentedGroup(g, rels))
    pg = ProductGroup(tuple(factors))
    assert pg.invariants == pg.group.invariants


def test_degree_zero_differential_on_arrow():
    # constant Z on the arrow category: d(c)(f) = c(x) - c(y)
    cx = build_complex(constant_system(arrow_category(), Z), 2)
    d0 = cx.diffs[0].to_matrix()
    # degree-0 basis is (x, y); degree-1 basis is (id_x, id_y, f)
    value = [3, 5]
    image = matvec(d0, value)
    assert image[2] == 3 - 5 == -2
    assert image[0] == 0 and image[1] == 0


def test_monoid_group_sizes():
    cx = build_complex(constant_system(cyclic_group_category(2), Z), 4)
    for n in range(5):
        assert cx.groups[n].group.generators == 2 ** n


def test_group_cohomology_z2_z3():
    z2 = cyclic_group_category(2)
    z3 = cyclic_group_category(3)
    cases = [
        (z2, Z, [inv(1), inv(0), inv(0, 2), inv(0)]),
        (z2, cyclic(2), [inv(0, 2)] * 4),
        (z3, Z, [inv(1), inv(0), inv(0, 3), inv(0)]),
        (z3, cyclic(3), [inv(0, 3)] * 4),
    ]
    for cat, coeff, expected in cases:
        cx = build_complex(constant_system(cat, coeff), 4)
        got = [cx.cohomology(n) for n in range(4)]
        assert got == expected
        k = cat.n_morphisms
        assert bar_cohomology(k, coeff, 4) == expected


def test_degree_out_of_range():
    cx = build_complex(constant_system(terminal_category(), Z), 2)
    with pytest.raises(DegreeOutOfRange):
        cx.cohomology(2)
    with pytest.raises(DegreeOutOfRange):
        build_complex(constant_system(terminal_category(), Z), 0)


def _nondegenerate(cx, n):
    c = cx.system.base
    return [not any(c.is_identity(m) for m in s.mors) for s in cx.bases[n]]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_normalized_differential_is_the_restricted_full_one(seed):
    gen = InstanceGen(seed)
    d = gen.system(gen.category(6))
    full, norm = build_complex(d, 3), build_complex(d, 3, normalized=True)
    # full basis index -> normalized basis index, per degree
    pos = [{i: k for k, i in enumerate(
        i for i, nd in enumerate(_nondegenerate(full, n)) if nd)}
        for n in range(4)]
    for n in range(4):
        assert norm.bases[n] == tuple(full.bases[n][i] for i in pos[n])
    for n in range(3):
        restricted = {(pos[n + 1][t], pos[n][s]): m
                      for (t, s), m in full.diffs[n].blocks.items()
                      if t in pos[n + 1] and s in pos[n] and any(m.entries)}
        assert {k: m for k, m in norm.diffs[n].blocks.items()
                if any(m.entries)} == restricted


def _preserves_normalized(hom, cx_src, n_src, cx_dst, n_dst) -> bool:
    """No nonzero block of ``hom`` runs from a nondegenerate source
    sequence to a degenerate target sequence, so it sends normalized
    cochains to normalized cochains."""
    src = _nondegenerate(cx_src, n_src)
    dst = _nondegenerate(cx_dst, n_dst)
    return all(not any(m.entries) or not src[s] or dst[t]
               for (t, s), m in hom.blocks.items())


@pytest.mark.parametrize("seed", range(6))
def test_maps_and_homotopies_preserve_normalized_cochains(seed):
    # functors preserve identities, so a pulled-back or inserted sequence
    # of a degenerate target sequence is degenerate
    gen = InstanceGen(f"normalized-{seed}")
    two, d, e = gen.h_instance()
    two_a, two_b, d_v, e_v = gen.vertical_instance()
    phi = two.src.alpha.source_functor
    pulled = pullback_along_nat(d, identity_nat(phi))
    cx = {s: build_complex(s, 3) for s in (d, e, d_v, e_v, pulled)}
    maps = [induced_map_nat(NatSysMorphism(identity_nat(phi), d, pulled,
                                           AbNat.identity(pulled.functor)),
                            cx[d], cx[pulled])]
    homotopies = []
    for t, src, dst in ((two, d, e), (two_a, d_v, e_v), (two_b, d_v, e_v)):
        h = homotopy_h(t, cx[src], cx[dst])
        maps += [h.p, h.q, induced_map_2(t.src, cx[src], cx[dst])]
        homotopies.append(h)
    for cmap in maps:
        for n, m in enumerate(cmap.maps):
            assert _preserves_normalized(m, cmap.source, n, cmap.target, n)
    for h in homotopies:
        for n, m in h.maps.items():
            assert _preserves_normalized(m, h.source, n, h.target, n - 1)


def test_map_constructors_refuse_a_normalized_complex():
    two, d, e = InstanceGen("normalized-refused").h_instance()
    full = build_complex(d, 3), build_complex(e, 3)
    norm = (build_complex(d, 3, normalized=True),
            build_complex(e, 3, normalized=True))
    for side, (cx_src, cx_dst) in (("source", (norm[0], full[1])),
                                   ("target", (full[0], norm[1]))):
        for build in (lambda: induced_map_2(two.src, cx_src, cx_dst),
                      lambda: homotopy_h(two, cx_src, cx_dst),
                      lambda: homotopy_r_vertical(
                          two, identity_two_morphism(two.dst),
                          cx_src, cx_dst)):
            with pytest.raises(ShapeMismatch,
                               match=f"need the full complex; the {side} "
                                     f"complex is normalized"):
                build()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_constant_cohomology_matches_nerve(seed):
    gen = InstanceGen(seed)
    c = gen.random_poset(4)
    coeff = gen.small_group()
    cx = build_complex(constant_system(c, coeff), 3)
    bw = [cx.cohomology(n) for n in range(3)]
    assert bw == nerve_cohomology(c, coeff, 3)


def is_identity(cmap: CochainMap) -> bool:
    """Whether every degree of ``cmap`` minus the identity vanishes modulo
    relations, one signed sum per degree."""
    return all(BlockHom.signed_sum([
        (1, m, None), (-1, BlockHom.identity(m.src), None),
    ]).first_nonzero_coordinate() is None for m in cmap.maps)


def test_induced_map_identity():
    c = arrow_category()
    d = constant_system(c, Z)
    cx = build_complex(d, 3)
    p = induced_map_nat(identity_morphism(d), cx, cx)
    assert is_identity(p)
    p2 = induced_map_2(identity_morphism(d), cx, cx)
    assert is_identity(p2)
    assert not is_identity(CochainMap(cx, cx, tuple(
        BlockHom(g, g, {}) for g in cx.groups)))


def test_induced_map_contravariant_composition():
    for seed in range(5):
        gen = InstanceGen(800 + seed)
        dom_e = gen.rng.choice([terminal_category(), arrow_category()])
        outer = gen.nat_chain(dom_e, 2)
        inner = gen.nat_chain(outer.target, 2)
        d = gen.system(inner.target)
        e = pullback_along_nat(d, inner.nats[0])
        t1 = NatSysMorphism(inner.nats[0], d, e, AbNat.identity(e.functor))
        g = pullback_along_nat(e, outer.nats[0])
        t2 = NatSysMorphism(outer.nats[0], e, g, AbNat.identity(g.functor))
        from bwcoh.natsys import compose_natsys_morphisms
        comp = compose_natsys_morphisms(t2, t1)
        cx_c = build_complex(d, 3)
        cx_d = build_complex(e, 3)
        cx_e = build_complex(g, 3)
        lhs = induced_map_2(comp, cx_c, cx_e)
        rhs = induced_map_2(t2, cx_d, cx_e).compose(
            induced_map_2(t1, cx_c, cx_d))
        assert lhs.equal_mod(rhs)


def test_constant_pushforward_is_diagonal():
    # from the pair over the terminal category to the pair over two points:
    # the degree-0 component is the diagonal inclusion Z -> Z^2
    t = terminal_category()
    two = discrete_category(2)
    d = constant_system(t, Z)
    phi = Functor(two, t, (0, 0), (0, 0))
    e = pullback_along_nat(d, identity_nat(phi))
    m = NatSysMorphism(identity_nat(phi), d, e, AbNat.identity(e.functor))
    cx_t = build_complex(d, 2)
    cx_two = build_complex(e, 2)
    p = induced_map_nat(m, cx_t, cx_two)
    assert p.maps[0].to_matrix() == IntMatrix.from_rows([[1], [1]])


def test_induced_map_2_reduces_to_nat_for_identity_anchor():
    for seed in range(6):
        gen = InstanceGen(900 + seed)
        dom = gen.chain_domain()
        chain = gen.nat_chain(dom, 2)
        d = gen.system(chain.target)
        e = pullback_along_nat(d, identity_nat(chain.functors[0]))
        m = NatSysMorphism(identity_nat(chain.functors[0]), d, e,
                           AbNat.identity(e.functor))
        cx_src = build_complex(d, 3)
        cx_dst = build_complex(e, 3)
        assert induced_map_2(m, cx_src, cx_dst).equal_mod(
            induced_map_nat(m, cx_src, cx_dst))


def test_homotopy_of_identity_two_morphism():
    # p = q, so dh + hd must vanish; on the terminal category with constant Z
    # the homotopy itself alternates between 0 and the identity
    d = constant_system(terminal_category(), Z)
    cx = build_complex(d, 4)
    two = identity_two_morphism(identity_morphism(d))
    h = homotopy_h(two, cx, cx)
    for m in range(1, 5):
        entries = h.maps[m].to_matrix().entries
        expected = 1 if m % 2 == 1 else 0
        assert all(e == expected for e in entries)


def test_homotopy_degree_bookkeeping():
    # h on an (n+1)-cochain has n+1 insertion positions
    gen = InstanceGen(12)
    two, d, e = gen.h_instance()
    cx_src = build_complex(d, 3)
    cx_dst = build_complex(e, 3)
    h = homotopy_h(two, cx_src, cx_dst)
    assert set(h.maps) == {1, 2, 3}
    for m in (1, 2, 3):
        bh = h.maps[m]
        assert bh.src is cx_src.groups[m]
        assert bh.dst is cx_dst.groups[m - 1]


def test_homotopy_class_equal_reflexive_and_boundary():
    d = constant_system(cyclic_group_category(2), Z)
    cx = build_complex(d, 3)
    two = identity_two_morphism(identity_morphism(d))
    h = homotopy_h(two, cx, cx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeTruncation)
        assert homotopy_class_equal(h, h)
        # perturb by the boundary of a random degree -2 family r0:
        # h' = h + (d r0 - r0 d) stays in the same relative class
        import random
        rng = random.Random(7)
        r0 = {}
        for n in range(2, 4):
            rows = cx.groups[n - 2].total_gens
            cols = cx.groups[n].total_gens
            blocks = {}
            for ti in range(len(cx.bases[n - 2])):
                for si in range(len(cx.bases[n])):
                    m = IntMatrix(1, 1, (rng.randint(-2, 2),))
                    blocks[(ti, si)] = m
            r0[n] = block_hom(cx.groups[n], cx.groups[n - 2], blocks)
        maps2 = {}
        for n in (1, 2, 3):
            terms = [(1, h.maps[n], None)]
            if n + 1 <= 3:
                terms.append((-1, r0[n + 1], cx.diffs[n]))
            if n >= 2:
                terms.append((1, cx.diffs[n - 2], r0[n]))
            maps2[n] = BlockHom.signed_sum(terms)
        h2 = Homotopy1(cx, cx, maps2, h.p, h.q)
        h2.check_boundary()
        assert homotopy_class_equal(h, h2)
        assert homotopy_class_equal(h2, h)


def test_homotopy_class_equal_detects_nonhomotopic():
    # On the one-object order-2 category with Z/2 coefficients, the degree -1
    # family z with z_1 = [[0, 1]] (and zero elsewhere) is a homotopy from the
    # zero map to the zero map, and it induces a nonzero map H^1 -> H^0.
    # A difference of the form dr - rd sends cocycles to coboundaries, hence
    # induces zero; so z cannot be relatively homotopic to the zero family.
    d = constant_system(cyclic_group_category(2), cyclic(2))
    cx = build_complex(d, 3)
    zero_map = CochainMap(cx, cx, tuple(BlockHom(g, g, {})
                                        for g in cx.groups))
    zero_h = Homotopy1(cx, cx, {n: BlockHom(cx.groups[n], cx.groups[n - 1],
                                            {})
                                for n in (1, 2, 3)}, zero_map, zero_map)
    zero_h.check_boundary()
    blocks = {(0, 1): IntMatrix(1, 1, (1,))}
    maps = {1: block_hom(cx.groups[1], cx.groups[0], blocks),
            2: BlockHom(cx.groups[2], cx.groups[1], {}),
            3: BlockHom(cx.groups[3], cx.groups[2], {})}
    z = Homotopy1(cx, cx, maps, zero_map, zero_map)
    z.check_boundary()
    # nonzero induced map on cohomology
    sq1 = cx.cohomology_data(1)
    sq0 = cx.cohomology_data(0)
    mapped = z.maps[1].to_matrix() @ sq1.basis
    w = sq0.express(mapped)
    from bwcoh.abgroup import GroupHom
    assert not GroupHom.create(sq1.group, sq0.group, w).is_zero_mod()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeTruncation)
        assert not homotopy_class_equal(zero_h, z)
        assert not homotopy_class_equal(z, zero_h)


def test_contractible_homotopies_all_equivalent():
    # on the terminal category any two homotopies between the same maps are
    # relatively homotopic
    d = constant_system(terminal_category(), Z)
    cx = build_complex(d, 4)
    two = identity_two_morphism(identity_morphism(d))
    h = homotopy_h(two, cx, cx)
    zero_maps = {n: BlockHom(cx.groups[n], cx.groups[n - 1], {})
                 for n in range(1, 5)}
    hz = Homotopy1(cx, cx, zero_maps, h.p, h.q)
    hz.check_boundary()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeTruncation)
        assert homotopy_class_equal(h, hz)


def test_equivalence_invariance_indiscrete_vs_terminal():
    # an explicit equivalence between the two-object indiscrete category and
    # the point induces isomorphisms on cohomology
    big = indiscrete_category(2)
    pt = terminal_category()
    phi = Functor(big, pt, (0, 0), (0,) * 4)
    psi = Functor(pt, big, (0,), (big.identity[0],))
    for coeff in (Z, cyclic(4)):
        d = constant_system(big, coeff)
        e = pullback_along_nat(d, identity_nat(psi))
        m = NatSysMorphism(identity_nat(psi), d, e, AbNat.identity(e.functor))
        cx_big = build_complex(d, 3)
        cx_pt = build_complex(e, 3)
        p = induced_map_nat(m, cx_big, cx_pt)
        for n in range(3):
            assert is_cohomology_iso(p, n)
        # and the other direction
        d_pt = constant_system(pt, coeff)
        e_big = pullback_along_nat(d_pt, identity_nat(phi))
        m2 = NatSysMorphism(identity_nat(phi), d_pt, e_big,
                            AbNat.identity(e_big.functor))
        q = induced_map_nat(m2, build_complex(d_pt, 3),
                            build_complex(e_big, 3))
        for n in range(3):
            assert is_cohomology_iso(q, n)


def test_fullness_witness_induces_equal_cohomology_maps():
    for seed in range(4):
        gen = InstanceGen(1300 + seed)
        two, d, e = gen.h_instance()
        ordinary, connecting = fullness_witness(two.src)
        cx_src = build_complex(d, 3)
        cx_dst = build_complex(e, 3)
        p1 = induced_map_2(two.src, cx_src, cx_dst)
        p2 = induced_map_nat(ordinary, cx_src, cx_dst)
        homotopy_h(connecting, cx_src, cx_dst)   # boundary identity holds
        for n in range(3):
            m1 = cohomology_map(p1, n)
            m2 = cohomology_map(p2, n)
            assert m1.equal_mod(m2)


# ---------------------------------------------------------------------------
# a corrupted block makes the defining identity fail, naming degree and
# both coordinates

def _with_map_block(cmap, n, key, m):
    """A copy of the chain map ``cmap`` whose degree-n map has block
    ``key`` replaced by ``m``."""
    maps = list(cmap.maps)
    maps[n] = with_block(maps[n], key, m)
    return dataclasses.replace(cmap, maps=tuple(maps))


def _arrow_identity_square():
    d = constant_system(arrow_category(), Z)
    cx = build_complex(d, 3)
    return cx, identity_two_morphism(identity_morphism(d))


def test_corrupted_chain_map_is_caught():
    cx, two = _arrow_identity_square()
    p = induced_map_nat(two.src, cx, cx)
    with pytest.raises(TypeError, match="does not support item assignment"):
        p.maps[1].blocks[(2, 2)] = IntMatrix(1, 1, (2,))
    p = _with_map_block(p, 1, (2, 2), IntMatrix(1, 1, (2,)))   # (f) doubled
    with pytest.raises(HomotopyIdentityError,
                       match=r"dp=pd fails at degree 0: "
                             r"target \(f\), source \(x\)$"):
        p.check_chain()


def test_corrupted_homotopy_is_caught():
    cx, two = _arrow_identity_square()
    h = homotopy_h(two, cx, cx)
    h.maps[2] = with_block(h.maps[2], (2, 2), IntMatrix(1, 1, (0,)))  # was 1
    with pytest.raises(HomotopyIdentityError,
                       match=r"dh\+hd = -p\+q fails at degree 1: "
                             r"target \(f\), source \(id_y\)$"):
        h.check_boundary()


def test_corrupted_degree_minus_two_family_is_caught():
    cx, two = _arrow_identity_square()
    r = homotopy_r_vertical(two, two, cx, cx)
    h = homotopy_h(two, cx, cx)
    r.maps[2] = with_block(r.maps[2], (0, 0), IntMatrix(1, 1, (2,)))  # was 1
    with pytest.raises(HomotopyIdentityError,
                       match=r"dr-rd fails at degree 1: "
                             r"target \(x\), source \(id_x\)$"):
        # vertical composite of two identity squares is the identity square
        r.check_boundary(lambda n: [(-1, h.maps[n], None),
                                    (-1, h.maps[n], None),
                                    (1, h.maps[n], None)], "dr-rd")


# a block key outside the factor counts is refused when a hom is built from
# blocks (oracles.block_hom); each use below went wrong silently or with an
# IndexError when block-built homs were stored as given

def _check_boundary_with_stray(target):
    cx, two = _arrow_identity_square()
    h = homotopy_h(two, cx, cx)
    t = next(i for i in range(len(cx.bases[1]))
             if cx.coordinate_name(1, i) == target)
    # degree 2 has four factors, so source index 4 is one past the last
    h.maps[2] = with_block(h.maps[2], (t, 4), IntMatrix(1, 1, (1,)))
    h.check_boundary()


def _to_matrix_with_stray():
    cx, two = _arrow_identity_square()
    h = homotopy_h(two, cx, cx)
    with_block(h.maps[2], (1, 4), IntMatrix(1, 1, (5,))).to_matrix()


@pytest.mark.parametrize("use", [
    lambda: _check_boundary_with_stray("(f)"),      # no product reaches it
    lambda: _check_boundary_with_stray("(id_y)"),   # its name is looked up
    _to_matrix_with_stray,                          # written one row down
], ids=["check_boundary_silent", "coordinate_name", "to_matrix"])
def test_block_key_outside_factor_counts_is_refused(use):
    with pytest.raises(ShapeMismatch, match=r"block \(\d+, 4\) outside "
                                            r"3 target and 4 source factors"):
        use()


def test_vertical_family_builds_each_boundary_map_once(monkeypatch):
    # F*(alpha,t), F*(alpha',t') and F*(beta,s): three distinct chain maps,
    # each built and checked once for the three degree -1 families
    two_a, two_b, d, e = InstanceGen(1001).vertical_instance()
    cx_src, cx_dst = build_complex(d, 3), build_complex(e, 3)
    calls = {"induced_map_2": 0, "check_chain": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bwcomplex, "induced_map_2",
                        counted("induced_map_2", bwcomplex.induced_map_2))
    monkeypatch.setattr(CochainMap, "check_chain",
                        counted("check_chain", CochainMap.check_chain))
    homotopy_r_vertical(two_a, two_b, cx_src, cx_dst)
    assert calls == {"induced_map_2": 3, "check_chain": 3}


def test_cohomology_map_refuses_image_that_is_not_a_cocycle():
    # doubling the x coordinate sends the cocycle (1, 1) of H^0 to (2, 1),
    # whose coboundary is nonzero on (f)
    cx, two = _arrow_identity_square()
    p = induced_map_nat(two.src, cx, cx)
    p = _with_map_block(p, 0, (0, 0), IntMatrix(1, 1, (2,)))
    with pytest.raises(HomotopyIdentityError,
                       match=r"cocycle condition fails at degree 0: "
                             r"target \(f\)$"):
        cohomology_map(p, 0)


# ---------------------------------------------------------------------------
# the nerve shape, shared by every complex on an equal category

ROOT = Path(__file__).resolve().parent.parent


def _separate_copy(c):
    """A category equal to ``c``, built separately through make_category."""
    copy = make_category(
        c.n_objects, list(zip(c.mor_source, c.mor_target)), list(c.identity),
        {(f, g): h for f, row in enumerate(c.table) for g, h in row.items()},
        c.object_names, c.morphism_names)
    assert copy == c and copy is not c
    return copy


def _shape_of(cx):
    return bwcomplex.nerve_shape(cx.system.base, cx.max_degree,
                                 cx.normalized)


def _snapshot(shape):
    return (shape.bases, [list(i.items()) for i in shape.index],
            shape.actions, [f.tobytes() for f in shape.faces])


def _assert_matches_blockwise_assembly(cx):
    oracle = blockwise_differentials(cx)
    for n, d in enumerate(cx.diffs):
        assert d.to_matrix() == blocks_to_matrix(d.src, d.dst, oracle[n]), n


@pytest.mark.parametrize("normalized", [False, True],
                         ids=["full", "normalized"])
def test_equal_categories_share_one_exact_shape(normalized):
    c1 = total_order_category(3)
    c2 = _separate_copy(c1)
    bwcomplex.nerve_shape.cache_clear()
    build_factorization.cache_clear()
    cx1 = build_complex(constant_system(c1, cyclic(4)), 3,
                        normalized=normalized)
    # a cold factorization cache, so that the second system lives on c2
    build_factorization.cache_clear()
    d2 = constant_system(c2, cyclic(4))
    assert d2.base is c2
    cx2 = build_complex(d2, 3, normalized=normalized)
    info = bwcomplex.nerve_shape.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    shared = _shape_of(cx1)
    assert _shape_of(cx2) is shared
    assert cx2.bases is cx1.bases and cx2.index is cx1.index
    for a, b in zip(cx1.diffs, cx2.diffs):
        assert repr(a.columns) == repr(b.columns)
    _assert_matches_blockwise_assembly(cx2)
    # the same complex, from a shape built afresh on c2
    bwcomplex.nerve_shape.cache_clear()
    cx3 = build_complex(d2, 3, normalized=normalized)
    assert cx3.bases is not shared.bases
    assert _snapshot(_shape_of(cx3)) == _snapshot(shared)
    for a, b in zip(cx1.diffs, cx3.diffs):
        assert repr(a.columns) == repr(b.columns)


def test_export_reads_a_shape_built_on_an_equal_category(tmp_path, capsys):
    # the golden was written before shapes were shared; here export takes
    # the shape that a separately built copy of its category left behind
    workspace = ROOT / "workspaces" / "arrow.bwcoh"
    ws = load_workspace(workspace.read_text(encoding="utf-8"))
    copy = _separate_copy(ws.categories["arrow"])
    bwcomplex.nerve_shape.cache_clear()
    build_factorization.cache_clear()
    build_complex(constant_system(copy, Z), 3)
    target = tmp_path / "complex.txt"
    assert main(["export", str(workspace), str(target), "--what", "complex",
                 "--category", "arrow", "--system", "const_z4",
                 "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    info = bwcomplex.nerve_shape.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    golden = ROOT / "tests" / "golden" / "arrow_const_z4_d3.txt"
    assert target.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_maps_and_homotopies_leave_shared_shapes_unchanged(seed):
    gen = InstanceGen(f"shared-shape-{seed}")
    two_a, two_b, d, e = gen.vertical_instance()
    h_a, h_b, hd, he, hg = gen.horizontal_instance()
    systems = [d, e, hd, he, hg]
    # a second system on each category, so every shape below is shared
    systems += [constant_system(s.base, cyclic(2)) for s in systems]
    cxs = [build_complex(s, 3) for s in systems]
    shapes = {id(_shape_of(cx)): _shape_of(cx) for cx in cxs}
    before = {k: _snapshot(s) for k, s in shapes.items()}
    for cx in cxs:
        _assert_matches_blockwise_assembly(cx)
    cx_d, cx_e, cx_hd, cx_he, cx_hg = cxs[:5]
    homotopy_r_vertical(two_a, two_b, cx_d, cx_e)
    homotopy_r_horizontal(h_a, h_b, cx_hd, cx_he, cx_hg)
    for cmap in (induced_map_2(two_a.src, cx_d, cx_e),
                 induced_map_2(h_a.src, cx_hd, cx_he)):
        for n in range(cmap.max_degree):
            cohomology_map(cmap, n)
    for k, s in shapes.items():
        assert _snapshot(s) == before[k]
    for cx in cxs:
        assert cx.bases is _shape_of(cx).bases
        assert cx.index is _shape_of(cx).index
