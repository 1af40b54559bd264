import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import bwcoh.bwcomplex as bwcomplex
import bwcoh.localization as localization_module
from bwcoh.cli import main
from bwcoh.abgroup import GroupHom, GroupInvariants, Z, cyclic, trivial_group
from bwcoh.factorization import FPair, build_factorization
from bwcoh.fincat import (
    Functor, NaturalTransformation, arrow_category, compose_functors,
    cyclic_group_category, discrete_category, identity_functor, identity_nat,
    terminal_category,
)
from bwcoh.intmat import IntMatrix
from bwcoh.localization import (
    Colocalization, Localization, NotLocal, colocal_characterization,
    inverted_morphisms, local_characterization, validate_adjoint_pair,
    verify_transport_theorem,
)
from bwcoh.natsys import (
    AbFunctor, NaturalSystem, TwoMorphismInvalid, constant_system,
    pullback_along_nat, validate_natural_system,
)
from bwcoh.randgen import InstanceGen
from oracles import (
    colocal_system, colocalization, local_system, localization, opposite,
)

ARROW = str(Path(__file__).resolve().parent.parent / "workspaces"
            / "arrow.bwcoh")


def arrow_localization():
    c = arrow_category()
    pt = terminal_category()
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (1,), (1,))
    unit = NaturalTransformation(identity_functor(c),
                                 compose_functors(psi, phi), (2, 1))
    return Localization(c, pt, phi, psi, unit)


def arrow_colocalization():
    c = arrow_category()
    pt = terminal_category()
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (0,), (0,))
    counit = NaturalTransformation(compose_functors(psi, phi),
                                   identity_functor(c), (0, 2))
    return Colocalization(c, pt, phi, psi, counit)


def test_validate_arrow_examples():
    assert validate_adjoint_pair(arrow_localization()).ok
    assert validate_adjoint_pair(arrow_colocalization()).ok


def test_identity_adjunction_both_ways():
    c = cyclic_group_category(3)
    one = identity_functor(c)
    loc = Localization(c, c, one, one, identity_nat(one))
    coloc = Colocalization(c, c, one, one, identity_nat(one))
    assert validate_adjoint_pair(loc).ok
    assert validate_adjoint_pair(coloc).ok


def test_validation_catches_broken_triangles():
    c = arrow_category()
    pt = terminal_category()
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (0,), (0,))   # includes x, but unit points at y
    unit = NaturalTransformation(identity_functor(c),
                                 compose_functors(psi, phi), (0, 0))
    bad = Localization(c, pt, phi, psi, unit)
    rep = validate_adjoint_pair(bad)
    assert not rep.ok


def test_inverted_morphisms():
    loc = arrow_localization()
    assert inverted_morphisms(loc) == (0, 1, 2)
    c = cyclic_group_category(3)
    one = identity_functor(c)
    ident = Localization(c, c, one, one, identity_nat(one))
    assert inverted_morphisms(ident) == (0, 1, 2)   # a group: all invertible
    d2 = discrete_category(2)
    one2 = identity_functor(d2)
    ident2 = Localization(d2, d2, one2, one2, identity_nat(one2))
    assert inverted_morphisms(ident2) == (0, 1)


def test_unit_is_idempotent_on_components():
    for seed in range(12):
        gen = InstanceGen(seed)
        loc = localization(gen)
        assert validate_adjoint_pair(loc).ok
        c = loc.big
        xi = compose_functors(loc.psi, loc.phi)
        for x in range(c.n_objects):
            # alpha_{xi X} is an identity and xi(alpha_X) is an identity,
            # so alpha * alpha has the components of alpha
            assert loc.unit.components[xi.obj_map[x]] == \
                c.identity[xi.obj_map[x]]
            assert xi.mor_map[loc.unit.components[x]] == \
                c.identity[xi.obj_map[x]]


def cohomology(d, max_degree):
    """H^0..H^(max_degree-1) of d, from the normalized complex, which the
    transport check does not build."""
    cx = bwcomplex.build_complex(d, max_degree, normalized=True)
    return tuple(cx.cohomology(n) for n in range(max_degree))


def zzero_system(c):
    fc = build_factorization(c)
    values = (Z, Z, trivial_group)
    homs = tuple(
        GroupHom.create(values[p.src], values[p.dst],
                        IntMatrix(values[p.dst].generators,
                                  values[p.src].generators,
                                  (1,) * (values[p.dst].generators *
                                          values[p.src].generators)))
        for p in fc.pairs)
    return NaturalSystem(fc, AbFunctor(fc.category, values, homs))


def test_local_characterization_routes_agree():
    loc = arrow_localization()
    c = loc.big
    ch = local_characterization(constant_system(c, Z), loc)
    assert ch.pointwise_local and ch.canonical_map_iso
    ch0 = local_characterization(zzero_system(c), loc)
    assert not ch0.pointwise_local and not ch0.canonical_map_iso
    assert ch0.witness == "action (1,f) is not invertible"
    co0 = colocal_characterization(zzero_system(c), arrow_colocalization())
    assert not co0.pointwise_local and not co0.canonical_map_iso
    assert co0.witness == "action (f,1) is not invertible"
    gen = InstanceGen(5)
    for _ in range(5):
        e0 = gen.system(c)
        pulled = pullback_along_nat(e0, loc.unit)
        ch2 = local_characterization(pulled, loc)
        assert ch2.pointwise_local and ch2.canonical_map_iso


def test_arrow_localization_theorem_constant_z():
    loc = arrow_localization()
    rep = verify_transport_theorem(constant_system(loc.big, Z), loc, 3)
    assert rep.invariants == (GroupInvariants(1, ()), GroupInvariants(0, ()),
                              GroupInvariants(0, ()))
    assert rep.homotopy_note.endswith("from the unit square")


def test_arrow_colocalization_theorem_constant_z():
    coloc = arrow_colocalization()
    rep = verify_transport_theorem(constant_system(coloc.big, Z), coloc, 3)
    assert rep.invariants == (GroupInvariants(1, ()), GroupInvariants(0, ()),
                              GroupInvariants(0, ()))
    assert rep.homotopy_note.endswith("from the counit square")


def test_arrow_localization_nonconstant_local_system():
    # D(id_x) = D(f) = Z/4, D(id_y) = Z/4, with unit transports
    c = arrow_category()
    fc = build_factorization(c)
    values = (cyclic(4),) * 3
    mats = {
        FPair(0, 0, 0, 0): 1, FPair(0, 2, 0, 2): 3,
        FPair(1, 1, 1, 1): 1, FPair(1, 2, 2, 1): 1,
        FPair(2, 2, 0, 1): 1,
    }
    homs = tuple(GroupHom.create(cyclic(4), cyclic(4),
                                 IntMatrix(1, 1, (mats[p],)))
                 for p in fc.pairs)
    d = NaturalSystem(fc, AbFunctor(fc.category, values, homs))
    assert validate_natural_system(d).ok
    loc = arrow_localization()
    assert local_characterization(d, loc).pointwise_local
    rep = verify_transport_theorem(d, loc, 3)
    assert rep.invariants == (GroupInvariants(0, (4,)),
                              GroupInvariants(0, ()), GroupInvariants(0, ()))


def test_arrow_colocalization_nonconstant_colocal_system():
    # dual of the nonconstant example: unit transports on the target side
    c = arrow_category()
    fc = build_factorization(c)
    values = (cyclic(4),) * 3
    mats = {
        FPair(0, 0, 0, 0): 1, FPair(0, 2, 0, 2): 1,
        FPair(1, 1, 1, 1): 1, FPair(1, 2, 2, 1): 3,
        FPair(2, 2, 0, 1): 1,
    }
    homs = tuple(GroupHom.create(cyclic(4), cyclic(4),
                                 IntMatrix(1, 1, (mats[p],)))
                 for p in fc.pairs)
    d = NaturalSystem(fc, AbFunctor(fc.category, values, homs))
    assert validate_natural_system(d).ok
    coloc = arrow_colocalization()
    assert colocal_characterization(d, coloc).pointwise_local
    rep = verify_transport_theorem(d, coloc, 3)
    assert rep.invariants == (GroupInvariants(0, (4,)),
                              GroupInvariants(0, ()), GroupInvariants(0, ()))


def test_not_local_is_distinct_error():
    loc = arrow_localization()
    with pytest.raises(NotLocal):
        verify_transport_theorem(zzero_system(loc.big), loc, 2)


def test_identity_localization_any_system():
    gen = InstanceGen(77)
    c = gen.category(5)
    one = identity_functor(c)
    loc = Localization(c, c, one, one, identity_nat(one))
    d = gen.system(c)
    assert verify_transport_theorem(d, loc, 2).invariants == cohomology(d, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_localization_theorem(seed):
    gen = InstanceGen(seed)
    loc = localization(gen)
    d = local_system(gen, loc)
    assert verify_transport_theorem(d, loc, 2).invariants == cohomology(d, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_colocalization_theorem(seed):
    gen = InstanceGen(seed)
    coloc = colocalization(gen)
    d = colocal_system(gen, coloc)
    assert verify_transport_theorem(d, coloc, 2).invariants == cohomology(d, 2)


def mirror_system(d: NaturalSystem, c_op) -> NaturalSystem:
    """The same system read on the opposite category, using the canonical
    identification of the two factorization categories by swapping legs."""
    fc_op = build_factorization(c_op)
    values = d.functor.values
    homs = tuple(
        d.act_pair(p.src, p.dst, p.k, p.h) for p in fc_op.pairs)
    return NaturalSystem(fc_op, AbFunctor(fc_op.category, values, homs))


def test_colocal_mirrors_to_local():
    for seed in range(8):
        gen = InstanceGen(4000 + seed)
        coloc = colocalization(gen)
        d = gen.system(coloc.big)
        c_op = opposite(coloc.big)
        small_op = opposite(coloc.small)
        phi_op = Functor(c_op, small_op, coloc.phi.obj_map, coloc.phi.mor_map)
        psi_op = Functor(small_op, c_op, coloc.psi.obj_map, coloc.psi.mor_map)
        unit_op = NaturalTransformation(
            identity_functor(c_op), compose_functors(psi_op, phi_op),
            coloc.counit.components)
        mirror_loc = Localization(c_op, small_op, phi_op, psi_op, unit_op)
        assert validate_adjoint_pair(mirror_loc).ok
        md = mirror_system(d, c_op)
        assert validate_natural_system(md).ok
        assert colocal_characterization(d, coloc).pointwise_local == \
            local_characterization(md, mirror_loc).pointwise_local


def sign_conjugated(d: NaturalSystem, signs: list[int]) -> NaturalSystem:
    """``d`` transported along the natural isomorphism that multiplies the
    value at each morphism f by ``signs[f]`` (±1): the same groups, with
    every action multiplied by the signs at its two ends."""
    homs = tuple(
        GroupHom(h.source, h.target, h.matrix.scale(signs[p.src] * signs[p.dst]))
        for p, h in zip(d.fc.pairs, d.functor.homs))
    return NaturalSystem(d.fc, AbFunctor(d.fc.category, d.functor.values,
                                         homs))


def counted(monkeypatch, name, *modules):
    """Count the calls of ``name`` made through each of ``modules``."""
    calls = []
    real = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


# seeds whose conjugated system differs from its pull-back D∘F(alpha)
DIFFERING = {"localization": (0, 1, 3), "colocalization": (1, 2, 3, 5, 7)}


@pytest.mark.parametrize("kind", sorted(DIFFERING))
@pytest.mark.parametrize("seed", range(8))
def test_one_complex_per_distinct_system(monkeypatch, kind, seed):
    # a pulled-back system is its own pull-back D∘F(alpha), and one complex
    # serves both; conjugating it by signs keeps it (co)local, and then the
    # two systems differ whenever an action's signs change along alpha
    gen = InstanceGen(f"conjugated-{seed}")
    if kind == "localization":
        loc = gen._chain_closure(3)
        alpha, char = loc.unit, local_characterization
    else:
        loc = gen._chain_interior(3)
        alpha, char = loc.counit, colocal_characterization
    d = sign_conjugated(pullback_along_nat(gen.system(loc.big), alpha),
                        [gen.rng.choice([1, -1])
                         for _ in range(loc.big.n_morphisms)])
    assert validate_natural_system(d).ok
    shared = char(d, loc).canonical_map.target_system == d
    assert shared == (seed not in DIFFERING[kind])
    builds = counted(monkeypatch, "build_complex", localization_module)
    rep = verify_transport_theorem(d, loc, 3)
    assert len(builds) == (2 if shared else 3)
    assert rep.invariants == cohomology(d, 3)


def test_homotopy_route_builds_each_chain_map_once(monkeypatch):
    # F*(alpha, 1) ends both two-morphisms of certificate (c); with the
    # composite and the identity that makes three induced_map_2 calls
    calls = counted(monkeypatch, "induced_map_2", bwcomplex,
                    localization_module)
    loc = arrow_localization()
    verify_transport_theorem(constant_system(loc.big, Z), loc, 3)
    assert len(calls) == 3


@pytest.mark.parametrize("conjugate, calls_per_degree", [
    (False, 2), (True, 4)], ids=["identity-nu", "conjugated"])
def test_certificate_b_skips_the_identity_conjugation(monkeypatch, conjugate,
                                                      calls_per_degree):
    # with nu the identity, N^-1 is the identity and the round trips are the
    # composites certified first: per degree, Q'∘P' and P on cohomology; a
    # sign-conjugated system (D' != D) adds the two round trips through N^-1
    gen = InstanceGen("conjugated-0")
    loc = gen._chain_closure(3)
    d = pullback_along_nat(gen.system(loc.big), loc.unit)
    if conjugate:
        d = sign_conjugated(d, [gen.rng.choice([1, -1])
                                for _ in range(loc.big.n_morphisms)])
    nu = local_characterization(d, loc).canonical_map
    assert (nu.target_system != d) == conjugate
    assert all(t == GroupHom.identity(t.source)
               for t in nu.nat.components) != conjugate
    # P on cohomology runs through bwcomplex.is_cohomology_iso
    calls = counted(monkeypatch, "cohomology_map", bwcomplex,
                    localization_module)
    rep = verify_transport_theorem(d, loc, 3)
    assert len(calls) == 3 * calls_per_degree
    assert rep.invariants == cohomology(d, 3)


def corrupt_one_entry(real):
    """``real`` with one entry of its homotopy's degree-1 map moved by 1,
    after the homotopy's own boundary check."""
    def corrupted(*args):
        h = real(*args)
        m = h.maps[1]
        cols = {c: dict(col) for c, col in m.columns.items()}
        col = cols.setdefault(0, {})
        col[0] = col.get(0, 0) + 1
        if not col[0]:
            del col[0]
        h.maps[1] = bwcomplex.BlockHom(m.src, m.dst, cols)
        return h
    return corrupted


def refuse(*args):
    raise TwoMorphismInvalid("two-morphism: coherence fails")


def negate_small_to_big(real):
    """``real`` with the one chain map from the point to the arrow, Q',
    negated.  -Q' is still a chain map, but P'∘(-Q') is not the identity
    (certificate (b)) and F* of the composed pair morphism is not
    (-Q')∘P' (certificate (c))."""
    def negated(m, cx_src, cx_dst):
        cmap = real(m, cx_src, cx_dst)
        if m.source_system.base.n_objects >= m.target_system.base.n_objects:
            return cmap
        return bwcomplex.CochainMap(cmap.source, cmap.target, tuple(
            bwcomplex.BlockHom.signed_sum([(-1, b, None)])
            for b in cmap.maps), cmap.label)
    return negated


@pytest.mark.parametrize("name, replacement, message", [
    ("_homotopy_h", corrupt_one_entry(localization_module._homotopy_h),
     "certificate-failure: dh+hd = -p+q fails at degree "),
    ("homotopy_h", refuse,
     "certificate-failure: two-morphism: coherence fails\n"),
    ("homotopy_h", corrupt_one_entry(localization_module.homotopy_h),
     "certificate-failure: dh+hd = -p+q fails at degree "),
    ("induced_map_nat", negate_small_to_big(localization_module.induced_map_nat),
     "certificate-failure: F* does not take the composed pair morphism to "
     "Q'∘P'\n"),
], ids=["chain-identity", "two-morphism", "chain-identity-h_a",
        "c-before-b"])
def test_certificate_c_failure_exits_1(monkeypatch, capsys, name,
                                       replacement, message):
    # a chain identity or a coherence that fails inside certificate (c) is
    # reported as a certificate failure, not raised out of the CLI.  Each
    # family is corrupted after its own boundary check (h_b through
    # _homotopy_h, h_a through homotopy_h), so only the identity of their
    # difference catches it; and (c) runs first, so an input that fails
    # both (b) and (c), -Q' in place of Q', reports (c)
    monkeypatch.setattr(localization_module, name, replacement)
    code = main(["localization-check", ARROW, "loc_y", "const_z4",
                 "--max-degree", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("\n") == 1 and out.startswith(message)


def test_transport_peak_memory():
    # certificate (c) runs before any reduction and keeps neither the
    # difference family h_a - h_b nor an identity chain map: the traced peak
    # of a warm call fell from 5.47 MB, with (c) run last on both, to
    # 3.66 MB (CPython 3.11); the bound is halfway between
    gen = InstanceGen("golden-closure3")
    loc = gen._product_localization(gen._chain_closure(3),
                                    cyclic_group_category(3))
    d = constant_system(loc.big, Z)
    verify_transport_theorem(d, loc, 4)   # fills the memoized nerve shapes
    tracemalloc.start()
    try:
        verify_transport_theorem(d, loc, 4)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 4.57
