import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh.abgroup import GroupHom, GroupInvariants, Z, cyclic, trivial_group
from bwcoh.factorization import FPair, build_factorization
from bwcoh.fincat import (
    Functor, NaturalTransformation, arrow_category, compose_functors,
    cyclic_group_category, discrete_category, identity_functor, identity_nat,
    opposite, terminal_category,
)
from bwcoh.intmat import IntMatrix
from bwcoh.localization import (
    Colocalization, Localization, NotLocal, colocal_characterization,
    inverted_morphisms, local_characterization, validate_colocalization,
    validate_localization, verify_colocalization_theorem,
    verify_localization_theorem,
)
from bwcoh.natsys import (
    AbFunctor, NaturalSystem, constant_system, pullback_along_nat,
    validate_natural_system,
)
from bwcoh.randgen import InstanceGen
from oracles import colocal_system, colocalization, local_system, localization


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
    assert validate_localization(arrow_localization()).ok
    assert validate_colocalization(arrow_colocalization()).ok


def test_identity_adjunction_both_ways():
    c = cyclic_group_category(3)
    one = identity_functor(c)
    loc = Localization(c, c, one, one, identity_nat(one))
    coloc = Colocalization(c, c, one, one, identity_nat(one))
    assert validate_localization(loc).ok
    assert validate_colocalization(coloc).ok


def test_validation_catches_broken_triangles():
    c = arrow_category()
    pt = terminal_category()
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (0,), (0,))   # includes x, but unit points at y
    unit = NaturalTransformation(identity_functor(c),
                                 compose_functors(psi, phi), (0, 0))
    bad = Localization(c, pt, phi, psi, unit)
    rep = validate_localization(bad)
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
        assert validate_localization(loc).ok
        c = loc.big
        xi = compose_functors(loc.psi, loc.phi)
        for x in range(c.n_objects):
            # alpha_{xi X} is an identity and xi(alpha_X) is an identity,
            # so alpha * alpha has the components of alpha
            assert loc.unit.components[xi.obj_map[x]] == \
                c.identity[xi.obj_map[x]]
            assert xi.mor_map[loc.unit.components[x]] == \
                c.identity[xi.obj_map[x]]


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
    rep = verify_localization_theorem(constant_system(loc.big, Z), loc, 3)
    assert rep.ok
    assert [v.big_side for v in rep.degrees] == \
        [GroupInvariants(1, ()), GroupInvariants(0, ()), GroupInvariants(0, ())]
    assert rep.composite_on_small_is_identity
    assert rep.homotopy_certificate


def test_arrow_colocalization_theorem_constant_z():
    coloc = arrow_colocalization()
    rep = verify_colocalization_theorem(constant_system(coloc.big, Z),
                                        coloc, 3)
    assert rep.ok
    assert [v.big_side for v in rep.degrees] == \
        [GroupInvariants(1, ()), GroupInvariants(0, ()), GroupInvariants(0, ())]


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
    rep = verify_localization_theorem(d, loc, 3)
    assert rep.ok
    assert rep.degrees[0].big_side == GroupInvariants(0, (4,))


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
    rep = verify_colocalization_theorem(d, coloc, 3)
    assert rep.ok
    assert rep.degrees[0].big_side == GroupInvariants(0, (4,))


def test_not_local_is_distinct_error():
    loc = arrow_localization()
    with pytest.raises(NotLocal):
        verify_localization_theorem(zzero_system(loc.big), loc, 2)


def test_identity_localization_any_system():
    gen = InstanceGen(77)
    c = gen.category(5)
    one = identity_functor(c)
    loc = Localization(c, c, one, one, identity_nat(one))
    d = gen.system(c)
    rep = verify_localization_theorem(d, loc, 2)
    assert rep.ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_localization_theorem(seed):
    gen = InstanceGen(seed)
    loc = localization(gen)
    d = local_system(gen, loc)
    rep = verify_localization_theorem(d, loc, 2)
    assert rep.ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_colocalization_theorem(seed):
    gen = InstanceGen(seed)
    coloc = colocalization(gen)
    d = colocal_system(gen, coloc)
    rep = verify_colocalization_theorem(d, coloc, 2)
    assert rep.ok


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
        assert validate_localization(mirror_loc).ok
        md = mirror_system(d, c_op)
        assert validate_natural_system(md).ok
        assert colocal_characterization(d, coloc).pointwise_local == \
            local_characterization(md, mirror_loc).pointwise_local
