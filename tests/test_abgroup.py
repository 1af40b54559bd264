import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh.abgroup import (
    CompositionNotZero, GroupHom, GroupInvariants, IllDefinedHom,
    PresentedGroup, Z, cyclic, direct_product, from_invariants, hom_compose,
    hom_inverse, is_iso, subquotient, trivial_group,
)
from bwcoh.intmat import IntMatrix, smith_normal_form
from oracles import subquotient_by_enumeration


def mat(rows):
    return IntMatrix.from_rows(rows)


def test_invariants_examples():
    assert PresentedGroup(1, mat([[2]])).invariants == \
        GroupInvariants(0, (2,))
    assert PresentedGroup(2, IntMatrix(2, 0, ())).invariants == \
        GroupInvariants(2, ())
    assert PresentedGroup(2, mat([[2, 0], [0, 0]])).invariants == \
        GroupInvariants(1, (2,))


def test_invariants_drop_trivial_and_chain():
    g = PresentedGroup(3, mat([[1, 0], [0, 2], [0, 0]]))
    inv = g.invariants
    assert inv == GroupInvariants(1, (2,))
    g2 = from_invariants(0, (2, 4))
    assert g2.invariants.torsion == (2, 4)


def test_human_format():
    assert from_invariants(1, (2,)).invariants.human() == "Z ⊕ Z/2"
    assert trivial_group.invariants.human() == "0"
    assert from_invariants(2).invariants.human() == "Z^2"
    assert from_invariants(0, (2, 4)).invariants.human() == "Z/2 ⊕ Z/4"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_invariants_unimodular_invariance(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 4)
    r = rng.randint(0, 4)
    rels = mat([[rng.randint(-5, 5) for _ in range(r)] for _ in range(g)]) \
        if g and r else IntMatrix.zeros(g, r)
    base = PresentedGroup(g, rels)
    # a random unimodular change of generators: product of elementary matrices
    u = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
    for _ in range(6):
        i, j = rng.randrange(g), rng.randrange(g)
        if i != j:
            q = rng.randint(-2, 2)
            for t in range(g):
                u[i][t] += q * u[j][t]
    umat = mat(u)
    changed = PresentedGroup(g, umat @ rels)
    assert changed.invariants == base.invariants


def test_subquotient_examples():
    # 0 -> Z --x2--> Z : cohomology at the right is Z/2
    d_in = GroupHom.create(Z, Z, mat([[2]]))
    d_out = GroupHom.zero(Z, trivial_group)
    assert subquotient(d_in, d_out).group.invariants == \
        GroupInvariants(0, (2,))
    # Z --id--> Z --0--> 0 : middle cohomology vanishes
    ident = GroupHom.identity(Z)
    assert subquotient(ident, d_out).group.invariants == \
        GroupInvariants(0, ())
    # 0 -> Z -> 0 with zero maps: middle is Z
    zin = GroupHom.zero(trivial_group, Z)
    assert subquotient(zin, d_out).group.invariants == \
        GroupInvariants(1, ())


def test_subquotient_rejects_nonzero_composite():
    ident = GroupHom.identity(Z)
    with pytest.raises(CompositionNotZero):
        subquotient(ident, ident)


def test_is_iso_examples():
    assert is_iso(GroupHom.identity(cyclic(4)))
    assert not is_iso(GroupHom.create(Z, Z, mat([[2]])))
    assert direct_product([cyclic(2), Z]).invariants == \
        GroupInvariants(1, (2,))
    # multiplication by 3 is invertible on Z/4
    assert is_iso(GroupHom.create(cyclic(4), cyclic(4), mat([[3]])))
    # the projection Z -> Z/2 is epi but not mono
    assert not is_iso(GroupHom.create(Z, cyclic(2), mat([[1]])))


def test_hom_inverse_roundtrip():
    h = GroupHom.create(cyclic(8), cyclic(8), mat([[3]]))
    inv = hom_inverse(h)
    assert hom_compose(inv, h).equal_mod(GroupHom.identity(cyclic(8)))
    assert hom_compose(h, inv).equal_mod(GroupHom.identity(cyclic(8)))
    with pytest.raises(IllDefinedHom):
        hom_inverse(GroupHom.create(Z, Z, mat([[2]])))


def test_hom_algebra_and_witnesses():
    a = GroupHom.create(cyclic(4), cyclic(2), mat([[1]]))
    b = GroupHom.create(cyclic(2), cyclic(2), mat([[1]]))
    comp = hom_compose(b, a)
    assert comp.matrix == mat([[1]])
    assert comp.target.solver.contains_matrix(
        comp.matrix @ comp.source.relations)
    s = GroupHom(a.source, a.target, a.matrix + -a.matrix)
    assert s.is_zero_mod()


def test_create_rejects_ill_defined():
    with pytest.raises(IllDefinedHom):
        GroupHom.create(cyclic(2), Z, mat([[1]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_subquotient_against_enumeration(seed):
    rng = random.Random(seed)
    # random two-step complex of finite groups of order <= 64
    def finite_group():
        torsion = tuple(rng.choice([2, 2, 3, 4])
                        for _ in range(rng.randint(1, 3)))
        g = from_invariants(0, torsion)
        # every group here is finite: its order is its torsion's product
        if math.prod(g.invariants.torsion) > 64:
            return from_invariants(0, (2, 2))
        return g

    a, b, c = finite_group(), finite_group(), finite_group()

    def random_hom(src, dst):
        for _ in range(30):
            m = mat([[rng.randint(-3, 3) for _ in range(src.generators)]
                     for _ in range(dst.generators)])
            try:
                return GroupHom.create(src, dst, m)
            except IllDefinedHom:
                continue
        return GroupHom.zero(src, dst)

    d_in = random_hom(a, b)
    for _ in range(30):
        d_out = random_hom(b, c)
        if hom_compose(d_out, d_in).is_zero_mod():
            break
    else:
        d_out = GroupHom.zero(b, c)
    expected = subquotient_by_enumeration(d_in, d_out)
    assert expected is not None
    assert subquotient(d_in, d_out).group.invariants == expected


def test_purity_same_inputs_same_outputs():
    m = mat([[2, 4], [6, 8]])
    assert smith_normal_form(m) == smith_normal_form(m)
    g = PresentedGroup(2, mat([[2, 0], [0, 3]]))
    assert g.invariants == PresentedGroup(2, mat([[2, 0], [0, 3]])).invariants
