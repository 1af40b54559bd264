from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh.fincat import (
    Functor, NaturalTransformation, arrow_category, cyclic_group_category,
    discrete_category, enumerate_sequences, horizontal_compose,
    identity_functor, identity_nat, indiscrete_category, make_category,
    monoid_category, product, pseudo_circle_category,
    terminal_category, total_order_category, validate_category,
    vertical_compose,
)
from bwcoh.randgen import InstanceGen
from oracles import chain_count, opposite


def test_validate_standard_categories():
    for c in (terminal_category(), arrow_category(), discrete_category(3),
              cyclic_group_category(2), cyclic_group_category(3),
              indiscrete_category(2), pseudo_circle_category(),
              total_order_category(4), discrete_category(0)):
        assert validate_category(c).ok


def test_compose_identity_law():
    c = arrow_category()   # morphisms id_x=0, id_y=1, f=2
    assert c.table[0][2] == 2         # f ∘ id_x = f
    assert c.table[2][1] == 2         # id_y ∘ f = f
    assert 2 not in c.table[1]        # f after id_y does not compose
    assert c.table[1] == {1: 1}       # the row of id_y: composable pairs only


def test_z2_monoid_table():
    c = cyclic_group_category(2)
    assert c.table[1][1] == 0         # g∘g = 1
    assert validate_category(c).ok


def test_validation_catches_planted_violations():
    c = arrow_category()
    # break an identity law
    broken = make_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1],
                           {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 0})
    rep = validate_category(broken)
    assert not rep.ok
    # break closure: composite with wrong endpoints
    broken2 = make_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1],
                            {(0, 0): 0, (1, 1): 1, (0, 2): 0, (2, 1): 2})
    assert not validate_category(broken2).ok
    # missing table entry
    broken3 = make_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1],
                            {(0, 0): 0, (1, 1): 1, (0, 2): 2})
    assert not validate_category(broken3).ok
    # associativity break needs >= 2 composable non-identity loops
    op = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]        # Z/3
    good = monoid_category(op, 0)
    assert validate_category(good).ok
    bad_op = [[0, 1, 2], [1, 2, 0], [2, 1, 1]]
    bad = monoid_category(bad_op, 0)
    assert not validate_category(bad).ok


def test_non_composable_pairs_are_reported():
    # id_y then f does not compose; neither does a pair naming no morphism
    for extra, g in (((1, 2), 2), ((1, 7), 7)):
        broken = make_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1],
                               {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2,
                                extra: 2})
        assert validate_category(broken).violations == [
            f"composite defined for non-composable (1,{g})"]


def test_rows_ascend_and_equal_categories_share_memo_entries():
    c = total_order_category(4)
    pairs = [((f, g), h) for f, row in enumerate(c.table)
             for g, h in row.items()]
    copy = make_category(c.n_objects, list(zip(c.mor_source, c.mor_target)),
                         list(c.identity), dict(reversed(pairs)))
    assert all(list(row) == sorted(row) for row in copy.table)
    assert all(c.mor_target[f] == c.mor_source[g]
               for f, row in enumerate(copy.table) for g in row)
    assert copy == c and copy is not c and hash(copy) == hash(c)
    assert product(copy, copy) is product(c, c)


def test_functor_validator_catches_mutations():
    c = cyclic_group_category(2)
    f = identity_functor(c)
    assert f.validate().ok
    # identity not preserved
    assert not Functor(c, c, (0,), (1, 0)).validate().ok
    # composition not preserved (send g to identity but identity to g)
    assert not Functor(c, c, (0,), (1, 1)).validate().ok
    # endpoint mismatch
    a = arrow_category()
    g = Functor(a, a, (0, 1), (0, 1, 0))
    assert not g.validate().ok


def test_nat_validator_catches_mutations():
    c = arrow_category()
    one = identity_functor(c)
    good = identity_nat(one)
    assert good.validate().ok
    # wrong endpoints for a component
    assert not NaturalTransformation(one, one, (2, 1)).validate().ok
    # naturality break: on Z/3 with the identity and the inversion functor
    z3 = cyclic_group_category(3)
    inv = Functor(z3, z3, (0,), (0, 2, 1))
    assert inv.validate().ok
    for comp in range(3):
        nt = NaturalTransformation(identity_functor(z3), inv, (comp,))
        assert not nt.validate().ok   # x + c != c + 2x for x = 1


def test_nat_validator_reports_a_missing_composite():
    # the monoid {e, a} with a∘a left out of its table: the naturality
    # square of the component a at the morphism a looks a∘a up on both
    # sides, and two missing composites are no commuting square
    c = make_category(1, [(0, 0), (0, 0)], [0],
                      {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    one = identity_functor(c)
    assert NaturalTransformation(one, one, (0,)).validate().ok
    assert NaturalTransformation(one, one, (1,)).validate().violations == [
        "naturality square at morphism 1 has no composite"]


def test_horizontal_both_formulas_and_interchange():
    for seed in range(12):
        gen = InstanceGen(seed)
        dom = gen.chain_domain()
        inner = gen.nat_chain(dom, 3)
        a1, a2 = inner.nats
        # unit law for vertical composition; identities compose to identities
        ident = identity_nat(a1.source_functor)
        assert vertical_compose(a1, ident) == a1
        assert vertical_compose(ident, ident) == ident
        # interchange on stacked squares
        chain4 = gen.nat_chain(dom, 3)
        outer_chain = gen.nat_chain(chain4.target, 3)
        c1, c2 = outer_chain.nats
        lhs = horizontal_compose(vertical_compose(c2, c1),
                                 vertical_compose(chain4.nats[1],
                                                  chain4.nats[0]))
        rhs = vertical_compose(horizontal_compose(c2, chain4.nats[1]),
                               horizontal_compose(c1, chain4.nats[0]))
        assert lhs == rhs


def test_enumerate_sequences_examples():
    t = terminal_category()
    for n in range(5):
        assert len(enumerate_sequences(t, n)) == 1
    z2 = cyclic_group_category(2)
    for n in range(1, 5):
        assert len(enumerate_sequences(z2, n)) == 2 ** n
    # arrow category: the composable pairs are (id_x,id_x), (id_y,id_y),
    # (id_y,f), (f,id_x) - four of them, matching the counting oracle
    a = arrow_category()
    seqs = enumerate_sequences(a, 2)
    assert len(seqs) == 4 == chain_count(a, 2)
    assert [s.mors for s in seqs] == [(0, 0), (1, 1), (1, 2), (2, 0)]
    # nondegenerate: the objects, then (f), then nothing composable
    assert enumerate_sequences(a, 0, nondegenerate=True) == \
        enumerate_sequences(a, 0)
    assert [s.mors for s in enumerate_sequences(a, 1, nondegenerate=True)] \
        == [(2,)]
    assert enumerate_sequences(a, 2, nondegenerate=True) == ()
    z3 = cyclic_group_category(3)
    for n in range(1, 5):
        assert len(enumerate_sequences(z3, n, nondegenerate=True)) == 2 ** n


def test_sequence_structure():
    a = arrow_category()
    (s,) = [s for s in enumerate_sequences(a, 2) if s.mors == (1, 2)]
    # (id_y, f): composite is f, objects are (y, y, x)
    assert s.composite == 2
    assert s.objects == (1, 1, 0)
    zero = enumerate_sequences(a, 0)
    assert [s.objects for s in zero] == [(0,), (1,)]
    assert [s.composite for s in zero] == [0, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4))
def test_sequence_count_oracle(seed, n):
    c = InstanceGen(seed).category(6)
    seqs = enumerate_sequences(c, n)
    assert len(seqs) == chain_count(c, n)
    # nondegenerate enumeration builds exactly the identity-free sequences
    assert enumerate_sequences(c, n, nondegenerate=True) == tuple(
        s for s in seqs if not any(c.is_identity(m) for m in s.mors))


def test_opposite_and_product():
    for c in (terminal_category(), arrow_category(), cyclic_group_category(3),
              pseudo_circle_category()):
        oc = opposite(c)
        assert validate_category(oc).ok
        assert oc.n_morphisms == c.n_morphisms
        assert opposite(oc).table == c.table
    t = terminal_category()
    c = arrow_category()
    p = product(t, c)
    assert validate_category(p.category).ok
    assert p.category.mor_source == c.mor_source
    assert p.category.table == c.table
    p2 = product(c, cyclic_group_category(2))
    assert validate_category(p2.category).ok
    assert p2.category.n_morphisms == 6


def test_empty_category_everywhere():
    e = discrete_category(0)
    assert enumerate_sequences(e, 0) == ()
    assert enumerate_sequences(e, 3) == ()
    assert validate_category(opposite(e)).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_categories_validate(seed):
    gen = InstanceGen(seed)
    assert validate_category(gen.category(6)).ok
    assert validate_category(gen.random_poset(5)).ok
