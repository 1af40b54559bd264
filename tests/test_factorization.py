import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh import fincat
from bwcoh.factorization import (
    FPair, SquareNotCommuting, build_factorization, factor_functor,
    factor_nat, factor_two_morphism, two_morphism_target,
)
from bwcoh.fincat import (
    arrow_category, compose_functors, cyclic_group_category, identity_functor,
    identity_nat, terminal_category, total_order_category, validate_category,
    vertical_compose,
)
from bwcoh.randgen import InstanceGen


def test_terminal_factorization_is_terminal():
    fc = build_factorization(terminal_category())
    assert fc.category.n_objects == 1
    assert fc.category.n_morphisms == 1
    assert validate_category(fc.category).ok


def test_arrow_factorization_counts():
    # pairs (h,k) with k∘f∘h = g, enumerated by hand: five of them
    fc = build_factorization(arrow_category())
    assert fc.category.n_objects == 3
    assert fc.category.n_morphisms == 5
    assert validate_category(fc.category).ok
    assert set(fc.pairs) == {
        FPair(0, 0, 0, 0), FPair(0, 2, 0, 2),
        FPair(1, 1, 1, 1), FPair(1, 2, 2, 1),
        FPair(2, 2, 0, 1),
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_factorization_always_validates(seed):
    c = InstanceGen(seed).category(6)
    fc = build_factorization(c)
    assert fc.category.n_objects == c.n_morphisms
    assert validate_category(fc.category).ok
    # every (h, k) around every f, found by brute force, in key order
    n = c.n_morphisms
    assert [(p.src, p.dst, p.h, p.k) for p in fc.pairs] == sorted(
        (f, c.table[c.table[h][f]][k], h, k)
        for f in range(n) for h in range(n) for k in range(n)
        if c.mor_target[h] == c.mor_source[f]
        and c.mor_source[k] == c.mor_target[f])
    assert all(fc.pair_id(p.src, p.dst, p.h, p.k) == i
               for i, p in enumerate(fc.pairs))


def test_factor_functor_identity_and_composition():
    gen = InstanceGen(11)
    dom = gen.chain_domain()
    chain = gen.nat_chain(dom, 2)
    phi = chain.functors[0]
    fc_dom = build_factorization(dom)
    fc_mid = build_factorization(chain.target)
    assert factor_functor(identity_functor(dom), fc_dom, fc_dom) == \
        identity_functor(fc_dom)
    outer = gen.nat_chain(chain.target, 2)
    psi = outer.functors[0]
    fc_top = build_factorization(outer.target)
    lhs = factor_functor(compose_functors(psi, phi), fc_dom, fc_top)
    rhs = compose_functors(factor_functor(psi, fc_mid, fc_top),
                           factor_functor(phi, fc_dom, fc_mid))
    assert lhs == rhs


def test_factor_nat_of_identity_equals_factor_functor():
    for seed in range(8):
        gen = InstanceGen(seed)
        dom = gen.chain_domain()
        chain = gen.nat_chain(dom, 2)
        phi = chain.functors[0]
        fc_dom = build_factorization(dom)
        fc_tgt = build_factorization(chain.target)
        assert factor_nat(identity_nat(phi), fc_dom, fc_tgt) == \
            factor_functor(phi, fc_dom, fc_tgt)


def test_factor_nat_composition_law():
    for seed in range(8):
        gen = InstanceGen(100 + seed)
        dom = gen.chain_domain()
        inner = gen.nat_chain(dom, 2)
        outer = gen.nat_chain(inner.target, 2)
        alpha = inner.nats[0]
        beta = outer.nats[0]
        from bwcoh.fincat import horizontal_compose
        fc_dom = build_factorization(dom)
        fc_mid = build_factorization(inner.target)
        fc_top = build_factorization(outer.target)
        lhs = factor_nat(horizontal_compose(beta, alpha), fc_dom, fc_top)
        rhs = compose_functors(factor_nat(beta, fc_mid, fc_top),
                               factor_nat(alpha, fc_dom, fc_mid))
        assert lhs == rhs


def test_factor_two_morphism_identity_and_vertical():
    for seed in range(8):
        gen = InstanceGen(200 + seed)
        dom = gen.chain_domain()
        chain = gen.nat_chain(dom, 4)
        eps, alpha, gam = chain.nats
        beta = two_morphism_target(alpha, eps, gam)
        fc_dom = build_factorization(dom)
        fc_tgt = build_factorization(chain.target)
        one_src = identity_nat(alpha.source_functor)
        one_tgt = identity_nat(alpha.target_functor)
        ident = factor_two_morphism(alpha, alpha, one_src, one_tgt,
                                    fc_dom, fc_tgt)
        assert ident == identity_nat(factor_nat(alpha, fc_dom, fc_tgt))
        nat = factor_two_morphism(alpha, beta, eps, gam, fc_dom, fc_tgt)
        assert nat.validate().ok
        # vertical composition is preserved
        chain6 = gen.nat_chain(dom, 6)
        fc_tgt6 = build_factorization(chain6.target)
        e2, e1, a, g1, g2 = chain6.nats
        a1 = two_morphism_target(a, e1, g1)
        b = two_morphism_target(a1, e2, g2)
        first = factor_two_morphism(a, a1, e1, g1, fc_dom, fc_tgt6)
        second = factor_two_morphism(a1, b, e2, g2, fc_dom, fc_tgt6)
        total = factor_two_morphism(a, b, vertical_compose(e1, e2),
                                    vertical_compose(g2, g1),
                                    fc_dom, fc_tgt6)
        assert vertical_compose(second, first) == total


def test_factor_two_morphism_horizontal():
    from bwcoh.fincat import horizontal_compose
    for seed in range(6):
        gen = InstanceGen(300 + seed)
        dom = gen.chain_domain()
        inner = gen.nat_chain(dom, 4)
        outer = gen.nat_chain(inner.target, 4)
        e1, a1, g1 = inner.nats
        e2, a2, g2 = outer.nats
        b1 = two_morphism_target(a1, e1, g1)
        b2 = two_morphism_target(a2, e2, g2)
        fc0 = build_factorization(dom)
        fc1 = build_factorization(inner.target)
        fc2 = build_factorization(outer.target)
        f_first = factor_two_morphism(a1, b1, e1, g1, fc0, fc1)
        f_second = factor_two_morphism(a2, b2, e2, g2, fc1, fc2)
        lhs = horizontal_compose(f_second, f_first)
        rhs = factor_two_morphism(
            horizontal_compose(a2, a1), horizontal_compose(b2, b1),
            horizontal_compose(e2, e1), horizontal_compose(g2, g1),
            fc0, fc2)
        assert lhs == rhs


def test_factor_two_morphism_rejects_bad_square():
    z3 = cyclic_group_category(3)
    gen = InstanceGen(0)
    chain = gen._monoid_chain(z3, 4, 3)
    eps, alpha, gam = chain.nats
    beta = two_morphism_target(alpha, eps, gam)
    wrong = identity_nat(beta.source_functor) \
        if beta.components[0] != z3.identity[0] else None
    fc = build_factorization(z3)
    if wrong is not None:
        with pytest.raises(SquareNotCommuting):
            factor_two_morphism(alpha, wrong, eps, gam, fc, fc)


def test_hom_system_builds_no_product():
    # a bifunctor is keyed by C itself, so no C^op x C is materialized
    fincat.product.cache_clear()
    InstanceGen("x").hom_system(total_order_category(7))
    assert fincat.product.cache_info().misses == 0


def _traced_peak_mb(build, c) -> float:
    tracemalloc.start()
    try:
        build(c)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_composition_tables_cost_their_composable_pairs():
    # a dense n x n table made F(C) of the 16-object order (3,876
    # morphisms, 54,264 composable pairs) peak near 250 MB, and C x C of
    # the 7-object order (784 morphisms, 7,056 pairs) near 10 MB
    for memo in (build_factorization, fincat.product):
        memo.cache_clear()
    c = total_order_category(16)
    assert _traced_peak_mb(lambda c: build_factorization(c).category, c) < 20
    fc = build_factorization(c).category
    assert (fc.n_morphisms, sum(map(len, fc.table))) == (3876, 54264)
    c = total_order_category(7)
    assert _traced_peak_mb(lambda c: fincat.product(c, c), c) < 2
    prod = fincat.product(c, c).category
    assert (prod.n_morphisms, sum(map(len, prod.table))) == (784, 7056)


def test_cohomology_never_composes_in_the_factorization_category(
        tmp_path, monkeypatch):
    from bwcoh.factorization import FactorizationCategory
    from bwcoh.workspace import HEADER, category_text
    from test_workspace_cli import WORKSPACES, run_cli
    composed = []
    table = FactorizationCategory.table

    def recorded(fc):
        composed.append(fc.base)
        return table.__get__(fc, FactorizationCategory)
    monkeypatch.setattr(FactorizationCategory, "table", property(recorded))
    ws = tmp_path / "t8.bwcoh"
    ws.write_text(f"{HEADER}\n{category_text('t8', total_order_category(8))}"
                  f"\nsystem z on t8\n  constant: Z\nend\n", encoding="utf-8")
    code, out, _ = run_cli("cohomology", str(ws), "t8", "z",
                           "--max-degree", "3", "--format", "machine")
    assert (code, out.splitlines()) == (0, [
        "H 0 rank=1 torsion=[]", "H 1 rank=0 torsion=[]",
        "H 2 rank=0 torsion=[]"])
    code, out, _ = run_cli("localization-check",
                           str(WORKSPACES / "arrow.bwcoh"), "loc_y",
                           "const_z", "--max-degree", "3")
    assert code == 0 and "result: pass" in out
    assert composed == []
    # exporting F(C) composes in it, so the spy above sees the table built
    code, _, _ = run_cli("export", str(ws), str(tmp_path / "f.bwcoh"),
                         "--what", "factorization", "--category", "t8")
    assert code == 0 and len(composed) == 1


def test_factorization_memo_is_bounded():
    assert build_factorization.cache_info().maxsize == fincat.CONSTRUCTOR_CACHE


def test_pair_ids_allocate_no_pair(monkeypatch):
    chain = InstanceGen(5).nat_chain(cyclic_group_category(2), 3)
    alpha = chain.nats[0]
    fc_dom = build_factorization(alpha.domain)
    fc_tgt = build_factorization(alpha.codomain)
    made = []
    real = FPair.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)
    monkeypatch.setattr(FPair, "__init__", counted)
    p = fc_tgt.pairs[-1]
    assert fc_tgt.pair_id(p.src, p.dst, p.h, p.k) == len(fc_tgt.pairs) - 1
    assert factor_nat(alpha, fc_dom, fc_tgt).validate().ok
    assert made == []
