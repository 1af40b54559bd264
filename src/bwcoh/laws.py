"""Executable law suites over randomly generated instances.

Each law draws its instances from ``InstanceGen`` seeded per case, runs the
construction whose defining identity is checked exactly inside the library,
and adds any cross-checks the law states beyond construction-time assertions.
A failing case reports its replayable per-case seed and the failure detail.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from .bwcomplex import (
    BlockHom, build_complex, homotopy_h, homotopy_r_horizontal,
    homotopy_r_vertical, require_vanishing,
)
from .factorization import (
    build_factorization, factor_functor, factor_nat, factor_two_morphism,
    two_morphism_target,
)
from .fincat import horizontal_compose, identity_nat, vertical_compose
from .natsys import pullback_along_nat, validate_natural_system
from .randgen import InstanceGen

LAW_NAMES = ("dd", "dh+hd", "dr-rd", "interchange", "2functor")


@dataclass
class CaseResult:
    index: int
    seed: int
    ok: bool
    detail: str = ""


@dataclass
class LawReport:
    law: str
    seed: int
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        out = [f"law {self.law}: "
               f"{sum(c.ok for c in self.cases)}/{len(self.cases)} pass"]
        for c in self.cases:
            if not c.ok:
                out.append(f"  case {c.index} seed {c.seed} FAIL: {c.detail}")
        return out


def case_seed(seed: int, law: str, index: int) -> int:
    # deterministic across processes (no reliance on str hashing)
    mix = zlib.crc32(law.encode("utf-8"))
    return (seed * 1000003 + index * 9176 + mix) & 0x7FFFFFFF


def _law_dd(gen: InstanceGen, max_morphisms: int, max_degree: int) -> None:
    c = gen.category(max_morphisms)
    d = gen.system(c)
    rep = validate_natural_system(d)
    rep.require()
    build_complex(d, max_degree)   # asserts d∘d == 0 as one sparse sum


def _law_h(gen: InstanceGen, max_morphisms: int, max_degree: int) -> None:
    two, d, e = gen.h_instance()
    cx_src = build_complex(d, max_degree)
    cx_dst = build_complex(e, max_degree)
    homotopy_h(two, cx_src, cx_dst)   # asserts dh + hd = -p + q


def _law_r_vertical(gen: InstanceGen, max_morphisms: int,
                    max_degree: int) -> None:
    two_a, two_b, d, e = gen.vertical_instance()
    cx_src = build_complex(d, max_degree)
    cx_dst = build_complex(e, max_degree)
    homotopy_r_vertical(two_a, two_b, cx_src, cx_dst)


def _law_interchange(gen: InstanceGen, max_morphisms: int,
                     max_degree: int) -> None:
    two_a, two_b, d, e, g = gen.horizontal_instance()
    cx_a = build_complex(d, max_degree)
    cx_mid = build_complex(e, max_degree)
    cx_b = build_complex(g, max_degree)
    _, h_a, h_b = homotopy_r_horizontal(two_a, two_b, cx_a, cx_mid, cx_b)
    # the two representatives of the horizontal composite differ exactly by
    # the boundary of the degree -2 witness h'∘h
    n_top = min(cx_a.max_degree, cx_b.max_degree)
    witness = {n: h_b.maps[n - 1].compose(h_a.maps[n])
               for n in range(2, n_top + 1)}
    for n in range(1, n_top):
        # (h_b p_a + q_b h_a) - (p_b h_a + h_b q_a) = -w d + d w
        terms = [(1, h_b.maps[n], h_a.p.maps[n]),
                 (1, h_b.q.maps[n - 1], h_a.maps[n]),
                 (-1, h_b.p.maps[n - 1], h_a.maps[n]),
                 (-1, h_b.maps[n], h_a.q.maps[n]),
                 (1, witness[n + 1], cx_a.diffs[n])]
        if n >= 2:
            terms.append((-1, cx_b.diffs[n - 2], witness[n]))
        require_vanishing(BlockHom.signed_sum(terms),
                          "interchange witness identity", cx_a, n, cx_b, n - 1)


def _law_2functor(gen: InstanceGen, max_morphisms: int,
                  max_degree: int) -> None:
    dom = gen.chain_domain()
    chain = gen.nat_chain(dom, 4)
    eps, alpha, gam = chain.nats
    beta = two_morphism_target(alpha, eps, gam)
    fc_dom = build_factorization(dom)
    fc_tgt = build_factorization(chain.target)
    # embedding of functors agrees with the action on identity transformations
    phi = chain.functors[0]
    if factor_nat(identity_nat(phi), fc_dom, fc_tgt) != \
            factor_functor(phi, fc_dom, fc_tgt):
        raise AssertionError("factorization of an identity transformation "
                             "differs from the factorization of its functor")
    ab = vertical_compose(gam, alpha)
    if factor_nat(ab, fc_dom, fc_tgt).obj_map != tuple(
            chain.target.table[factor_nat(alpha, fc_dom, fc_tgt).obj_map[f]][
                gam.components[dom.mor_target[f]]]
            for f in range(dom.n_morphisms)):
        raise AssertionError("vertical composite object map mismatch")
    # two-morphism functoriality: F(eps, gam) is natural, and identity squares
    # give identity transformations
    nat = factor_two_morphism(alpha, beta, eps, gam, fc_dom, fc_tgt)
    rep = nat.validate()
    rep.require()
    one = identity_nat(alpha.source_functor)
    ident = factor_two_morphism(alpha, alpha, one,
                                identity_nat(alpha.target_functor),
                                fc_dom, fc_tgt)
    fa = factor_nat(alpha, fc_dom, fc_tgt)
    if ident != identity_nat(fa):
        raise AssertionError("identity square does not factor to the identity")
    # pullback composition law: along alpha then along an incoming beta
    # equals the pullback along the horizontal composite alpha*beta
    dom2 = gen.chain_domain()
    outer = gen.nat_chain(dom2, 4)
    mid = outer.target
    inner = gen.nat_chain(mid, 2)
    d = gen.system(inner.target)
    alpha2 = inner.nats[0]
    beta2 = outer.nats[0]
    pulled_two_step = pullback_along_nat(pullback_along_nat(d, alpha2), beta2)
    pulled_composite = pullback_along_nat(
        d, horizontal_compose(alpha2, beta2))
    if pulled_two_step.functor.values != pulled_composite.functor.values or \
            not pulled_two_step.functor.equal_mod(pulled_composite.functor):
        raise AssertionError("pullback composition law fails")


_LAW_FUNCS = {
    "dd": _law_dd,
    "dh+hd": _law_h,
    "dr-rd": _law_r_vertical,
    "interchange": _law_interchange,
    "2functor": _law_2functor,
}


def run_law(law: str, seed: int, cases: int, max_morphisms: int = 6,
            max_degree: int = 3) -> LawReport:
    if law not in _LAW_FUNCS:
        raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")
    func = _LAW_FUNCS[law]
    report = LawReport(law, seed)
    for i in range(cases):
        cs = case_seed(seed, law, i)
        gen = InstanceGen(cs)
        try:
            func(gen, max_morphisms, max_degree)
            report.cases.append(CaseResult(i, cs, True))
        except Exception as exc:   # noqa: BLE001 - reported, not swallowed
            report.cases.append(CaseResult(i, cs, False,
                                           f"{type(exc).__name__}: {exc}"))
    return report


def run_laws(law: str, seed: int, cases: int, max_morphisms: int = 6,
             max_degree: int = 3) -> list[LawReport]:
    names = LAW_NAMES if law == "all" else (law,)
    return [run_law(n, seed, cases, max_morphisms, max_degree)
            for n in names]
