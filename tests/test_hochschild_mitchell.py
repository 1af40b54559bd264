"""Hochschild–Mitchell cohomology of group rings against its closed form.

On a group G, seen as a one-object category, the bimodule ``hom_system(G,
A)`` is A[G] acted on from both sides, and its Baues–Wirsching cohomology is
HH^*(Z[G], A[G]) (Baues–Wirsching, JPAA 38 (1985)).  That is H^*(G; A[G]
under conjugation), which Shapiro's lemma splits into a sum over the
conjugacy classes [g] of H^*(C_G(g); A) (Siegel–Witherspoon, Proc. LMS 79
(1999)).

The expected groups are computed here from the category's table alone:
conjugacy classes and centralizers, the integral cohomology of the cyclic
groups and of S3 (Brown, Cohomology of Groups, ch. III–IV), and universal
coefficients for A = Z/m.  Nothing of the engine is used to compute them.
"""

from math import gcd

import pytest

from bwcoh.abgroup import cyclic, from_invariants
from bwcoh.bwcomplex import build_complex
from bwcoh.fincat import cyclic_group_category
from bwcoh.natsys import hom_system
from test_reduction import symmetric3


def _group(c):
    """The elements, product and unit of a one-object category."""
    elements = range(c.n_morphisms)
    return elements, (lambda a, b: c.table[a][b]), c.identity[0]


def _conjugacy_classes(c):
    elements, mul, unit = _group(c)
    inverse = {a: next(b for b in elements if mul(a, b) == unit)
               for a in elements}
    classes, seen = [], set()
    for g in elements:
        if g not in seen:
            orbit = {mul(mul(inverse[x], g), x) for x in elements}
            seen |= orbit
            classes.append(min(orbit))
    return classes


def _centralizer_kind(c, g):
    """("cyclic", k) or ("S3", 6) for the centralizer of g."""
    elements, mul, unit = _group(c)
    cent = [x for x in elements if mul(x, g) == mul(g, x)]

    def order(x):
        n, y = 1, x
        while y != unit:
            n, y = n + 1, mul(y, x)
        return n
    if any(order(x) == len(cent) for x in cent):
        return "cyclic", len(cent)
    if len(cent) == 6:
        return "S3", 6
    raise ValueError(f"no closed form for a centralizer of order {len(cent)}")


def _integral(kind, k, n):
    """H^n(G; Z) of Z/k or S3 as cyclic orders, 0 standing for Z."""
    if n == 0:
        return [0]
    if n % 2:
        return []
    if kind == "cyclic":
        return [k]
    return [2] if n % 4 == 2 else [6]


def _cohomology(kind, k, n, m):
    """H^n(G; Z/m), m = 0 for Z, by universal coefficients:
    H^n(G; Z) ⊗ Z/m ⊕ Tor(H^(n+1)(G; Z), Z/m)."""
    if m == 0:
        return _integral(kind, k, n)
    return [gcd(d, m) for d in _integral(kind, k, n)] + \
        [gcd(d, m) for d in _integral(kind, k, n + 1) if d]


def _invariants(orders):
    """(free rank, torsion d1 | d2 | ...) of a sum of cyclic groups."""
    powers = {}
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return orders.count(0), tuple(sorted(factors))


def closed_form(c, m, max_degree):
    """HH^n(Z[G], Z/m[G]) for n < max_degree, m = 0 for Z."""
    kinds = [_centralizer_kind(c, g) for g in _conjugacy_classes(c)]
    return [_invariants([d for kind, k in kinds
                         for d in _cohomology(kind, k, n, m)])
            for n in range(max_degree)]


def test_closed_forms_of_s3():
    # Z^3, 0, Z/2 + Z/6, 0, Z/6 + Z/6, repeating with period 4 above degree
    # 0; with Z/2, (Z/2)^3 and then (Z/2)^2 in every degree
    s3 = symmetric3()
    assert closed_form(s3, 0, 6) == [
        (3, ()), (0, ()), (0, (2, 6)), (0, ()), (0, (6, 6)), (0, ())]
    assert closed_form(s3, 2, 4) == [(0, (2, 2, 2))] + [(0, (2, 2))] * 3
    assert closed_form(cyclic_group_category(4), 0, 3) == [
        (4, ()), (0, ()), (0, (4, 4, 4, 4))]


@pytest.mark.parametrize("c, m, max_degree", [
    *((cyclic_group_category(k), 0, 5) for k in range(2, 7)),
    (symmetric3(), 0, 5),
    (symmetric3(), 2, 4),
    (symmetric3(), 3, 4),
], ids=[f"z{k}_z" for k in range(2, 7)] + ["s3_z", "s3_z2", "s3_z3"])
def test_hom_system_cohomology_of_a_group(c, m, max_degree):
    cx = build_complex(hom_system(c, cyclic(m)), max_degree, normalized=True)
    got = [cx.cohomology(n) for n in range(max_degree)]
    assert [(g.free_rank, g.torsion) for g in got] == \
        closed_form(c, m, max_degree)


def test_hom_system_over_a_group_on_two_generators():
    # Z/2 + Z/3 is Z/6 on two generators, and each action moves both
    cx = build_complex(hom_system(cyclic_group_category(3),
                                  from_invariants(0, (2, 3))),
                       4, normalized=True)
    assert [(g.free_rank, g.torsion)
            for g in (cx.cohomology(n) for n in range(4))] == \
        closed_form(cyclic_group_category(3), 6, 4)
