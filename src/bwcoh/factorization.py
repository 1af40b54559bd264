"""Factorization categories and the induced structure on functors and
natural transformations.

The factorization category of C has the morphisms of C as objects; a morphism
``(h, k): f -> g`` is a pair with ``k∘f∘h == g``, composing by
``(h', k')(h, k) = (h∘h', k'∘k)``.  It is realized eagerly as a
``FiniteCategory`` whose object ids coincide with the morphism ids of the
base, so every validator and enumeration from ``fincat`` applies unchanged.
Pair ids are ordered by ``(source object, target object, h, k)`` to keep
cochain bases reproducible.

On top of the category itself this module provides the action of the
factorization construction on functors (``factor_functor``), on natural
transformations regarded as generalized morphisms (``factor_nat``), and on
commuting squares of natural transformations (``factor_two_morphism``),
together with the projection to the product category used for
bifunctor-induced coefficient systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, ProductCategory,
    ShapeMismatch, make_category, opposite, product, vertical_compose,
)


class NaturalityBroken(ValueError):
    pass


class SquareNotCommuting(ValueError):
    pass


@dataclass(frozen=True)
class FPair:
    src: int   # object of FC = morphism f of the base
    dst: int   # object of FC = morphism g of the base
    h: int
    k: int


@dataclass(frozen=True)
class FactorizationCategory:
    base: FiniteCategory
    category: FiniteCategory
    pairs: tuple[FPair, ...]

    @cached_property
    def pair_index(self) -> dict[FPair, int]:
        return {p: i for i, p in enumerate(self.pairs)}

    def pair_id(self, src: int, dst: int, h: int, k: int) -> int:
        return self.pair_index[FPair(src, dst, h, k)]


@lru_cache(maxsize=None)
def build_factorization(c: FiniteCategory) -> FactorizationCategory:
    n = c.n_morphisms
    pairs: list[FPair] = []
    for f in range(n):
        sf, tf = c.mor_source[f], c.mor_target[f]
        for h in range(n):
            if c.mor_target[h] != sf:
                continue
            fh = c.table[h][f]
            for k in range(n):
                if c.mor_source[k] == tf:
                    pairs.append(FPair(f, c.table[fh][k], h, k))
    pairs.sort(key=lambda p: (p.src, p.dst, p.h, p.k))
    index = {p: i for i, p in enumerate(pairs)}

    by_src: dict[int, list[int]] = {}
    for i, p in enumerate(pairs):
        by_src.setdefault(p.src, []).append(i)
    compose_pairs = {}
    for i1, p1 in enumerate(pairs):
        for i2 in by_src.get(p1.dst, ()):
            p2 = pairs[i2]
            hh = c.table[p2.h][p1.h]   # h1 ∘ h2
            kk = c.table[p1.k][p2.k]   # k2 ∘ k1
            compose_pairs[(i1, i2)] = index[FPair(p1.src, p2.dst, hh, kk)]
    identity = [index[FPair(f, f, c.identity[c.mor_source[f]],
                            c.identity[c.mor_target[f]])] for f in range(n)]
    mor = [(p.src, p.dst) for p in pairs]
    # names stay free of ':', '->' and whitespace so exports re-parse
    names = [f"({c.morphism_name(p.h)},{c.morphism_name(p.k)})"
             f"@{c.morphism_name(p.src)}"
             for p in pairs]
    cat = make_category(n, mor, identity, compose_pairs,
                        object_names=[c.morphism_name(f) for f in range(n)],
                        morphism_names=names)
    return FactorizationCategory(c, cat, tuple(pairs))


def factor_functor(phi: Functor,
                   fc_src: FactorizationCategory,
                   fc_dst: FactorizationCategory) -> Functor:
    """The functor FC -> FD induced by phi: C -> D."""
    if fc_src.base != phi.source or fc_dst.base != phi.target:
        raise ShapeMismatch("factorization categories do not match the functor")
    obj_map = tuple(phi.mor_map[f] for f in range(phi.source.n_morphisms))
    mor_map = tuple(
        fc_dst.pair_id(phi.mor_map[p.src], phi.mor_map[p.dst],
                       phi.mor_map[p.h], phi.mor_map[p.k])
        for p in fc_src.pairs
    )
    return Functor(fc_src.category, fc_dst.category, obj_map, mor_map)


def factor_nat(alpha: NaturalTransformation,
               fc_src: FactorizationCategory,
               fc_dst: FactorizationCategory) -> Functor:
    """The functor FA -> FB induced by alpha: phi => psi with phi, psi: A -> B.

    On an object f: X -> Y it is the common value psi(f)∘a_X == a_Y∘phi(f);
    on a pair (h, k) it is (phi(h), psi(k)).
    """
    phi, psi = alpha.source_functor, alpha.target_functor
    a, b = alpha.domain, alpha.codomain
    if fc_src.base != a or fc_dst.base != b:
        raise ShapeMismatch("factorization categories do not match the transformation")
    obj_map = []
    for f in range(a.n_morphisms):
        x, y = a.mor_source[f], a.mor_target[f]
        left = b.table[phi.mor_map[f]][alpha.components[y]]
        right = b.table[alpha.components[x]][psi.mor_map[f]]
        if left != right:
            raise NaturalityBroken(f"naturality fails at morphism {f}")
        obj_map.append(left)
    mor_map = tuple(
        fc_dst.pair_id(obj_map[p.src], obj_map[p.dst],
                       phi.mor_map[p.h], psi.mor_map[p.k])
        for p in fc_src.pairs
    )
    return Functor(fc_src.category, fc_dst.category, tuple(obj_map), mor_map)


def two_morphism_target(alpha: NaturalTransformation,
                        eps: NaturalTransformation,
                        gam: NaturalTransformation) -> NaturalTransformation:
    """The composite gam∘alpha∘eps, the target leg of a square (eps, gam)."""
    return vertical_compose(gam, vertical_compose(alpha, eps))


def factor_two_morphism(alpha: NaturalTransformation,
                        beta: NaturalTransformation,
                        eps: NaturalTransformation,
                        gam: NaturalTransformation,
                        fc_src: FactorizationCategory,
                        fc_dst: FactorizationCategory) -> NaturalTransformation:
    """F(eps, gam): F(alpha) => F(beta) for a commuting square gam∘alpha∘eps == beta.

    The component at an object f: X -> Y is the pair (eps_X, gam_Y).
    """
    if two_morphism_target(alpha, eps, gam) != beta:
        raise SquareNotCommuting("gam∘alpha∘eps differs from beta")
    fa = factor_nat(alpha, fc_src, fc_dst)
    fb = factor_nat(beta, fc_src, fc_dst)
    a = alpha.domain
    comps = tuple(
        fc_dst.pair_id(fa.obj_map[f], fb.obj_map[f],
                       eps.components[a.mor_source[f]],
                       gam.components[a.mor_target[f]])
        for f in range(a.n_morphisms)
    )
    return NaturalTransformation(fa, fb, comps)


def projection_to_pair(c: FiniteCategory,
                       fc: FactorizationCategory,
                       prod: ProductCategory) -> Functor:
    """FC -> C^op x C sending f: X -> Y to (X, Y) and (h, k) to (h, k)."""
    if fc.base != c or prod.left != opposite(c) or prod.right != c:
        raise ShapeMismatch("projection expects the product of C^op with C")
    obj_map = tuple(
        prod.obj_id(c.mor_source[f], c.mor_target[f])
        for f in range(c.n_morphisms)
    )
    mor_map = tuple(prod.mor_id(p.h, p.k) for p in fc.pairs)
    return Functor(fc.category, prod.category, obj_map, mor_map)


def op_pair_product(c: FiniteCategory) -> ProductCategory:
    return product(opposite(c), c)
