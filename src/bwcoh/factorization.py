"""Factorization categories and the induced structure on functors and
natural transformations.

The factorization category F(C) of C has the morphisms of C as objects; a
morphism ``(h, k): f -> g`` is a pair with ``k∘f∘h == g``, composing by
``(h', k')(h, k) = (h∘h', k'∘k)``.  ``build_factorization`` enumerates the
pairs, ordered by ``(source object, target object, h, k)`` to keep cochain
bases reproducible, and a ``FactorizationCategory`` is given by them: its
sizes, endpoints, identities and pair ids all come from the pairs, and its
object ids coincide with the morphism ids of the base.  Natural systems, and
the functors that ``factor_functor`` and ``factor_nat`` induce, only look
pairs up.  The composition table of F(C) is built from the base table the
first time a caller composes in F(C), such as validating a functor or a
transformation on it, and the pair names the first time ``category``
realizes F(C) as a named ``FiniteCategory`` for export.

On top of the category itself this module provides the action of the
factorization construction on functors (``factor_functor``), on natural
transformations regarded as generalized morphisms (``factor_nat``), and on
commuting squares of natural transformations (``factor_two_morphism``).
The functor F(C) -> C^op x C, f: X -> Y to (X, Y) and (h, k) to (h, k),
through which a bifunctor gives a natural system, is never built:
``natsys.from_bifunctor`` reads the system off the bifunctor's keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .fincat import (
    CONSTRUCTOR_CACHE, FiniteCategory, Functor, NaturalTransformation,
    ShapeMismatch, vertical_compose,
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


@dataclass(frozen=True, eq=False)
class FactorizationCategory:
    """F(C) by its pairs, with the attributes of a ``FiniteCategory`` that
    functors, transformations and group-valued functors on it read."""
    base: FiniteCategory
    pairs: tuple[FPair, ...]

    def __eq__(self, other):
        # the pairs follow from the base, and F(C) is named after the
        # morphisms of C alone: bases that differ only in object names
        # give equal realized categories, so they give equal F(C)
        if not isinstance(other, FactorizationCategory):
            return NotImplemented
        return self.base is other.base or \
            _named_shape(self.base) == _named_shape(other.base)

    def __hash__(self):
        return hash(self.base)

    @property
    def n_objects(self) -> int:
        return self.base.n_morphisms

    @property
    def n_morphisms(self) -> int:
        return len(self.pairs)

    @cached_property
    def mor_source(self) -> tuple[int, ...]:
        return tuple(p.src for p in self.pairs)

    @cached_property
    def mor_target(self) -> tuple[int, ...]:
        return tuple(p.dst for p in self.pairs)

    @cached_property
    def identity(self) -> tuple[int, ...]:
        c = self.base
        return tuple(self.pair_id(f, f, c.identity[c.mor_source[f]],
                                  c.identity[c.mor_target[f]])
                     for f in range(c.n_morphisms))

    @cached_property
    def pair_index(self) -> dict[tuple[int, int, int, int], int]:
        """Pair id by plain ``(src, dst, h, k)``."""
        return {(p.src, p.dst, p.h, p.k): i for i, p in enumerate(self.pairs)}

    def pair_id(self, src: int, dst: int, h: int, k: int) -> int:
        return self.pair_index[src, dst, h, k]

    @cached_property
    def table(self) -> tuple[dict[int, int], ...]:
        """``table[i][j]`` is the pair j∘i, as in ``FiniteCategory.table``:
        (h1, k1): f -> g then (h2, k2): g -> g' is (h1∘h2, k2∘k1): f -> g'."""
        base, index, pairs = self.base.table, self.pair_index, self.pairs
        out_of: list[list[int]] = [[] for _ in range(self.n_objects)]
        for j, p in enumerate(pairs):
            out_of[p.src].append(j)
        rows = []
        for p in pairs:
            row = {}
            for j in out_of[p.dst]:
                q = pairs[j]
                row[j] = index[p.src, q.dst, base[q.h][p.h], base[p.k][q.k]]
            rows.append(row)
        return tuple(rows)

    @cached_property
    def category(self) -> FiniteCategory:
        """F(C) as a ``FiniteCategory``, named for export."""
        c = self.base
        # names stay free of ':', '->' and whitespace so exports re-parse
        names = tuple(f"({c.morphism_name(p.h)},{c.morphism_name(p.k)})"
                      f"@{c.morphism_name(p.src)}" for p in self.pairs)
        return FiniteCategory(
            self.n_objects, self.mor_source, self.mor_target, self.identity,
            self.table,
            tuple(map(c.morphism_name, range(c.n_morphisms))) or None,
            names or None)


def _named_shape(c: FiniteCategory) -> tuple:
    return (c.mor_source, c.mor_target, c.identity, c.table,
            tuple(map(c.morphism_name, range(c.n_morphisms))))


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def build_factorization(c: FiniteCategory) -> FactorizationCategory:
    into: list[list[int]] = [[] for _ in range(c.n_objects)]
    for m in range(c.n_morphisms):
        into[c.mor_target[m]].append(m)
    # (f, k∘f∘h, h, k) for h into the source of f and k out of its target;
    # the row of f∘h holds exactly those k
    table = c.table
    keys = []
    for f in range(c.n_morphisms):
        for h in into[c.mor_source[f]]:
            keys.extend((f, kfh, h, k)
                        for k, kfh in table[table[h][f]].items())
    keys.sort()
    return FactorizationCategory(c, tuple(FPair(*p) for p in keys))


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
    return Functor(fc_src, fc_dst, obj_map, mor_map)


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
    return Functor(fc_src, fc_dst, tuple(obj_map), mor_map)


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
