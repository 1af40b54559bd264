"""Finite categories, functors, natural transformations, morphism sequences.

Objects and morphisms are dense integer ids.  The composition table
holds the composable pairs only: row ``table[f]`` maps each morphism g with
``source(g) == target(f)`` to ``g∘f`` ("first f, then g", the juxtaposition
``gf``), in ascending g, and has no entry for any other g.  So a category
costs memory in its composable pairs, not in the square of its morphisms.
Composable sequences follow the pattern

    . <-s1- . <-s2- ... <-sn- .

i.e. ``target(s_{i+1}) == source(s_i)``; the composite ``s1...sn`` applies
``sn`` first.  A sequence of length 0 is an object, identified with its
identity morphism.  All enumeration orders are lexicographic in ids, which
makes downstream bases and matrices reproducible byte for byte.

Every constructor that takes no randomness is memoized: the standard
categories (``terminal_category``, ``arrow_category``,
``discrete_category``, ``total_order_category``, ``cyclic_group_category``,
``indiscrete_category``, ``pseudo_circle_category``) and ``product``.
Equal arguments return one shared object, which is frozen, so callers may
rely on equality but must never change what they are handed.  Each memo
keeps at most ``CONSTRUCTOR_CACHE`` results.  No C^op is built: a functor
on C^op x C is keyed by pairs of objects and of morphisms of C itself
(``natsys.from_bifunctor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

# results each memoized constructor keeps; the law suite's instances are
# drawn from a few dozen distinct categories
CONSTRUCTOR_CACHE = 64


class ShapeMismatch(ValueError):
    pass


@dataclass
class Report:
    subject: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self) -> None:
        if self.violations:
            raise ValueError(
                f"{self.subject}: " + "; ".join(self.violations[:10])
            )

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok"
        return f"{self.subject}: {len(self.violations)} violation(s)\n" + \
            "\n".join("  " + v for v in self.violations)


@dataclass(frozen=True)
class FiniteCategory:
    n_objects: int
    mor_source: tuple[int, ...]
    mor_target: tuple[int, ...]
    identity: tuple[int, ...]            # object -> morphism id
    table: tuple[dict[int, int], ...]    # table[f][g] = g∘f, composable g only
    object_names: tuple[str, ...] | None = None
    morphism_names: tuple[str, ...] | None = None

    @cached_property
    def _content_hash(self) -> int:
        # integers only, so the value does not depend on the string hash
        # seed; each row is hashed as a set, as dict equality ignores order
        return hash((self.n_objects, self.mor_source, self.mor_target,
                     self.identity,
                     tuple(hash(frozenset(row.items())) for row in self.table)))

    def __hash__(self):
        return self._content_hash

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_source)

    def is_identity(self, f: int) -> bool:
        return self.identity[self.mor_source[f]] == f

    def hom(self, x: int, y: int) -> list[int]:
        """The morphisms x -> y, ascending."""
        return [u for u in range(self.n_morphisms)
                if self.mor_source[u] == x and self.mor_target[u] == y]

    def is_invertible(self, f: int) -> bool:
        x, y = self.mor_source[f], self.mor_target[f]
        for g, gf in self.table[f].items():
            if self.mor_target[g] == x and gf == self.identity[x] \
                    and self.table[g][f] == self.identity[y]:
                return True
        return False

    def object_name(self, x: int) -> str:
        if self.object_names:
            return self.object_names[x]
        return f"o{x}"

    def morphism_name(self, f: int) -> str:
        if self.morphism_names:
            return self.morphism_names[f]
        return f"m{f}"

    def __repr__(self):
        return f"FiniteCategory({self.n_objects} objects, {self.n_morphisms} morphisms)"


def make_category(n_objects: int,
                  mor: list[tuple[int, int]],
                  identity: list[int],
                  compose_pairs: dict[tuple[int, int], int],
                  object_names=None, morphism_names=None) -> FiniteCategory:
    """Assemble a category from (source, target) pairs and a pair->composite map.

    ``compose_pairs[(f, g)] = g∘f`` must cover exactly the composable pairs;
    ``validate_category`` reports any pair missing or not composable.
    """
    rows: list[dict[int, int]] = [{} for _ in mor]
    for (f, g), h in compose_pairs.items():
        rows[f][g] = h
    return FiniteCategory(
        n_objects,
        tuple(s for s, _ in mor),
        tuple(t for _, t in mor),
        tuple(identity),
        tuple(dict(sorted(row.items())) for row in rows),
        tuple(object_names) if object_names else None,
        tuple(morphism_names) if morphism_names else None,
    )


def validate_category(c: FiniteCategory) -> Report:
    rep = Report("category")
    n = c.n_morphisms
    if len(c.mor_target) != n or len(c.identity) != c.n_objects \
            or len(c.table) != n:
        rep.violations.append("table sizes inconsistent")
        return rep
    for x in range(c.n_objects):
        e = c.identity[x]
        if not (0 <= e < n) or c.mor_source[e] != x or c.mor_target[e] != x:
            rep.violations.append(f"identity of object {x} is not an endomorphism")
    out_of: list[list[int]] = [[] for _ in range(c.n_objects)]
    for g in range(n):
        out_of[c.mor_source[g]].append(g)
    for f, row in enumerate(c.table):
        composable = out_of[c.mor_target[f]]
        for g in sorted(row.keys() | composable):
            if g not in row:
                rep.violations.append(f"missing composite for ({f},{g})")
            elif not (0 <= g < n) or c.mor_target[f] != c.mor_source[g]:
                rep.violations.append(f"composite defined for non-composable ({f},{g})")
            else:
                h = row[g]
                if not (0 <= h < n):
                    rep.violations.append(f"composite of ({f},{g}) out of range")
                elif c.mor_source[h] != c.mor_source[f] or \
                        c.mor_target[h] != c.mor_target[g]:
                    rep.violations.append(
                        f"composite of ({f},{g}) has wrong endpoints")
    if rep.violations:
        return rep
    for f in range(n):
        ls = c.identity[c.mor_source[f]]
        lt = c.identity[c.mor_target[f]]
        if c.table[ls][f] != f:
            rep.violations.append(f"identity not right-neutral at morphism {f}")
        if c.table[f][lt] != f:
            rep.violations.append(f"identity not left-neutral at morphism {f}")
    for f, row in enumerate(c.table):
        for g, gf in row.items():
            after_gf = c.table[gf]
            for h, hg in c.table[g].items():
                if after_gf[h] != row[hg]:
                    rep.violations.append(
                        f"associativity fails on ({f},{g},{h})")
    return rep


# ---------------------------------------------------------------------------
# functors and natural transformations

@dataclass(frozen=True)
class Functor:
    source: FiniteCategory
    target: FiniteCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def validate(self) -> Report:
        rep = Report("functor")
        c, d = self.source, self.target
        if len(self.obj_map) != c.n_objects or len(self.mor_map) != c.n_morphisms:
            rep.violations.append("map sizes inconsistent")
            return rep
        for f in range(c.n_morphisms):
            ff = self.mor_map[f]
            if d.mor_source[ff] != self.obj_map[c.mor_source[f]] or \
               d.mor_target[ff] != self.obj_map[c.mor_target[f]]:
                rep.violations.append(f"morphism {f} endpoints not preserved")
        for x in range(c.n_objects):
            if self.mor_map[c.identity[x]] != d.identity[self.obj_map[x]]:
                rep.violations.append(f"identity of object {x} not preserved")
        for f, row in enumerate(c.table):
            after = d.table[self.mor_map[f]]
            for g, gf in row.items():
                if self.mor_map[gf] != after.get(self.mor_map[g]):
                    rep.violations.append(
                        f"composition not preserved on ({f},{g})")
        return rep


def identity_functor(c: FiniteCategory) -> Functor:
    return Functor(c, c, tuple(range(c.n_objects)), tuple(range(c.n_morphisms)))


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g∘f (f applied first)."""
    if f.target != g.source:
        raise ShapeMismatch("functor composition categories do not chain")
    return Functor(f.source, g.target,
                   tuple(g.obj_map[x] for x in f.obj_map),
                   tuple(g.mor_map[m] for m in f.mor_map))


@dataclass(frozen=True)
class NaturalTransformation:
    source_functor: Functor
    target_functor: Functor
    components: tuple[int, ...]   # object of the domain -> morphism of codomain

    @property
    def domain(self) -> FiniteCategory:
        return self.source_functor.source

    @property
    def codomain(self) -> FiniteCategory:
        return self.source_functor.target

    def validate(self) -> Report:
        rep = Report("natural transformation")
        phi, psi = self.source_functor, self.target_functor
        if phi.source != psi.source or phi.target != psi.target:
            rep.violations.append("functors not parallel")
            return rep
        c, d = phi.source, phi.target
        if len(self.components) != c.n_objects:
            rep.violations.append("component count mismatch")
            return rep
        for x in range(c.n_objects):
            a = self.components[x]
            if d.mor_source[a] != phi.obj_map[x] or d.mor_target[a] != psi.obj_map[x]:
                rep.violations.append(f"component at object {x} has wrong endpoints")
        if rep.violations:
            return rep
        for f in range(c.n_morphisms):
            x, y = c.mor_source[f], c.mor_target[f]
            # psi(f) ∘ a_X == a_Y ∘ phi(f)
            left = d.table[self.components[x]].get(psi.mor_map[f])
            right = d.table[phi.mor_map[f]].get(self.components[y])
            if left is None or right is None:
                rep.violations.append(
                    f"naturality square at morphism {f} has no composite")
            elif left != right:
                rep.violations.append(f"naturality square fails at morphism {f}")
        return rep


def identity_nat(f: Functor) -> NaturalTransformation:
    comps = tuple(f.target.identity[f.obj_map[x]] for x in range(f.source.n_objects))
    return NaturalTransformation(f, f, comps)


def vertical_compose(b: NaturalTransformation, a: NaturalTransformation
                     ) -> NaturalTransformation:
    """ba: the vertical composite (a first: a: φ⇒ψ, b: ψ⇒ξ)."""
    if a.target_functor != b.source_functor:
        raise ShapeMismatch("vertical composition functors do not chain")
    d = a.codomain
    comps = tuple(d.table[a.components[x]][b.components[x]]
                  for x in range(a.domain.n_objects))
    return NaturalTransformation(a.source_functor, b.target_functor, comps)


def horizontal_compose(b: NaturalTransformation, a: NaturalTransformation
                       ) -> NaturalTransformation:
    """b*a: ξφ ⇒ ζψ for a: φ⇒ψ (C→D) and b: ξ⇒ζ (D→E).

    Both defining formulas are computed and must agree (middle interchange).
    """
    if a.codomain != b.domain:
        raise ShapeMismatch("horizontal composition categories do not chain")
    phi, psi = a.source_functor, a.target_functor
    xi, zeta = b.source_functor, b.target_functor
    e = b.codomain
    comps = []
    for x in range(a.domain.n_objects):
        one = e.table[xi.mor_map[a.components[x]]][b.components[psi.obj_map[x]]]
        two = e.table[b.components[phi.obj_map[x]]][zeta.mor_map[a.components[x]]]
        if one != two:
            raise ShapeMismatch(
                f"horizontal composition formulas disagree at object {x}")
        comps.append(one)
    return NaturalTransformation(compose_functors(xi, phi),
                                 compose_functors(zeta, psi),
                                 tuple(comps))


# ---------------------------------------------------------------------------
# morphism sequences

@dataclass(frozen=True)
class MSeq:
    """A composable sequence s1..sn; n = 0 is an object.

    ``objects`` lists X_0..X_n left to right: X_0 = target(s1), X_i is the
    shared source of s_i / target of s_{i+1}, X_n = source(sn).  The composite
    of the empty sequence at X is the identity of X.
    """
    mors: tuple[int, ...]
    objects: tuple[int, ...]
    composite: int

    @property
    def length(self) -> int:
        return len(self.mors)

    def key(self):
        return self.mors if self.mors else ("obj", self.objects[0])


def enumerate_sequences(c: FiniteCategory, n: int, *,
                        nondegenerate: bool = False) -> tuple[MSeq, ...]:
    """All composable sequences of length n, lexicographic in morphism ids.

    With ``nondegenerate`` only the sequences without an identity entry are
    built: every step draws from the non-identity morphisms alone, so no
    degenerate sequence is formed and filtered out.  Degree 0 is the objects
    either way."""
    if n < 0:
        raise ValueError("sequence length must be nonnegative")
    if n == 0:
        return tuple(
            MSeq((), (x,), c.identity[x]) for x in range(c.n_objects)
        )
    mors = [m for m in range(c.n_morphisms)
            if not (nondegenerate and c.is_identity(m))]
    by_target: dict[int, list[int]] = {x: [] for x in range(c.n_objects)}
    for m in mors:
        by_target[c.mor_target[m]].append(m)

    prev = [MSeq((m,), (c.mor_target[m], c.mor_source[m]), m) for m in mors]
    for _ in range(n - 1):
        nxt = []
        for s in prev:
            tail_obj = s.objects[-1]
            for m in by_target[tail_obj]:
                nxt.append(MSeq(
                    s.mors + (m,),
                    s.objects + (c.mor_source[m],),
                    c.table[m][s.composite],
                ))
        prev = nxt
    return tuple(prev)


def sequence_index(basis: tuple[MSeq, ...]) -> dict:
    return {s.key(): i for i, s in enumerate(basis)}


# ---------------------------------------------------------------------------
# product

@dataclass(frozen=True)
class ProductCategory:
    right: FiniteCategory
    category: FiniteCategory

    def obj_id(self, x: int, y: int) -> int:
        return x * self.right.n_objects + y

    def obj_pair(self, o: int) -> tuple[int, int]:
        return divmod(o, self.right.n_objects)

    def mor_id(self, f: int, g: int) -> int:
        return f * self.right.n_morphisms + g

    def mor_pair(self, m: int) -> tuple[int, int]:
        return divmod(m, self.right.n_morphisms)


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def product(c: FiniteCategory, d: FiniteCategory) -> ProductCategory:
    nd = d.n_morphisms
    src = []
    tgt = []
    for f in range(c.n_morphisms):
        for g in range(d.n_morphisms):
            src.append(c.mor_source[f] * d.n_objects + d.mor_source[g])
            tgt.append(c.mor_target[f] * d.n_objects + d.mor_target[g])
    ident = []
    for x in range(c.n_objects):
        for y in range(d.n_objects):
            ident.append(c.identity[x] * d.n_morphisms + d.identity[y])
    # (f1, g1) then (f2, g2) composes iff both factors do; ascending rows
    # of the factors give ascending rows here
    table = tuple(
        {f2 * nd + g2: cf * nd + dg
         for f2, cf in c.table[f1].items() for g2, dg in d.table[g1].items()}
        for f1 in range(c.n_morphisms) for g1 in range(nd))
    cat = FiniteCategory(
        c.n_objects * d.n_objects, tuple(src), tuple(tgt), tuple(ident),
        table,
    )
    return ProductCategory(d, cat)


# ---------------------------------------------------------------------------
# standard small categories

@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def terminal_category() -> FiniteCategory:
    return make_category(1, [(0, 0)], [0], {(0, 0): 0},
                         object_names=["pt"], morphism_names=["id_pt"])


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def discrete_category(n: int) -> FiniteCategory:
    return make_category(
        n, [(x, x) for x in range(n)], list(range(n)),
        {(x, x): x for x in range(n)},
    )


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def arrow_category() -> FiniteCategory:
    # objects x=0, y=1; morphisms id_x=0, id_y=1, f=2: x->y
    pairs = {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2}
    return make_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1], pairs,
                         object_names=["x", "y"],
                         morphism_names=["id_x", "id_y", "f"])


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def indiscrete_category(n: int) -> FiniteCategory:
    """Exactly one morphism between any ordered pair of objects."""
    mor = [(x, y) for x in range(n) for y in range(n)]
    mid = {(x, y): x * n + y for x in range(n) for y in range(n)}
    pairs = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                pairs[(mid[(x, y)], mid[(y, z)])] = mid[(x, z)]
    return make_category(n, mor, [mid[(x, x)] for x in range(n)], pairs)


def monoid_category(op: list[list[int]], unit: int,
                    names: list[str] | None = None) -> FiniteCategory:
    """One-object category from a monoid multiplication table.

    ``op[a][b]`` is the product "a then b" (i.e. b∘a as endomorphisms).
    """
    n = len(op)
    pairs = {(a, b): op[a][b] for a in range(n) for b in range(n)}
    return make_category(1, [(0, 0)] * n, [unit], pairs,
                         morphism_names=names)


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def cyclic_group_category(k: int) -> FiniteCategory:
    op = [[(a + b) % k for b in range(k)] for a in range(k)]
    return monoid_category(op, 0, [f"g{a}" for a in range(k)])


def poset_category(n: int, leq: set[tuple[int, int]],
                   object_names=None) -> FiniteCategory:
    """Category of a partial order; ``leq`` must contain (x, x) and be
    transitively closed."""
    rel = sorted(leq)
    mid = {p: i for i, p in enumerate(rel)}
    pairs = {}
    for (x, y) in rel:
        for (y2, z) in rel:
            if y2 == y:
                pairs[(mid[(x, y)], mid[(y, z)])] = mid[(x, z)]
    names = None
    if object_names:
        names = [f"{object_names[x]}<={object_names[y]}" for (x, y) in rel]
    return make_category(n, rel, [mid[(x, x)] for x in range(n)], pairs,
                         object_names=object_names, morphism_names=names)


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def pseudo_circle_category() -> FiniteCategory:
    """Objects a,b,c,d with nonidentity arrows a->c, a->d, b->c, b->d."""
    leq = {(x, x) for x in range(4)} | {(0, 2), (0, 3), (1, 2), (1, 3)}
    return poset_category(4, leq, object_names=["a", "b", "c", "d"])


@lru_cache(maxsize=CONSTRUCTOR_CACHE)
def total_order_category(n: int) -> FiniteCategory:
    leq = {(x, y) for x in range(n) for y in range(n) if x <= y}
    return poset_category(n, leq)
