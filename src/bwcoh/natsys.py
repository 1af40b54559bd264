"""Natural systems of finitely presented abelian groups and their morphisms.

A natural system on C is a functor from the factorization category F(C)
of C to abelian groups: one ``PresentedGroup`` per morphism of C and one
``GroupHom`` per factorization pair, functorial on the nose.  The generic
carrier is ``AbFunctor`` (a group-valued functor on any finite category);
``NaturalSystem`` pins one to a factorization category.
``validate_natural_system`` checks a system on its one-sided presentation:
well-defined generators, identity pairs acting as the identity, the
composition relations of the left and of the right actions, and the tie of
every pair's action to both one-sided composites.  Together these imply
functoriality on the whole factorization category without composing it.
A functor on C^op x C is given keyed by C itself, its groups by pairs of
objects and its actions by pairs of morphisms; ``validate_bifunctor`` checks
it on its generators ``(h, 1)`` and ``(1, k)`` with C's own composition
table, and ``from_bifunctor`` reads the natural system off it, D(f) at the
pair (source f, target f) and D(h, k) at (h, k), without building the
product category.  ``free_system`` builds the free module over a group on a
set-valued functor on C^op x C, given by a basis per pair of objects and the
image of each basis element along each pair of morphisms; ``hom_system`` is
the bimodule on Hom, whose cohomology is Hochschild–Mitchell cohomology.

Morphisms of pairs (C, D) -> (D', E) carry a natural transformation
``alpha: phi => psi`` between functors D' -> C as their anchor and a
component family ``t: D∘F(alpha) => E`` over the factorization category of
D'.  Keeping the anchor explicit turns the 2-categorical bookkeeping of
whiskering, composition and two-morphism validation into checkable shape
conditions instead of silent conventions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .abgroup import GroupHom, PresentedGroup, direct_product, hom_compose
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report, ShapeMismatch,
    horizontal_compose, identity_nat,
)
from .factorization import (
    FactorizationCategory, build_factorization, factor_nat,
    factor_two_morphism, two_morphism_target,
)
from .intmat import IntMatrix


class BifunctorInvalid(ValueError):
    def __init__(self, report: Report):
        super().__init__(str(report))
        self.report = report


class TwoMorphismInvalid(ValueError):
    pass


# ---------------------------------------------------------------------------
# group-valued functors on a finite category

@dataclass(frozen=True)
class AbFunctor:
    category: FiniteCategory | FactorizationCategory
    values: tuple[PresentedGroup, ...]   # per object
    homs: tuple[GroupHom, ...]           # per morphism

    def pullback(self, functor: Functor) -> "AbFunctor":
        """Precompose along a functor into this functor's category."""
        if functor.target != self.category:
            raise ShapeMismatch("pullback functor does not land in the category")
        return AbFunctor(
            functor.source,
            tuple(self.values[functor.obj_map[x]]
                  for x in range(functor.source.n_objects)),
            tuple(self.homs[functor.mor_map[m]]
                  for m in range(functor.source.n_morphisms)),
        )

    def equal_mod(self, other: "AbFunctor") -> bool:
        if self.category != other.category or self.values != other.values:
            return False
        return all(a.equal_mod(b) for a, b in zip(self.homs, other.homs))


@dataclass(frozen=True)
class AbNat:
    """Natural transformation between group-valued functors on one category."""
    source: AbFunctor
    target: AbFunctor
    components: tuple[GroupHom, ...]   # per object

    @staticmethod
    def identity(f: AbFunctor) -> "AbNat":
        return AbNat(f, f, tuple(GroupHom.identity(v) for v in f.values))

    def compose(self, first: "AbNat") -> "AbNat":
        """self ∘ first, componentwise."""
        if first.target.values != self.source.values:
            raise ShapeMismatch("component groups do not chain")
        return AbNat(first.source, self.target, tuple(
            hom_compose(a, b) for a, b in zip(self.components, first.components)
        ))

    def pullback(self, functor: Functor) -> "AbNat":
        return AbNat(
            self.source.pullback(functor),
            self.target.pullback(functor),
            tuple(self.components[functor.obj_map[x]]
                  for x in range(functor.source.n_objects)),
        )

    def equal_mod(self, other: "AbNat") -> bool:
        return all(a.equal_mod(b)
                   for a, b in zip(self.components, other.components))


# ---------------------------------------------------------------------------
# natural systems

@dataclass(frozen=True)
class NaturalSystem:
    fc: FactorizationCategory
    functor: AbFunctor   # on fc

    @property
    def base(self) -> FiniteCategory:
        return self.fc.base

    def value(self, f: int) -> PresentedGroup:
        """The group attached to the base morphism f."""
        return self.functor.values[f]

    def act(self, pair_id: int) -> GroupHom:
        return self.functor.homs[pair_id]

    def act_pair(self, src: int, dst: int, h: int, k: int) -> GroupHom:
        return self.functor.homs[self.fc.pair_id(src, dst, h, k)]


def validate_natural_system(d: NaturalSystem) -> Report:
    """Check ``d`` on its one-sided presentation.

    A natural system is given by its groups and the one-sided actions
    ``L(f, h) = D(h, 1): D(f) -> D(f∘h)`` and ``R(f, k) = D(1, k): D(f) ->
    D(k∘f)``, the generators that a workspace's ``act f -| h`` and
    ``act f |- k`` lines declare (Baues–Wirsching 1985).  Checked, in order:

    * the tables have the right sizes and every action connects the right
      groups;
    * every generator's matrix preserves relations;
    * identity pairs act as the identity;
    * ``L(f∘h, h')∘L(f, h) = L(f, h∘h')`` and ``R(k∘f, k')∘R(f, k) =
      R(f, k'∘k)`` for composable non-identity legs;
    * every pair's action equals both one-sided composites
      ``R(f∘h, k)∘L(f, h)`` and ``L(k∘f, h)∘R(f, k)``.

    Equalities hold modulo the target's relations.  Together they give
    functoriality on every composable pair of the factorization category:
    ``D(h', k')∘D(h, k)`` becomes ``D(h∘h', k'∘k)`` by commuting the middle
    generators through the tie at ``f∘h`` and merging each side, and
    composing equalities modulo relations needs well-defined generators.
    A pair with an identity leg is a generator, whose tie follows from the
    identity and well-definedness checks, so the tie runs over two-sided
    pairs only.  Each distinct generator is checked to preserve relations,
    and each distinct (then, first, whole) triple composed and compared,
    once per call; the pairs that share it all get its verdict.
    """
    rep = Report("natural system")
    fc = d.fc
    if d.functor.category != fc:
        rep.violations.append("functor not defined on the factorization category")
        return rep
    c = d.base
    name = c.morphism_name
    values, homs = d.functor.values, d.functor.homs

    def pair_name(i: int) -> str:
        p = fc.pairs[i]
        return f"({name(p.h)},{name(p.k)}): {name(p.src)} -> {name(p.dst)}"

    if len(values) != fc.n_objects or len(homs) != fc.n_morphisms:
        rep.violations.append("value or action table has the wrong size")
        return rep
    for i, p in enumerate(fc.pairs):
        h, src, dst = homs[i], values[p.src], values[p.dst]
        if (h.source is not src and h.source != src) or \
                (h.target is not dst and h.target != dst):
            rep.violations.append(
                f"action at {pair_name(i)} connects the wrong groups")
    if rep.violations:
        return rep

    # the generators, by (f, leg); an identity leg gives the identity pair.
    # Action maps are told apart by identity, which the tables keep alive
    # for the call and which costs no hash of a matrix: systems share one
    # map among many pairs, and each distinct map is checked once
    left: dict[tuple[int, int], GroupHom] = {}
    right: dict[tuple[int, int], GroupHom] = {}
    two_sided = []
    well_defined: dict[int, bool] = {}
    for i, p in enumerate(fc.pairs):
        h_id, k_id = c.is_identity(p.h), c.is_identity(p.k)
        if k_id:
            left[p.src, p.h] = homs[i]
        if h_id:
            right[p.src, p.k] = homs[i]
        if not h_id and not k_id:
            two_sided.append(i)
        elif not (h_id and k_id):
            g = homs[i]
            ok = well_defined.get(id(g))
            if ok is None:
                ok = well_defined[id(g)] = g.target.solver.contains_matrix(
                    g.matrix @ g.source.relations)
            if not ok:
                rep.violations.append(
                    f"action at {pair_name(i)} does not preserve relations")
    if rep.violations:
        return rep

    for f in range(c.n_morphisms):
        if not left[f, c.identity[c.mor_source[f]]].equal_mod(
                GroupHom.identity(values[f])):
            rep.violations.append(
                f"identity pair of {name(f)} does not act as the identity")
    # each distinct (then, first, whole) triple is composed and compared once
    seen: dict[tuple[int, int, int], bool] = {}

    def commutes(then: GroupHom, first: GroupHom, whole: GroupHom) -> bool:
        key = id(then), id(first), id(whole)
        ok = seen.get(key)
        if ok is None:
            ok = seen[key] = hom_compose(then, first).equal_mod(whole)
        return ok

    into = [[] for _ in range(c.n_objects)]
    out_of = [[] for _ in range(c.n_objects)]
    for m in range(c.n_morphisms):
        if not c.is_identity(m):
            into[c.mor_target[m]].append(m)
            out_of[c.mor_source[m]].append(m)
    for f in range(c.n_morphisms):
        for h in into[c.mor_source[f]]:
            fh = c.table[h][f]
            for h2 in into[c.mor_source[h]]:
                hh2 = c.table[h2][h]
                if not commutes(left[fh, h2], left[f, h], left[f, hh2]):
                    rep.violations.append(
                        f"functoriality fails: act {name(f)} -| {name(h)} "
                        f"then act {name(fh)} -| {name(h2)} differs from "
                        f"act {name(f)} -| {name(hh2)}")
        for k in out_of[c.mor_target[f]]:
            kf = c.table[f][k]
            for k2 in out_of[c.mor_target[k]]:
                k2k = c.table[k][k2]
                if not commutes(right[kf, k2], right[f, k], right[f, k2k]):
                    rep.violations.append(
                        f"functoriality fails: act {name(f)} |- {name(k)} "
                        f"then act {name(kf)} |- {name(k2)} differs from "
                        f"act {name(f)} |- {name(k2k)}")
    if rep.violations:
        return rep
    for i in two_sided:
        p = fc.pairs[i]
        fh = c.table[p.h][p.src]
        kf = c.table[p.src][p.k]
        whole = homs[i]
        if not commutes(right[fh, p.k], left[p.src, p.h], whole) \
                or not commutes(left[kf, p.h], right[p.src, p.k], whole):
            rep.violations.append(
                f"one-sided factorizations disagree at {pair_name(i)}")
    return rep


def constant_system(c: FiniteCategory, g: PresentedGroup) -> NaturalSystem:
    fc = build_factorization(c)
    values = (g,) * c.n_morphisms
    ident = GroupHom.identity(g)
    homs = (ident,) * len(fc.pairs)
    return NaturalSystem(fc, AbFunctor(fc, values, homs))


def validate_bifunctor(c: FiniteCategory,
                       values: dict[tuple[int, int], PresentedGroup],
                       acts: dict[tuple[int, int], GroupHom]) -> Report:
    """Check a group-valued functor on C^op x C on its generators.

    The functor is keyed by C itself: ``values[x, y]`` at each pair of
    objects, and ``acts[h, k]``: ``values[x, y] -> values[x', y']`` along
    each pair of morphisms h: x' -> x and k: y -> y' of C.  Every morphism
    (h, k) of C^op x C is (h, 1) after (1, k) and (1, k) after (h, 1), and
    (h2, k2)∘(h1, k1) = (h1∘h2, k2∘k1).  So after the keys and the groups
    of every action, only these composites are compared with the table,
    modulo the target's relations: each identity goes to the identity;
    (h', 1)∘(h, 1) and (1, k')∘(1, k) for composable non-identity legs
    (functoriality in each variable); and both factorizations of every
    (h, k) with non-identity legs (the generators commute, and tie every
    action to them).  Together they give ``F(b)∘F(a) = F(b∘a)`` on every
    composable pair without composing them all."""
    rep = Report("bifunctor")
    objects, mors = range(c.n_objects), range(c.n_morphisms)
    if any((x, y) not in values for x in objects for y in objects) or \
            any((h, k) not in acts for h in mors for k in mors):
        rep.violations.append("bifunctor not defined on C^op x C")
        return rep
    src, tgt, ident, table = c.mor_source, c.mor_target, c.identity, c.table

    def name(h: int, k: int) -> str:
        return f"({c.morphism_name(h)},{c.morphism_name(k)})"

    for h in mors:
        for k in mors:
            if acts[h, k].source != values[tgt[h], src[k]] or \
                    acts[h, k].target != values[src[h], tgt[k]]:
                rep.violations.append(
                    f"action at {name(h, k)} connects the wrong groups")
    if rep.violations:
        return rep
    for x in objects:
        for y in objects:
            if not acts[ident[x], ident[y]].equal_mod(
                    GroupHom.identity(values[x, y])):
                rep.violations.append(
                    f"{name(ident[x], ident[y])} does not act as the identity")
    moving = [f for f in mors if not c.is_identity(f)]
    pairs = []      # composable ((h1, k1), (h2, k2)), (h1, k1) applied first
    for f1 in moving:
        for f2 in moving:
            if tgt[f2] == src[f1]:   # f1 then f2 in C^op
                pairs.extend(((f1, ident[y]), (f2, ident[y])) for y in objects)
            if tgt[f1] == src[f2]:   # f1 then f2 in C
                pairs.extend(((ident[x], f1), (ident[x], f2)) for x in objects)
    for h in moving:
        for k in moving:
            pairs.append(((ident[tgt[h]], k), (h, ident[tgt[k]])))
            pairs.append(((h, ident[src[k]]), (ident[src[h]], k)))
    for (h1, k1), (h2, k2) in pairs:
        if not hom_compose(acts[h2, k2], acts[h1, k1]).equal_mod(
                acts[table[h2][h1], table[k1][k2]]):
            rep.violations.append(
                f"functoriality fails composing {name(h1, k1)} "
                f"then {name(h2, k2)}")
    return rep


def from_bifunctor(c: FiniteCategory,
                   values: dict[tuple[int, int], PresentedGroup],
                   acts: dict[tuple[int, int], GroupHom]) -> NaturalSystem:
    """The natural system D(f) = ``values[source f, target f]``, D(h, k) =
    ``acts[h, k]`` induced by a functor on C^op x C, keyed as in
    ``validate_bifunctor``; ``BifunctorInvalid`` carries its report."""
    rep = validate_bifunctor(c, values, acts)
    if not rep.ok:
        raise BifunctorInvalid(rep)
    fc = build_factorization(c)
    return NaturalSystem(fc, AbFunctor(
        fc,
        tuple(values[c.mor_source[f], c.mor_target[f]]
              for f in range(c.n_morphisms)),
        tuple(acts[p.h, p.k] for p in fc.pairs)))


def free_system(c: FiniteCategory, g: PresentedGroup,
                basis: Callable[[int, int], list],
                image: Callable[[int, int, object], object]) -> NaturalSystem:
    """The free ``g``-module on a set-valued functor S on C^op x C.

    ``basis(x, y)`` lists S(x, y), and ``image(h, k, u)`` is S(h, k)(u), an
    element of ``basis(source h, target k)`` for u in ``basis(target h,
    source k)``.  The bifunctor has ``values[x, y]`` = g^|S(x, y)| and
    ``acts[h, k]`` sending the summand of u to the summand of its image by
    the identity of g, which is well defined for every g."""
    objects = range(c.n_objects)
    bases = {(x, y): basis(x, y) for x in objects for y in objects}
    values = {xy: direct_product([g] * len(b)) for xy, b in bases.items()}
    n = g.generators
    acts = {}
    for h in range(c.n_morphisms):
        for k in range(c.n_morphisms):
            src = c.mor_target[h], c.mor_source[k]
            dst = c.mor_source[h], c.mor_target[k]
            dst_basis = bases[dst]
            rows, cols = len(dst_basis) * n, len(bases[src]) * n
            ent = [0] * (rows * cols)
            for j, u in enumerate(bases[src]):
                i = dst_basis.index(image(h, k, u))
                for t in range(n):
                    ent[(i * n + t) * cols + j * n + t] = 1
            acts[h, k] = GroupHom(values[src], values[dst],
                                  IntMatrix(rows, cols, tuple(ent)))
    return from_bifunctor(c, values, acts)


def hom_system(c: FiniteCategory, g: PresentedGroup) -> NaturalSystem:
    """The bimodule g[Hom]: D(f) is free over g on Hom(source f, target f),
    and (h, k) sends u to k∘u∘h."""
    return free_system(c, g, c.hom, lambda h, k, u: c.table[h][c.table[u][k]])


def pullback_along_nat(d: NaturalSystem,
                       alpha: NaturalTransformation) -> NaturalSystem:
    """The composite system D∘F(alpha) on the domain of alpha's functors.

    alpha: phi => psi with phi, psi: A -> C where C is the base of d; the
    special case alpha = identity of phi gives the pullback along phi.
    """
    if alpha.codomain != d.base:
        raise ShapeMismatch("transformation does not land in the system's base")
    fc_dom = build_factorization(alpha.domain)
    realized = factor_nat(alpha, fc_dom, d.fc)
    return NaturalSystem(fc_dom, d.functor.pullback(realized))


# ---------------------------------------------------------------------------
# morphisms of pairs (C, D) -> (D', E)

@dataclass(frozen=True)
class NatSysMorphism:
    """A pair morphism (alpha, t): (C, D) -> (D', E).

    ``alpha: phi => psi`` between functors D' -> C; ``t`` is a natural family
    D∘F(alpha) => E over the factorization category of D'.
    """
    alpha: NaturalTransformation
    source_system: NaturalSystem
    target_system: NaturalSystem
    nat: AbNat

    def component(self, sigma: int) -> GroupHom:
        """t at the target-base morphism sigma."""
        return self.nat.components[sigma]


def morphism_from_functor(phi: Functor, d: NaturalSystem,
                          target: NaturalSystem, nat: AbNat) -> NatSysMorphism:
    """The embedded ordinary morphism (phi, t), anchored at the identity of phi."""
    return NatSysMorphism(identity_nat(phi), d, target, nat)


def whisker(t: NatSysMorphism, beta: NaturalTransformation) -> NatSysMorphism:
    """t * 1_{F(beta)}: components reindexed along F(beta).

    For t: D∘F(alpha) => E over D' and beta between functors E' -> D', the
    result is a family D∘F(alpha*beta) => E∘F(beta) over E'.
    """
    if beta.codomain != t.target_system.base:
        raise ShapeMismatch("whiskering transformation does not chain")
    fc_new = build_factorization(beta.domain)
    realized = factor_nat(beta, fc_new, t.target_system.fc)
    alpha_beta = horizontal_compose(t.alpha, beta)
    return NatSysMorphism(
        alpha_beta,
        t.source_system,
        NaturalSystem(fc_new, t.target_system.functor.pullback(realized)),
        t.nat.pullback(realized),
    )


def compose_natsys_morphisms(s: NatSysMorphism, t: NatSysMorphism
                             ) -> NatSysMorphism:
    """The pair-morphism composite (beta, s)(alpha, t) = (alpha*beta, s∘(t*1_{F(beta)}))."""
    if t.target_system.base != s.source_system.base or \
       t.target_system.functor.values != s.source_system.functor.values:
        raise ShapeMismatch("pair morphisms do not chain")
    whiskered = whisker(t, s.alpha)
    return NatSysMorphism(
        whiskered.alpha,
        t.source_system,
        s.target_system,
        s.nat.compose(whiskered.nat),
    )


def act_by_two_morphism(d: NaturalSystem,
                        alpha: NaturalTransformation,
                        eps: NaturalTransformation,
                        gam: NaturalTransformation) -> NatSysMorphism:
    """1_D * F(eps, gam): D∘F(alpha) => D∘F(beta) for (eps, gam): alpha => beta.

    The component at a morphism sigma: X -> Y of the anchor domain is the
    action of D along the pair (eps_X, gam_Y).
    """
    beta = two_morphism_target(alpha, eps, gam)
    fc_dom = build_factorization(alpha.domain)
    ft = factor_two_morphism(alpha, beta, eps, gam, fc_dom, d.fc)
    src = d.functor.pullback(ft.source_functor)
    dst = NaturalSystem(fc_dom, d.functor.pullback(ft.target_functor))
    comps = tuple(d.act(ft.components[sigma])
                  for sigma in range(alpha.domain.n_morphisms))
    return NatSysMorphism(beta, d, dst, AbNat(src, dst.functor, comps))


@dataclass(frozen=True)
class NatFTwoMorphism:
    """A two-morphism (eps, gam): (alpha, t) => (beta, s) between pair morphisms.

    eps: xi => phi and gam: psi => zeta with gam∘alpha∘eps == beta, and the
    coherence t == s∘(1_D * F(eps, gam)).
    """
    src: NatSysMorphism   # (alpha, t)
    dst: NatSysMorphism   # (beta, s)
    eps: NaturalTransformation
    gam: NaturalTransformation

    def validate(self) -> Report:
        rep = Report("pair two-morphism")
        if self.src.source_system is not self.dst.source_system and \
           self.src.source_system != self.dst.source_system:
            rep.violations.append("two-morphism endpoints have different sources")
        if self.src.target_system.functor.values != \
           self.dst.target_system.functor.values:
            rep.violations.append("two-morphism endpoints have different targets")
        if rep.violations:
            return rep
        alpha, beta = self.src.alpha, self.dst.alpha
        if two_morphism_target(alpha, self.eps, self.gam) != beta:
            rep.violations.append("gam∘alpha∘eps differs from beta")
            return rep
        action = act_by_two_morphism(self.src.source_system, alpha,
                                     self.eps, self.gam)
        lhs = self.src.nat
        rhs = self.dst.nat.compose(action.nat)
        if not lhs.equal_mod(rhs):
            rep.violations.append("coherence t == s∘(1_D*F(eps,gam)) fails")
        return rep

    def require(self) -> "NatFTwoMorphism":
        rep = self.validate()
        if not rep.ok:
            raise TwoMorphismInvalid(str(rep))
        return self


def identity_two_morphism(t: NatSysMorphism) -> NatFTwoMorphism:
    eps = identity_nat(t.alpha.source_functor)
    gam = identity_nat(t.alpha.target_functor)
    return NatFTwoMorphism(t, t, eps, gam)


def vertical_compose_two(b: NatFTwoMorphism, a: NatFTwoMorphism
                         ) -> NatFTwoMorphism:
    """(eps', gam')(eps, gam) = (eps∘eps', gam'∘gam), from a then b."""
    if a.dst is not b.src and a.dst.alpha != b.src.alpha:
        raise ShapeMismatch("two-morphisms do not stack")
    from .fincat import vertical_compose as vc
    return NatFTwoMorphism(a.src, b.dst, vc(a.eps, b.eps), vc(b.gam, a.gam))


def horizontal_compose_two(b: NatFTwoMorphism, a: NatFTwoMorphism
                           ) -> NatFTwoMorphism:
    """(eps', gam')*(eps, gam) = (eps*eps', gam*gam') on composed pair morphisms."""
    return NatFTwoMorphism(
        compose_natsys_morphisms(b.src, a.src),
        compose_natsys_morphisms(b.dst, a.dst),
        horizontal_compose(a.eps, b.eps),
        horizontal_compose(a.gam, b.gam),
    )

