"""Natural systems of finitely presented abelian groups and their morphisms.

A natural system on C is a functor from the realized factorization category
of C to abelian groups: one ``PresentedGroup`` per morphism of C and one
``GroupHom`` per factorization pair, functorial on the nose.  The generic
carrier is ``AbFunctor`` (a group-valued functor on any finite category);
``NaturalSystem`` pins one to a factorization category.
``validate_natural_system`` checks a system on its one-sided presentation:
well-defined generators, identity pairs acting as the identity, the
composition relations of the left and of the right actions, and the tie of
every pair's action to both one-sided composites.  Together these imply
functoriality on the whole factorization category without composing it.
Likewise ``validate_bifunctor`` checks a functor on C^op x C on its
generators ``(h, 1)`` and ``(1, k)`` before ``from_bifunctor`` pulls it back
to a natural system.

Morphisms of pairs (C, D) -> (D', E) carry a natural transformation
``alpha: phi => psi`` between functors D' -> C as their anchor and a
component family ``t: D∘F(alpha) => E`` over the factorization category of
D'.  Keeping the anchor explicit turns the 2-categorical bookkeeping of
whiskering, composition and two-morphism validation into checkable shape
conditions instead of silent conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import (
    GroupHom, PresentedGroup, hom_compose, is_iso,
)
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report, ShapeMismatch,
    horizontal_compose, identity_nat,
)
from .factorization import (
    FactorizationCategory, build_factorization, factor_nat,
    factor_two_morphism, projection_to_pair, two_morphism_target,
    op_pair_product,
)


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
    category: FiniteCategory
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

    def is_natural_iso(self) -> bool:
        return all(is_iso(t) for t in self.components)

    def equal_mod(self, other: "AbNat") -> bool:
        return all(a.equal_mod(b)
                   for a, b in zip(self.components, other.components))


# ---------------------------------------------------------------------------
# natural systems

@dataclass(frozen=True)
class NaturalSystem:
    fc: FactorizationCategory
    functor: AbFunctor   # on fc.category

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
    pairs only.
    """
    rep = Report("natural system")
    fcat = d.fc.category
    if d.functor.category != fcat:
        rep.violations.append("functor not defined on the factorization category")
        return rep
    c = d.base
    name = c.morphism_name
    values, homs = d.functor.values, d.functor.homs

    def pair_name(i: int) -> str:
        p = d.fc.pairs[i]
        return f"({name(p.h)},{name(p.k)}): {name(p.src)} -> {name(p.dst)}"

    if len(values) != fcat.n_objects or len(homs) != fcat.n_morphisms:
        rep.violations.append("value or action table has the wrong size")
        return rep
    for i in range(fcat.n_morphisms):
        h = homs[i]
        if h.source != values[fcat.mor_source[i]] or \
                h.target != values[fcat.mor_target[i]]:
            rep.violations.append(
                f"action at {pair_name(i)} connects the wrong groups")
    if rep.violations:
        return rep

    # the generators, by (f, leg); an identity leg gives the identity pair
    left: dict[tuple[int, int], GroupHom] = {}
    right: dict[tuple[int, int], GroupHom] = {}
    two_sided = []
    for i, p in enumerate(d.fc.pairs):
        h_id, k_id = c.is_identity(p.h), c.is_identity(p.k)
        if k_id:
            left[p.src, p.h] = homs[i]
        if h_id:
            right[p.src, p.k] = homs[i]
        if not h_id and not k_id:
            two_sided.append(i)
        elif not (h_id and k_id):
            g = homs[i]
            if not g.target.solver.contains_matrix(
                    g.matrix @ g.source.relations):
                rep.violations.append(
                    f"action at {pair_name(i)} does not preserve relations")
    if rep.violations:
        return rep

    for f in range(c.n_morphisms):
        if not left[f, c.identity[c.mor_source[f]]].equal_mod(
                GroupHom.identity(values[f])):
            rep.violations.append(
                f"identity pair of {name(f)} does not act as the identity")
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
                if not _composes_to(left[f, h], left[fh, h2], left[f, hh2]):
                    rep.violations.append(
                        f"functoriality fails: act {name(f)} -| {name(h)} "
                        f"then act {name(fh)} -| {name(h2)} differs from "
                        f"act {name(f)} -| {name(hh2)}")
        for k in out_of[c.mor_target[f]]:
            kf = c.table[f][k]
            for k2 in out_of[c.mor_target[k]]:
                k2k = c.table[k][k2]
                if not _composes_to(right[f, k], right[kf, k2],
                                    right[f, k2k]):
                    rep.violations.append(
                        f"functoriality fails: act {name(f)} |- {name(k)} "
                        f"then act {name(kf)} |- {name(k2)} differs from "
                        f"act {name(f)} |- {name(k2k)}")
    if rep.violations:
        return rep
    for i in two_sided:
        p = d.fc.pairs[i]
        fh = c.table[p.h][p.src]
        kf = c.table[p.src][p.k]
        if not _composes_to(left[p.src, p.h], right[fh, p.k], homs[i]) or \
                not _composes_to(right[p.src, p.k], left[kf, p.h], homs[i]):
            rep.violations.append(
                f"one-sided factorizations disagree at {pair_name(i)}")
    return rep


def _composes_to(first: GroupHom, then: GroupHom, whole: GroupHom) -> bool:
    """``then∘first == whole`` modulo the relations of whole's target."""
    m = then.matrix @ first.matrix
    return m == whole.matrix or \
        whole.target.solver.contains_matrix(m - whole.matrix)


def constant_system(c: FiniteCategory, g: PresentedGroup) -> NaturalSystem:
    fc = build_factorization(c)
    values = (g,) * c.n_morphisms
    ident = GroupHom.identity(g)
    homs = (ident,) * len(fc.pairs)
    return NaturalSystem(fc, AbFunctor(fc.category, values, homs))


def validate_bifunctor(c: FiniteCategory, bif: AbFunctor) -> Report:
    """Check a group-valued functor on C^op x C on its generators.

    Every morphism (h, k) of C^op x C is (h, 1) after (1, k) and (1, k)
    after (h, 1).  So after the table sizes and the groups of every action,
    only these composites are compared with the table, modulo the target's
    relations: each identity goes to the identity; (h', 1)∘(h, 1) and
    (1, k')∘(1, k) for composable non-identity legs (functoriality in each
    variable); and both factorizations of every (h, k) with non-identity
    legs (the generators commute, and tie every action to them).  Together
    they give ``F(b)∘F(a) = F(b∘a)`` on every composable pair without
    composing them all."""
    rep = Report("bifunctor")
    prod = op_pair_product(c)
    cat = prod.category
    if bif.category != cat or len(bif.values) != cat.n_objects or \
            len(bif.homs) != cat.n_morphisms:
        rep.violations.append("bifunctor not defined on C^op x C")
        return rep
    values, homs = bif.values, bif.homs

    def name(m: int) -> str:
        h, k = prod.mor_pair(m)
        return f"({c.morphism_name(h)},{c.morphism_name(k)})"

    for m in range(cat.n_morphisms):
        if homs[m].source != values[cat.mor_source[m]] or \
                homs[m].target != values[cat.mor_target[m]]:
            rep.violations.append(
                f"action at {name(m)} connects the wrong groups")
    if rep.violations:
        return rep
    for o in range(cat.n_objects):
        e = cat.identity[o]
        if not homs[e].equal_mod(GroupHom.identity(values[o])):
            rep.violations.append(f"{name(e)} does not act as the identity")
    moving = [f for f in range(c.n_morphisms) if not c.is_identity(f)]
    ident = c.identity
    pairs = []      # composable (a, b): b∘a is checked against the table
    for f1 in moving:
        for f2 in moving:
            if c.mor_target[f2] == c.mor_source[f1]:   # f1 then f2 in C^op
                pairs.extend((prod.mor_id(f1, ident[y]),
                              prod.mor_id(f2, ident[y]))
                             for y in range(c.n_objects))
            if c.mor_target[f1] == c.mor_source[f2]:   # f1 then f2 in C
                pairs.extend((prod.mor_id(ident[x], f1),
                              prod.mor_id(ident[x], f2))
                             for x in range(c.n_objects))
    for h in moving:
        for k in moving:
            # h: X' -> X in C is X -> X' in C^op
            x, x2 = c.mor_target[h], c.mor_source[h]
            y, y2 = c.mor_source[k], c.mor_target[k]
            pairs.append((prod.mor_id(ident[x], k), prod.mor_id(h, ident[y2])))
            pairs.append((prod.mor_id(h, ident[y]), prod.mor_id(ident[x2], k)))
    for a, b in pairs:
        if not hom_compose(homs[b], homs[a]).equal_mod(homs[cat.table[a][b]]):
            rep.violations.append(
                f"functoriality fails composing {name(a)} then {name(b)}")
    return rep


def from_bifunctor(c: FiniteCategory, bif: AbFunctor) -> NaturalSystem:
    """Natural system induced by a functor on C^op x C via the projection;
    ``BifunctorInvalid`` carries the report of ``validate_bifunctor``."""
    rep = validate_bifunctor(c, bif)
    if not rep.ok:
        raise BifunctorInvalid(rep)
    prod = op_pair_product(c)
    fc = build_factorization(c)
    proj = projection_to_pair(c, fc, prod)
    return NaturalSystem(fc, bif.pullback(proj))


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
    src = pullback_along_nat(d, alpha)
    dst = pullback_along_nat(d, beta)
    comps = tuple(d.act(ft.components[sigma])
                  for sigma in range(alpha.domain.n_morphisms))
    return NatSysMorphism(beta, d, dst, AbNat(src.functor, dst.functor, comps))


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

