"""(Co)localization data and constructive verification of the transport theorems.

A localization is an explicit adjoint pair: a projection ``phi: C -> D`` and
an inclusion ``psi: D -> C`` with ``phi∘psi`` the identity of D, the counit
the identity, and the unit ``alpha: 1_C => psi∘phi`` supplied componentwise.
Dually a colocalization carries a counit ``psi∘phi => 1_C`` and an identity
unit.  The pair's type (``Localization`` or ``Colocalization``) fixes which
side every check works on.  ``verify_transport_theorem`` takes the adjunction
data as given.  Only ``transport_to_small`` searches for pairs, and only in
two families that the category alone determines: its skeleton, and a
terminal or initial object.

Locality: a system D is local for a localization with unit alpha when its
action along ``(1_X, f)`` is invertible for every f inverted by ``phi``
(colocal: along ``(f, 1_Y)``, with the counit), and the canonical comparison
``D => D∘F(alpha)`` is the executable counterpart.  The library's
constructors produce systems for which both tests agree;
``local_characterization`` and ``colocal_characterization`` compute them
independently, by one body, and report them side by side with a witness.

``verify_transport_theorem`` certifies that the inclusion induces
isomorphisms on cohomology with a local (colocal) coefficient system, three
independent ways:

(a) invariant comparison: both sides computed separately degree by degree;
(b) explicit inverse: the induced chain map is inverted up to cohomology by
    the chain map built from the unit correction, and both composites are
    checked to induce the identity;
(c) homotopy route: one composite is the identity on the nose; the other is
    chain homotopic to the identity via the difference of the two canonical
    degree -1 families attached to the unit square, namely
    ``h_{(alpha, 1_xi)} - h_{(1_{1_C}, alpha)}`` (dually
    ``h_{(1_xi, alpha)} - h_{(alpha, 1_{1_C})}``), checked exactly.

They run in the order (c), (b), (a).  Once the maps P' and Q' and the
composite Q'∘P' are built, certificate (c) runs first: it needs no
cohomology, so no reduced cone, subquotient or map on cohomology exists
while its homotopies do.  It checks each family's own ``dh + hd = -p + q``,
that F* of the composed pair morphism is Q'∘P', and then, degree by degree,
``d(h_a - h_b) + (h_a - h_b)d + Q'∘P' - 1 = 0`` as one ``BlockHom``
signed sum of the two families, the composite and the identity, so neither
the difference family nor an identity chain map is ever formed.  Of the
chain maps built for (c) only the two families and ``F*(alpha, 1)`` are
kept, each as long as it is needed.  Then (b) checks ``P'∘Q' = 1`` by one
signed sum per degree, and Q'∘P' on cohomology, and the loop over degrees
computes the invariants of (a) with the maps on cohomology of P.  The first
failure is the one reported: an input that fails both (b) and (c) reports
(c).

All three certificates operate on the pulled-back system ``D∘F(alpha)``; the
canonical comparison ``D => D∘F(alpha)`` is required to be a natural
isomorphism (that is the operative locality hypothesis, and for every system
this library constructs it coincides with the pointwise locality test) and
conjugation by it transports the certificates to ``D`` itself.

A system that is not (co)local raises ``NotLocal``.  Every failed
certificate raises ``CertificateError``, including a chain identity
(``HomotopyIdentityError``) or a two-morphism coherence
(``TwoMorphismInvalid``) that fails inside the check.  So a returned
``TheoremReport`` always passes, and it holds only what the check computed:
the cohomology in each degree and the homotopy used by certificate (c).

Each distinct piece of work is done once.  When ``D∘F(alpha)`` equals ``D``
(compared with ``==``), one complex, with its reduction, serves both, and the
statement map P is also P'.  Both two-morphisms of certificate (c) end at
``(alpha, 1)``, so its chain map ``F*(alpha, 1)`` is built and checked once.

``transport_to_small`` is how ``cohomology`` uses the theorem: it moves a
system to the skeleton of its category, and from there to the point when
the category has a terminal (or else an initial) object, each step taken
only when its pair passes ``validate_adjoint_pair`` and the system passes
both tests of the (co)local characterization.  A skeleton step is skipped
when no two distinct objects are isomorphic.  The search for isomorphisms
costs at most two lookups per stored composable pair, the search for terminal
and initial objects only the endpoints of morphisms, and neither builds a
category, functor or pair when it finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .abgroup import GroupHom, GroupInvariants, hom_inverse, is_iso
from .bwcomplex import (
    BlockHom, CochainComplex, CochainMap, HomotopyIdentityError, _homotopy_h,
    build_complex, cohomology_map, homotopy_h, induced_map_2, induced_map_nat,
    is_cohomology_iso, require_vanishing,
)
from .factorization import factor_nat
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report,
    compose_functors, identity_functor, identity_nat, make_category,
    terminal_category,
)
from .natsys import (
    AbNat, NatFTwoMorphism, NatSysMorphism, NaturalSystem, TwoMorphismInvalid,
    act_by_two_morphism, compose_natsys_morphisms, morphism_from_functor,
    pullback_along_nat,
)


class NotLocal(ValueError):
    pass


class CertificateError(AssertionError):
    pass


@dataclass(frozen=True)
class Localization:
    big: FiniteCategory
    small: FiniteCategory
    phi: Functor            # big -> small
    psi: Functor            # small -> big
    unit: NaturalTransformation   # 1_big => psi∘phi
    kind: ClassVar[str] = "localization"


@dataclass(frozen=True)
class Colocalization:
    big: FiniteCategory
    small: FiniteCategory
    phi: Functor
    psi: Functor
    counit: NaturalTransformation  # psi∘phi => 1_big
    kind: ClassVar[str] = "colocalization"


def validate_adjoint_pair(l: Localization | Colocalization) -> Report:
    rep = Report(l.kind)
    for f, name in ((l.phi, "phi"), (l.psi, "psi")):
        sub = f.validate()
        if not sub.ok:
            rep.violations.extend(f"{name}: {v}" for v in sub.violations)
    if rep.violations:
        return rep
    if l.phi.source != l.big or l.phi.target != l.small or \
       l.psi.source != l.small or l.psi.target != l.big:
        rep.violations.append("functors do not connect big and small")
        return rep
    comp = compose_functors(l.phi, l.psi)
    if comp != identity_functor(l.small):
        rep.violations.append("phi∘psi is not the identity of the small category")
    unit_side = isinstance(l, Localization)
    alpha = l.unit if unit_side else l.counit
    sub = alpha.validate()
    rep.violations.extend(sub.violations)
    if rep.violations:
        return rep
    xi = compose_functors(l.psi, l.phi)
    one = identity_functor(l.big)
    if (alpha.source_functor, alpha.target_functor) != \
            ((one, xi) if unit_side else (xi, one)):
        rep.violations.append("unit does not go 1_C => psi∘phi" if unit_side
                              else "counit does not go psi∘phi => 1_C")
        return rep
    c = l.big
    for x in range(c.n_objects):
        if l.phi.mor_map[alpha.components[x]] != \
                l.small.identity[l.phi.obj_map[x]]:
            rep.violations.append(
                f"triangle identity fails: phi of the component at object {x} "
                f"is not an identity")
    for y in range(l.small.n_objects):
        x = l.psi.obj_map[y]
        if alpha.components[x] != c.identity[x]:
            rep.violations.append(
                f"triangle identity fails: component at the included object "
                f"{x} is not an identity")
    # idempotent form, implied but checked as stated
    if not rep.violations:
        for x in range(c.n_objects):
            if xi.mor_map[alpha.components[x]] != c.identity[xi.obj_map[x]]:
                rep.violations.append(
                    f"idempotent identity 1_xi*alpha fails at object {x}")
    return rep


def inverted_morphisms(l: Localization | Colocalization) -> tuple[int, ...]:
    """All morphisms of the big category sent to isomorphisms by phi."""
    c = l.big
    return tuple(f for f in range(c.n_morphisms)
                 if l.small.is_invertible(l.phi.mor_map[f]))


@dataclass
class Characterization:
    pointwise_local: bool
    canonical_map_iso: bool
    witness: str
    canonical_map: NatSysMorphism = field(repr=False)   # nu: D => D∘F(alpha)


def local_characterization(d: NaturalSystem, l: Localization) -> Characterization:
    """Conditions (pointwise locality) and (canonical comparison is a natural
    isomorphism), computed independently and reported side by side."""
    return _characterization(d, l)


def colocal_characterization(d: NaturalSystem, l: Colocalization
                             ) -> Characterization:
    """The same two conditions for a colocalization, on the counit side."""
    return _characterization(d, l)


def _characterization(d: NaturalSystem, l: Localization | Colocalization
                      ) -> Characterization:
    """Pointwise: the action ``D(1_X, f)`` (unit side) or ``D(f, 1_Y)``
    (counit side) is invertible for every f that phi inverts.  Canonical:
    ``nu = 1_D * F(1, alpha)`` (unit side) or ``1_D * F(alpha, 1)``,
    ``D => D∘F(alpha)``, is a natural isomorphism.  The witness names the
    first failure, pointwise first.  Both tests read actions of ``d``,
    which systems share among many pairs, so each distinct map is decided
    once; they are told apart by identity, as ``d`` keeps them alive."""
    unit_side = isinstance(l, Localization)
    c = d.base
    verdicts: dict[int, bool] = {}

    def invertible(h: GroupHom) -> bool:
        ok = verdicts.get(id(h))
        if ok is None:
            ok = verdicts[id(h)] = is_iso(h)
        return ok

    witness = ""
    for f in inverted_morphisms(l):
        if unit_side:
            e = c.identity[c.mor_source[f]]
            leg, action = f"(1,{c.morphism_name(f)})", d.act_pair(e, f, e, f)
        else:
            e = c.identity[c.mor_target[f]]
            leg, action = f"({c.morphism_name(f)},1)", d.act_pair(e, f, f, e)
        if not invertible(action):
            witness = f"action {leg} is not invertible"
            break
    pointwise = not witness
    one = identity_nat(identity_functor(c))
    nu = (act_by_two_morphism(d, one, one, l.unit) if unit_side
          else act_by_two_morphism(d, one, l.counit, one))
    iso = all(map(invertible, nu.nat.components))
    if pointwise and not iso:
        f = next(f for f, t in enumerate(nu.nat.components)
                 if not invertible(t))
        witness = (f"canonical component at {c.morphism_name(f)} "
                   f"is not invertible")
    return Characterization(pointwise, iso, witness, nu)


@dataclass(frozen=True)
class TheoremReport:
    """A transport check that passed: every certificate raises
    ``CertificateError`` rather than record a failure."""
    invariants: tuple[GroupInvariants, ...]   # H^n of both sides, n = 0, 1..
    homotopy_note: str                        # the homotopy of certificate (c)

    def lines(self) -> list[str]:
        out = [f"degree {n}: big {g.human()} | small {g.human()} | iso"
               for n, g in enumerate(self.invariants)]
        out += ["certificate (a) invariants match: pass",
                "certificate (b) explicit inverse: pass",
                "certificate (c) homotopy route: pass",
                "  " + self.homotopy_note]
        return out


def verify_transport_theorem(d: NaturalSystem,
                             l: Localization | Colocalization,
                             max_degree: int) -> TheoremReport:
    """Certify H^n(C, D) ≅ H^n(small, D∘F(psi)) for n < max_degree by the
    three certificates; raises ``NotLocal`` or ``CertificateError``."""
    validate_adjoint_pair(l).require()
    try:
        return _theorem_certificates(d, l, max_degree)
    except (HomotopyIdentityError, TwoMorphismInvalid) as exc:
        raise CertificateError(str(exc)) from exc


def _theorem_certificates(d: NaturalSystem, l: Localization | Colocalization,
                          max_degree: int) -> TheoremReport:
    unit_side = isinstance(l, Localization)
    c = l.big
    one_c = identity_functor(c)
    xi = compose_functors(l.psi, l.phi)
    alpha = l.unit if unit_side else l.counit
    # through the public names, which perfbench/spans.py wraps
    char = (local_characterization(d, l) if unit_side
            else colocal_characterization(d, l))
    if not char.canonical_map_iso:
        kind = "local" if unit_side else "colocal"
        raise NotLocal(f"coefficient system is not {kind}: {char.witness}")

    nu = char.canonical_map
    d_prime = nu.target_system                    # D∘F(alpha)
    e = pullback_along_nat(d, identity_nat(l.psi))  # D∘F(psi) on the small side

    # D∘F(alpha) often equals D, and then one complex serves both
    cx_d = build_complex(d, max_degree)
    cx_dp = cx_d if d_prime == d else build_complex(d_prime, max_degree)
    cx_e = build_complex(e, max_degree)

    # statement map P: F*(C, D) -> F*(small, E), and its D' version P',
    # which is P itself when D' = D
    p_mor = morphism_from_functor(l.psi, d, e, AbNat.identity(e.functor))
    p_map = induced_map_nat(p_mor, cx_d, cx_e)
    if cx_dp is cx_d:
        pp_mor, pp_map = p_mor, p_map
    else:
        pp_nat = AbNat(pullback_along_nat(d_prime,
                                          identity_nat(l.psi)).functor,
                       e.functor,
                       tuple(GroupHom.identity(v) for v in e.functor.values))
        pp_mor = NatSysMorphism(identity_nat(l.psi), d_prime, e, pp_nat)
        pp_map = induced_map_nat(pp_mor, cx_dp, cx_e)

    # inverse-inducing map Q': F*(small, E) -> F*(C, D') from the unit
    # square: (alpha,1_xi) on the unit side, (1_xi,alpha) on the counit side,
    # both 1_xi => alpha
    one_xi = identity_nat(xi)
    u_mor = (act_by_two_morphism(d, one_xi, alpha, one_xi) if unit_side
             else act_by_two_morphism(d, one_xi, one_xi, alpha))
    q_nat = AbNat(e.functor.pullback(
        factor_nat(identity_nat(l.phi), d.fc, e.fc)),
        d_prime.functor, u_mor.nat.components)
    qp_mor = NatSysMorphism(identity_nat(l.phi), e, d_prime, q_nat)
    qp_map = induced_map_nat(qp_mor, cx_e, cx_dp)

    # certificate (c) first: it needs no cohomology, so no reduced cone or
    # cohomology map is alive while its homotopies are
    big_composite = qp_map.compose(pp_map)   # endomorphism of F*(C, D')
    note = _homotopy_route(d_prime, l, pp_mor, qp_mor, big_composite, cx_dp)

    # certificate (b): composite on the small side is the identity exactly,
    # degree by degree, without forming it
    for n in range(max_degree + 1):
        if BlockHom.signed_sum([
                (1, pp_map.maps[n], qp_map.maps[n]),
                (-1, BlockHom.identity(cx_e.groups[n]), None),
        ]).first_nonzero_coordinate() is not None:
            raise CertificateError("P'∘Q' is not the identity chain map")

    for n in range(max_degree):
        if not _induces_identity(big_composite, n):
            raise CertificateError(
                f"Q'∘P' does not induce the identity on H^{n}")

    # conjugating chain isomorphism N^-1: F*(C, D') -> F*(C, D), induced by
    # the inverse natural isomorphism nu^-1: D' => D.  When nu is the
    # identity, so is N^-1: the round trips through it are then the two
    # composites certified above, and are not checked again
    nu_is_identity = cx_dp is cx_d and all(
        t == GroupHom.identity(t.source) for t in nu.nat.components)
    if not nu_is_identity:
        nu_inv = AbNat(nu.nat.target, nu.nat.source,
                       tuple(hom_inverse(t) for t in nu.nat.components))
        n_inv = induced_map_nat(
            NatSysMorphism(identity_nat(one_c), d_prime, d, nu_inv),
            cx_dp, cx_d)
        q_on_d = n_inv.compose(qp_map)           # F*(small,E) -> F*(C,D)
        round_small = p_map.compose(q_on_d)      # endo of F*(small,E)
        round_big = q_on_d.compose(p_map)        # endo of F*(C,D)
    invariants = []
    for n in range(max_degree):
        big_inv = cx_d.cohomology(n)
        small_inv = cx_e.cohomology(n)
        iso = is_cohomology_iso(p_map, n) and (
            nu_is_identity or (_induces_identity(round_big, n)
                               and _induces_identity(round_small, n)))
        if big_inv != small_inv:
            raise CertificateError(
                f"invariants differ in degree {n}: "
                f"{big_inv.human()} vs {small_inv.human()}")
        if not iso:
            raise CertificateError(
                f"induced map is not invertible on H^{n}")
        invariants.append(big_inv)
    return TheoremReport(tuple(invariants), note)


def _homotopy_route(d_prime: NaturalSystem, l: Localization | Colocalization,
                    pp_mor: NatSysMorphism, qp_mor: NatSysMorphism,
                    big_composite: CochainMap, cx_dp: CochainComplex) -> str:
    """Certificate (c): an explicit homotopy from Q'∘P' to the identity on
    F*(C, D'), the difference of the two canonical families of the unit
    (counit) square; returns the note that names it.

    Only the two families and the shared ``F*(alpha, 1)`` are kept, each as
    long as it is needed, and the homotopy identity of the difference is
    checked degree by degree as one signed sum."""
    unit_side = isinstance(l, Localization)
    alpha = l.unit if unit_side else l.counit
    one_c = identity_functor(l.big)
    one_xi = identity_nat(compose_functors(l.psi, l.phi))
    one_mor_dp = NatSysMorphism(identity_nat(one_c), d_prime, d_prime,
                                AbNat.identity(d_prime.functor))
    alpha_mor = _unit_one_morphism(d_prime, alpha)
    qp_pp_mor = compose_natsys_morphisms(qp_mor, pp_mor)
    if unit_side:
        two_a = NatFTwoMorphism(qp_pp_mor, alpha_mor, alpha, one_xi)
        two_b = NatFTwoMorphism(one_mor_dp, alpha_mor, identity_nat(one_c), alpha)
        note = ("chained h-homotopies: h_(alpha,1_xi) - h_(1,alpha) "
                "from the unit square")
    else:
        two_a = NatFTwoMorphism(qp_pp_mor, alpha_mor, one_xi, alpha)
        two_b = NatFTwoMorphism(one_mor_dp, alpha_mor, alpha, identity_nat(one_c))
        note = ("chained h-homotopies: h_(1_xi,alpha) - h_(alpha,1) "
                "from the counit square")
    h_a = homotopy_h(two_a, cx_dp, cx_dp)
    if not h_a.p.equal_mod(big_composite):
        raise CertificateError(
            "F* does not take the composed pair morphism to Q'∘P'")
    # both two-morphisms end at (alpha, 1), so h_b takes F*(alpha, 1) from
    # h_a; F*(Q'∘P'), checked above, and F*(1, 1) are not kept
    maps_a, alpha_one = h_a.maps, h_a.q
    del h_a
    maps_b = _homotopy_h(two_b.require(), cx_dp, cx_dp,
                         induced_map_2(one_mor_dp, cx_dp, cx_dp),
                         alpha_one).maps
    del alpha_one
    # h_a - h_b runs from Q'∘P' to the identity: d(h_a - h_b) + (h_a - h_b)d
    # + Q'∘P' - 1 vanishes in every degree
    diffs = cx_dp.diffs
    for n in range(cx_dp.max_degree):
        terms = [(1, maps_a[n + 1], diffs[n]), (-1, maps_b[n + 1], diffs[n]),
                 (1, big_composite.maps[n], None),
                 (-1, BlockHom.identity(cx_dp.groups[n]), None)]
        if n >= 1:
            terms += [(1, diffs[n - 1], maps_a[n]),
                      (-1, diffs[n - 1], maps_b[n])]
        require_vanishing(BlockHom.signed_sum(terms), "dh+hd = -p+q",
                          cx_dp, n, cx_dp, n)
    return note


def _induces_identity(endo: CochainMap, n: int) -> bool:
    """Whether a chain endomorphism induces the identity on H^n."""
    h = cohomology_map(endo, n)
    return h.equal_mod(GroupHom.identity(h.source))


def _unit_one_morphism(d_prime: NaturalSystem, alpha: NaturalTransformation
                       ) -> NatSysMorphism:
    """(alpha, 1): (C, D') -> (C, D'), using D'∘F(alpha) == D' exactly."""
    pulled = pullback_along_nat(d_prime, alpha)
    nat = AbNat(pulled.functor, d_prime.functor,
                tuple(GroupHom.identity(v) for v in d_prime.functor.values))
    return NatSysMorphism(alpha, d_prime, d_prime, nat)


# ---------------------------------------------------------------------------
# the pairs ``cohomology`` answers through

def transport_to_small(d: NaturalSystem) -> tuple[
        NaturalSystem, tuple[Localization | Colocalization, ...]]:
    """The system whose cohomology is that of ``d`` by the transport
    theorem, and the pairs applied to reach it, in order: the skeleton of
    the base, then the least terminal object or, failing that, the least
    initial one.  Each step pulls the system back along its psi.  A pair
    that fails ``validate_adjoint_pair`` raises ``CertificateError``; a
    system that is not (co)local for a pair is not moved by it."""
    applied = []
    for step in ((_skeleton_localization,),
                 (_terminal_localization, _initial_colocalization)):
        for find in step:
            pair = find(d.base)
            if pair is not None and _transports(d, pair):
                d = pullback_along_nat(d, identity_nat(pair.psi))
                applied.append(pair)
                break
    return d, tuple(applied)


def _transports(d: NaturalSystem, l: Localization | Colocalization) -> bool:
    """Whether the theorem carries ``d`` along a pair: the pair must be
    valid, and ``d`` must pass both (co)locality tests."""
    rep = validate_adjoint_pair(l)
    if not rep.ok:
        raise CertificateError(f"{l.kind}: " + "; ".join(rep.violations))
    # through the public names, which perfbench/spans.py wraps
    char = (local_characterization(d, l) if isinstance(l, Localization)
            else colocal_characterization(d, l))
    return char.pointwise_local and char.canonical_map_iso


def _skeleton_localization(c: FiniteCategory) -> Localization | None:
    """C onto the full subcategory of the least object of each isomorphism
    class, or None when no two distinct objects are isomorphic.  The unit
    at x is the least isomorphism x -> r(x), an identity on the
    representatives, phi(f) = alpha_y∘f∘alpha_x^-1 and psi is the
    inclusion; names are kept."""
    # x -> the least isomorphism to the least object isomorphic to x, for
    # the objects that are not their own representative.  Morphisms come
    # ascending, so the first invertible one to a smaller target wins
    unit: dict[int, int] = {}
    for f in range(c.n_morphisms):
        x, y = c.mor_source[f], c.mor_target[f]
        best = c.mor_target[unit[x]] if x in unit else x
        if y < best and c.inverse(f) is not None:
            unit[x] = f
    if not unit:
        return None
    reps = [x for x in range(c.n_objects) if x not in unit]
    obj = {x: i for i, x in enumerate(reps)}
    mors = [f for f in range(c.n_morphisms)
            if c.mor_source[f] in obj and c.mor_target[f] in obj]
    mor = {f: i for i, f in enumerate(mors)}
    small = make_category(
        len(reps),
        [(obj[c.mor_source[f]], obj[c.mor_target[f]]) for f in mors],
        [mor[c.identity[x]] for x in reps],
        {(mor[f], mor[g]): mor[gf]
         for f in mors for g, gf in c.table[f].items() if g in mor},
        object_names=[c.object_name(x) for x in reps],
        morphism_names=[c.morphism_name(f) for f in mors])
    alpha = [unit.get(x, c.identity[x]) for x in range(c.n_objects)]
    back = [c.inverse(a) for a in alpha]
    table, src, tgt = c.table, c.mor_source, c.mor_target
    phi = Functor(c, small, tuple(obj[tgt[a]] for a in alpha), tuple(
        mor[table[table[back[src[f]]][f]][alpha[tgt[f]]]]
        for f in range(c.n_morphisms)))
    psi = Functor(small, c, tuple(reps), tuple(mors))
    return Localization(c, small, phi, psi, NaturalTransformation(
        identity_functor(c), compose_functors(psi, phi), tuple(alpha)))


def _sole_arrows(ends: tuple[int, ...], others: tuple[int, ...],
                 n_objects: int) -> tuple[int, tuple[int, ...]] | None:
    """The least object t that every object x meets by exactly one morphism
    f with ``ends[f] == t`` and ``others[f] == x``, and those morphisms by
    x; None when no object does.  Targets and sources give a terminal
    object, sources and targets an initial one."""
    count = [0] * n_objects
    for t in ends:
        count[t] += 1
    # a candidate has one morphism per object, so its arrows are distinct
    # exactly when they meet every object
    arrows = {t: {} for t in range(n_objects) if count[t] == n_objects}
    if not arrows:
        return None
    for f, t in enumerate(ends):
        if t in arrows:
            arrows[t][others[f]] = f
    t = next((t for t, row in arrows.items() if len(row) == n_objects), None)
    if t is None:
        return None
    return t, tuple(arrows[t][x] for x in range(n_objects))


def _to_point(c: FiniteCategory, t: int) -> tuple[Functor, Functor]:
    """phi: C -> point and psi: point -> C picking t."""
    pt = terminal_category()
    return (Functor(c, pt, (0,) * c.n_objects, (0,) * c.n_morphisms),
            Functor(pt, c, (t,), (c.identity[t],)))


def _terminal_localization(c: FiniteCategory) -> Localization | None:
    """C onto the point at its least terminal object t; the unit at x is
    the one morphism x -> t."""
    found = _sole_arrows(c.mor_target, c.mor_source, c.n_objects)
    if found is None:
        return None
    t, unit = found
    phi, psi = _to_point(c, t)
    return Localization(c, phi.target, phi, psi, NaturalTransformation(
        identity_functor(c), compose_functors(psi, phi), unit))


def _initial_colocalization(c: FiniteCategory) -> Colocalization | None:
    """C onto the point at its least initial object i; the counit at x is
    the one morphism i -> x."""
    found = _sole_arrows(c.mor_source, c.mor_target, c.n_objects)
    if found is None:
        return None
    i, counit = found
    phi, psi = _to_point(c, i)
    return Colocalization(c, phi.target, phi, psi, NaturalTransformation(
        compose_functors(psi, phi), identity_functor(c), counit))
