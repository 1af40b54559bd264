"""(Co)localization data and constructive verification of the transport theorems.

A localization is an explicit adjoint pair: a projection ``phi: C -> D`` and
an inclusion ``psi: D -> C`` with ``phi∘psi`` the identity of D, the counit
the identity, and the unit ``alpha: 1_C => psi∘phi`` supplied componentwise.
Dually a colocalization carries a counit ``psi∘phi => 1_C`` and an identity
unit.  The pair's type (``Localization`` or ``Colocalization``) fixes which
side every check works on.  ``verify_transport_theorem`` takes the adjunction
data as given.  Only ``transport_to_small`` searches for pairs.

Locality: a system D is local for a localization with unit alpha when its
action along ``(1_X, f)`` is invertible for every f inverted by ``phi``
(colocal: along ``(f, 1_Y)``, with the counit), and the canonical comparison
nu: D => D∘F(alpha), the family of the pair morphism (1, nu) anchored at
the identity, is the executable counterpart.  The library's constructors
produce systems for which both tests agree; ``local_characterization`` and
``colocal_characterization`` compute them independently, by one body, and
report them side by side with a witness.

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

``transport_to_small`` is how ``cohomology`` uses the theorem.  Each pair
it tries is a (co)reflection of C onto the full subcategory of the objects
that its unit (counit) does not key, built by one constructor.  The terminal
and initial steps go to the point; a peel removes one object x along a unit
x -> y or a counit y -> x, as Stong's beat points do on a poset, and an
isomorphism to another object is always one, so peels reach the skeleton.
Each step takes the first pair that passes ``validate_adjoint_pair`` and
both tests of the (co)local characterization, until the base is the point
or no pair applies.  The finders read only endpoints and adjacency lists,
and build no category, functor or pair for a step they cannot take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import ClassVar

from .abgroup import GroupHom, GroupInvariants, hom_inverse, is_iso
from .bwcomplex import (
    BlockHom, CochainComplex, CochainMap, HomotopyIdentityError, _homotopy_h,
    build_complex, cohomology_map, homotopy_h, induced_map_2, induced_map_nat,
    is_cohomology_iso, require_vanishing,
)
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report,
    compose_functors, identity_functor, identity_nat, make_category,
)
from .natsys import (
    AbNat, NatFTwoMorphism, NatSysMorphism, NaturalSystem, TwoMorphismInvalid,
    act_by_two_morphism, compose_natsys_morphisms, pullback_along_nat,
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
    nu: AbNat = field(repr=False)   # D => D∘F(alpha), anchored at 1_C


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
    ``D => D∘F(alpha)``, is a natural isomorphism; it is returned as the
    family, and no D∘F(alpha) is built.  The witness names the first
    failure, pointwise first.  Both tests read actions of ``d``,
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
    alpha = l.unit if unit_side else l.counit
    nu = (act_by_two_morphism(d, one, one, alpha) if unit_side
          else act_by_two_morphism(d, one, alpha, one))
    iso = all(map(invertible, nu.components))
    if pointwise and not iso:
        f = next(f for f, t in enumerate(nu.components) if not invertible(t))
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

    # the canonical map (1, nu): (C, D) -> (C, D∘F(alpha))
    nu, d_prime = char.nu, pullback_along_nat(d, alpha)
    e = pullback_along_nat(d, identity_nat(l.psi))  # D∘F(psi) on the small side

    # D∘F(alpha) often equals D, and then one complex serves both
    cx_d = build_complex(d, max_degree)
    cx_dp = cx_d if d_prime == d else build_complex(d_prime, max_degree)
    cx_e = build_complex(e, max_degree)

    # statement map P: F*(C, D) -> F*(small, E), and its D' version P',
    # whose chain map is P's when D' = D
    one_psi, one_e = identity_nat(l.psi), AbNat.identity(e.functor)
    p_map = induced_map_nat(NatSysMorphism(one_psi, d, e, one_e), cx_d, cx_e)
    pp_mor = NatSysMorphism(one_psi, d_prime, e, one_e)
    pp_map = p_map if cx_dp is cx_d else induced_map_nat(pp_mor, cx_dp, cx_e)

    # inverse-inducing map Q': F*(small, E) -> F*(C, D') from the unit
    # square: (alpha,1_xi) on the unit side, (1_xi,alpha) on the counit side,
    # both 1_xi => alpha
    one_xi = identity_nat(xi)
    u_nat = (act_by_two_morphism(d, one_xi, alpha, one_xi) if unit_side
             else act_by_two_morphism(d, one_xi, one_xi, alpha))
    qp_mor = NatSysMorphism(identity_nat(l.phi), e, d_prime, u_nat)
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
        t == GroupHom.identity(t.source) for t in nu.components)
    if not nu_is_identity:
        nu_inv = AbNat(tuple(map(hom_inverse, nu.components)))
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
    one_dp = AbNat.identity(d_prime.functor)
    one_mor_dp = NatSysMorphism(identity_nat(one_c), d_prime, d_prime, one_dp)
    # (alpha, 1): (C, D') -> (C, D'), using D'∘F(alpha) == D' exactly
    alpha_mor = NatSysMorphism(alpha, d_prime, d_prime, one_dp)
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


# ---------------------------------------------------------------------------
# the pairs ``cohomology`` answers through

def transport_to_small(d: NaturalSystem) -> tuple[
        NaturalSystem, tuple[Localization | Colocalization, ...]]:
    """The system whose cohomology is that of ``d`` by the transport
    theorem, and the pairs applied to reach it, in order; each step pulls
    the system back along its psi.  A pair that fails
    ``validate_adjoint_pair`` raises ``CertificateError``; a system that is
    not (co)local for a pair is not moved by it."""
    applied = []
    while d.base.n_morphisms > 1:
        pair = next((l for l in chain(_end_pairs(d.base), _peels(d.base))
                     if _transports(d, l)), None)
        if pair is None:
            break
        d = pullback_along_nat(d, identity_nat(pair.psi))
        applied.append(pair)
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


def _reflection(c: FiniteCategory, unit: dict[int, int], co: bool
                ) -> Localization | Colocalization:
    """C onto the full subcategory of the objects that ``unit`` does not
    key, names kept.  ``unit[x]`` is the unit x -> r(x) at x, or with
    ``co`` the counit r(x) -> x, and an identity at the kept objects.  For
    f: x -> z, phi(f) is the g of the subcategory with
    g∘unit_x == unit_z∘f (with ``co``, unit_z∘g == f∘unit_x), and psi is
    the inclusion."""
    src, tgt, table = c.mor_source, c.mor_target, c.table
    keep = [x for x in range(c.n_objects) if x not in unit]
    obj = {x: i for i, x in enumerate(keep)}
    mors = [f for f in range(c.n_morphisms)
            if src[f] in obj and tgt[f] in obj]
    mor = {f: i for i, f in enumerate(mors)}
    small = make_category(
        len(keep), [(obj[src[f]], obj[tgt[f]]) for f in mors],
        [mor[c.identity[x]] for x in keep],
        {(mor[f], mor[g]): mor[gf]
         for f in mors for g, gf in table[f].items() if g in mor},
        object_names=[c.object_name(x) for x in keep],
        morphism_names=[c.morphism_name(f) for f in mors])
    eta = [unit.get(x, c.identity[x]) for x in range(c.n_objects)]
    # r(x) is ends[unit_x]; lift takes g∘unit_x (unit_x∘g) back to g for
    # each g of the subcategory out of (into) r(x), and leaves a morphism
    # of the subcategory as it is
    ends, starts = (src, tgt) if co else (tgt, src)
    lift = {table[g][a] if co else table[a][g]: g
            for a in unit.values() for g in mors if starts[g] == ends[a]}
    image = [table[eta[src[f]]][f] if co else table[f][eta[tgt[f]]]
             for f in range(c.n_morphisms)]     # f∘unit_x or unit_z∘f
    phi = Functor(c, small, tuple(obj[ends[a]] for a in eta),
                  tuple(mor[lift.get(h, h)] for h in image))
    psi = Functor(small, c, tuple(keep), tuple(mors))
    xi, one = compose_functors(psi, phi), identity_functor(c)
    if co:
        return Colocalization(c, small, phi, psi,
                              NaturalTransformation(xi, one, tuple(eta)))
    return Localization(c, small, phi, psi,
                        NaturalTransformation(one, xi, tuple(eta)))


def _end_pairs(c: FiniteCategory):
    """The terminal step, then the initial step: C onto its least object t
    that every object x meets by exactly one morphism x -> t (t -> x), with
    that morphism as the unit (counit) at x."""
    n = c.n_objects
    for ends, others, co in ((c.mor_target, c.mor_source, False),
                             (c.mor_source, c.mor_target, True)):
        arrows: list[list[int]] = [[] for _ in range(n)]
        for f, t in enumerate(ends):
            arrows[t].append(f)
        t = next((t for t, fs in enumerate(arrows) if len(fs) == n
                  and len({others[f] for f in fs}) == n), None)
        if t is not None:
            yield _reflection(
                c, {others[f]: f for f in arrows[t] if others[f] != t}, co)


def _peels(c: FiniteCategory):
    """C onto C without one object x, the greatest x first, by a reflection
    and then by a coreflection.  u: x -> y with y != x is the unit of one
    exactly when g -> g∘u maps the morphisms out of y that do not end at x
    one to one onto those out of x that do not end at x; dually u: y -> x
    is a counit when g -> u∘g does so on the morphisms into y and into x
    that do not start at x.  Only the first u of each side is tried, as
    reflections onto one subcategory invert the same morphisms."""
    src, tgt, table = c.mor_source, c.mor_target, c.table
    out: list[list[int]] = [[] for _ in range(c.n_objects)]
    into: list[list[int]] = [[] for _ in range(c.n_objects)]
    for f in range(c.n_morphisms):
        out[src[f]].append(f)
        into[tgt[f]].append(f)
    for x in reversed(range(c.n_objects)):
        for near, far, co in ((out, tgt, False), (into, src, True)):
            hs = [h for h in near[x] if far[h] != x]
            for u in hs:
                gs = [g for g in near[far[u]] if far[g] != x]
                if len(gs) == len(hs) == len(
                        {table[g][u] if co else table[u][g] for g in gs}):
                    yield _reflection(c, {x: u}, co)
                    break
