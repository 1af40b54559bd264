"""(Co)localization data and constructive verification of the transport theorems.

A localization is an explicit adjoint pair: a projection ``phi: C -> D`` and
an inclusion ``psi: D -> C`` with ``phi∘psi`` the identity of D, the counit
the identity, and the unit ``alpha: 1_C => psi∘phi`` supplied componentwise.
Dually a colocalization carries a counit ``psi∘phi => 1_C`` and an identity
unit.  Adjunction data is always given, never searched for.

Locality: a system D is local for a localization with unit alpha when its
action along ``(1_X, f)`` is invertible for every f inverted by ``phi``
(colocal: along ``(f, 1_Y)``, with the counit), and the canonical comparison
``D => D∘F(alpha)`` is the executable counterpart.  The library's
constructors produce systems for which both tests agree;
``local_characterization`` and ``colocal_characterization`` compute them
independently, by one body, and report them side by side with a witness.

``verify_localization_theorem`` certifies that the inclusion induces
isomorphisms on cohomology with a local coefficient system, three independent
ways:

(a) invariant comparison: both sides computed separately degree by degree;
(b) explicit inverse: the induced chain map is inverted up to cohomology by
    the chain map built from the unit correction, and both composites are
    checked to induce the identity;
(c) homotopy route: one composite is the identity on the nose; the other is
    chain homotopic to the identity via the difference of the two canonical
    degree -1 families attached to the unit square, namely
    ``h_{(alpha, 1_xi)} - h_{(1_{1_C}, alpha)}`` (dually
    ``h_{(1_xi, alpha)} - h_{(alpha, 1_{1_C})}``), assembled exactly.

All three certificates operate on the pulled-back system ``D∘F(alpha)``; the
canonical comparison ``D => D∘F(alpha)`` is required to be a natural
isomorphism (that is the operative locality hypothesis, and for every system
this library constructs it coincides with the pointwise locality test) and
conjugation by it transports the certificates to ``D`` itself.

Each distinct piece of work is done once.  When ``D∘F(alpha)`` equals ``D``
(compared with ``==``), one complex, with its reduction, serves both, and the
statement map P is also P'.  Both two-morphisms of certificate (c) end at
``(alpha, 1)``, so its chain map ``F*(alpha, 1)`` is built and checked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abgroup import GroupHom, GroupInvariants, hom_inverse, is_iso
from .bwcomplex import (
    CochainMap, _homotopy_h, build_complex, cohomology_map, homotopy_h,
    identity_cochain_map, induced_map_2, induced_map_nat,
)
from .factorization import factor_nat
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report,
    compose_functors, identity_functor, identity_nat,
)
from .natsys import (
    AbNat, NatFTwoMorphism, NatSysMorphism, NaturalSystem, act_by_two_morphism,
    compose_natsys_morphisms, morphism_from_functor, pullback_along_nat,
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


@dataclass(frozen=True)
class Colocalization:
    big: FiniteCategory
    small: FiniteCategory
    phi: Functor
    psi: Functor
    counit: NaturalTransformation  # psi∘phi => 1_big


def _validate_adjoint_pair(l, unit_side: bool) -> Report:
    rep = Report("localization" if unit_side else "colocalization")
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
    alpha = l.unit if unit_side else l.counit
    sub = alpha.validate()
    rep.violations.extend(sub.violations)
    if rep.violations:
        return rep
    xi = compose_functors(l.psi, l.phi)
    if unit_side:
        if alpha.source_functor != identity_functor(l.big) or \
           alpha.target_functor != xi:
            rep.violations.append("unit does not go 1_C => psi∘phi")
            return rep
    else:
        if alpha.source_functor != xi or \
           alpha.target_functor != identity_functor(l.big):
            rep.violations.append("counit does not go psi∘phi => 1_C")
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


def validate_localization(l: Localization) -> Report:
    return _validate_adjoint_pair(l, unit_side=True)


def validate_colocalization(l: Colocalization) -> Report:
    return _validate_adjoint_pair(l, unit_side=False)


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
    return _characterization(d, l, unit_side=True)


def colocal_characterization(d: NaturalSystem, l: Colocalization
                             ) -> Characterization:
    """The same two conditions for a colocalization, on the counit side."""
    return _characterization(d, l, unit_side=False)


def _characterization(d: NaturalSystem, l, unit_side: bool
                      ) -> Characterization:
    """Pointwise: the action ``D(1_X, f)`` (unit side) or ``D(f, 1_Y)``
    (counit side) is invertible for every f that phi inverts.  Canonical:
    ``nu = 1_D * F(1, alpha)`` (unit side) or ``1_D * F(alpha, 1)``,
    ``D => D∘F(alpha)``, is a natural isomorphism.  The witness names the
    first failure, pointwise first."""
    c = d.base
    witness = ""
    for f in inverted_morphisms(l):
        if unit_side:
            e = c.identity[c.mor_source[f]]
            leg, action = f"(1,{c.morphism_name(f)})", d.act_pair(e, f, e, f)
        else:
            e = c.identity[c.mor_target[f]]
            leg, action = f"({c.morphism_name(f)},1)", d.act_pair(e, f, f, e)
        if not is_iso(action):
            witness = f"action {leg} is not invertible"
            break
    pointwise = not witness
    one = identity_nat(identity_functor(c))
    nu = (act_by_two_morphism(d, one, one, l.unit) if unit_side
          else act_by_two_morphism(d, one, l.counit, one))
    iso = nu.nat.is_natural_iso()
    if pointwise and not iso:
        f = next(f for f, t in enumerate(nu.nat.components) if not is_iso(t))
        witness = (f"canonical component at {c.morphism_name(f)} "
                   f"is not invertible")
    return Characterization(pointwise, iso, witness, nu)


@dataclass
class DegreeVerdict:
    degree: int
    big_side: GroupInvariants
    small_side: GroupInvariants
    induced_iso: bool

    @property
    def ok(self) -> bool:
        return self.big_side == self.small_side and self.induced_iso


@dataclass
class TheoremReport:
    degrees: list[DegreeVerdict] = field(default_factory=list)
    composite_on_small_is_identity: bool = False
    composites_induce_identity: bool = False
    homotopy_certificate: bool = False
    homotopy_note: str = ""

    @property
    def ok(self) -> bool:
        return (all(v.ok for v in self.degrees)
                and self.composite_on_small_is_identity
                and self.composites_induce_identity
                and self.homotopy_certificate)

    def lines(self) -> list[str]:
        out = []
        for v in self.degrees:
            out.append(
                f"degree {v.degree}: big {v.big_side.human()} | "
                f"small {v.small_side.human()} | "
                f"{'iso' if v.induced_iso else 'NOT ISO'}")
        out.append("certificate (a) invariants match: "
                   + ("pass" if all(v.big_side == v.small_side
                                    for v in self.degrees) else "FAIL"))
        out.append("certificate (b) explicit inverse: "
                   + ("pass" if (self.composite_on_small_is_identity
                                 and self.composites_induce_identity) else "FAIL"))
        out.append("certificate (c) homotopy route: "
                   + ("pass" if self.homotopy_certificate else "FAIL"))
        if self.homotopy_note:
            out.append("  " + self.homotopy_note)
        return out


def _theorem_certificates(d: NaturalSystem, l, unit_side: bool,
                          max_degree: int) -> TheoremReport:
    c = l.big
    one_c = identity_functor(c)
    xi = compose_functors(l.psi, l.phi)
    alpha = l.unit if unit_side else l.counit
    char = (local_characterization(d, l) if unit_side
            else colocal_characterization(d, l))
    report = TheoremReport()
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

    # statement map P: F*(C, D) -> F*(small, E), and its D' version P'
    p_mor = morphism_from_functor(identity_nat(l.psi).source_functor, d, e,
                                  AbNat.identity(e.functor))
    p_map = induced_map_nat(p_mor, cx_d, cx_e)
    pp_nat = AbNat(pullback_along_nat(d_prime, identity_nat(l.psi)).functor,
                   e.functor,
                   tuple(GroupHom.identity(v) for v in e.functor.values))
    pp_mor = NatSysMorphism(identity_nat(l.psi), d_prime, e, pp_nat)
    pp_map = (p_map if cx_dp is cx_d and pp_mor == p_mor
              else induced_map_nat(pp_mor, cx_dp, cx_e))

    # inverse-inducing map Q': F*(small, E) -> F*(C, D') from the unit square
    one_xi = identity_nat(xi)
    if unit_side:
        u_mor = act_by_two_morphism(d, one_xi, alpha, one_xi)   # (alpha,1_xi): 1_xi => alpha
    else:
        u_mor = act_by_two_morphism(d, one_xi, one_xi, alpha)   # (1_xi,alpha): 1_xi => alpha
    q_nat = AbNat(e.functor.pullback(
        factor_nat(identity_nat(l.phi), d.fc, e.fc)),
        d_prime.functor, u_mor.nat.components)
    qp_mor = NatSysMorphism(identity_nat(l.phi), e, d_prime, q_nat)
    qp_map = induced_map_nat(qp_mor, cx_e, cx_dp)

    # certificate (b): composite on the small side is the identity exactly
    small_composite = pp_map.compose(qp_map)
    report.composite_on_small_is_identity = small_composite.is_identity_mod()
    if not report.composite_on_small_is_identity:
        raise CertificateError("P'∘Q' is not the identity chain map")

    big_composite = qp_map.compose(pp_map)   # endomorphism of F*(C, D')
    for n in range(max_degree):
        if not _induces_identity(big_composite, n):
            raise CertificateError(
                f"Q'∘P' does not induce the identity on H^{n}")
    report.composites_induce_identity = True

    # conjugating chain isomorphism N^-1: F*(C, D') -> F*(C, D), induced by
    # the inverse natural isomorphism nu^-1: D' => D.  When nu is the
    # identity, so is N^-1: the round trips through it are then the two
    # composites certified above, and are not checked again
    nu_is_identity = (cx_dp is cx_d and pp_map is p_map and all(
        t == GroupHom.identity(t.source) for t in nu.nat.components))
    if not nu_is_identity:
        nu_inv = AbNat(nu.nat.target, nu.nat.source,
                       tuple(hom_inverse(t) for t in nu.nat.components))
        n_inv = induced_map_nat(
            NatSysMorphism(identity_nat(one_c), d_prime, d, nu_inv),
            cx_dp, cx_d)
        q_on_d = n_inv.compose(qp_map)           # F*(small,E) -> F*(C,D)
        round_small = p_map.compose(q_on_d)      # endo of F*(small,E)
        round_big = q_on_d.compose(p_map)        # endo of F*(C,D)
    for n in range(max_degree):
        big_inv = cx_d.cohomology(n)
        small_inv = cx_e.cohomology(n)
        iso = is_iso(cohomology_map(p_map, n)) and (
            nu_is_identity or (_induces_identity(round_big, n)
                               and _induces_identity(round_small, n)))
        report.degrees.append(DegreeVerdict(n, big_inv, small_inv, iso))
        if big_inv != small_inv:
            raise CertificateError(
                f"invariants differ in degree {n}: "
                f"{big_inv.human()} vs {small_inv.human()}")
        if not iso:
            raise CertificateError(
                f"induced map is not invertible on H^{n}")

    # certificate (c): explicit homotopy from Q'∘P' to the identity on F*(C,D')
    one_mor_dp = NatSysMorphism(identity_nat(one_c), d_prime, d_prime,
                                AbNat.identity(d_prime.functor))
    alpha_mor = _unit_one_morphism(d_prime, alpha, unit_side)
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
    # both two-morphisms end at (alpha, 1), so h_b takes F*(alpha, 1) from h_a
    h_a = homotopy_h(two_a, cx_dp, cx_dp)
    h_b = _homotopy_h(two_b.require(), cx_dp, cx_dp,
                      induced_map_2(one_mor_dp, cx_dp, cx_dp), h_a.q)
    hh = h_a.sub(h_b, p=big_composite, q=identity_cochain_map(cx_dp))
    if not h_a.p.equal_mod(big_composite):
        raise CertificateError(
            "F* does not take the composed pair morphism to Q'∘P'")
    hh.check_boundary()
    report.homotopy_certificate = True
    report.homotopy_note = note
    return report


def _induces_identity(endo: CochainMap, n: int) -> bool:
    """Whether a chain endomorphism induces the identity on H^n."""
    h = cohomology_map(endo, n)
    return h.equal_mod(GroupHom.identity(h.source))


def _unit_one_morphism(d_prime: NaturalSystem, alpha: NaturalTransformation,
                       unit_side: bool) -> NatSysMorphism:
    """(alpha, 1): (C, D') -> (C, D'), using D'∘F(alpha) == D' exactly."""
    pulled = pullback_along_nat(d_prime, alpha)
    nat = AbNat(pulled.functor, d_prime.functor,
                tuple(GroupHom.identity(v) for v in d_prime.functor.values))
    return NatSysMorphism(alpha, d_prime, d_prime, nat)


def verify_localization_theorem(d: NaturalSystem, l: Localization,
                                max_degree: int) -> TheoremReport:
    rep = validate_localization(l)
    rep.require()
    return _theorem_certificates(d, l, unit_side=True, max_degree=max_degree)


def verify_colocalization_theorem(d: NaturalSystem, l: Colocalization,
                                  max_degree: int) -> TheoremReport:
    rep = validate_colocalization(l)
    rep.require()
    return _theorem_certificates(d, l, unit_side=False, max_degree=max_degree)
