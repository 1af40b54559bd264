"""Seeded random instances: categories, coefficient systems, transformation
chains, two-morphism data and (co)localizations.

Everything is driven by one ``random.Random`` so identical seeds reproduce
identical instances byte for byte.  Construction is always by families that
are correct by design (validated afterwards in the test suite), never by
rejection over raw tables:

* categories: posets, total orders, cyclic monoids, products, standard small
  examples;
* coefficient systems: constant, hom-pairing (free or mod m), representable
  source/target, reachability indicator (the standard non-local family),
  direct products of these.  The hom-pairing, representable and indicator
  families are ``natsys.free_system`` on a set-valued functor on C^op x C,
  so no matrix of theirs is built here;
* transformation chains into a "chain target" (total order, cyclic monoid,
  or a product of both): monotone maps are pointwise-sorted so consecutive
  functors are connected by unique components, and cyclic-monoid functors are
  potential-based so consecutive functors are connected by coboundary shifts;
* two-morphism instances assemble ``t`` from the coherence condition itself,
  so validity is by construction and the chain-level identities are the only
  thing left to check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abgroup import (
    GroupHom, PresentedGroup, Z, cyclic, direct_product, from_invariants,
)
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, arrow_category,
    compose_functors, cyclic_group_category, discrete_category,
    identity_functor, indiscrete_category, poset_category, product,
    pseudo_circle_category, terminal_category, total_order_category,
)
from .intmat import IntMatrix
from .natsys import (
    AbFunctor, AbNat, NatFTwoMorphism, NatSysMorphism, NaturalSystem,
    act_by_two_morphism, constant_system, free_system, hom_system,
    pullback_along_nat,
)
from .factorization import two_morphism_target
from .localization import Colocalization, Localization


def thin_mor_lookup(c: FiniteCategory) -> dict[tuple[int, int], int]:
    out = {}
    for m in range(c.n_morphisms):
        out[(c.mor_source[m], c.mor_target[m])] = m
    return out


@dataclass
class ChainData:
    target: FiniteCategory
    functors: list[Functor]
    nats: list[NaturalTransformation]   # nats[i]: functors[i] => functors[i+1]


class InstanceGen:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    # -- categories ---------------------------------------------------------

    def random_poset(self, max_objects: int = 5) -> FiniteCategory:
        n = self.rng.randint(1, max_objects)
        leq = {(x, x) for x in range(n)}
        for x in range(n):
            for y in range(x + 1, n):
                if self.rng.random() < 0.4:
                    leq.add((x, y))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for (a, b) in list(leq):
                for (b2, c) in list(leq):
                    if b2 == b and (a, c) not in leq:
                        leq.add((a, c))
                        changed = True
        return poset_category(n, leq)

    def category(self, max_morphisms: int = 6) -> FiniteCategory:
        picks = []
        picks.append(terminal_category())
        picks.append(arrow_category())
        picks.append(discrete_category(self.rng.randint(1, 3)))
        picks.append(total_order_category(self.rng.randint(2, 3)))
        picks.append(cyclic_group_category(self.rng.randint(2, 4)))
        picks.append(indiscrete_category(2))
        picks.append(pseudo_circle_category())
        for _ in range(3):
            p = self.random_poset(4)
            if p.n_morphisms <= max_morphisms:
                picks.append(p)
        pm = product(total_order_category(2), cyclic_group_category(2))
        picks.append(pm.category)
        picks = [c for c in picks if c.n_morphisms <= max_morphisms]
        return self.rng.choice(picks)

    # -- presented groups ---------------------------------------------------

    def group(self) -> PresentedGroup:
        picks = [Z, cyclic(2), cyclic(3), cyclic(4), cyclic(6),
                 from_invariants(2), from_invariants(1, (2,)),
                 from_invariants(0, (2, 4))]
        return self.rng.choice(picks)

    def small_group(self) -> PresentedGroup:
        return self.rng.choice([Z, cyclic(2), cyclic(3), cyclic(4)])

    # -- coefficient systems -------------------------------------------------

    def hom_system(self, c: FiniteCategory, modulus: int = 0) -> NaturalSystem:
        return hom_system(c, cyclic(modulus))

    def representable_system(self, c: FiniteCategory, covariant: bool
                             ) -> NaturalSystem:
        """Z[Hom(p, y)] (covariant, k∘u) or Z[Hom(x, p)] (contravariant,
        u∘h) at each pair (x, y), for a random object p."""
        p = self.rng.randrange(c.n_objects)
        if covariant:
            return free_system(c, Z, lambda x, y: c.hom(p, y),
                               lambda h, k, u: c.table[u][k])
        return free_system(c, Z, lambda x, y: c.hom(x, p),
                           lambda h, k, u: c.table[h][u])

    def indicator_system(self, c: FiniteCategory,
                         w: int | None = None) -> NaturalSystem:
        """Value Z exactly on morphisms whose interval reaches through w."""
        if w is None:
            w = self.rng.randrange(c.n_objects)
        reach = set(zip(c.mor_source, c.mor_target))
        return free_system(
            c, Z, lambda x, y: [w] if {(x, w), (w, y)} <= reach else [],
            lambda h, k, u: u)

    def system_product(self, d1: NaturalSystem, d2: NaturalSystem
                       ) -> NaturalSystem:
        fc = d1.fc
        values = tuple(direct_product([a, b]) for a, b in
                       zip(d1.functor.values, d2.functor.values))
        homs = tuple(
            GroupHom(values[fc.pairs[i].src], values[fc.pairs[i].dst],
                     IntMatrix.block_diag([h1.matrix, h2.matrix]))
            for i, (h1, h2) in enumerate(zip(d1.functor.homs, d2.functor.homs)))
        return NaturalSystem(fc, AbFunctor(fc, values, homs))

    def system(self, c: FiniteCategory) -> NaturalSystem:
        roll = self.rng.random()
        if roll < 0.35:
            return constant_system(c, self.group())
        if roll < 0.55:
            return self.hom_system(c, self.rng.choice([0, 0, 2, 3, 4]))
        if roll < 0.7 and c.n_objects:
            return self.representable_system(c, self.rng.random() < 0.5)
        if roll < 0.85 and c.n_objects:
            return self.indicator_system(c)
        if c.n_objects:
            a = constant_system(c, self.small_group())
            b = self.indicator_system(c) if self.rng.random() < 0.5 \
                else self.hom_system(c, self.rng.choice([0, 2]))
            return self.system_product(a, b)
        return constant_system(c, self.group())

    # -- transformation chains ----------------------------------------------

    def _monotone_values(self, dom: FiniteCategory, k: int) -> list[int]:
        """Object values in 0..k-1 with v(X) <= v(Y) whenever X -> Y exists."""
        n = dom.n_objects
        reach = [[x == y for y in range(n)] for x in range(n)]
        for m in range(dom.n_morphisms):
            reach[dom.mor_source[m]][dom.mor_target[m]] = True
        for mid in range(n):
            for a in range(n):
                if reach[a][mid]:
                    row = reach[a]
                    for b in range(n):
                        if reach[mid][b]:
                            row[b] = True
        raw = [self.rng.randrange(k) for _ in range(n)]
        return [max(raw[y] for y in range(n) if reach[y][x]) for x in range(n)]

    def _poset_chain(self, dom: FiniteCategory, length: int, k: int
                     ) -> ChainData:
        cat = total_order_category(k)
        lookup = thin_mor_lookup(cat)
        vals = [self._monotone_values(dom, k) for _ in range(length)]
        per_object = list(zip(*vals)) if dom.n_objects else []
        sorted_vals = [sorted(col) for col in per_object]
        functors = []
        for i in range(length):
            obj_map = tuple(sorted_vals[x][i] for x in range(dom.n_objects))
            mor_map = tuple(lookup[(obj_map[dom.mor_source[m]],
                                    obj_map[dom.mor_target[m]])]
                            for m in range(dom.n_morphisms))
            functors.append(Functor(dom, cat, obj_map, mor_map))
        nats = []
        for i in range(length - 1):
            comps = tuple(lookup[(functors[i].obj_map[x],
                                  functors[i + 1].obj_map[x])]
                          for x in range(dom.n_objects))
            nats.append(NaturalTransformation(functors[i], functors[i + 1],
                                              comps))
        return ChainData(cat, functors, nats)

    def _monoid_chain(self, dom: FiniteCategory, length: int, k: int
                      ) -> ChainData:
        cat = cyclic_group_category(k)
        potentials = [[self.rng.randrange(k) for _ in range(dom.n_objects)]]
        shifts = []
        for _ in range(length - 1):
            c = [self.rng.randrange(k) for _ in range(dom.n_objects)]
            shifts.append(c)
            potentials.append([(p + s) % k
                               for p, s in zip(potentials[-1], c)])
        functors = []
        for p in potentials:
            mor_map = tuple((p[dom.mor_target[m]] - p[dom.mor_source[m]]) % k
                            for m in range(dom.n_morphisms))
            functors.append(Functor(dom, cat, (0,) * dom.n_objects, mor_map))
        nats = [NaturalTransformation(functors[i], functors[i + 1],
                                      tuple(shifts[i][x] % k
                                            for x in range(dom.n_objects)))
                for i in range(length - 1)]
        return ChainData(cat, functors, nats)

    def _product_chain(self, dom: FiniteCategory, length: int) -> ChainData:
        a = self._poset_chain(dom, length, 2)
        b = self._monoid_chain(dom, length, 2)
        prod = product(a.target, b.target)
        functors = []
        for fa, fb in zip(a.functors, b.functors):
            obj_map = tuple(prod.obj_id(fa.obj_map[x], fb.obj_map[x])
                            for x in range(dom.n_objects))
            mor_map = tuple(prod.mor_id(fa.mor_map[m], fb.mor_map[m])
                            for m in range(dom.n_morphisms))
            functors.append(Functor(dom, prod.category, obj_map, mor_map))
        nats = [NaturalTransformation(
            functors[i], functors[i + 1],
            tuple(prod.mor_id(a.nats[i].components[x], b.nats[i].components[x])
                  for x in range(dom.n_objects)))
            for i in range(length - 1)]
        return ChainData(prod.category, functors, nats)

    def nat_chain(self, dom: FiniteCategory, length: int) -> ChainData:
        roll = self.rng.random()
        if roll < 0.45:
            return self._poset_chain(dom, length, self.rng.randint(2, 3))
        if roll < 0.8:
            return self._monoid_chain(dom, length, self.rng.randint(2, 4))
        return self._product_chain(dom, length)

    def chain_domain(self) -> FiniteCategory:
        picks = [terminal_category(), arrow_category(),
                 total_order_category(2), total_order_category(3),
                 discrete_category(2), cyclic_group_category(2),
                 cyclic_group_category(3), pseudo_circle_category()]
        return self.rng.choice(picks)

    # -- two-morphism instances ----------------------------------------------

    def _scalar_twist(self, e_sys: NaturalSystem,
                      t_mor: NatSysMorphism, s_mor: NatSysMorphism,
                      ) -> tuple[NatSysMorphism, NatSysMorphism]:
        """Optionally postcompose both legs with a scalar natural family."""
        if self.rng.random() < 0.7:
            return t_mor, s_mor
        u = self.rng.choice([2, 3, -1])
        comps = tuple(
            GroupHom(v, v, IntMatrix.identity(v.generators).scale(u))
            for v in e_sys.functor.values)
        w = AbNat(comps)
        return (
            NatSysMorphism(t_mor.alpha, t_mor.source_system,
                           t_mor.target_system, w.compose(t_mor.nat)),
            NatSysMorphism(s_mor.alpha, s_mor.source_system,
                           s_mor.target_system, w.compose(s_mor.nat)),
        )

    def h_instance(self) -> tuple[NatFTwoMorphism, NaturalSystem, NaturalSystem]:
        dom = self.chain_domain()
        chain = self.nat_chain(dom, 4)
        d = self.system(chain.target)
        two, e_sys = self._two_from_chain(chain, d)
        t_mor, s_mor = self._scalar_twist(e_sys, two.src, two.dst)
        return NatFTwoMorphism(t_mor, s_mor, two.eps, two.gam), d, e_sys

    def vertical_instance(self) -> tuple[NatFTwoMorphism, NatFTwoMorphism,
                                         NaturalSystem, NaturalSystem]:
        dom = self.chain_domain()
        chain = self.nat_chain(dom, 6)
        eps2, eps, alpha, gam, gam2 = chain.nats
        d = self.system(chain.target)
        alpha_p = two_morphism_target(alpha, eps, gam)
        beta = two_morphism_target(alpha_p, eps2, gam2)
        e_sys = pullback_along_nat(d, beta)
        s_mor = NatSysMorphism(beta, d, e_sys, AbNat.identity(e_sys.functor))
        act_b = act_by_two_morphism(d, alpha_p, eps2, gam2)
        tp_mor = NatSysMorphism(alpha_p, d, e_sys, act_b)
        act_a = act_by_two_morphism(d, alpha, eps, gam)
        t_mor = NatSysMorphism(alpha, d, e_sys, act_b.compose(act_a))
        two_a = NatFTwoMorphism(t_mor, tp_mor, eps, gam)
        two_b = NatFTwoMorphism(tp_mor, s_mor, eps2, gam2)
        return two_a, two_b, d, e_sys

    def _two_from_chain(self, chain: ChainData, d: NaturalSystem
                        ) -> tuple[NatFTwoMorphism, NaturalSystem]:
        eps, alpha, gam = chain.nats
        beta = two_morphism_target(alpha, eps, gam)
        e_sys = pullback_along_nat(d, beta)
        t_mor = NatSysMorphism(alpha, d, e_sys,
                               act_by_two_morphism(d, alpha, eps, gam))
        s_mor = NatSysMorphism(beta, d, e_sys, AbNat.identity(e_sys.functor))
        return NatFTwoMorphism(t_mor, s_mor, eps, gam), e_sys

    def horizontal_instance(self):
        """Two side-by-side two-morphisms (C,D) -> (D',E) -> (E',G)."""
        dom_e = self.rng.choice([terminal_category(), arrow_category(),
                                 total_order_category(2),
                                 discrete_category(2)])
        outer_chain = self.nat_chain(dom_e, 4)
        dd = outer_chain.target
        inner_chain = self.nat_chain(dd, 4)
        d = self.system(inner_chain.target)
        two_a, e_sys = self._two_from_chain(inner_chain, d)
        two_b, g_sys = self._two_from_chain(outer_chain, e_sys)
        return two_a, two_b, d, e_sys, g_sys

    # -- (co)localizations ----------------------------------------------------

    def _chain_closure(self, k: int) -> Localization:
        """The total order on k objects localized onto a random subset that
        keeps the top: each object goes to the least kept one above it."""
        return Localization(*self._chain_retraction(k, True))

    def _chain_interior(self, k: int) -> Colocalization:
        """The total order on k objects colocalized onto a random subset
        that keeps the bottom: each object goes to the greatest kept one
        below it."""
        return Colocalization(*self._chain_retraction(k, False))

    def _chain_retraction(self, k: int, up: bool):
        """``(big, small, phi, psi, nat)`` of ``_chain_closure`` (``up``,
        ``nat`` the unit) or ``_chain_interior`` (``nat`` the counit)."""
        big = total_order_category(k)
        kept = k - 1 if up else 0
        members = sorted(set([kept] + [x for x in range(k) if x != kept
                                       and self.rng.random() < 0.5]))
        small = total_order_category(len(members))
        rank = {s: i for i, s in enumerate(members)}
        big_lookup = thin_mor_lookup(big)
        small_lookup = thin_mor_lookup(small)
        nearest = [min(s for s in members if s >= x) if up
                   else max(s for s in members if s <= x) for x in range(k)]
        phi_obj = tuple(rank[nearest[x]] for x in range(k))
        phi_mor = tuple(small_lookup[(phi_obj[big.mor_source[m]],
                                      phi_obj[big.mor_target[m]])]
                        for m in range(big.n_morphisms))
        phi = Functor(big, small, phi_obj, phi_mor)
        psi_obj = tuple(members)
        psi_mor = tuple(big_lookup[(members[small.mor_source[m]],
                                    members[small.mor_target[m]])]
                        for m in range(small.n_morphisms))
        psi = Functor(small, big, psi_obj, psi_mor)
        one, xi = identity_functor(big), compose_functors(psi, phi)
        if up:
            nat = NaturalTransformation(
                one, xi, tuple(big_lookup[(x, nearest[x])] for x in range(k)))
        else:
            nat = NaturalTransformation(
                xi, one, tuple(big_lookup[(nearest[x], x)] for x in range(k)))
        return big, small, phi, psi, nat

    def _product_localization(self, base: Localization,
                              m: FiniteCategory) -> Localization:
        pb = product(base.big, m)
        ps = product(base.small, m)
        phi = Functor(pb.category, ps.category,
                      tuple(ps.obj_id(base.phi.obj_map[pb.obj_pair(o)[0]],
                                      pb.obj_pair(o)[1])
                            for o in range(pb.category.n_objects)),
                      tuple(ps.mor_id(base.phi.mor_map[pb.mor_pair(x)[0]],
                                      pb.mor_pair(x)[1])
                            for x in range(pb.category.n_morphisms)))
        psi = Functor(ps.category, pb.category,
                      tuple(pb.obj_id(base.psi.obj_map[ps.obj_pair(o)[0]],
                                      ps.obj_pair(o)[1])
                            for o in range(ps.category.n_objects)),
                      tuple(pb.mor_id(base.psi.mor_map[ps.mor_pair(x)[0]],
                                      ps.mor_pair(x)[1])
                            for x in range(ps.category.n_morphisms)))
        unit = NaturalTransformation(
            identity_functor(pb.category), compose_functors(psi, phi),
            tuple(pb.mor_id(base.unit.components[pb.obj_pair(o)[0]],
                            m.identity[pb.obj_pair(o)[1]])
                  for o in range(pb.category.n_objects)))
        return Localization(pb.category, ps.category, phi, psi, unit)
