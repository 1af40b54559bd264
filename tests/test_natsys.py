import random
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh.abgroup import GroupHom, Z, cyclic, is_iso, trivial_group
from bwcoh.factorization import build_factorization, two_morphism_target
from bwcoh.fincat import (
    arrow_category, cyclic_group_category, identity_functor, identity_nat,
    indiscrete_category, terminal_category, total_order_category,
)
from bwcoh.intmat import IntMatrix
from bwcoh.natsys import (
    AbFunctor, AbNat, BifunctorInvalid, NatSysMorphism, NaturalSystem,
    act_by_two_morphism, compose_natsys_morphisms, constant_system,
    from_bifunctor, identity_two_morphism, pullback_along_nat,
    validate_bifunctor, validate_natural_system, vertical_compose_two, whisker,
)
from bwcoh.localization import (
    colocal_characterization, local_characterization, transport_to_small,
)
from bwcoh import natsys
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import (
    HEADER, category_text, group_text, load_workspace_file, parse_group,
)
from oracles import (
    bifunctor_on_product, canonical_map, fullness_witness, identity_morphism,
    localization, op_pair_product, projection_to_pair, system_via_projection,
    validate_bifunctor_full, validate_full_table, validate_pair_morphism,
)
from test_workspace_cli import run_cli

WORKSPACES = Path(__file__).resolve().parent.parent / "workspaces"


def test_constant_system_valid():
    for c in (terminal_category(), arrow_category(), cyclic_group_category(2)):
        d = constant_system(c, Z)
        assert validate_natural_system(d).ok
    zero = constant_system(arrow_category(), trivial_group)
    assert validate_natural_system(zero).ok
    z2 = constant_system(arrow_category(), cyclic(2))
    assert validate_natural_system(z2).ok


def test_validation_catches_corrupted_action():
    # corrupt the action at a composite pair of a hom-pairing system on Z/3:
    # the composition law pins it, so validation must name a witness
    gen = InstanceGen(0)
    c = cyclic_group_category(3)
    d = gen.hom_system(c)
    assert validate_natural_system(d).ok
    homs = list(d.functor.homs)
    fc = d.fc
    # pick a pair that factors through two non-identity one-sided pairs
    target = None
    for i, p in enumerate(fc.pairs):
        if not c.is_identity(p.h) and not c.is_identity(p.k):
            target = i
            break
    assert target is not None
    h = homs[target]
    homs[target] = GroupHom.create(h.source, h.target, h.matrix.scale(-1))
    broken = NaturalSystem(fc, AbFunctor(fc, d.functor.values, tuple(homs)))
    rep = validate_natural_system(broken)
    assert not rep.ok
    # corrupt an identity pair
    homs2 = list(d.functor.homs)
    ident_pair = fc.pair_id(0, 0, c.identity[c.mor_source[0]],
                            c.identity[c.mor_target[0]])
    g = homs2[ident_pair]
    homs2[ident_pair] = GroupHom.create(g.source, g.target,
                                        g.matrix.scale(2))
    broken2 = NaturalSystem(fc, AbFunctor(fc, d.functor.values, tuple(homs2)))
    assert not validate_natural_system(broken2).ok


def test_validation_composes_each_distinct_triple_once(monkeypatch):
    # a constant system shares one identity map among its 9,520 composable
    # generator triples; the map is composed with itself once
    import bwcoh.natsys
    calls = []
    real = bwcoh.natsys.hom_compose

    def counted(g, f):
        calls.append((g, f))
        return real(g, f)
    monkeypatch.setattr(bwcoh.natsys, "hom_compose", counted)
    assert validate_natural_system(
        constant_system(total_order_category(16), Z)).ok
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# the presentation validator against the full-table oracle

def test_ill_defined_action_is_reported():
    # D(id_x) = Z/2 and Z elsewhere, every action the 1x1 identity: the
    # action D(id_x) -> D(f) along (id_x, f) sends the relation 2 to 2, which
    # is not a relation of Z.  The full table still composes on the nose.
    c = total_order_category(2)
    fc = build_factorization(c)
    x = c.identity[0]
    values = tuple(cyclic(2) if f == x else Z for f in range(c.n_morphisms))
    one = IntMatrix(1, 1, (1,))
    homs = tuple(GroupHom(values[p.src], values[p.dst], one)
                 for p in fc.pairs)
    d = NaturalSystem(fc, AbFunctor(fc, values, homs))
    assert validate_full_table(d).ok
    rep = validate_natural_system(d)
    f = next(m for m in range(c.n_morphisms) if not c.is_identity(m))
    assert rep.violations == [
        f"action at ({c.morphism_name(x)},{c.morphism_name(f)}): "
        f"{c.morphism_name(x)} -> {c.morphism_name(f)} does not preserve "
        f"relations"]


def _sign_bifunctor(k: int):
    """Z on the cyclic group category of order k, ``act h g = (-1)^g``, as
    the category, values and actions ``from_bifunctor`` takes."""
    c = cyclic_group_category(k)
    mors = range(c.n_morphisms)
    acts = {(h, g): GroupHom.create(Z, Z, IntMatrix(1, 1, ((-1) ** g,)))
            for h in mors for g in mors}
    return c, {(0, 0): Z}, acts


def _sign_system(k: int) -> NaturalSystem:
    return from_bifunctor(*_sign_bifunctor(k))


def _systems_of_every_kind(seed: int) -> list[NaturalSystem]:
    gen = InstanceGen(seed)
    c = gen.category(6)
    out = [constant_system(c, gen.group()), gen.hom_system(c),
           gen.hom_system(c, 4)]
    if c.n_objects:
        out += [gen.representable_system(c, True),
                gen.representable_system(c, False),
                gen.indicator_system(c),
                gen.system_product(constant_system(c, cyclic(2)),
                                   gen.hom_system(c, 2))]
    return out


def _explicit_pullback(seed: int) -> NaturalSystem:
    """The benchmark's explicit system: a hom system pulled back along the
    counit of a chain-interior colocalization."""
    gen = InstanceGen(f"explicit-{seed}")
    coloc = gen._chain_interior(4)
    return pullback_along_nat(gen.hom_system(coloc.big), coloc.counit)


def _pair_kinds(d: NaturalSystem) -> dict[str, list[int]]:
    c = d.base
    kinds = {"identity": [], "left": [], "right": [], "two-sided": []}
    for i, p in enumerate(d.fc.pairs):
        kind = {(True, True): "identity", (False, True): "left",
                (True, False): "right", (False, False): "two-sided"}
        kinds[kind[c.is_identity(p.h), c.is_identity(p.k)]].append(i)
    return kinds


def _scaled(d: NaturalSystem, i: int, factor: int) -> NaturalSystem:
    homs = list(d.functor.homs)
    h = homs[i]
    homs[i] = GroupHom.create(h.source, h.target, h.matrix.scale(factor))
    return NaturalSystem(d.fc, AbFunctor(d.fc, d.functor.values, tuple(homs)))


def _explicit_text(name: str, d: NaturalSystem) -> str:
    """A workspace declaring ``d`` on category ``c`` by its generators."""
    c = d.base
    out = [HEADER, category_text("c", c), f"system {name} on c"]
    for f in range(c.n_morphisms):
        text = group_text(d.value(f))
        assert parse_group(text, 0) == d.value(f)
        out.append(f"  value {c.morphism_name(f)}: {text}")
    for i, p in enumerate(d.fc.pairs):
        h_id, k_id = c.is_identity(p.h), c.is_identity(p.k)
        if h_id != k_id:
            leg, sign = (p.h, "-|") if k_id else (p.k, "|-")
            rows = str(d.act(i).matrix.to_rows()).replace(" ", "")
            out.append(f"  act {c.morphism_name(p.src)} {sign} "
                       f"{c.morphism_name(leg)}: {rows}")
    return "\n".join(out + ["end"]) + "\n"


def test_both_validators_accept_valid_systems():
    systems = [d for seed in range(10) for d in _systems_of_every_kind(seed)]
    systems += [constant_system(cyclic_group_category(4), Z),
                constant_system(cyclic_group_category(5), cyclic(5)),
                constant_system(total_order_category(4), Z),
                constant_system(indiscrete_category(3), Z),
                _sign_system(4), _explicit_pullback(0)]
    for path in sorted(WORKSPACES.glob("*.bwcoh")):
        systems += load_workspace_file(str(path)).systems.values()
    assert len(systems) > 70
    for d in systems:
        assert validate_full_table(d).ok
        assert validate_natural_system(d).ok


def test_corruptions_are_rejected_exactly_when_the_oracle_rejects():
    # scaling keeps every action well defined, so the two validators must
    # agree on every corruption, not only on the ones the oracle reports
    rng = random.Random(12)
    rejected = {"identity": 0, "left": 0, "right": 0, "two-sided": 0}
    for seed in range(12):
        systems = _systems_of_every_kind(100 + seed)
        systems.append(_explicit_pullback(seed))
        for d in systems:
            for kind, ids in _pair_kinds(d).items():
                if not ids:
                    continue
                bad = _scaled(d, rng.choice(ids), rng.choice([-1, 2, 3]))
                oracle = validate_full_table(bad)
                rep = validate_natural_system(bad)
                assert rep.ok == oracle.ok, (kind, rep, oracle)
                rejected[kind] += not rep.ok
    assert all(n >= 5 for n in rejected.values()), rejected


def test_corrupted_generators_exit_2_from_the_cli(tmp_path):
    gen = InstanceGen(5)
    d = gen.hom_system(cyclic_group_category(3))
    kinds = _pair_kinds(d)
    cases = [("left", kinds["left"][0]), ("right", kinds["right"][-1])]
    path = tmp_path / "d.bwcoh"
    path.write_text(_explicit_text("d", d), encoding="utf-8")
    assert run_cli("validate", str(path))[0] == 0
    for kind, i in cases:
        bad = _scaled(d, i, -1)
        assert not validate_full_table(bad).ok, kind
        path.write_text(_explicit_text("d", bad), encoding="utf-8")
        for argv in (("validate", str(path)),
                     ("cohomology", str(path), "c", "d")):
            code, out, err = run_cli(*argv)
            assert code == 2, (kind, argv)
            assert "functoriality fails" in out or \
                "one-sided factorizations disagree" in out, (kind, out)
            assert "Traceback" not in err


def test_sign_bifunctor_system():
    c, values, acts = _sign_bifunctor(2)
    d = from_bifunctor(c, values, acts)
    assert validate_natural_system(d).ok
    # the value at the identity is b at the diagonal pair
    assert d.value(0) is values[0, 0]
    # bifunctor-induced actions: one-sided actions depend only on their leg
    fc = d.fc
    for p in fc.pairs:
        q = [q for q in fc.pairs
             if q.h == p.h and q.k == p.k
             and c.mor_source[q.src] == c.mor_source[p.src]
             and c.mor_target[q.src] == c.mor_target[p.src]]
        for other in q:
            assert d.act_pair(other.src, other.dst, other.h, other.k).matrix \
                == d.act_pair(p.src, p.dst, p.h, p.k).matrix


def test_from_bifunctor_rejects_invalid():
    c, values, acts = _sign_bifunctor(2)
    # non-multiplicative assignment: -1 only on (g, g)
    acts = {hk: GroupHom.identity(Z) for hk in acts}
    acts[1, 1] = GroupHom.create(Z, Z, IntMatrix(1, 1, (-1,)))
    with pytest.raises(BifunctorInvalid):
        from_bifunctor(c, values, acts)
    # a missing action leaves the functor undefined somewhere on C^op x C
    del acts[1, 0]
    assert validate_bifunctor(c, values, acts).violations == [
        "bifunctor not defined on C^op x C"]


def test_bifunctor_is_checked_off_the_image_of_the_projection():
    # no morphism of the arrow runs y -> x, so F(C) never reaches the pair
    # (y, x); the bifunctor must still act there as a functor
    c = arrow_category()
    objects, mors = range(c.n_objects), range(c.n_morphisms)
    values = {(x, y): Z for x in objects for y in objects}
    acts = {(h, k): GroupHom.identity(Z) for h in mors for k in mors}
    assert validate_bifunctor(c, values, acts).ok
    acts[c.identity[1], c.identity[0]] = GroupHom(Z, Z, IntMatrix(1, 1, (2,)))
    assert validate_bifunctor(c, values, acts).violations == [
        "(id_y,id_x) does not act as the identity"]
    assert not validate_bifunctor_full(
        bifunctor_on_product(c, values, acts)).ok


@pytest.mark.parametrize("seed", range(4))
def test_from_bifunctor_matches_the_pullback_along_the_projection(
        seed, monkeypatch):
    # the system read off the keys equals the product functor pulled back
    # along F(C) -> C^op x C, on hom-pairing and sign systems
    gen = InstanceGen(f"projection-{seed}")
    cats = [gen.category(6) for _ in range(3)] + [
        terminal_category(), arrow_category(), cyclic_group_category(3)]
    taken = []
    real = natsys.from_bifunctor

    def spy(c, values, acts):
        taken.append((c, values, acts))
        return real(c, values, acts)
    monkeypatch.setattr(natsys, "from_bifunctor", spy)
    for c in cats:
        d = gen.hom_system(c, gen.rng.choice([0, 2, 4]))
        assert taken[-1][0] is c
        proj = projection_to_pair(c)
        assert proj.validate().ok
        prod = op_pair_product(c)
        assert all(prod.obj_pair(proj.obj_map[c.identity[x]]) == (x, x)
                   for x in range(c.n_objects))
        assert d == system_via_projection(*taken[-1])
    # the generator's hom systems are natsys.hom_system over Z or Z/m
    assert all(InstanceGen("x").hom_system(c, m)
               == natsys.hom_system(c, cyclic(m))
               for c in cats for m in (0, 2, 4))
    for k in (2, 4):
        assert _sign_system(k) == system_via_projection(*_sign_bifunctor(k))


@pytest.mark.parametrize("seed", range(8))
def test_bifunctor_generators_agree_with_full_loop(seed, monkeypatch):
    # the bifunctors InstanceGen.hom_system builds, taken as free_system
    # hands them to from_bifunctor; the oracle composes them over all of
    # C^op x C
    gen = InstanceGen(f"bifunctor-{seed}")
    cats = [gen.category(6) for _ in range(3)] + [
        arrow_category(), cyclic_group_category(3), indiscrete_category(2)]
    taken = []
    with monkeypatch.context() as m:
        m.setattr(natsys, "from_bifunctor",
                  lambda c, values, acts: taken.append((c, values, acts)))
        for c in cats:
            gen.hom_system(c, gen.rng.choice([0, 2, 4]))
    rng = gen.rng
    refused = 0
    for c, values, acts in taken:
        assert validate_bifunctor(c, values, acts).ok
        assert validate_bifunctor_full(
            bifunctor_on_product(c, values, acts)).ok
        keys = list(acts)
        for _ in range(6):
            # a well-defined but possibly non-functorial action at one pair
            key = keys[rng.randrange(len(keys))]
            h = acts[key]
            scale = rng.choice([0, -1, 2, 3])
            bad = {**acts,
                   key: GroupHom(h.source, h.target, h.matrix.scale(scale))}
            full = validate_bifunctor_full(
                bifunctor_on_product(c, values, bad)).ok
            assert validate_bifunctor(c, values, bad).ok == full
            if not full:
                refused += 1
                with pytest.raises(BifunctorInvalid):
                    from_bifunctor(c, values, bad)
    assert refused


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_systems_validate(seed):
    gen = InstanceGen(seed)
    c = gen.category(6)
    d = gen.system(c)
    assert validate_natural_system(d).ok


def test_pullback_identity_is_same_system():
    c = arrow_category()
    d = constant_system(c, cyclic(4))
    pulled = pullback_along_nat(d, identity_nat(identity_functor(c)))
    assert pulled.functor.values == d.functor.values
    assert pulled.functor.equal_mod(d.functor)


def test_pullback_constant_stays_constant():
    gen = InstanceGen(4)
    dom = gen.chain_domain()
    chain = gen.nat_chain(dom, 2)
    d = constant_system(chain.target, cyclic(6))
    pulled = pullback_along_nat(d, chain.nats[0])
    assert all(v is d.functor.values[0] for v in pulled.functor.values)
    assert validate_natural_system(pulled).ok


def test_whisker_identity_and_composition_neutrality():
    gen = InstanceGen(9)
    dom = gen.chain_domain()
    chain = gen.nat_chain(dom, 2)
    d = gen.system(chain.target)
    e = pullback_along_nat(d, chain.nats[0])
    t = NatSysMorphism(chain.nats[0], d, e, AbNat.identity(e.functor))
    assert validate_pair_morphism(t).ok
    ident = identity_morphism(e)
    composed = compose_natsys_morphisms(ident, t)
    assert composed.alpha == t.alpha
    assert composed.nat.equal_mod(t.nat)
    whiskered = whisker(t, identity_nat(identity_functor(dom)))
    assert whiskered.alpha == t.alpha
    assert whiskered.nat.equal_mod(t.nat)


def test_compose_natsys_morphisms_associativity():
    for seed in range(6):
        gen = InstanceGen(500 + seed)
        dom_e = gen.rng.choice([terminal_category(), arrow_category()])
        outer = gen.nat_chain(dom_e, 2)
        mid_cat = outer.target
        inner = gen.nat_chain(mid_cat, 2)
        d = gen.system(inner.target)
        e = pullback_along_nat(d, inner.nats[0])
        t1 = NatSysMorphism(inner.nats[0], d, e, AbNat.identity(e.functor))
        g = pullback_along_nat(e, outer.nats[0])
        t2 = NatSysMorphism(outer.nats[0], e, g, AbNat.identity(g.functor))
        ident = identity_morphism(g)
        left = compose_natsys_morphisms(ident, compose_natsys_morphisms(t2, t1))
        right = compose_natsys_morphisms(compose_natsys_morphisms(ident, t2),
                                         t1)
        assert left.alpha == right.alpha
        assert left.nat.equal_mod(right.nat)


def test_act_by_two_morphism_identity_and_constant():
    gen = InstanceGen(21)
    dom = gen.chain_domain()
    chain = gen.nat_chain(dom, 2)
    alpha = chain.nats[0]
    d = gen.system(chain.target)
    one_s = identity_nat(alpha.source_functor)
    one_t = identity_nat(alpha.target_functor)
    act = act_by_two_morphism(d, alpha, one_s, one_t)
    for comp in act.components:
        assert comp.equal_mod(GroupHom.identity(comp.source))
    # constant coefficients: all action components are identities
    const = constant_system(chain.target, cyclic(4))
    chain4 = gen.nat_chain(dom, 4)
    eps, a4, gam = chain4.nats
    const4 = constant_system(chain4.target, cyclic(4))
    act2 = act_by_two_morphism(const4, a4, eps, gam)
    for comp in act2.components:
        assert comp.equal_mod(GroupHom.identity(comp.source))
    # functorial in the two-morphism: a vertical composite acts by the
    # composite family, and the identity square by the identity of D∘F(alpha)
    for seed in range(40):
        a, b, d, _ = InstanceGen(seed).vertical_instance()
        assert _family(vertical_compose_two(b, a)).equal_mod(
            _family(b).compose(_family(a))), seed
        assert _family(identity_two_morphism(a.src)).equal_mod(AbNat.identity(
            pullback_along_nat(d, a.src.alpha).functor)), seed


def _family(two):
    """The family 1_D * F(eps, gam) by which a two-morphism acts."""
    return act_by_two_morphism(two.src.source_system, two.src.alpha,
                               two.eps, two.gam)


def test_two_morphism_validation():
    gen = InstanceGen(33)
    two, d, e = gen.h_instance()
    assert two.validate().ok
    # breaking the coherence breaks validation
    broken = type(two)(two.dst, two.dst, two.eps, two.gam)
    assert not broken.validate().ok or \
        two.src.nat.equal_mod(two.dst.nat)


def test_fullness_witness():
    for seed in range(6):
        gen = InstanceGen(700 + seed)
        two, d, e = gen.h_instance()
        ordinary, connecting = fullness_witness(two.src)
        assert ordinary.alpha.source_functor == ordinary.alpha.target_functor
        assert validate_pair_morphism(ordinary).ok
        assert connecting.validate().ok


def test_library_pair_morphisms_are_natural_against_recomputed_source():
    # a family stores only its components: its source D∘F(alpha) is
    # recomputed from the anchor and the source system, its target is the
    # target system.  Every pair morphism below is checked alike: those of
    # seeded instances, the family of each two-morphism anchored at alpha
    # with target D∘F(beta), and the canonical maps (1, nu)
    for seed in range(20):
        gen = InstanceGen(seed)
        h, _, _ = gen.h_instance()
        va, vb, _, _ = gen.vertical_instance()
        ha, hb, _, _, _ = gen.horizontal_instance()
        twos = (h, va, vb, ha, hb)
        morphisms = [m for two in twos for m in (two.src, two.dst)]
        morphisms += [compose_natsys_morphisms(hb.src, ha.src),
                      compose_natsys_morphisms(hb.dst, ha.dst),
                      whisker(ha.src, hb.src.alpha),
                      whisker(ha.dst, hb.dst.alpha)]
        morphisms += [fullness_witness(two.src)[0] for two in twos]
        for two in (*twos, vertical_compose_two(vb, va)):
            d, alpha = two.src.source_system, two.src.alpha
            beta = two_morphism_target(alpha, two.eps, two.gam)
            morphisms.append(NatSysMorphism(
                alpha, d, pullback_along_nat(d, beta), _family(two)))
        for m in morphisms:
            assert validate_pair_morphism(m).ok, (seed, m.alpha)
    ws = load_workspace_file(str(WORKSPACES / "arrow.bwcoh"))
    pairs = [*ws.localizations.values(), *ws.colocalizations.values()]
    maps = [canonical_map(d, l) for d in ws.systems.values() for l in pairs]
    for path in sorted(WORKSPACES.glob("*.bwcoh")):
        for d in load_workspace_file(str(path)).systems.values():
            for l in transport_to_small(d)[1]:
                maps.append(canonical_map(d, l))
                d = pullback_along_nat(d, identity_nat(l.psi))
    assert len(maps) >= 11   # 4 systems x 2 arrow pairs, 3 transports
    for nu in maps:
        assert nu.alpha == identity_nat(identity_functor(nu.source_system.base))
        assert validate_pair_morphism(nu).ok


def test_is_local_examples():
    from bwcoh.localization import Localization
    from bwcoh.fincat import Functor, NaturalTransformation, compose_functors
    c = arrow_category()
    pt = terminal_category()
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (1,), (1,))
    unit = NaturalTransformation(identity_functor(c),
                                 compose_functors(psi, phi), (2, 1))
    loc = Localization(c, pt, phi, psi, unit)
    assert local_characterization(constant_system(c, Z), loc).pointwise_local
    assert colocal_characterization(
        constant_system(c, Z),
        __colocalization_on_source(c, pt)).pointwise_local
    # D(1_x)=Z, D(1_y)=Z, D(f)=0 is not local
    fc = build_factorization(c)
    values = (Z, Z, trivial_group)
    homs = []
    for p in fc.pairs:
        homs.append(GroupHom.create(
            values[p.src], values[p.dst],
            IntMatrix(values[p.dst].generators, values[p.src].generators,
                      (1,) * (values[p.dst].generators *
                              values[p.src].generators))))
    zzero = NaturalSystem(fc, AbFunctor(fc, values, tuple(homs)))
    assert validate_natural_system(zzero).ok
    assert not local_characterization(zzero, loc).pointwise_local
    # pullbacks along the unit are always local
    gen = InstanceGen(2)
    for _ in range(5):
        e0 = gen.system(c)
        pulled = pullback_along_nat(e0, unit)
        ch = local_characterization(pulled, loc)
        assert ch.pointwise_local
        assert all(map(is_iso, ch.nu.components))


def __colocalization_on_source(c, pt):
    from bwcoh.localization import Colocalization
    from bwcoh.fincat import Functor, NaturalTransformation, compose_functors
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (0,), (0,))
    counit = NaturalTransformation(compose_functors(psi, phi),
                                   identity_functor(c), (0, 2))
    return Colocalization(c, pt, phi, psi, counit)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_loc3_equivalence_both_directions(seed):
    gen = InstanceGen(seed)
    loc = localization(gen)
    d = gen.system(loc.big)
    ch = local_characterization(d, loc)
    assert ch.pointwise_local == all(map(is_iso,
                                         ch.nu.components))
