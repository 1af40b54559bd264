import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bwcoh.abgroup import GroupHom, Z, cyclic, trivial_group
from bwcoh.factorization import build_factorization
from bwcoh.fincat import (
    arrow_category, cyclic_group_category, identity_functor, identity_nat,
    indiscrete_category, terminal_category, total_order_category,
)
from bwcoh.intmat import IntMatrix
from bwcoh.natsys import (
    AbFunctor, AbNat, BifunctorInvalid, NatSysMorphism, NaturalSystem,
    act_by_two_morphism, compose_natsys_morphisms, constant_system,
    from_bifunctor, pullback_along_nat, validate_bifunctor,
    validate_natural_system, whisker,
)
from bwcoh.localization import colocal_characterization, local_characterization
from bwcoh import randgen
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import (
    HEADER, category_text, group_text, load_workspace_file, parse_group,
)
from oracles import (
    fullness_witness, identity_morphism, localization,
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
    broken = NaturalSystem(fc, AbFunctor(fc.category, d.functor.values,
                                         tuple(homs)))
    rep = validate_natural_system(broken)
    assert not rep.ok
    # corrupt an identity pair
    homs2 = list(d.functor.homs)
    ident_pair = fc.pair_id(0, 0, c.identity[c.mor_source[0]],
                            c.identity[c.mor_target[0]])
    g = homs2[ident_pair]
    homs2[ident_pair] = GroupHom.create(g.source, g.target,
                                        g.matrix.scale(2))
    broken2 = NaturalSystem(fc, AbFunctor(fc.category, d.functor.values,
                                          tuple(homs2)))
    assert not validate_natural_system(broken2).ok


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
    d = NaturalSystem(fc, AbFunctor(fc.category, values, homs))
    assert validate_full_table(d).ok
    rep = validate_natural_system(d)
    f = next(m for m in range(c.n_morphisms) if not c.is_identity(m))
    assert rep.violations == [
        f"action at ({c.morphism_name(x)},{c.morphism_name(f)}): "
        f"{c.morphism_name(x)} -> {c.morphism_name(f)} does not preserve "
        f"relations"]


def _sign_system(k: int) -> NaturalSystem:
    """Z on the cyclic group category of order k, ``act h g = (-1)^g``."""
    c = cyclic_group_category(k)
    from bwcoh.factorization import op_pair_product
    prod = op_pair_product(c)
    homs = tuple(GroupHom.create(Z, Z, IntMatrix(1, 1, ((-1) ** b,)))
                 for _, b in map(prod.mor_pair,
                                 range(prod.category.n_morphisms)))
    return from_bifunctor(c, AbFunctor(prod.category,
                                       (Z,) * prod.category.n_objects, homs))


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
    return NaturalSystem(d.fc, AbFunctor(d.fc.category, d.functor.values,
                                         tuple(homs)))


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
    c = cyclic_group_category(2)
    from bwcoh.factorization import op_pair_product
    prod = op_pair_product(c)
    vals = (Z,) * prod.category.n_objects
    homs = []
    for m in range(prod.category.n_morphisms):
        _, k = prod.mor_pair(m)
        sign = -1 if k == 1 else 1
        homs.append(GroupHom.create(Z, Z, IntMatrix(1, 1, (sign,))))
    bif = AbFunctor(prod.category, vals, tuple(homs))
    d = from_bifunctor(c, bif)
    assert validate_natural_system(d).ok
    # the value at the identity is b at the diagonal pair
    assert d.value(0) is vals[0]
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
    c = cyclic_group_category(2)
    from bwcoh.factorization import op_pair_product
    prod = op_pair_product(c)
    vals = (Z,) * prod.category.n_objects
    homs = []
    for m in range(prod.category.n_morphisms):
        a, k = prod.mor_pair(m)
        # non-multiplicative assignment: -1 only on (g, g)
        sign = -1 if (a, k) == (1, 1) else 1
        homs.append(GroupHom.create(Z, Z, IntMatrix(1, 1, (sign,))))
    bif = AbFunctor(prod.category, vals, tuple(homs))
    with pytest.raises(BifunctorInvalid):
        from_bifunctor(c, bif)


@pytest.mark.parametrize("seed", range(8))
def test_bifunctor_generators_agree_with_full_loop(seed, monkeypatch):
    # the (category, bifunctor) pairs InstanceGen.hom_system builds, taken
    # as it hands them to from_bifunctor
    gen = InstanceGen(f"bifunctor-{seed}")
    cats = [gen.category(6) for _ in range(3)] + [
        arrow_category(), cyclic_group_category(3), indiscrete_category(2)]
    pairs = []
    with monkeypatch.context() as m:
        m.setattr(randgen, "from_bifunctor",
                  lambda c, bif: pairs.append((c, bif)))
        for c in cats:
            gen.hom_system(c, gen.rng.choice([0, 2, 4]))
    rng = gen.rng
    refused = 0
    for c, bif in pairs:
        assert validate_bifunctor(c, bif).ok
        assert validate_bifunctor_full(bif).ok
        for _ in range(6):
            # a well-defined but possibly non-functorial action at one pair
            m = rng.randrange(len(bif.homs))
            h = bif.homs[m]
            scale = rng.choice([0, -1, 2, 3])
            homs = list(bif.homs)
            homs[m] = GroupHom(h.source, h.target, h.matrix.scale(scale))
            bad = dataclasses.replace(bif, homs=tuple(homs))
            full = validate_bifunctor_full(bad).ok
            assert validate_bifunctor(c, bad).ok == full
            if not full:
                refused += 1
                with pytest.raises(BifunctorInvalid):
                    from_bifunctor(c, bad)
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
    for comp in act.nat.components:
        assert comp.equal_mod(GroupHom.identity(comp.source))
    # constant coefficients: all action components are identities
    const = constant_system(chain.target, cyclic(4))
    chain4 = gen.nat_chain(dom, 4)
    eps, a4, gam = chain4.nats
    const4 = constant_system(chain4.target, cyclic(4))
    act2 = act_by_two_morphism(const4, a4, eps, gam)
    for comp in act2.nat.components:
        assert comp.equal_mod(GroupHom.identity(comp.source))


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
    zzero = NaturalSystem(fc, AbFunctor(fc.category, values, tuple(homs)))
    assert validate_natural_system(zzero).ok
    assert not local_characterization(zzero, loc).pointwise_local
    # pullbacks along the unit are always local
    gen = InstanceGen(2)
    for _ in range(5):
        e0 = gen.system(c)
        pulled = pullback_along_nat(e0, unit)
        ch = local_characterization(pulled, loc)
        assert ch.pointwise_local
        assert ch.canonical_map.nat.is_natural_iso()


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
    assert ch.pointwise_local == ch.canonical_map.nat.is_natural_iso()
