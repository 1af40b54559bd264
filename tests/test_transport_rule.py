"""``cohomology`` answers through (co)reflections when the
(co)localization theorem allows it: onto a terminal or initial object, and
onto the category without one object by a peel.

``transport_to_small`` records the pairs it applied.  These tests pin the
route each checked-in workspace system, each benchmark input and a few
posets and groupoids take, certify every pair it picks there with
``verify_transport_theorem``, check that categories without a pair build
nothing, and compare its invariants with those of the plain normalized
complex on seeded random instances and on systems that are local for peels
but not for the terminal or initial step.
"""

import sys
import time
from itertools import permutations
from pathlib import Path

import pytest

from bwcoh.abgroup import GroupInvariants, Z, cyclic
from bwcoh.bwcomplex import build_complex
from bwcoh.cli import main
from bwcoh.fincat import (
    FiniteCategory, arrow_category, cyclic_group_category, identity_nat,
    indiscrete_category, make_category, poset_category, product,
    pseudo_circle_category, total_order_category,
)
from bwcoh.localization import (
    Colocalization, Localization, transport_to_small, validate_adjoint_pair,
    verify_transport_theorem,
)
from bwcoh.natsys import NaturalSystem, constant_system, pullback_along_nat
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import HEADER, category_text, load_workspace_file

ROOT = Path(__file__).resolve().parent.parent
WORKSPACES = ROOT / "workspaces"


def route(d: NaturalSystem) -> list[str]:
    """The steps ``transport_to_small`` takes: ``terminal`` or ``initial``
    onto the point, else ``peel``."""
    _, pairs = transport_to_small(d)
    return ["peel" if l.small.n_morphisms > 1
            else "terminal" if isinstance(l, Localization) else "initial"
            for l in pairs]


def steps(d: NaturalSystem):
    """Each pair applied, with the system it was applied to."""
    _, pairs = transport_to_small(d)
    for l in pairs:
        yield d, l
        d = pullback_along_nat(d, identity_nat(l.psi))


def invariants(d: NaturalSystem, max_degree: int) -> list:
    cx = build_complex(d, max_degree, normalized=True)
    return [cx.cohomology(n) for n in range(max_degree)]


def p20() -> FiniteCategory:
    """Two minimal objects below a 16-object chain below two maximal ones:
    neither terminal nor initial, and contractible, as its order complex
    is a join with a simplex."""
    rank = [0, 0] + list(range(1, 17)) + [17, 17]
    return poset_category(20, {(x, y) for x in range(20) for y in range(20)
                               if x == y or rank[x] < rank[y]})


def s9_model() -> FiniteCategory:
    """The minimal finite model of the 9-sphere, ten copies of S0 joined:
    x < y when x // 2 < y // 2.  No object has a peel."""
    return poset_category(20, {(x, y) for x in range(20) for y in range(20)
                               if x == y or x // 2 < y // 2})


def ten_gon() -> FiniteCategory:
    """The face poset of a 10-gon: vertices 0..9 below edges 10..19, edge
    10 + i on vertices i and i + 1 mod 10.  No object has a peel."""
    return poset_category(20, {(x, x) for x in range(20)} | {
        (v, 10 + i) for i in range(10) for v in (i, (i + 1) % 10)})


def s3_on_three_points() -> FiniteCategory:
    """The action groupoid of S3 on {0, 1, 2}: a morphism g_x: x -> g(x)
    for each permutation g and point x."""
    perms = list(permutations(range(3)))
    mid = {(g, x): i for i, (g, x) in
           enumerate((g, x) for g in perms for x in range(3))}
    after = {(h, g): tuple(h[g[i]] for i in range(3))
             for g in perms for h in perms}
    return make_category(
        3, [(x, g[x]) for g in perms for x in range(3)],
        [mid[perms[0], x] for x in range(3)],
        {(mid[g, x], mid[h, g[x]]): mid[after[h, g], x]
         for g in perms for x in range(3) for h in perms},
        object_names=["p0", "p1", "p2"],
        morphism_names=[f"g{''.join(map(str, g))}_{x}"
                        for g in perms for x in range(3)])


def workspace_systems():
    for path in sorted(WORKSPACES.glob("*.bwcoh")):
        ws = load_workspace_file(str(path))
        for name, d in ws.systems.items():
            yield f"{path.stem}:{name}", d


def benchmark_inputs(tmp_path):
    """The ``invariants`` systems of the benchmark at seeds 1 and 2, by job."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in (1, 2):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        for job in workloads.make_jobs("invariants", seed, work):
            ws = load_workspace_file(job.argv[1])
            yield job.name, ws.systems["d"]


WORKSPACE_ROUTES = {
    "arrow:const_z": ["terminal"], "arrow:const_z4": ["terminal"],
    "arrow:local_z4": ["terminal"], "arrow:zzero": [],
}

BENCHMARK_ROUTES = {
    "z4_const_z": [], "z4_sign_z": [], "z5_const_z5": [],
    "total_order8_const_z": ["terminal"],
    "indiscrete4_const_z": ["terminal"],
}


def test_standard_routes():
    assert route(constant_system(indiscrete_category(4), Z)) == ["terminal"]
    assert route(constant_system(total_order_category(8), Z)) == ["terminal"]
    # p20 loses its greatest object o19 along the counit o17 -> o19, and
    # then o18 is terminal
    d = constant_system(p20(), Z)
    small, (peel, terminal) = transport_to_small(d)
    assert isinstance(peel, Colocalization) and isinstance(terminal,
                                                           Localization)
    assert peel.counit.components[19] == peel.big.hom(17, 19)[0]
    assert terminal.psi.obj_map == (18,)
    assert small.base.n_morphisms == 1
    # the groupoid loses p2, then p1, to isomorphisms: its skeleton Z/2
    d = constant_system(s3_on_three_points(), cyclic(2))
    assert route(d) == ["peel", "peel"]
    small, pairs = transport_to_small(d)
    assert (small.base.n_objects, small.base.n_morphisms) == (1, 2)
    assert small.base.object_names == ("p0",)
    assert all(validate_adjoint_pair(l).ok for l in pairs)


def test_nothing_is_built_where_nothing_is_found(monkeypatch):
    # groups, the pseudo-circle, the S9 model and the 10-gon have no
    # terminal or initial object and no peel: no category, functor or pair
    # is made
    import bwcoh.localization as localization

    def refuse(*args, **kwargs):
        raise AssertionError("built a pair where none exists")

    systems = [d for name, d in workspace_systems()
               if not name.startswith("arrow:")]
    systems += [constant_system(s9_model(), Z), constant_system(ten_gon(), Z)]
    for name in ("make_category", "Functor", "NaturalTransformation",
                 "validate_adjoint_pair"):
        monkeypatch.setattr(localization, name, refuse)
    for d in systems:
        assert transport_to_small(d) == (d, ())


def test_peels_are_the_reflections_onto_one_object_less():
    # building and validating the pair for every u: x -> y (u: y -> x)
    # finds a reflection (coreflection) onto C without x exactly where
    # _peels yields one, and _peels visits the greatest object first
    from bwcoh.localization import _peels, _reflection
    gen = InstanceGen("peels")
    categories = [s3_on_three_points(), ten_gon(), pseudo_circle_category(),
                  product(arrow_category(), cyclic_group_category(2)).category,
                  product(total_order_category(3),
                          indiscrete_category(2)).category]
    categories += [gen.category(8) for _ in range(40)]
    for c in categories:
        expected = []
        for x in reversed(range(c.n_objects)):
            for co, near, far in ((False, c.mor_source, c.mor_target),
                                  (True, c.mor_target, c.mor_source)):
                for u in range(c.n_morphisms):
                    if near[u] != x or far[u] == x:
                        continue
                    try:
                        ok = validate_adjoint_pair(
                            _reflection(c, {x: u}, co)).ok
                    except KeyError:   # a composite outside C without x
                        ok = False
                    if ok:
                        expected.append((x, co))
                        break
        found = [(set(range(c.n_objects)).difference(l.psi.obj_map).pop(),
                  isinstance(l, Colocalization)) for l in _peels(c)]
        assert found == expected, c


def test_initial_object_when_there_is_no_terminal_one():
    # x <- y -> z: no terminal object, and y is initial
    v = poset_category(3, {(0, 0), (1, 1), (2, 2), (1, 0), (1, 2)})
    assert route(constant_system(v, Z)) == ["initial"]
    small, (pair,) = transport_to_small(constant_system(v, cyclic(3)))
    assert isinstance(pair, Colocalization) and pair.psi.obj_map == (1,)
    assert invariants(small, 3) == invariants(constant_system(v, cyclic(3)), 3)


def test_every_workspace_system_takes_its_route():
    seen = {name: route(d) for name, d in workspace_systems()}
    assert len(seen) == 15
    # everything off the arrow is a group, a hom system on one, or the
    # pseudo-circle: nothing to collapse
    assert seen == {name: WORKSPACE_ROUTES.get(name, []) for name in seen}


def test_every_benchmark_input_takes_its_route(tmp_path):
    for name, d in benchmark_inputs(tmp_path):
        assert route(d) == BENCHMARK_ROUTES[name], name


def certify(d: NaturalSystem, max_degree: int) -> None:
    for system, pair in steps(d):
        report = verify_transport_theorem(system, pair, max_degree)
        assert len(report.invariants) == max_degree


@pytest.mark.parametrize("name", sorted(WORKSPACE_ROUTES))
def test_workspace_pairs_pass_the_transport_theorem(name):
    d = dict(workspace_systems())[name]
    certify(d, 4)


def test_benchmark_pairs_pass_the_transport_theorem(tmp_path):
    picked = 0
    for name, d in benchmark_inputs(tmp_path):
        if BENCHMARK_ROUTES[name]:
            certify(d, 4)
            picked += 1
    assert picked == 4


def test_groupoid_pair_passes_the_transport_theorem():
    certify(constant_system(s3_on_three_points(), cyclic(2)), 3)


def test_p20_pairs_pass_the_transport_theorem():
    certify(constant_system(p20(), Z), 4)


def test_groupoid_cohomology_through_the_cli(tmp_path, capsys):
    # H^n(S3 on 3 points; Z/2) = H^n(Z/2; Z/2): the nerve route took 12 s
    # and 370 MB at max-degree 6, as it has 3·5^n cells in degree n
    path = tmp_path / "groupoid.bwcoh"
    path.write_text(f"{HEADER}\n{category_text('g', s3_on_three_points())}"
                    f"system d on g\n  constant: Z/2\nend\n",
                    encoding="utf-8")
    start = time.process_time()
    code = main(["cohomology", str(path), "g", "d", "--max-degree", "6",
                 "--format", "machine"])
    assert time.process_time() - start < 2
    assert code == 0
    assert capsys.readouterr().out == "".join(
        f"H {n} rank=0 torsion=[2]\n" for n in range(6))


def test_p20_cohomology_through_the_cli(tmp_path, capsys):
    # the nerve route took 6-7 s and 222 MB at max-degree 6; a peel and the
    # terminal step leave the point
    path = tmp_path / "p20.bwcoh"
    path.write_text(f"{HEADER}\n{category_text('p20', p20())}"
                    f"system d on p20\n  constant: Z\nend\n",
                    encoding="utf-8")
    start = time.process_time()
    code = main(["cohomology", str(path), "p20", "d", "--max-degree", "6",
                 "--format", "machine"])
    assert time.process_time() - start < 1
    assert code == 0
    assert capsys.readouterr().out == "H 0 rank=1 torsion=[]\n" + "".join(
        f"H {n} rank=0 torsion=[]\n" for n in range(1, 6))


def test_invalid_pair_is_a_certificate_failure(monkeypatch, capsys):
    import bwcoh.localization as localization
    real = localization._reflection

    def broken(*args):
        # a unit phi => phi where 1_C => psi∘phi belongs
        pair = real(*args)
        return Localization(pair.big, pair.small, pair.phi, pair.psi,
                            identity_nat(pair.phi))

    monkeypatch.setattr(localization, "_reflection", broken)
    code = main(["cohomology", str(WORKSPACES / "arrow.bwcoh"), "arrow",
                 "const_z"])
    assert code == 1
    assert capsys.readouterr().out == ("certificate-failure: localization: "
                                       "unit does not go 1_C => psi∘phi\n")


@pytest.mark.parametrize("base", ["t20", "p20"])
def test_peels_match_the_nerve_route_where_the_ends_do_not_apply(base):
    # Z on the morphisms whose interval reaches through object 10 is
    # neither local for the terminal step nor colocal for the initial one;
    # the peels take it down to two objects, and H^1 = Z either way
    c = total_order_category(20) if base == "t20" else p20()
    d = InstanceGen(1).indicator_system(c, 10)
    small, pairs = transport_to_small(d)
    assert len(pairs) == 18 and small.base.n_objects == 2
    assert all(l.small.n_objects == l.big.n_objects - 1 for l in pairs)
    assert invariants(small, 3) == invariants(d, 3) == [
        GroupInvariants(0, ()), GroupInvariants(1, ()), GroupInvariants(0, ())]


@pytest.mark.parametrize("seed", range(120))
def test_rule_matches_the_nerve_route(seed):
    gen = InstanceGen(f"transport-rule-{seed}")
    c = gen.category(6)
    d = gen.system(c)
    small, _ = transport_to_small(d)
    assert invariants(small, 3) == invariants(d, 3)
