"""``cohomology`` answers through the skeleton and a terminal or initial
object when the (co)localization theorem allows it.

``transport_to_small`` records the pairs it applied.  These tests pin the
route each checked-in workspace system and each benchmark input takes,
certify every pair it picks there with ``verify_transport_theorem``, and
compare its invariants with those of the plain normalized complex on
seeded random instances.
"""

import sys
import time
from itertools import permutations
from pathlib import Path

import pytest

from bwcoh.abgroup import Z, cyclic
from bwcoh.bwcomplex import build_complex
from bwcoh.cli import main
from bwcoh.fincat import (
    FiniteCategory, identity_nat, indiscrete_category, make_category,
    poset_category, terminal_category, total_order_category,
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
    """The steps ``transport_to_small`` takes: ``skeleton``, ``terminal``
    or ``initial``."""
    _, pairs = transport_to_small(d)
    return ["skeleton" if l.small != terminal_category()
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
    "indiscrete4_const_z": ["skeleton"],
}


def test_standard_routes():
    assert route(constant_system(indiscrete_category(4), Z)) == ["skeleton"]
    assert route(constant_system(total_order_category(8), Z)) == ["terminal"]
    assert route(constant_system(p20(), Z)) == []
    d = constant_system(s3_on_three_points(), cyclic(2))
    assert route(d) == ["skeleton"]
    small, (skeleton,) = transport_to_small(d)
    assert (small.base.n_objects, small.base.n_morphisms) == (1, 2)
    assert small.base.object_names == ("p0",)
    assert validate_adjoint_pair(skeleton).ok


def test_nothing_is_built_where_nothing_is_found(monkeypatch):
    # groups, the pseudo-circle and p20 have no two isomorphic objects and
    # no terminal or initial object: no category, functor or pair is made
    import bwcoh.localization as localization

    def refuse(*args, **kwargs):
        raise AssertionError("built a pair where none exists")

    systems = [d for name, d in workspace_systems()
               if not name.startswith("arrow:")]
    systems.append(constant_system(p20(), Z))
    for name in ("make_category", "Functor", "NaturalTransformation",
                 "validate_adjoint_pair"):
        monkeypatch.setattr(localization, name, refuse)
    for d in systems:
        assert transport_to_small(d) == (d, ())


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


def test_invalid_pair_is_a_certificate_failure(monkeypatch, capsys):
    import bwcoh.localization as localization
    real = localization._terminal_localization

    def broken(c):
        # a unit phi => phi where 1_C => psi∘phi belongs
        pair = real(c)
        return Localization(pair.big, pair.small, pair.phi, pair.psi,
                            identity_nat(pair.phi))

    monkeypatch.setattr(localization, "_terminal_localization", broken)
    code = main(["cohomology", str(WORKSPACES / "arrow.bwcoh"), "arrow",
                 "const_z"])
    assert code == 1
    assert capsys.readouterr().out == ("certificate-failure: localization: "
                                       "unit does not go 1_C => psi∘phi\n")


@pytest.mark.parametrize("seed", range(120))
def test_rule_matches_the_nerve_route(seed):
    gen = InstanceGen(f"transport-rule-{seed}")
    c = gen.category(6)
    d = gen.system(c)
    small, _ = transport_to_small(d)
    assert invariants(small, 3) == invariants(d, 3)
