"""Acceptance suite: every criterion at its stated size and tolerance.

All checks are exact (integer arithmetic, zero tolerance).  Each test records
a PASS/FAIL line printed in the pytest terminal summary.
"""

import contextlib
import random
import time

from conftest import record_criterion

from bwcoh.abgroup import GroupInvariants, Z, cyclic
from bwcoh.bwcomplex import build_complex, induced_map_nat, is_cohomology_iso
from bwcoh.fincat import (
    Functor, cyclic_group_category, identity_nat, indiscrete_category,
    pseudo_circle_category, terminal_category,
)
from bwcoh.intmat import IntMatrix, hermite_normal_form, \
    smith_normal_form, LatticeSolver
from bwcoh.laws import run_law
from bwcoh.localization import (
    local_characterization, validate_adjoint_pair, verify_transport_theorem,
)
from bwcoh.natsys import (
    AbNat, NatSysMorphism, constant_system, pullback_along_nat,
)
from bwcoh.randgen import InstanceGen
from oracles import (
    bar_cohomology, colocal_system, colocalization, determinantal_divisors,
    is_unimodular, local_system, localization, matvec, nerve_cohomology,
)


@contextlib.contextmanager
def criterion(name):
    ok = False
    try:
        yield
        ok = True
    finally:
        record_criterion(name, ok)


def inv(rank, *torsion):
    return GroupInvariants(rank, tuple(torsion))


def test_differential_squares_to_zero():
    # >= 200 generated (category, system) pairs, |Mor| <= 6, N <= 4
    with criterion("differential d∘d = 0 (200 generated pairs)"):
        start = time.time()
        rep = run_law("dd", seed=101, cases=200, max_morphisms=6,
                      max_degree=4)
        assert rep.ok, "\n".join(rep.lines())
        assert len(rep.cases) == 200
        assert time.time() - start < 60


def test_homotopy_identity_h():
    with criterion("dh + hd = -F*(alpha,t) + F*(beta,s) (100 instances)"):
        rep = run_law("dh+hd", seed=211, cases=100, max_morphisms=6,
                      max_degree=3)
        assert rep.ok, "\n".join(rep.lines())


def test_homotopy_identity_r_vertical():
    with criterion("dr - rd = -h - h' + h'' (100 instances)"):
        rep = run_law("dr-rd", seed=307, cases=100, max_morphisms=6,
                      max_degree=3)
        assert rep.ok, "\n".join(rep.lines())


def test_homotopy_identity_r_horizontal():
    with criterion("dr' - r'd = -h'F* - F*h + h'' (100 instances)"):
        start = time.time()
        rep = run_law("interchange", seed=401, cases=100, max_morphisms=6,
                      max_degree=3)
        assert rep.ok, "\n".join(rep.lines())
        assert time.time() - start < 300


def test_group_cohomology_oracle():
    with criterion("cyclic group cohomology matches the bar oracle"):
        cases = [
            (2, Z, [inv(1), inv(0), inv(0, 2), inv(0)]),
            (2, cyclic(2), [inv(0, 2)] * 4),
            (3, Z, [inv(1), inv(0), inv(0, 3), inv(0)]),
            (3, cyclic(3), [inv(0, 3)] * 4),
        ]
        for k, coeff, expected in cases:
            cat = cyclic_group_category(k)
            cx = build_complex(constant_system(cat, coeff), 4)
            got = [cx.cohomology(n) for n in range(4)]
            oracle = bar_cohomology(k, coeff, 4)
            assert oracle == expected
            assert got == oracle


def test_nerve_oracle():
    with criterion("constant-coefficient cohomology equals the nerve oracle "
                   "(20 posets + pseudo-circle)"):
        def both(d):
            """H^0..H^2 of the full complex, checked equal to that of the
            normalized one."""
            full = build_complex(d, 3)
            norm = build_complex(d, 3, normalized=True)
            got = [full.cohomology(n) for n in range(3)]
            assert got == [norm.cohomology(n) for n in range(3)]
            return got

        pc = pseudo_circle_category()
        got = both(constant_system(pc, Z))
        assert got == [inv(1), inv(1), inv(0)]
        assert got == nerve_cohomology(pc, Z, 3)
        checked = 0
        seed = 0
        while checked < 20:
            gen = InstanceGen(5000 + seed)
            seed += 1
            poset = gen.random_poset(5)
            coeff = gen.small_group()
            bw = both(constant_system(poset, coeff))
            assert bw == nerve_cohomology(poset, coeff, 3)
            checked += 1


def test_localization_theorem_bulk():
    with criterion("localization transport (arrow + 50 generated, "
                   "three certificates)"):
        from test_localization import (
            arrow_colocalization, arrow_localization, cohomology,
        )
        for l in (arrow_localization(), arrow_colocalization()):
            d = constant_system(l.big, Z)
            assert verify_transport_theorem(d, l, 3).invariants == \
                (inv(1), inv(0), inv(0))
        for i in range(50):
            gen = InstanceGen(6000 + i)
            l = localization(gen)
            assert validate_adjoint_pair(l).ok
            d = local_system(gen, l)
            assert verify_transport_theorem(d, l, 2).invariants == \
                cohomology(d, 2)
        for i in range(50):
            gen = InstanceGen(7000 + i)
            l = colocalization(gen)
            assert validate_adjoint_pair(l).ok
            d = colocal_system(gen, l)
            assert verify_transport_theorem(d, l, 2).invariants == \
                cohomology(d, 2)


def test_local_characterization_equivalence():
    with criterion("pointwise locality agrees with the canonical-map "
                   "characterization (generated, local or not)"):
        agree = 0
        for i in range(60):
            gen = InstanceGen(8000 + i)
            loc = localization(gen)
            d = gen.system(loc.big)
            ch = local_characterization(d, loc)
            assert ch.pointwise_local == ch.canonical_map_iso, ch
            agree += 1
        assert agree == 60


def test_equivalence_invariance():
    with criterion("equivalence of categories induces isomorphisms "
                   "on H^0..H^2 (Z and Z/4)"):
        big = indiscrete_category(2)
        pt = terminal_category()
        phi = Functor(big, pt, (0, 0), (0,) * 4)
        psi = Functor(pt, big, (0,), (big.identity[0],))
        for coeff in (Z, cyclic(4)):
            d = constant_system(big, coeff)
            e = pullback_along_nat(d, identity_nat(psi))
            m = NatSysMorphism(identity_nat(psi), d, e,
                               AbNat.identity(e.functor))
            p = induced_map_nat(m, build_complex(d, 3), build_complex(e, 3))
            for n in range(3):
                assert is_cohomology_iso(p, n)


def test_linear_algebra_substrate():
    with criterion("normal forms agree with determinantal and certificate "
                   "oracles (< 10 s)"):
        start = time.time()
        rng = random.Random(31337)
        for _ in range(60):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            assert smith_normal_form(m) == determinantal_divisors(m)
            h, uu = hermite_normal_form(m)
            assert (m @ uu) == h
            assert is_unimodular(uu)
            # mutual-inclusion certificates: the column lattices agree
            sol_h = LatticeSolver(h)
            sol_m = LatticeSolver(m)
            for j in range(c):
                x = sol_h.solve(m.column(j))
                assert x is not None and matvec(h, x) == m.column(j)
                y = sol_m.solve(h.column(j))
                assert y is not None and matvec(m, y) == h.column(j)
        assert time.time() - start < 10


def test_cli_determinism():
    with criterion("CLI commands are byte-deterministic at fixed seed"):
        from test_workspace_cli import run_cli, WORKSPACES
        import tempfile, os
        ws_arrow = str(WORKSPACES / "arrow.bwcoh")
        ws_cyclic = str(WORKSPACES / "cyclic.bwcoh")
        ws_circle = str(WORKSPACES / "pseudo_circle.bwcoh")
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "out.txt")
            invocations = [
                ("validate", ws_arrow),
                ("cohomology", ws_cyclic, "z2", "z2_const_z",
                 "--max-degree", "4", "--format", "machine"),
                ("cohomology", ws_circle, "pcircle", "circle_z",
                 "--max-degree", "3", "--format", "machine"),
                ("check-laws", "--seed", "5", "--cases", "3", "--law", "all",
                 "--max-degree", "3"),
                ("localization-check", ws_arrow, "loc_y", "const_z",
                 "--max-degree", "3"),
                ("export", ws_arrow, target, "--what", "factorization",
                 "--category", "arrow"),
            ]
            for args in invocations:
                first = run_cli(*args)
                if args[0] == "export":
                    with open(target, "rb") as fh:
                        first_file = fh.read()
                second = run_cli(*args)
                assert first == second, args
                if args[0] == "export":
                    with open(target, "rb") as fh:
                        assert fh.read() == first_file
