"""Seeded workload inputs: workspace text, ``bwcoh`` argument lists and the
check each job's output must pass.

Every job is a command line a user could type; the benchmark hands it to
``bwcoh.cli.main``.  All flags are spelled out, because ``check-laws``
defaults to ``--max-degree 4`` while ``run_laws`` defaults to 3, and a later
change of defaults must not silently change a workload.

Why these workloads (see README.md for the metric table):

* ``invariants``: cohomology only.  Free, torsion and twisted coefficients on
  one-object and many-object categories; the seed relabels each category
  (shuffled object and morphism lines), which keeps the answers and changes
  the basis order the elimination sees.
* ``laws``: randomized law suites.  Hundreds of small complexes, chain maps
  and homotopies, and no cohomology at all.
* ``transport``: (co)localization certificates, which need kernel bases,
  ``express``, induced maps on cohomology and chain-map checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bwcoh.fincat import (
    FiniteCategory, Functor, cyclic_group_category, indiscrete_category,
    total_order_category,
)
from bwcoh.natsys import NaturalSystem, pullback_along_nat
from bwcoh.randgen import InstanceGen
from bwcoh.workspace import HEADER, category_text, group_text, parse_group

import expected

WORKLOADS = ("invariants", "laws", "transport")
LAW_NAMES = ("dd", "dh+hd", "dr-rd", "interchange", "2functor")
LAW_CASES = 50
TRANSPORT_DEGREE = 4

# A check returns None for a correct answer, else a one-line complaint.
Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Check


# ---------------------------------------------------------------------------
# workspace text

def relabelled(text: str, rng: random.Random) -> str:
    """Shuffle the ``objects:`` list and the ``mor`` lines of a category
    block: an isomorphic relabelling with the same cohomology."""
    lines = text.splitlines()
    mor_at = [i for i, line in enumerate(lines)
              if line.lstrip().startswith("mor ")]
    mors = [lines[i] for i in mor_at]
    rng.shuffle(mors)
    for i, line in zip(mor_at, mors):
        lines[i] = line
    for i, line in enumerate(lines):
        if line.lstrip().startswith("objects:"):
            names = line.split(":", 1)[1].split()
            rng.shuffle(names)
            lines[i] = "  objects: " + " ".join(names)
    return "\n".join(lines) + "\n"


def functor_text(name: str, f: Functor, src: str, dst: str) -> str:
    a, b = f.source, f.target
    out = [f"functor {name}: {src} -> {dst}"]
    out += [f"  obj {a.object_name(x)} -> {b.object_name(f.obj_map[x])}"
            for x in range(a.n_objects)]
    out += [f"  mor {a.morphism_name(m)} -> {b.morphism_name(f.mor_map[m])}"
            for m in range(a.n_morphisms)]
    return "\n".join(out + ["end"]) + "\n"


def adjoint_text(kind: str, name: str, loc) -> str:
    """A ``localization`` (unit) or ``colocalization`` (counit) block over
    categories ``big``/``small`` and functors ``phi``/``psi``."""
    key, nat = (("unit", loc.unit) if kind == "localization"
                else ("counit", loc.counit))
    c = loc.big
    out = [f"{kind} {name}", "  big: big", "  small: small", "  phi: phi",
           "  psi: psi"]
    out += [f"  {key} {c.object_name(x)}: {c.morphism_name(nat.components[x])}"
            for x in range(c.n_objects)]
    return "\n".join(out + ["end"]) + "\n"


def constant_text(name: str, cat: str, group: str) -> str:
    return f"system {name} on {cat}\n  constant: {group}\nend\n"


def sign_text(name: str, cat: str, c: FiniteCategory) -> str:
    """Z on a cyclic group category ``g0..g{k-1}``: ``act h k = (-1)^k``."""
    out = [f"system {name} on {cat}", "  bifunctor:",
           f"  value {c.object_name(0)} {c.object_name(0)}: Z"]
    for h in range(c.n_morphisms):
        for k in range(c.n_morphisms):
            sign = -1 if int(c.morphism_name(k)[1:]) % 2 else 1
            out.append(f"  act {c.morphism_name(h)} {c.morphism_name(k)}: "
                       f"[[{sign}]]")
    return "\n".join(out + ["end"]) + "\n"


def _matrix(m) -> str:
    return str(m.to_rows()).replace(" ", "")


def explicit_text(name: str, cat: str, d: NaturalSystem) -> str:
    """Values and one-sided generating actions of any natural system whose
    groups are in the canonical presentation the parser produces."""
    c = d.base
    out = [f"system {name} on {cat}"]
    for f in range(c.n_morphisms):
        text = group_text(d.value(f))
        if parse_group(text, 0) != d.value(f):
            raise ValueError(f"value at {c.morphism_name(f)} is not in "
                             f"canonical presentation")
        out.append(f"  value {c.morphism_name(f)}: {text}")
    for f in range(c.n_morphisms):
        src, dst = c.mor_source[f], c.mor_target[f]
        for h in range(c.n_morphisms):
            if c.mor_target[h] == src and not c.is_identity(h):
                hom = d.act_pair(f, c.table[h][f], h, c.identity[dst])
                out.append(f"  act {c.morphism_name(f)} -| "
                           f"{c.morphism_name(h)}: {_matrix(hom.matrix)}")
        for k in range(c.n_morphisms):
            if c.mor_source[k] == dst and not c.is_identity(k):
                hom = d.act_pair(f, c.table[f][k], c.identity[src], k)
                out.append(f"  act {c.morphism_name(f)} |- "
                           f"{c.morphism_name(k)}: {_matrix(hom.matrix)}")
    return "\n".join(out + ["end"]) + "\n"


# ---------------------------------------------------------------------------
# output checks

def cohomology_check(table: list[expected.Invariants]) -> Check:
    want = [f"H {n} {expected.machine(inv)}" for n, inv in enumerate(table)]

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = out.splitlines()
        if got != want:
            return f"expected {want}, got {got}"
        return None
    return check


def pass_check(required: list[str] = ()) -> Check:
    """Exit 0 and ``result: pass``, plus every required line."""
    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or not lines or lines[-1] != "result: pass":
            return f"exit code {code}, last line {lines[-1:]}"
        for want in required:
            if want not in lines:
                return f"missing line {want!r}"
        return None
    return check


def transport_lines(table: list[expected.Invariants]) -> list[str]:
    return [f"degree {n}: big {expected.human(inv)} | "
            f"small {expected.human(inv)} | iso"
            for n, inv in enumerate(table)]


# ---------------------------------------------------------------------------
# workloads

def _invariants(seed: int, work: Path) -> list[Job]:
    rng = random.Random(f"invariants-{seed}")
    z4, z5 = cyclic_group_category(4), cyclic_group_category(5)
    specs = [
        ("z4_const_z", z4, constant_text("d", "c", "Z"), 5,
         expected.cyclic_constant_z(4, 5)),
        ("z4_sign_z", z4, sign_text("d", "c", z4), 5,
         expected.cyclic_sign_z(4, 5)),
        ("z5_const_z5", z5, constant_text("d", "c", "Z/5"), 4,
         expected.cyclic_constant_mod(5, 5, 4)),
        ("total_order8_const_z", total_order_category(8),
         constant_text("d", "c", "Z"), 5, expected.contractible(5)),
        ("indiscrete4_const_z", indiscrete_category(4),
         constant_text("d", "c", "Z"), 5, expected.contractible(5)),
    ]
    jobs = []
    for name, cat, system, degree, table in specs:
        path = work / f"{name}.bwcoh"
        path.write_text(HEADER + "\n" + relabelled(category_text("c", cat), rng)
                        + system, encoding="utf-8")
        jobs.append(Job(name, ["cohomology", str(path), "c", "d",
                               "--max-degree", str(degree),
                               "--format", "machine"],
                        cohomology_check(table)))
    return jobs


def _laws(seed: int, work: Path) -> list[Job]:
    lines = [f"law {law}: {LAW_CASES}/{LAW_CASES} pass" for law in LAW_NAMES]
    return [Job("check_laws_all",
                ["check-laws", "--seed", str(seed), "--cases", str(LAW_CASES),
                 "--max-morphisms", "6", "--max-degree", "4", "--law", "all"],
                pass_check(lines))]


def _transport_workspace(kind: str, loc, system: str) -> str:
    return "\n".join([
        HEADER,
        category_text("big", loc.big),
        category_text("small", loc.small),
        functor_text("phi", loc.phi, "big", "small"),
        functor_text("psi", loc.psi, "small", "big"),
        adjoint_text(kind, "loc", loc),
        system,
    ])


def _sized(draw, objects: int):
    """Redraw until the small category has ``objects`` objects, so that the
    seed changes the instance but not the problem size."""
    while True:
        loc = draw()
        if loc.small.n_objects == objects:
            return loc


def _transport(seed: int, work: Path) -> list[Job]:
    specs = []
    gen = InstanceGen(f"transport-closure-{seed}")
    closure = _sized(lambda: gen._chain_closure(3), 2)
    for k, group, table in ((3, "Z", expected.cyclic_constant_z(3, 4)),
                            (2, "Z/2", expected.cyclic_constant_mod(2, 2, 4))):
        loc = gen._product_localization(closure, cyclic_group_category(k))
        specs.append((f"closure3_x_z{k}", "localization", loc,
                      constant_text("d", "big", group),
                      pass_check(transport_lines(table))))
    gen = InstanceGen(f"transport-interior-{seed}")
    coloc = _sized(lambda: gen._chain_interior(7), 4)
    d = pullback_along_nat(gen.hom_system(coloc.big), coloc.counit)
    specs.append(("interior7_hom", "colocalization", coloc,
                  explicit_text("d", "big", d), pass_check()))
    jobs = []
    for name, kind, loc, system, check in specs:
        path = work / f"{name}.bwcoh"
        path.write_text(_transport_workspace(kind, loc, system),
                        encoding="utf-8")
        jobs.append(Job(name, ["localization-check", str(path), "loc", "d",
                               "--max-degree", str(TRANSPORT_DEGREE)], check))
    return jobs


def make_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    """Generate the workload's inputs under ``work`` and return its jobs."""
    return {"invariants": _invariants, "laws": _laws,
            "transport": _transport}[workload](seed, work)
