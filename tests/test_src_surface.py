"""Every public name of ``src/bwcoh`` has a caller outside the tests.

Each public module-level function or class, and each public method of a
public class, must occur in ``src/``, ``scripts/`` or ``perfbench/`` outside
its own definition: as a name, an attribute, an imported name or a string
constant (``perfbench/spans.py`` wraps layers by attribute name).
Docstrings and ``__all__`` lists do not count.

The scan matches identifiers, not bindings, so definitions that share a name
(``validate``, ``compose``, ``identity``) vouch for each other: a pass is a
lower bound on what only the tests reach, not a proof that nothing is.

``ALLOWED`` holds the names kept without such a caller, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bwcoh"
CALLER_DIRS = (SRC, ROOT / "scripts", ROOT / "perfbench")

ALLOWED = {
    "CochainComplex.cohomology_data":
        "dense test oracle, with its _cohom cache; perfbench/spans.py counts "
        "its calls by attribute name, so the traced smoke runs need it until "
        "ROADMAP direction 1 moves the instrumentation into the library",
    "BlockHom.to_hom":
        "perfbench/spans.py wraps it by attribute name for "
        "bwcomplex.densify_s; ROADMAP direction 1 frees it",
    "homotopy_class_equal":
        "the paper's 2-cell equality; ROADMAP direction 4 gives it a CLI "
        "caller in check-laws",
    "DegreeTruncation":
        "the warning homotopy_class_equal raises; kept with it for "
        "ROADMAP direction 4",
    "hermite_normal_form":
        "the tested contract of _hnf_core, which LatticeSolver runs on",
    "InstanceGen._chain_closure":
        "perfbench/workloads.py calls it by name",
    "InstanceGen._chain_interior":
        "perfbench/workloads.py calls it by name",
    "InstanceGen._product_localization":
        "perfbench/workloads.py calls it by name",
}


def _definitions():
    """(file, qualified name, bare name, first line, last line) of every
    module-level function and class and every method of a class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield path, node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield (path, f"{node.name}.{sub.name}", sub.name,
                               sub.lineno, sub.end_lineno)


def _public(qualified: str) -> bool:
    return not any(part.startswith("_") for part in qualified.split("."))


def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Every identifier occurrence in the caller directories, by name."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Expr) and \
                        isinstance(node.value, ast.Constant):
                    skip.add(id(node.value))      # docstrings
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
                    skip.update(id(n) for n in ast.walk(node.value))
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = node.name.split(".")
                elif isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        node.value.isidentifier():
                    names = [node.value]
                else:
                    continue
                for name in names:
                    out.setdefault(name, []).append((path, node.lineno))
    return out


def test_every_public_name_has_a_caller_outside_tests():
    uses = _uses()
    unused = []
    for path, qualified, name, first, last in _definitions():
        if not _public(qualified) or qualified in ALLOWED:
            continue
        if not any(p != path or not first <= line <= last
                   for p, line in uses.get(name, ())):
            unused.append(f"{path.name}:{first} {qualified}")
    assert not unused, "reachable only from tests:\n" + "\n".join(unused)


def test_allowed_names_are_still_defined():
    defined = {qualified for _, qualified, *_ in _definitions()}
    assert not set(ALLOWED) - defined
