"""``cohomology`` on every checked-in workspace system reproduces its
recorded output byte for byte.

``tests/golden/cohomology_workspaces_d4.txt`` holds, for each ``system``
block of ``workspaces/*.bwcoh`` in file order, a line
``# workspaces/FILE CATEGORY SYSTEM`` and the output of
``cohomology FILE CATEGORY SYSTEM --format machine --max-degree 4``.  It
was written before every relation witness was solved by
``ProductGroup.solve_relations``.  The CI step "Cohomology on the
checked-in workspaces" writes the same text and compares it with ``diff``.
"""

from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from bwcoh.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cohomology_workspaces_d4.txt"


def test_workspace_cohomology_matches_golden():
    out = StringIO()
    for path in sorted((ROOT / "workspaces").glob("*.bwcoh")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("system "):
                continue
            _, system, _, category = line.split()
            out.write(f"# workspaces/{path.name} {category} {system}\n")
            with redirect_stdout(out):
                code = main(["cohomology", str(path), category, system,
                             "--format", "machine", "--max-degree", "4"])
            assert code == 0, (path.name, system)
    assert out.getvalue().encode("utf-8") == GOLDEN.read_bytes()
    assert out.getvalue().count("# workspaces/") == 15
