"""``export --what complex`` reproduces its recorded output byte for byte.

The files under ``tests/golden/`` were written by the blockwise assembly
that preceded the column store, at ``--max-degree 3``: the arrow with
constant Z/4 and every system of the cyclic workspace (constant free and
torsion coefficients, and the sign twist on Z/2).
"""

from pathlib import Path

import pytest

from bwcoh.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("arrow", "arrow", "const_z4"),
    ("cyclic", "z2", "z2_const_z"),
    ("cyclic", "z2", "z2_const_z2"),
    ("cyclic", "z3", "z3_const_z"),
    ("cyclic", "z3", "z3_const_z3"),
    ("cyclic", "z2", "z2_sign"),
]


@pytest.mark.parametrize("workspace,category,system", CASES,
                         ids=[c[2] for c in CASES])
def test_complex_export_matches_golden(tmp_path, capsys, workspace,
                                       category, system):
    target = tmp_path / "complex.txt"
    code = main(["export", str(ROOT / "workspaces" / f"{workspace}.bwcoh"),
                 str(target), "--what", "complex", "--category", category,
                 "--system", system, "--max-degree", "3"])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    golden = GOLDEN / f"{workspace}_{system}_d3.txt"
    assert target.read_bytes() == golden.read_bytes()
