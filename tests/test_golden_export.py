"""``export`` reproduces its recorded output byte for byte.

The ``complex`` files under ``tests/golden/`` were written by the blockwise
assembly that preceded the column store, at ``--max-degree 3``: the arrow
with constant Z/4 and every system of the cyclic workspace (constant free
and torsion coefficients, and the sign twist on Z/2).  The ``nerve`` files,
one per category of the arrow, cyclic and pseudo-circle workspaces, were
written by a nerve enumerator of its own, before the export was derived
from ``enumerate_sequences``.  The ``factorization`` files, one per category
of every checked-in workspace, were written while composition tables were
still dense ``n x n`` rows; the one of S_3 (8,008 lines) is kept as its
SHA-256 digest.
"""

import hashlib
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


NERVE_CASES = [
    ("arrow", "arrow"),
    ("arrow", "point"),
    ("cyclic", "z2"),
    ("cyclic", "z3"),
    ("pseudo_circle", "pcircle"),
]


@pytest.mark.parametrize("workspace,category", NERVE_CASES,
                         ids=[c[1] for c in NERVE_CASES])
def test_nerve_export_matches_golden(tmp_path, capsys, workspace, category):
    target = tmp_path / "nerve.txt"
    code = main(["export", str(ROOT / "workspaces" / f"{workspace}.bwcoh"),
                 str(target), "--what", "nerve", "--category", category,
                 "--max-degree", "3"])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    golden = GOLDEN / f"nerve_{workspace}_{category}_d3.txt"
    assert target.read_bytes() == golden.read_bytes()


FACTORIZATION_CASES = NERVE_CASES + [("symmetric3", "s3")]


@pytest.mark.parametrize("workspace,category", FACTORIZATION_CASES,
                         ids=[c[1] for c in FACTORIZATION_CASES])
def test_factorization_export_matches_golden(tmp_path, capsys, workspace,
                                             category):
    target = tmp_path / "factorization.txt"
    code = main(["export", str(ROOT / "workspaces" / f"{workspace}.bwcoh"),
                 str(target), "--what", "factorization",
                 "--category", category])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    golden = GOLDEN / f"factorization_{workspace}_{category}"
    text = golden.with_suffix(".txt")
    if text.exists():
        assert target.read_bytes() == text.read_bytes()
    else:
        digest = golden.with_suffix(".sha256").read_text().strip()
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
