"""``localization-check`` reproduces its recorded output byte for byte.

The files under ``tests/golden/`` named ``localization_*`` were written by
the certificates that built the complex of ``D∘F(alpha)``, its reduction and
every chain map separately even when they coincide with those of ``D``, and
that densified every residue whole.  They cover the arrow's localization
``loc_y`` and colocalization ``coloc_x`` with four systems at
``--max-degree 4`` (``zzero`` is neither local nor colocal and exits 1), and
the report lines of a seeded chain closure of the total order on three
objects, crossed with Z/2, with constant Z/2.

Two more report goldens were written by the certificates that ran (c) last,
on a materialized difference family ``h_a - h_b`` checked against a
materialized identity chain map: the same closure crossed with Z/3, with
constant Z, and a seeded chain interior of the total order on seven objects
with the counit pull-back of ``hom_system``, the colocalization with
non-constant coefficients.
"""

from pathlib import Path

import pytest

from bwcoh.abgroup import Z, cyclic
from bwcoh.cli import main
from bwcoh.fincat import cyclic_group_category
from bwcoh.localization import verify_transport_theorem
from bwcoh.natsys import constant_system, pullback_along_nat
from bwcoh.randgen import InstanceGen

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [(loc, system) for loc in ("loc_y", "coloc_x")
         for system in ("const_z", "const_z4", "local_z4", "zzero")]


@pytest.mark.parametrize("loc, system", CASES,
                         ids=[f"{loc}-{system}" for loc, system in CASES])
def test_localization_check_matches_golden(capsys, loc, system):
    code = main(["localization-check", str(ROOT / "workspaces" / "arrow.bwcoh"),
                 loc, system, "--max-degree", "4"])
    assert code == (1 if system == "zzero" else 0)
    golden = GOLDEN / f"localization_arrow_{loc}_{system}_d4.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def report_bytes(rep) -> bytes:
    return ("\n".join(rep.lines()) + "\n").encode("utf-8")


def test_product_closure_report_matches_golden():
    gen = InstanceGen("golden-closure3")
    loc = gen._product_localization(gen._chain_closure(3),
                                    cyclic_group_category(2))
    assert (loc.big.n_objects, loc.small.n_objects) == (3, 2)
    rep = verify_transport_theorem(constant_system(loc.big, cyclic(2)),
                                   loc, 4)
    assert report_bytes(rep) == \
        (GOLDEN / "localization_closure3_x_z2_d4.txt").read_bytes()


def test_product_closure_z3_report_matches_golden():
    gen = InstanceGen("golden-closure3")
    loc = gen._product_localization(gen._chain_closure(3),
                                    cyclic_group_category(3))
    assert (loc.big.n_objects, loc.small.n_objects) == (3, 2)
    rep = verify_transport_theorem(constant_system(loc.big, Z), loc, 4)
    assert report_bytes(rep) == \
        (GOLDEN / "localization_closure3_x_z3_d4.txt").read_bytes()


def test_interior_hom_report_matches_golden():
    gen = InstanceGen("golden-interior7-4")
    coloc = gen._chain_interior(7)
    assert (coloc.big.n_objects, coloc.small.n_objects) == (7, 4)
    d = pullback_along_nat(gen.hom_system(coloc.big), coloc.counit)
    rep = verify_transport_theorem(d, coloc, 4)
    assert report_bytes(rep) == \
        (GOLDEN / "localization_interior7_hom_d4.txt").read_bytes()
