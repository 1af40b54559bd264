import io
import os
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from bwcoh.cli import main
from bwcoh.workspace import (
    HEADER, MAX_GENERATORS, ParseError, load_workspace, load_workspace_file,
    parse_group, group_text,
)
from bwcoh.abgroup import GroupInvariants

ROOT = Path(__file__).resolve().parent.parent
WORKSPACES = ROOT / "workspaces"


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parse_group_tokens():
    assert parse_group("0", 1).invariants == GroupInvariants(0, ())
    assert parse_group("Z", 1).invariants == GroupInvariants(1, ())
    assert parse_group("Z^2 + Z/2 + Z/4", 1).invariants == \
        GroupInvariants(2, (2, 4))
    with pytest.raises(ParseError):
        parse_group("Q", 1)
    g = parse_group("Z + Z/6", 1)
    assert parse_group(group_text(g), 1).invariants == g.invariants


def test_load_all_sample_workspaces():
    for name in ("arrow.bwcoh", "cyclic.bwcoh", "pseudo_circle.bwcoh",
                 "symmetric3.bwcoh"):
        ws = load_workspace_file(str(WORKSPACES / name))
        for rep in ws.validate_all():
            assert rep.ok, rep


def test_nat_block_and_tasks():
    text = f"""{HEADER}

category point
  objects: p
  mor id_p: p -> p
  identity p: id_p
  compose id_p id_p = id_p
end

functor one: point -> point
  obj p -> p
  mor id_p -> id_p
end

nat unit: one => one
  at p: id_p
end

system konst on point
  constant: Z/6
end

task job: cohomology point konst max-degree=2
"""
    ws = load_workspace(text)
    assert "unit" in ws.nats
    assert ws.nats["unit"].validate().ok
    assert ws.tasks["job"].command == "cohomology"
    assert ws.tasks["job"].max_degree == 2


def test_parse_errors_have_line_numbers():
    with pytest.raises(ParseError) as exc:
        load_workspace("not a header\n")
    assert "line 1" in str(exc.value)
    bad = f"{HEADER}\n\ncategory c\n  objects: a\n  bogus line\nend\n"
    with pytest.raises(ParseError) as exc:
        load_workspace(bad)
    assert "line 5" in str(exc.value)


def test_dangling_reference_is_parse_stage_error():
    text = f"""{HEADER}

category point
  objects: p
  mor id_p: p -> p
  identity p: id_p
  compose id_p id_p = id_p
end

task broken: cohomology point missing_system max-degree=2
"""
    with pytest.raises(ParseError):
        load_workspace(text)


def test_cli_validate_ok_and_exit_codes(tmp_path):
    code, out, _ = run_cli("validate", str(WORKSPACES / "arrow.bwcoh"))
    assert code == 0
    assert "0 with violations" in out

    # broken composition table: exit 2 and a witness in the report
    broken = tmp_path / "broken.bwcoh"
    broken.write_text(f"""{HEADER}

category c
  objects: a b
  mor id_a: a -> a
  mor id_b: b -> b
  mor f: a -> b
  identity a: id_a
  identity b: id_b
  compose id_a id_a = id_a
  compose id_b id_b = id_b
  compose id_a f = f
  compose f id_b = id_b
end
""", encoding="utf-8")
    code, out, _ = run_cli("validate", str(broken))
    assert code == 2
    assert "violation" in out

    # unreadable file: exit 3
    code, _, err = run_cli("validate", str(tmp_path / "missing.bwcoh"))
    assert code == 3

    # dangling reference: parse-stage error, exit 3
    dangling = tmp_path / "dangling.bwcoh"
    dangling.write_text(
        f"{HEADER}\n\ntask t: cohomology nowhere nothing\n",
        encoding="utf-8")
    code, _, err = run_cli("validate", str(dangling))
    assert code == 3


def test_file_that_is_not_utf8_exits_3(tmp_path):
    # a UnicodeDecodeError used to escape as a traceback with exit 1
    garbage = tmp_path / "garbage.bwcoh"
    garbage.write_bytes(bytes(range(128, 256)) * 4)
    code, out, err = run_cli("validate", str(garbage))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot read {garbage}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("group", ["Z^-1", "Z^-1 + Z/2", "Z/2 + Z^-3"])
def test_negative_rank_is_a_parse_error(tmp_path, group):
    # Z^-1 used to end in IllDefinedHom, Z^-1 + Z/2 in an IndexError
    with pytest.raises(ParseError, match=r"line 1: bad group token 'Z\^-"):
        parse_group(group, 1)
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    assert "  constant: Z/4\n" in text
    line = text[:text.index("  constant: Z/4\n")].count("\n") + 1
    path = tmp_path / "arrow.bwcoh"
    path.write_text(text.replace("  constant: Z/4\n",
                                 f"  constant: {group}\n"), encoding="utf-8")
    code, out, err = run_cli("validate", str(path))
    assert code == 3
    assert f"line {line}: bad group token" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group, count", [
    ("Z^30000000", 30000000), ("Z^2049", 2049), ("Z^2047 + Z/2 + Z/3", 2049)])
def test_group_with_too_many_generators_is_refused(tmp_path, group, count):
    # Z^30000000 used to end in a MemoryError while its relations were built
    assert MAX_GENERATORS == 2048
    assert parse_group("Z^2047 + Z/2", 1).generators == MAX_GENERATORS
    _assert_refused(tmp_path, "arrow.bwcoh", "  constant: Z/4\n",
                    f"  constant: {group}\n",
                    f"line {{}}: group has {count} generators, more than 2048",
                    f"  constant: {group}")


@pytest.mark.parametrize("group, count", [("Z^2048", 12288), ("Z^342", 2052)])
def test_hom_system_with_too_many_generators_is_refused(tmp_path, group,
                                                        count):
    # hom: Z^2048 on s3 used to end in a MemoryError: every action is a
    # dense square over |Hom| x 2048 = 12288 generators
    _assert_refused(tmp_path, "symmetric3.bwcoh", "  hom: Z\n",
                    f"  hom: {group}\n",
                    f"line {{}}: hom values have {count} generators "
                    f"(6 morphisms x {count // 6}), more than 2048",
                    f"  hom: {group}")


@pytest.mark.parametrize("option", [
    "max-degree=banana", "max-degree=0", "max-degree=-2", "maxdegree=3",
    "max-degree=3 max-degree=4", "seed=1"])
def test_task_options_are_checked_on_load(tmp_path, option):
    # any key=value used to be accepted, so max-degree=banana validated
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    first = "task transport: localization-check loc_y const_z max-degree=3\n"
    assert first in text
    line = text[:text.index(first)].count("\n") + 1
    path = tmp_path / "arrow.bwcoh"
    path.write_text(text.replace(first, first.replace("max-degree=3", option)),
                    encoding="utf-8")
    code, out, err = run_cli("validate", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: {path}: line {line}: bad task option ")
    assert "Traceback" not in err


def _line(text: str, snippet: str) -> int:
    """The line on which the one occurrence of ``snippet`` starts."""
    assert text.count(snippet) == 1, snippet
    return text[:text.index(snippet)].count("\n") + 1


def _assert_refused(tmp_path, name, old, new, message, *snippets):
    """Replace ``old`` by ``new`` in a checked-in workspace: ``validate``
    exits 3, and its error is ``message`` with the lines of ``snippets``."""
    text = (WORKSPACES / name).read_text(encoding="utf-8")
    assert text.count(old) == 1, old
    text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli("validate", str(path))
    expected = message.format(*(_line(text, s) for s in snippets))
    assert (code, out, err) == (3, "", f"error: {path}: {expected}\n")


LOCAL_Z4 = "system local_z4 on arrow\n"
LAST_ACT = "  act id_y -| f: [[1]]\n"


@pytest.mark.parametrize("name, old, new, message, snippets", [
    # the constant line used to win: H^0 read Z, not Z/4
    ("arrow.bwcoh", LOCAL_Z4, LOCAL_Z4 + "  constant: Z\n",
     "line {}: system kinds mix: constant on line {}, explicit here",
     ("  value id_x: Z/4", "  constant: Z\n  value")),
    ("arrow.bwcoh", LAST_ACT, LAST_ACT + "  constant: Z\n",
     "line {}: system kinds mix: explicit on line {}, constant here",
     ("  constant: Z\nend\n\ntask", "  value id_x: Z/4")),
    ("arrow.bwcoh", "  constant: Z/4\n", "  constant: Z/4\n  constant: Z/2\n",
     "line {}: 'constant:' repeats line {}",
     ("  constant: Z/2", "  constant: Z/4")),
    # any line that began with "bifunctor" used to count as the marker
    ("cyclic.bwcoh", "  bifunctor:\n", "  bifunctorial nonsense\n",
     "line {}: expected 'bifunctor:'", ("  bifunctorial",)),
    ("symmetric3.bwcoh", "  hom: Z\n", "  hom: Z\n  constant: Z/4\n",
     "line {}: system kinds mix: hom on line {}, constant here",
     ("  constant: Z/4", "  hom: Z\n")),
    ("cyclic.bwcoh", "  hom: Z\n", "  hom: Z\n  hom: Z/2\n",
     "line {}: 'hom:' repeats line {}", ("  hom: Z/2", "  hom: Z\n")),
], ids=["constant-first", "constant-last", "two-constants", "junk-marker",
        "hom-then-constant", "two-homs"])
def test_system_kinds_are_exclusive(tmp_path, name, old, new, message,
                                    snippets):
    _assert_refused(tmp_path, name, old, new, message, *snippets)


@pytest.mark.parametrize("entry", ["True", "False"])
def test_boolean_matrix_entry_is_refused(tmp_path, entry):
    # bool is a subclass of int, so [[True]] used to validate as [[1]]
    _assert_refused(tmp_path, "arrow.bwcoh", LAST_ACT,
                    LAST_ACT.replace("[[1]]", f"[[{entry}]]"),
                    "line {}: matrix is not a list of int lists",
                    f"[[{entry}]]")


@pytest.mark.parametrize("old, added, message, snippets", [
    # reported only as "composite of (0,2) has wrong endpoints"
    ("  compose id_x f = f\n", "  compose id_x f = id_x\n",
     "line {}: 'compose id_x f' repeats line {}",
     ("  compose id_x f = id_x", "  compose id_x f = f\n")),
    ("  identity y: id_y\n", "  identity  y: id_y\n",
     "line {}: 'identity y' repeats line {}",
     ("  identity  y", "  identity y")),
    ("  obj y -> p\n", "  obj y -> p  # again\n",
     "line {}: 'obj y' repeats line {}", ("  obj y -> p  #", "  obj y -> p\n")),
    ("  mor f -> id_p\n", "  mor f -> id_p  # again\n",
     "line {}: 'mor f' repeats line {}",
     ("  mor f -> id_p  #", "  mor f -> id_p\n")),
    ("  value f: Z/4\n", "  value f: Z/2\n",
     "line {}: 'value f' repeats line {}", ("  value f: Z/2", "  value f: Z/4")),
    (LAST_ACT, "  act id_y  -|  f: [[3]]\n",
     "line {}: 'act id_y -| f' repeats line {}",
     ("  act id_y  -|", LAST_ACT)),
    ("  psi: include_y\n", "  psi: include_x\n",
     "line {}: 'psi:' repeats line {}",
     ("  psi: include_x\n  unit", "  psi: include_y")),
    ("  unit y: id_y\n", "  unit y: f\n",
     "line {}: 'unit y' repeats line {}", ("  unit y: f", "  unit y: id_y")),
], ids=["compose", "identity", "functor-obj", "functor-mor", "value", "act",
        "psi", "unit"])
def test_repeated_keyed_line_names_both_lines(tmp_path, old, added, message,
                                              snippets):
    # the later line used to win silently
    _assert_refused(tmp_path, "arrow.bwcoh", old, old + added, message,
                    *snippets)


def test_objects_lines_continue_and_other_lines_do_not():
    text = f"""{HEADER}
category c
  objects: a
  objects: b
  mor id_a: a -> a
  mor id_b: b -> b
  identity a: id_a
  identity b: id_b
  compose id_a id_a = id_a
  compose id_b id_b = id_b
end
"""
    assert load_workspace(text).categories["c"].object_names == ("a", "b")
    with pytest.raises(ParseError,
                       match="^line 11: 'compose id_a id_a' repeats line 9$"):
        load_workspace(text.replace("end\n", "  compose id_a id_a = id_a\nend\n"))


COLOCALIZATION = "colocalization coloc_x\n"
NAT = "nat n: collapse => collapse\n  at x: id_p\n  at y: id_p\nend\n"


@pytest.mark.parametrize("new, message, snippets", [
    (NAT + NAT.replace("\n", "  # again\n", 1) + COLOCALIZATION,
     "line {}: duplicate nat 'n'", ("nat n: collapse => collapse  #",)),
    # validate used to count 11 objects for 12 blocks
    ("localization loc_y  # again\n  big: arrow\n  small: point\n"
     "  phi: collapse\n  psi: include_y\n  unit x: f\n  unit y: id_y\nend\n"
     + COLOCALIZATION,
     "line {}: duplicate localization 'loc_y'", ("localization loc_y  #",)),
    # localization-check loc_y used to pick the localization
    ("colocalization loc_y\n  big: arrow\n  small: point\n  phi: collapse\n"
     "  psi: include_x\n  counit x: id_x\n  counit y: f\nend\n"
     + COLOCALIZATION,
     "line {}: duplicate colocalization 'loc_y'", ("colocalization loc_y",)),
], ids=["nat", "localization", "localization-and-colocalization"])
def test_duplicate_block_names_are_refused(tmp_path, new, message, snippets):
    _assert_refused(tmp_path, "arrow.bwcoh", COLOCALIZATION, new, message,
                    *snippets)


@pytest.mark.parametrize("old, new, message, snippets", [
    # reported on the system's header line
    ("  act id_x |- f: [[3]]\n", "  act id_x |- f: [[3, 1]]\n",
     "line {}: matrix must be 1x1", ("  act id_x |- f: [[3, 1]]",)),
    # reported on the category's header line
    ("  mor f: x -> y\n", "  mor f: x -> z\n",
     "line {}: unknown object 'z'", ("  mor f: x -> z",)),
    # an identity for an undeclared object used to be ignored
    ("  identity y: id_y\n", "  identity y: id_y\n  identity zz: f\n",
     "line {}: unknown object 'zz'", ("  identity zz: f",)),
    # accepted although the command would refuse it
    ("task cohomology_z:",
     "system pz on point\n  constant: Z\nend\n"
     "task pz_transport: localization-check loc_y pz max-degree=3\n"
     "task cohomology_z:",
     "line {}: system 'pz' does not live on the big category of 'loc_y'",
     ("task pz_transport",)),
], ids=["act-shape", "mor-object", "identity-object",
        "localization-check-task"])
def test_errors_name_the_offending_line(tmp_path, old, new, message, snippets):
    _assert_refused(tmp_path, "arrow.bwcoh", old, new, message, *snippets)


def test_incomplete_composition_table_exits_2_on_every_command(tmp_path):
    # without this line the arrow's systems used to crash the loader with a
    # KeyError while building the factorization category
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    assert "  compose id_y id_y = id_y\n" in text
    mutated = tmp_path / "arrow.bwcoh"
    mutated.write_text(text.replace("  compose id_y id_y = id_y\n", ""),
                       encoding="utf-8")
    path = str(mutated)
    for argv in (
        ("validate", path),
        ("cohomology", path, "arrow", "const_z"),
        ("localization-check", path, "loc_y", "const_z"),
        ("export", path, str(tmp_path / "out.txt"), "--what", "nerve",
         "--category", "arrow"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert "category arrow: 1 violation(s)" in out
        assert "missing composite for (1,1)" in out
        assert "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_non_composable_compose_line_exits_2(tmp_path):
    # id_y then f does not compose; the table has no place for the pair
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    assert "  compose id_y id_y = id_y\n" in text
    mutated = tmp_path / "arrow.bwcoh"
    mutated.write_text(text.replace("  compose id_y id_y = id_y\n",
                                    "  compose id_y id_y = id_y\n"
                                    "  compose id_y f = f\n", 1),
                       encoding="utf-8")
    for argv in (("validate", str(mutated)),
                 ("cohomology", str(mutated), "arrow", "const_z")):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert "category arrow: 1 violation(s)" in out
        assert "composite defined for non-composable (1,2)" in out
        assert "Traceback" not in err


def test_localization_check_validates_the_system(tmp_path):
    # the right actions of g1 multiply by 2 but D(g1,g1)∘D(g1,g1) must be 1;
    # localization-check used to run the certificates on it and fail d∘d = 0
    bad = tmp_path / "bad.bwcoh"
    bad.write_text(f"""{HEADER}

category c2
  objects: s
  mor g0: s -> s
  mor g1: s -> s
  identity s: g0
  compose g0 g0 = g0
  compose g0 g1 = g1
  compose g1 g0 = g1
  compose g1 g1 = g0
end

functor idf: c2 -> c2
  obj s -> s
  mor g0 -> g0
  mor g1 -> g1
end

localization triv
  big: c2
  small: c2
  phi: idf
  psi: idf
  unit s: g0
end

system bad on c2
  value g0: Z
  value g1: Z
  act g0 -| g1: [[2]]
  act g1 -| g1: [[2]]
  act g0 |- g1: [[1]]
  act g1 |- g1: [[1]]
end
""", encoding="utf-8")
    for argv in (("validate", str(bad)),
                 ("cohomology", str(bad), "c2", "bad"),
                 ("localization-check", str(bad), "triv", "bad")):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert "functoriality fails" in out
        assert "Traceback" not in err


def test_localization_check_validates_the_localization(tmp_path):
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    assert "  unit x: f\n" in text
    mutated = tmp_path / "arrow.bwcoh"
    mutated.write_text(text.replace("  unit x: f\n", "  unit x: id_x\n"),
                       encoding="utf-8")
    code, out, err = run_cli("localization-check", str(mutated), "loc_y",
                             "const_z")
    assert code == 2
    assert out.splitlines() == ["localization loc_y: 1 violation(s)",
                                "  component at object 0 has wrong endpoints"]
    assert "Traceback" not in err


def _assert_exit_2_on_every_command(path, system, message):
    for argv in (("validate", path),
                 ("cohomology", path, "arrow", system),
                 ("localization-check", path, "loc_y", system)):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert f"system {system}: 1 violation(s)" in out
        assert message in out
        assert "Traceback" not in err


def test_explicit_action_that_is_not_a_homomorphism_exits_2(tmp_path):
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    assert "  value f: Z/4\n" in text
    mutated = tmp_path / "arrow.bwcoh"
    # act id_x |- f: [[3]] now maps Z/4 to Z
    mutated.write_text(text.replace("  value f: Z/4\n", "  value f: Z\n"),
                       encoding="utf-8")
    _assert_exit_2_on_every_command(
        str(mutated), "local_z4",
        "act id_x |- f: matrix does not preserve relations from Z/4 to Z")


def test_bifunctor_action_that_is_not_a_homomorphism_exits_2(tmp_path):
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    values = [f"  value {a} {b}: {'Z' if (a, b) == ('x', 'y') else 'Z/4'}"
              for a in "xy" for b in "xy"]
    acts = [f"  act {h} {k}: [[1]]"
            for h in ("id_x", "id_y", "f") for k in ("id_x", "id_y", "f")]
    mutated = tmp_path / "arrow.bwcoh"
    mutated.write_text("\n".join([text, "system twisted on arrow",
                                  "  bifunctor:", *values, *acts, "end", ""]),
                       encoding="utf-8")
    _assert_exit_2_on_every_command(
        str(mutated), "twisted",
        "act id_x f: matrix does not preserve relations from Z/4 to Z")


def test_bifunctor_that_is_not_functorial_exits_2(tmp_path):
    # every action well defined on Z, but (f,f) doubles while (f,id_y)
    # and (id_x,f) are the identity, so (f,f) is not their composite
    text = (WORKSPACES / "arrow.bwcoh").read_text(encoding="utf-8")
    values = [f"  value {a} {b}: Z" for a in "xy" for b in "xy"]
    acts = [f"  act {h} {k}: [[{2 if (h, k) == ('f', 'f') else 1}]]"
            for h in ("id_x", "id_y", "f") for k in ("id_x", "id_y", "f")]
    mutated = tmp_path / "arrow.bwcoh"
    mutated.write_text("\n".join([text, "system twisted on arrow",
                                  "  bifunctor:", *values, *acts, "end", ""]),
                       encoding="utf-8")
    for argv in (("validate", str(mutated)),
                 ("cohomology", str(mutated), "arrow", "twisted"),
                 ("localization-check", str(mutated), "loc_y", "twisted")):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert "system twisted: 2 violation(s)" in out
        assert "functoriality fails composing (id_y,f) then (f,id_y)" in out
        assert "Traceback" not in err


def test_cli_cohomology_formats_and_values():
    ws = str(WORKSPACES / "cyclic.bwcoh")
    code, out, _ = run_cli("cohomology", ws, "z2", "z2_const_z",
                           "--max-degree", "4")
    assert code == 0
    assert out.splitlines() == [
        "H^0(z2,z2_const_z) = Z",
        "H^1(z2,z2_const_z) = 0",
        "H^2(z2,z2_const_z) = Z/2",
        "H^3(z2,z2_const_z) = 0",
    ]
    code, out, _ = run_cli("cohomology", ws, "z2", "z2_const_z",
                           "--max-degree", "4", "--format", "machine")
    assert code == 0
    assert out.splitlines()[2] == "H 2 rank=0 torsion=[2]"


def test_cli_cohomology_reduces_the_checked_normalized_complex(monkeypatch):
    import bwcoh.cli
    built, build = [], bwcoh.cli.build_complex

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bwcoh.cli, "build_complex", recorded)
    code, out, _ = run_cli("cohomology", str(WORKSPACES / "cyclic.bwcoh"),
                           "z3", "z3_const_z", "--max-degree", "4",
                           "--format", "machine")
    assert code == 0
    assert out.splitlines()[2] == "H 2 rank=0 torsion=[3]"
    (cx,) = built
    # the sequences of g1 and g2 only: 2^n against 3^n in the full complex
    assert cx.normalized and [len(b) for b in cx.bases] == [1, 2, 4, 8, 16]
    # d∘d = 0 was checked in every degree of the complex that was reduced
    assert len(cx.dd_witness) == 3


def test_cli_cohomology_empty_category(tmp_path):
    f = tmp_path / "empty.bwcoh"
    f.write_text(f"""{HEADER}

category nothing
  objects:
end

system vacuous on nothing
  constant: Z
end
""", encoding="utf-8")
    code, out, _ = run_cli("cohomology", str(f), "nothing", "vacuous",
                           "--max-degree", "3")
    assert code == 0
    for line in out.splitlines():
        assert line.endswith("= 0")


def test_cli_localization_check_exit_codes():
    ws = str(WORKSPACES / "arrow.bwcoh")
    code, out, _ = run_cli("localization-check", ws, "loc_y", "const_z",
                           "--max-degree", "3")
    assert code == 0 and "result: pass" in out
    code, out, _ = run_cli("localization-check", ws, "coloc_x", "const_z",
                           "--max-degree", "3")
    assert code == 0 and "result: pass" in out
    code, out, _ = run_cli("localization-check", ws, "loc_y", "zzero",
                           "--max-degree", "2")
    assert code == 1 and out.startswith("not-local:")
    code, out, _ = run_cli("localization-check", ws, "coloc_x", "zzero",
                           "--max-degree", "2")
    assert code == 1
    assert out == ("not-local: coefficient system is not colocal: "
                   "action (f,1) is not invertible\n")


def test_cli_check_laws_pass_and_determinism():
    args = ("check-laws", "--seed", "3", "--cases", "4", "--law", "all",
            "--max-morphisms", "5", "--max-degree", "3")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: pass" in out1
    code, _, err = run_cli("check-laws", "--law", "bogus")
    assert code == 3


def test_cli_determinism_bytes():
    ws = str(WORKSPACES / "cyclic.bwcoh")
    for args in (
        ("validate", ws),
        ("cohomology", ws, "z3", "z3_const_z", "--max-degree", "4",
         "--format", "machine"),
        ("cohomology", ws, "z2", "z2_sign", "--max-degree", "3",
         "--format", "machine"),
        ("localization-check", str(WORKSPACES / "arrow.bwcoh"), "loc_y",
         "local_z4", "--max-degree", "3"),
    ):
        runs = [run_cli(*args) for _ in range(2)]
        assert runs[0] == runs[1]


def test_cli_export_roundtrip_and_determinism(tmp_path):
    ws = str(WORKSPACES / "arrow.bwcoh")
    target = tmp_path / "fact.bwcoh"
    code, _, _ = run_cli("export", ws, str(target), "--what", "factorization",
                         "--category", "arrow")
    assert code == 0
    text1 = target.read_text(encoding="utf-8")
    run_cli("export", ws, str(target), "--what", "factorization",
            "--category", "arrow")
    assert target.read_text(encoding="utf-8") == text1

    # the exported factorization re-imports, revalidates and recomputes the
    # same constant-coefficient invariants as the realized category
    doc = f"{HEADER}\n\n" + text1.split("# object annotations")[0]
    ws2 = load_workspace(doc)
    (name, cat2), = ws2.categories.items()
    from bwcoh.fincat import validate_category
    from bwcoh.natsys import constant_system
    from bwcoh.bwcomplex import build_complex
    from bwcoh.factorization import build_factorization
    from bwcoh.abgroup import Z
    assert validate_category(cat2).ok
    fc = build_factorization(load_workspace_file(ws).categories["arrow"])
    cx_a = build_complex(constant_system(fc.category, Z), 2)
    cx_b = build_complex(constant_system(cat2, Z), 2)
    assert [cx_a.cohomology(n) for n in range(2)] == \
        [cx_b.cohomology(n) for n in range(2)]


def test_cli_export_nerve_and_complex(tmp_path):
    ws = str(WORKSPACES / "pseudo_circle.bwcoh")
    nerve_file = tmp_path / "nerve.txt"
    code, _, _ = run_cli("export", ws, str(nerve_file), "--what", "nerve",
                         "--category", "pcircle", "--max-degree", "1")
    assert code == 0
    text = nerve_file.read_text(encoding="utf-8")
    assert "dimension 0: 4 cell(s)" in text
    assert "dimension 1: 8 cell(s)" in text
    assert text.count("degenerate") >= 4

    cx_file = tmp_path / "complex.txt"
    code, _, _ = run_cli("export", str(WORKSPACES / "cyclic.bwcoh"),
                         str(cx_file), "--what", "complex", "--category",
                         "z2", "--system", "z2_const_z", "--max-degree", "2")
    assert code == 0
    body = cx_file.read_text(encoding="utf-8")
    assert "degree 2: 4 basis sequence(s)" in body
    assert "group Z^4" in body

    # terminal category: rank-1 groups in every exported degree
    point = tmp_path / "point.bwcoh"
    point.write_text(f"""{HEADER}

category point
  objects: p
  mor id_p: p -> p
  identity p: id_p
  compose id_p id_p = id_p
end

system konst on point
  constant: Z
end
""", encoding="utf-8")
    pt_file = tmp_path / "point_complex.txt"
    code, _, _ = run_cli("export", str(point), str(pt_file), "--what",
                         "complex", "--category", "point", "--system",
                         "konst", "--max-degree", "3")
    assert code == 0
    lines = [l for l in pt_file.read_text(encoding="utf-8").splitlines()
             if l.startswith("degree")]
    assert lines == [f"degree {n}: 1 basis sequence(s), group Z"
                     for n in range(4)]



ARROW = str(WORKSPACES / "arrow.bwcoh")
CYCLIC = str(WORKSPACES / "cyclic.bwcoh")


@pytest.mark.parametrize("argv, named", [
    (("cohomology", CYCLIC, "z2", "z2_const_z", "--max-degree", "0"),
     "--max-degree"),
    (("cohomology", CYCLIC, "z2", "z2_const_z", "--max-degree", "-1"),
     "--max-degree"),
    (("localization-check", ARROW, "loc_y", "const_z", "--max-degree", "0"),
     "--max-degree"),
    (("localization-check", ARROW, "loc_y", "const_z", "--max-degree", "-1"),
     "--max-degree"),
    (("export", ARROW, "{out}", "--what", "complex", "--category", "arrow",
      "--system", "const_z4", "--max-degree", "0"), "--max-degree"),
    (("export", ARROW, "{out}", "--what", "complex", "--category", "arrow",
      "--system", "const_z4", "--max-degree", "-1"), "--max-degree"),
    (("check-laws", "--cases", "2", "--max-degree", "0"), "--max-degree"),
    (("check-laws", "--cases", "2", "--max-morphisms", "0"),
     "--max-morphisms"),
    (("check-laws", "--cases", "-1"), "--cases"),
    (("cohomology", CYCLIC, "z2", "z2_const_z", "--max-degree", "abc"),
     "invalid int value: 'abc'"),
    (("frobnicate",), "frobnicate"),
])
def test_bad_arguments_exit_3_before_any_work(tmp_path, argv, named):
    out_file = tmp_path / "out.txt"
    code, out, err = run_cli(*(a.format(out=out_file) for a in argv))
    assert code == 3
    assert out == ""
    assert named in err and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("flag", ["--max-degree", "--orders"])
def test_cyclic_group_tables_refuses_nonpositive_arguments(flag):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cyclic_group_tables.py"),
         flag, "0"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag}: must be at least 1, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr
