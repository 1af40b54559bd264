"""Self-test of the benchmark's own logic: the closed-form answer table, the
workspace serializers and the self-time arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import expected  # noqa: E402
import spans  # noqa: E402

Z, ZERO = (1, ()), (0, ())


def test_cyclic_constant_z():
    assert expected.cyclic_constant_z(4, 5) == [Z, ZERO, (0, (4,)), ZERO,
                                                (0, (4,))]


def test_cyclic_constant_mod_uses_gcd():
    assert expected.cyclic_constant_mod(5, 5, 4) == [(0, (5,))] * 4
    assert expected.cyclic_constant_mod(6, 4, 3) == [(0, (4,)), (0, (2,)),
                                                     (0, (2,))]
    assert expected.cyclic_constant_mod(3, 2, 2) == [(0, (2,)), ZERO]


def test_cyclic_sign():
    assert expected.cyclic_sign_z(4, 5) == [ZERO, (0, (2,)), ZERO, (0, (2,)),
                                            ZERO]
    with pytest.raises(ValueError):
        expected.cyclic_sign_z(3, 2)


def test_contractible_and_spelling():
    assert expected.contractible(3) == [Z, ZERO, ZERO]
    assert expected.machine((0, (2, 4))) == "rank=0 torsion=[2,4]"
    assert expected.machine(Z) == "rank=1 torsion=[]"
    assert expected.human((2, (3,))) == "Z^2 ⊕ Z/3"
    assert expected.human(ZERO) == "0"


def test_self_times_on_synthetic_spans():
    synthetic = [
        ("cli.self_s", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
        ("cli.self_s", 10.0, 12.0, -1),
        ("b", 10.5, 11.0, 4),
    ]
    own, calls, root = spans.self_times(synthetic)
    assert own == {"cli.self_s": 7.5, "a": 3.0, "b": 1.5}
    assert calls == {"cli.self_s": 2, "a": 2, "b": 2}
    assert root == 12.0
    assert sum(own.values()) == root


def test_tracer_nests_and_adds_up():
    t = spans.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    job = t.wrap(spans.ROOT, lambda: outer(1) + inner(0))
    assert job() == 5
    recorded = list(t.spans())
    assert [(n, p) for n, _, _, p in recorded] == [
        (spans.ROOT, -1), ("outer", 0), ("inner", 1), ("inner", 0)]
    own, calls, root = spans.self_times(recorded)
    assert sum(own.values()) == pytest.approx(root)
    assert calls["inner"] == 2


def test_serialized_workspace_round_trips():
    import workloads
    from bwcoh.randgen import InstanceGen
    from bwcoh.workspace import load_workspace

    gen = InstanceGen(7)
    coloc = gen._chain_interior(4)
    d = gen.hom_system(coloc.big)
    text = workloads._transport_workspace(
        "colocalization", coloc, workloads.explicit_text("d", "big", d))
    ws = load_workspace(text)
    assert ws.systems["d"].functor.values == d.functor.values
    assert ws.systems["d"].functor.equal_mod(d.functor)
    assert ws.colocalizations["loc"].counit.components == \
        coloc.counit.components


def test_relabelling_keeps_lines():
    import workloads
    from bwcoh.fincat import total_order_category
    from bwcoh.workspace import category_text

    text = category_text("c", total_order_category(3))
    shuffled = workloads.relabelled(text, random.Random(1))
    assert sorted(shuffled.split("\n")[2:]) == sorted(text.split("\n")[2:])
    assert sorted(shuffled.split("\n")[1].split()) == \
        sorted(text.split("\n")[1].split())


def test_benchmark_json_lists_every_layer_metric():
    import json

    from run import layer_unit

    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = list(spans.layer_metrics(spans.Tracer(), 0)) + ["trace.overhead"]
    assert [m["name"] for m in bench["per_layer"]] == emitted
    assert all(m["unit"] == layer_unit(m["name"]) for m in bench["per_layer"])
