"""Layer spans for the traced run, recorded from outside the ``bwcoh`` package.

``install`` wraps the public functions and methods that own each layer's
work.  A function is replaced in every ``bwcoh`` module that holds it, since
``cli``, ``laws`` and ``localization`` import ``build_complex`` and friends by
value and ``abgroup`` imports ``smith_normal_form``; a method is replaced on
its class.  Spans stay in memory as (name, start, end, parent) and are
written out once the jobs are done.

Each span is named after the metric it feeds.  A metric's time is the sum of
its spans' self times, a span's self time being its duration minus the
durations of its direct children.  The job itself is the root span
``cli.self_s``: whatever no wrapper covers stays in its self time, so a
missed call shows up there instead of silently shrinking a layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Iterable

ROOT = "cli.self_s"

# (metric, module, class or None, attribute names)
SPANS = [
    ("workspace.load_s", "bwcoh.workspace", None, ["load_workspace_file"]),
    ("natsys.validate_s", "bwcoh.natsys", None, ["validate_natural_system"]),
    ("factorization.build_s", "bwcoh.factorization", None,
     ["build_factorization"]),
    ("fincat.enumerate_s", "bwcoh.fincat", None, ["enumerate_sequences"]),
    ("bwcomplex.build_complex_s", "bwcoh.bwcomplex", None, ["build_complex"]),
    ("bwcomplex.blockhom_compose_s", "bwcoh.bwcomplex", "BlockHom",
     ["compose"]),
    ("bwcomplex.zero_check_s", "bwcoh.bwcomplex", "BlockHom",
     ["first_nonzero_coordinate"]),
    ("bwcomplex.densify_s", "bwcoh.bwcomplex", "BlockHom",
     ["to_matrix", "to_witness", "to_hom"]),
    ("bwcomplex.induced_map_s", "bwcoh.bwcomplex", None,
     ["induced_map_nat", "induced_map_2"]),
    ("bwcomplex.homotopy_s", "bwcoh.bwcomplex", None,
     ["homotopy_h", "homotopy_r_vertical", "homotopy_r_horizontal"]),
    ("bwcomplex.check_chain_s", "bwcoh.bwcomplex", "CochainMap",
     ["check_chain"]),
    ("bwcomplex.check_boundary_s", "bwcoh.bwcomplex", "Homotopy1",
     ["check_boundary"]),
    ("bwcomplex.cohomology_map_s", "bwcoh.bwcomplex", None,
     ["cohomology_map"]),
    ("abgroup.subquotient_s", "bwcoh.abgroup", None, ["subquotient"]),
    ("abgroup.is_iso_s", "bwcoh.abgroup", None, ["is_iso"]),
    ("abgroup.hom_inverse_s", "bwcoh.abgroup", None, ["hom_inverse"]),
    ("intmat.hnf_s", "bwcoh.intmat", "LatticeSolver", ["__init__"]),
    ("intmat.snf_s", "bwcoh.intmat", None, ["smith_normal_form"]),
    ("intmat.solve_s", "bwcoh.intmat", "LatticeSolver", ["solve"]),
    ("localization.characterization_s", "bwcoh.localization", None,
     ["local_characterization", "colocal_characterization"]),
    ("randgen.generate_s", "bwcoh.randgen", "InstanceGen", None),
]

# span metrics whose call count is a metric of its own
CALLS = {
    "bwcomplex.blockhom_compose_calls": "bwcomplex.blockhom_compose_s",
    "abgroup.subquotient_calls": "abgroup.subquotient_s",
    "intmat.hnf_calls": "intmat.hnf_s",
}

COUNTS = ["factorization.cache_misses", "bwcomplex.cochains",
          "bwcomplex.diff_blocks", "bwcomplex.cohomology_data_calls",
          "intmat.hnf_cells", "intmat.matrices", "laws.cases"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as a span; ``observe(counts, args, result)`` runs
        after the span closes."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Iterable[tuple[str, float, float, int]]:
        for nid, s, e, p in zip(self._name, self._start, self._end,
                                self._parent):
            yield self.names[nid], s, e, p

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                fh.write(f"{i},{name},{s!r},{e!r},{p}\n")


def self_times(spans: Iterable[tuple[str, float, float, int]]
               ) -> tuple[dict[str, float], Counter, float]:
    """Per-name self time, per-name span count, and the total duration of
    the root spans (those whose parent is -1).  Parents index into the same
    sequence and precede their children."""
    spans = list(spans)
    child = [0.0] * len(spans)
    for name, s, e, p in spans:
        if p >= 0:
            child[p] += e - s
    own: dict[str, float] = {}
    calls: Counter = Counter()
    root = 0.0
    for i, (name, s, e, p) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (e - s) - child[i]
        calls[name] += 1
        if p < 0:
            root += e - s
    return own, calls, root


def _replace_everywhere(old, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "bwcoh" or mod_name.startswith("bwcoh."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def _complex_size(counts, args, cx) -> None:
    counts["bwcomplex.cochains"] += sum(len(b) for b in cx.bases)
    counts["bwcomplex.diff_blocks"] += sum(len(d.blocks) for d in cx.diffs)


def _hnf_cells(counts, args, result) -> None:
    mat = args[1]
    counts["intmat.hnf_cells"] += mat.rows * mat.cols


OBSERVERS = {"bwcomplex.build_complex_s": _complex_size,
             "intmat.hnf_s": _hnf_cells}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the imported ``bwcoh`` package."""
    import bwcoh.bwcomplex
    import bwcoh.intmat
    import bwcoh.laws

    for metric, mod_name, cls_name, attrs in SPANS:
        mod = importlib.import_module(mod_name)
        observe = OBSERVERS.get(metric)
        if cls_name is None:
            for attr in attrs:
                old = getattr(mod, attr)
                _replace_everywhere(old, tracer.wrap(metric, old, observe))
            continue
        cls = getattr(mod, cls_name)
        if attrs is None:   # every public method
            attrs = [a for a, v in vars(cls).items()
                     if callable(v) and not a.startswith("_")]
        for attr in attrs:
            setattr(cls, attr, tracer.wrap(metric, getattr(cls, attr),
                                           observe))

    counts = tracer.counts

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cx_cls = bwcoh.bwcomplex.CochainComplex
    cx_cls.cohomology_data = counted("bwcomplex.cohomology_data_calls",
                                     cx_cls.cohomology_data)
    mat_cls = bwcoh.intmat.IntMatrix
    mat_cls.__post_init__ = counted("intmat.matrices", mat_cls.__post_init__)

    run_law = bwcoh.laws.run_law

    def counted_run_law(*args, **kwargs):
        report = run_law(*args, **kwargs)
        counts["laws.cases"] += len(report.cases)
        return report
    _replace_everywhere(run_law, counted_run_law)


def layer_metrics(tracer: Tracer, cache_misses: int) -> dict[str, float]:
    """The traced run's per-layer metrics, plus ``trace.job_s``."""
    own, calls, root = self_times(tracer.spans())
    out: dict[str, float] = {ROOT: own.get(ROOT, 0.0)}
    for metric, *_ in SPANS:
        out[metric] = own.get(metric, 0.0)
    for metric, span in CALLS.items():
        out[metric] = calls[span]
    counts = dict(tracer.counts, **{"factorization.cache_misses":
                                    cache_misses})
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    out["trace.job_s"] = root
    return out
