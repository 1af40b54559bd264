"""Executable law suites over randomly generated instances.

Each law draws its instances from ``InstanceGen`` seeded per case, runs the
construction whose defining identity is checked exactly inside the library,
and adds any cross-checks the law states beyond construction-time assertions.
A failing case reports its replayable per-case seed and the failure detail.

``run_laws`` runs every case of every requested law from one shared queue,
on W = min(CPUs of the process's affinity mask, total cases) processes.
Before anything runs, the queue, an ``os.pipe``, is filled with fixed 4-byte
records: one per case, or, when there are more than 1,024 cases, one per
block of consecutive cases, so that the whole queue fits one pipe page and
filling it never blocks.  The parent then forks W - 1 helpers with
``os.fork``, and every process, the parent included, claims records until
the queue is empty, so a slow process simply claims fewer.  A helper writes
each record number it claims and then the pickled ``CaseResult`` of each of
the record's cases to its own pipe; it ignores SIGINT and always ends in
``os._exit``, since the benchmark runs ``check-laws`` in-process.  A claimed
case that a helper did not report fails with the detail ``worker exited with
code N`` (negative for a signal), while the other processes drain the queue.
If the parent's own share raises, ``KeyboardInterrupt`` included, it
terminates and reaps every helper before re-raising.  Each case is generated
from its own seed (``case_seed``) and shares no state with any other case,
and results are merged by (law, index), so the report does not depend on W
or on timing.  ``run_law`` is ``run_laws`` on one law.
"""

from __future__ import annotations

import io
import os
import zlib
from dataclasses import dataclass, field

from .bwcomplex import (
    BlockHom, build_complex, homotopy_h, homotopy_r_horizontal,
    homotopy_r_vertical, require_vanishing,
)
from .factorization import (
    build_factorization, factor_functor, factor_nat, factor_two_morphism,
    two_morphism_target,
)
from .fincat import horizontal_compose, identity_nat, vertical_compose
from .natsys import pullback_along_nat, validate_natural_system
from .randgen import InstanceGen

LAW_NAMES = ("dd", "dh+hd", "dr-rd", "interchange", "2functor")

# the case queue holds at most one pipe page of 4-byte records, so filling it
# never blocks whatever the number of cases
RECORD_BYTES = 4
QUEUE_RECORDS = 4096 // RECORD_BYTES


@dataclass
class CaseResult:
    index: int
    seed: int
    ok: bool
    detail: str = ""


@dataclass
class LawReport:
    law: str
    seed: int
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        out = [f"law {self.law}: "
               f"{sum(c.ok for c in self.cases)}/{len(self.cases)} pass"]
        for c in self.cases:
            if not c.ok:
                out.append(f"  case {c.index} seed {c.seed} FAIL: {c.detail}")
        return out


def case_seed(seed: int, law: str, index: int) -> int:
    # deterministic across processes (no reliance on str hashing)
    mix = zlib.crc32(law.encode("utf-8"))
    return (seed * 1000003 + index * 9176 + mix) & 0x7FFFFFFF


def _law_dd(gen: InstanceGen, max_morphisms: int, max_degree: int) -> None:
    c = gen.category(max_morphisms)
    d = gen.system(c)
    rep = validate_natural_system(d)
    rep.require()
    build_complex(d, max_degree)   # asserts d∘d == 0 as one sparse sum


def _law_h(gen: InstanceGen, max_morphisms: int, max_degree: int) -> None:
    two, d, e = gen.h_instance()
    cx_src = build_complex(d, max_degree)
    cx_dst = build_complex(e, max_degree)
    homotopy_h(two, cx_src, cx_dst)   # asserts dh + hd = -p + q


def _law_r_vertical(gen: InstanceGen, max_morphisms: int,
                    max_degree: int) -> None:
    two_a, two_b, d, e = gen.vertical_instance()
    cx_src = build_complex(d, max_degree)
    cx_dst = build_complex(e, max_degree)
    homotopy_r_vertical(two_a, two_b, cx_src, cx_dst)


def _law_interchange(gen: InstanceGen, max_morphisms: int,
                     max_degree: int) -> None:
    two_a, two_b, d, e, g = gen.horizontal_instance()
    cx_a = build_complex(d, max_degree)
    cx_mid = build_complex(e, max_degree)
    cx_b = build_complex(g, max_degree)
    _, h_a, h_b = homotopy_r_horizontal(two_a, two_b, cx_a, cx_mid, cx_b)
    # the two representatives of the horizontal composite differ exactly by
    # the boundary of the degree -2 witness h'∘h
    n_top = min(cx_a.max_degree, cx_b.max_degree)
    witness = {n: h_b.maps[n - 1].compose(h_a.maps[n])
               for n in range(2, n_top + 1)}
    for n in range(1, n_top):
        # (h_b p_a + q_b h_a) - (p_b h_a + h_b q_a) = -w d + d w
        terms = [(1, h_b.maps[n], h_a.p.maps[n]),
                 (1, h_b.q.maps[n - 1], h_a.maps[n]),
                 (-1, h_b.p.maps[n - 1], h_a.maps[n]),
                 (-1, h_b.maps[n], h_a.q.maps[n]),
                 (1, witness[n + 1], cx_a.diffs[n])]
        if n >= 2:
            terms.append((-1, cx_b.diffs[n - 2], witness[n]))
        require_vanishing(BlockHom.signed_sum(terms),
                          "interchange witness identity", cx_a, n, cx_b, n - 1)


def _law_2functor(gen: InstanceGen, max_morphisms: int,
                  max_degree: int) -> None:
    dom = gen.chain_domain()
    chain = gen.nat_chain(dom, 4)
    eps, alpha, gam = chain.nats
    beta = two_morphism_target(alpha, eps, gam)
    fc_dom = build_factorization(dom)
    fc_tgt = build_factorization(chain.target)
    # embedding of functors agrees with the action on identity transformations
    phi = chain.functors[0]
    if factor_nat(identity_nat(phi), fc_dom, fc_tgt) != \
            factor_functor(phi, fc_dom, fc_tgt):
        raise AssertionError("factorization of an identity transformation "
                             "differs from the factorization of its functor")
    ab = vertical_compose(gam, alpha)
    if factor_nat(ab, fc_dom, fc_tgt).obj_map != tuple(
            chain.target.table[factor_nat(alpha, fc_dom, fc_tgt).obj_map[f]][
                gam.components[dom.mor_target[f]]]
            for f in range(dom.n_morphisms)):
        raise AssertionError("vertical composite object map mismatch")
    # two-morphism functoriality: F(eps, gam) is natural, and identity squares
    # give identity transformations
    nat = factor_two_morphism(alpha, beta, eps, gam, fc_dom, fc_tgt)
    rep = nat.validate()
    rep.require()
    one = identity_nat(alpha.source_functor)
    ident = factor_two_morphism(alpha, alpha, one,
                                identity_nat(alpha.target_functor),
                                fc_dom, fc_tgt)
    fa = factor_nat(alpha, fc_dom, fc_tgt)
    if ident != identity_nat(fa):
        raise AssertionError("identity square does not factor to the identity")
    # pullback composition law: along alpha then along an incoming beta
    # equals the pullback along the horizontal composite alpha*beta
    dom2 = gen.chain_domain()
    outer = gen.nat_chain(dom2, 4)
    mid = outer.target
    inner = gen.nat_chain(mid, 2)
    d = gen.system(inner.target)
    alpha2 = inner.nats[0]
    beta2 = outer.nats[0]
    pulled_two_step = pullback_along_nat(pullback_along_nat(d, alpha2), beta2)
    pulled_composite = pullback_along_nat(
        d, horizontal_compose(alpha2, beta2))
    if pulled_two_step.functor.values != pulled_composite.functor.values or \
            not pulled_two_step.functor.equal_mod(pulled_composite.functor):
        raise AssertionError("pullback composition law fails")


_LAW_FUNCS = {
    "dd": _law_dd,
    "dh+hd": _law_h,
    "dr-rd": _law_r_vertical,
    "interchange": _law_interchange,
    "2functor": _law_2functor,
}


class _Helper:
    """A forked worker.  It claims records from ``queue`` until the queue is
    empty, and for each one writes the claimed record number and then the
    pickled ``CaseResult`` of each of its cases to its own pipe."""

    def __init__(self, queue: int, run_record):
        # imported only once a helper is forked, so that one-CPU runs and
        # the other commands do not load them
        import pickle
        import signal
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                # Ctrl-C reaches the whole process group; the parent alone
                # handles it and terminates its helpers
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(read)
                with open(write, "wb") as out:
                    for k in _claims(queue):
                        pickle.dump(k, out)
                        out.flush()
                        for result in run_record(k):
                            pickle.dump(result, out)
                            out.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        os.set_blocking(read, False)
        self.fd = read
        self.data = bytearray()
        self.exitcode: int | None = None

    def poll(self) -> None:
        """Read what the helper has sent so far, without waiting."""
        try:
            while chunk := os.read(self.fd, 1 << 16):
                self.data += chunk
        except BlockingIOError:
            pass

    def finish(self) -> None:
        """Read to the end of the helper's output and reap it."""
        os.set_blocking(self.fd, True)
        self.poll()
        self.reap()

    def terminate(self) -> None:
        import signal
        if self.exitcode is None:
            os.kill(self.pid, signal.SIGTERM)
            self.reap()

    def reap(self) -> None:
        if self.exitcode is None:
            _, status = os.waitpid(self.pid, 0)
            self.exitcode = os.waitstatus_to_exitcode(status)

    def collect(self, record_cases) -> tuple[list[int], list[CaseResult]]:
        """The cases of the records the helper claimed, and the results it
        reported for them, in order, up to the first incomplete message."""
        import pickle
        stream = io.BytesIO(self.data)
        claimed: list[int] = []
        reported: list[CaseResult] = []
        while True:
            try:
                msg = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):
                return claimed, reported
            if isinstance(msg, int):
                claimed += record_cases(msg)
            else:
                reported.append(msg)


def _claims(queue: int):
    """The record numbers this process claims from the queue, until it is
    empty."""
    while record := os.read(queue, RECORD_BYTES):
        yield int.from_bytes(record, "little")


def run_laws(law: str, seed: int, cases: int, max_morphisms: int = 6,
             max_degree: int = 3) -> list[LawReport]:
    names = LAW_NAMES if law == "all" else (law,)
    if law != "all" and law not in _LAW_FUNCS:
        raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")
    # case t is case t % cases of law names[t // cases]; record k holds the
    # consecutive cases t of range(k * per_record, ...)
    total = len(names) * cases
    per_record = max(1, -(-total // QUEUE_RECORDS))

    def record_cases(k: int) -> range:
        return range(k * per_record, min(total, (k + 1) * per_record))

    def result(t: int, ok: bool, detail: str = "") -> CaseResult:
        name, i = names[t // cases], t % cases
        return CaseResult(i, case_seed(seed, name, i), ok, detail)

    def run_case(t: int) -> CaseResult:
        name, i = names[t // cases], t % cases
        gen = InstanceGen(case_seed(seed, name, i))
        try:
            _LAW_FUNCS[name](gen, max_morphisms, max_degree)
        except Exception as exc:   # noqa: BLE001 - reported, not swallowed
            return result(t, False, f"{type(exc).__name__}: {exc}")
        return result(t, True)

    def run_record(k: int):
        return (run_case(t) for t in record_cases(k))

    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    workers = max(1, min(cpus, total)) if hasattr(os, "fork") else 1
    queue, fill = os.pipe()
    try:
        # at most one pipe page, so this write cannot block
        os.write(fill, b"".join(
            k.to_bytes(RECORD_BYTES, "little")
            for k in range(-(-total // per_record))))
    finally:
        os.close(fill)
    results: dict[int, CaseResult] = {}
    helpers: list[_Helper] = []
    try:
        for _ in range(workers - 1):
            helpers.append(_Helper(queue, run_record))
        for k in _claims(queue):
            for t in record_cases(k):
                results[t] = run_case(t)
            for h in helpers:
                h.poll()
        for h in helpers:
            h.finish()
            claimed, reported = h.collect(record_cases)
            results.update(zip(claimed, reported))
            for t in claimed[len(reported):]:
                results[t] = result(
                    t, False, f"worker exited with code {h.exitcode}")
    except BaseException:
        for h in helpers:
            h.terminate()
        raise
    finally:
        os.close(queue)
        for h in helpers:
            os.close(h.fd)
    return [LawReport(name, seed, [results[k * cases + i]
                                   for i in range(cases)])
            for k, name in enumerate(names)]


def run_law(law: str, seed: int, cases: int, max_morphisms: int = 6,
            max_degree: int = 3) -> LawReport:
    if law not in _LAW_FUNCS:
        raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")
    [report] = run_laws(law, seed, cases, max_morphisms, max_degree)
    return report
