"""``run_law`` splits cases over worker processes without changing reports.

The CPU count is patched through ``os.sched_getaffinity`` and never set
above 3, so a test starts at most 2 helpers per law.  Helper starts are
counted on the fork context's ``Process.start``, which runs in the parent.
"""

import multiprocessing
import os
import signal
import time

import pytest

from bwcoh import laws
from bwcoh.laws import CaseResult, case_seed, run_law, run_laws
from bwcoh.randgen import InstanceGen

from test_workspace_cli import run_cli

ForkProcess = multiprocessing.get_context("fork").Process


@pytest.fixture
def started(monkeypatch):
    """The helpers started in the parent, in order."""
    out = []
    real = ForkProcess.start

    def start(self):
        out.append(self)
        real(self)
    monkeypatch.setattr(ForkProcess, "start", start)
    return out


def set_cpus(monkeypatch, k):
    assert k <= 3
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)))


def test_reports_do_not_depend_on_worker_count(monkeypatch, started):
    real = laws._LAW_FUNCS["dd"]
    bad = {case_seed(7, "dd", i) for i in (1, 3)}

    class Seeded(InstanceGen):
        def __init__(self, seed):
            super().__init__(seed)
            self.seed = seed

    def flaky(gen, max_morphisms, max_degree):
        if gen.seed in bad:
            raise AssertionError("failed on purpose")
        real(gen, max_morphisms, max_degree)
    monkeypatch.setattr(laws, "InstanceGen", Seeded)
    monkeypatch.setitem(laws._LAW_FUNCS, "dd", flaky)

    runs = {}
    for k in (1, 2, 3):
        set_cpus(monkeypatch, k)
        before = len(started)
        runs[k] = run_laws("all", 7, 5, 4, 3)
        assert len(started) - before == (k - 1) * len(laws.LAW_NAMES)
        assert multiprocessing.active_children() == []
    dd = runs[1][0]
    assert [c.index for c in dd.cases] == list(range(5))
    assert [c.ok for c in dd.cases] == [True, False, True, False, True]
    assert dd.lines()[1].endswith("FAIL: AssertionError: failed on purpose")
    for k in (2, 3):
        assert [r.cases for r in runs[k]] == [r.cases for r in runs[1]]
        assert [r.lines() for r in runs[k]] == [r.lines() for r in runs[1]]


def test_one_case_starts_no_helper(monkeypatch, started):
    set_cpus(monkeypatch, 3)
    rep = run_law("dd", 7, 1, 4, 3)
    assert started == []
    assert rep.cases == [CaseResult(0, case_seed(7, "dd", 0), True)]


def _die_in_helpers(monkeypatch, die):
    parent = os.getpid()
    real = laws._LAW_FUNCS["dd"]

    def dying(gen, max_morphisms, max_degree):
        if os.getpid() != parent:
            die()
        real(gen, max_morphisms, max_degree)
    monkeypatch.setitem(laws._LAW_FUNCS, "dd", dying)


@pytest.mark.parametrize("die, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit", "sigkill"])
def test_dying_helper_fails_its_share(monkeypatch, started, die, code):
    set_cpus(monkeypatch, 2)
    _die_in_helpers(monkeypatch, die)
    [rep] = run_laws("dd", 7, 4, 4, 3)
    assert multiprocessing.active_children() == []
    assert len(started) == 1
    assert [c.ok for c in rep.cases] == [True, False, True, False]
    for c in rep.cases[1::2]:
        assert c.seed == case_seed(7, "dd", c.index)
        assert c.detail == f"worker exited with code {code}"


def test_dying_helper_is_a_reported_failure_of_check_laws(monkeypatch):
    set_cpus(monkeypatch, 2)
    _die_in_helpers(monkeypatch, lambda: os._exit(3))
    code, out, err = run_cli("check-laws", "--seed", "7", "--cases", "4",
                             "--law", "dd", "--max-morphisms", "4",
                             "--max-degree", "3")
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        "law dd: 2/4 pass",
        f"  case 1 seed {case_seed(7, 'dd', 1)} FAIL: "
        "worker exited with code 3",
        f"  case 3 seed {case_seed(7, 'dd', 3)} FAIL: "
        "worker exited with code 3",
        "result: FAIL",
    ]
    assert multiprocessing.active_children() == []


def test_interrupted_parent_terminates_its_helpers(monkeypatch, started):
    set_cpus(monkeypatch, 3)
    parent = os.getpid()

    def interrupted(gen, max_morphisms, max_degree):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    monkeypatch.setitem(laws._LAW_FUNCS, "dd", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_law("dd", 7, 3, 4, 3)
    assert time.monotonic() - start < 30
    assert len(started) == 2
    assert all(p.exitcode == -signal.SIGTERM for p in started)
    assert multiprocessing.active_children() == []
