"""``run_laws`` hands cases out from one shared queue without changing reports.

Every case of every requested law goes into one queue that the parent and
W - 1 helpers, forked once per run, claim from until it is empty.  The CPU
count is patched through ``os.sched_getaffinity`` and never set above 3, so a
test forks at most 2 helpers.  Forks are counted on ``os.fork`` and exits on
``os.waitpid``, both of which run in the parent.  Which process claims which
case depends on timing, so a test that makes a helper die first makes the
parent wait, inside its own first case, until a helper has claimed a case.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bwcoh import laws
from bwcoh.laws import CaseResult, case_seed, run_law, run_laws
from bwcoh.randgen import InstanceGen

from test_workspace_cli import run_cli

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked in the parent, in order."""
    out = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            out.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return out


@pytest.fixture
def exits(monkeypatch):
    """The exit code of each child the parent reaped, by pid."""
    out = {}
    real = os.waitpid

    def waitpid(pid, options):
        got, status = real(pid, options)
        if got:
            out[got] = os.waitstatus_to_exitcode(status)
        return got, status
    monkeypatch.setattr(os, "waitpid", waitpid)
    return out


def set_cpus(monkeypatch, k):
    assert k <= 3
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)))


def assert_no_children():
    """Every child was reaped: none is running and none is a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reports_do_not_depend_on_worker_count(monkeypatch, forks):
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
        before = len(forks)
        runs[k] = run_laws("all", 7, 5, 4, 3)
        # one fork per helper for the whole run, not one per law
        assert len(forks) - before == k - 1
        assert_no_children()
    dd = runs[1][0]
    assert [c.index for c in dd.cases] == list(range(5))
    assert [c.ok for c in dd.cases] == [True, False, True, False, True]
    assert dd.lines()[1].endswith("FAIL: AssertionError: failed on purpose")
    for k in (2, 3):
        assert [r.cases for r in runs[k]] == [r.cases for r in runs[1]]
        assert [r.lines() for r in runs[k]] == [r.lines() for r in runs[1]]


def test_one_case_starts_no_helper(monkeypatch, forks):
    set_cpus(monkeypatch, 3)
    rep = run_law("dd", 7, 1, 4, 3)
    assert forks == []
    assert rep.cases == [CaseResult(0, case_seed(7, "dd", 0), True)]


def _die_in_helpers(monkeypatch, tmp_path, die, real=laws._LAW_FUNCS["dd"]):
    """Make "dd" kill any helper in the first case it runs, and run ``real``
    in the parent.  The parent waits in its first case until a helper has
    claimed one, so exactly one record is lost."""
    parent = os.getpid()
    claimed = tmp_path / "claimed"

    def dying(gen, max_morphisms, max_degree):
        if os.getpid() != parent:
            claimed.touch()
            die()
        deadline = time.monotonic() + 30
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        real(gen, max_morphisms, max_degree)
    monkeypatch.setitem(laws._LAW_FUNCS, "dd", dying)


@pytest.mark.parametrize("die, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit", "sigkill"])
def test_dying_helper_fails_its_share(monkeypatch, tmp_path, forks, exits,
                                      die, code):
    set_cpus(monkeypatch, 2)
    _die_in_helpers(monkeypatch, tmp_path, die)
    [rep] = run_laws("dd", 7, 4, 4, 3)
    assert_no_children()
    assert len(forks) == 1
    assert exits == {forks[0]: code}
    # the helper claimed one case and died in it; the parent ran the rest
    [failed] = [c for c in rep.cases if not c.ok]
    assert failed == CaseResult(failed.index,
                                case_seed(7, "dd", failed.index), False,
                                f"worker exited with code {code}")
    assert [c.index for c in rep.cases] == list(range(4))
    assert sum(c.ok for c in rep.cases) == 3


def test_dying_helper_loses_its_whole_record(monkeypatch, tmp_path, forks):
    # more cases than one pipe page of records: 3 consecutive cases a record
    set_cpus(monkeypatch, 2)
    _die_in_helpers(monkeypatch, tmp_path, lambda: os._exit(3),
                    real=lambda *args: None)
    cases = 3 * laws.QUEUE_RECORDS - 5
    [rep] = run_laws("dd", 7, cases, 1, 0)
    assert_no_children()
    failed = [c.index for c in rep.cases if not c.ok]
    assert len(failed) == 3 and failed[0] % 3 == 0
    assert failed == list(range(failed[0], failed[0] + 3))
    assert {c.detail for c in rep.cases if not c.ok} == \
        {"worker exited with code 3"}


def test_dying_helper_is_a_reported_failure_of_check_laws(monkeypatch,
                                                          tmp_path):
    set_cpus(monkeypatch, 2)
    _die_in_helpers(monkeypatch, tmp_path, lambda: os._exit(3))
    code, out, err = run_cli("check-laws", "--seed", "7", "--cases", "4",
                             "--law", "dd", "--max-morphisms", "4",
                             "--max-degree", "3")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[1] == "law dd: 3/4 pass"
    index = int(re.fullmatch(r"  case (\d) seed \d+ FAIL: .*", lines[2])[1])
    assert lines[2:] == [
        f"  case {index} seed {case_seed(7, 'dd', index)} FAIL: "
        "worker exited with code 3",
        "result: FAIL",
    ]
    assert_no_children()


def test_interrupted_parent_terminates_its_helpers(monkeypatch, forks,
                                                   exits):
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
    assert len(forks) == 2
    assert exits == {pid: -signal.SIGTERM for pid in forks}
    assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3])
def test_more_cases_than_one_pipe_page(monkeypatch, forks, cpus):
    # filling the queue must not block, even with more cases than a default
    # 64 KiB pipe holds 4-byte records, and every case is reported once, by
    # index, also with more workers than the machine may have cores
    set_cpus(monkeypatch, cpus)
    monkeypatch.setitem(laws._LAW_FUNCS, "dd", lambda *args: None)
    cases = 20 * laws.QUEUE_RECORDS + 1

    def blocked(signum, frame):
        raise TimeoutError("run_laws did not finish within 60 s")
    old = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(60)
    try:
        [rep] = run_laws("dd", 7, cases, 1, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert len(forks) == cpus - 1
    assert_no_children()
    assert [c.index for c in rep.cases] == list(range(cases))
    assert all(c.ok for c in rep.cases)
    assert rep.cases[-1].seed == case_seed(7, "dd", cases - 1)


def test_check_laws_does_not_import_multiprocessing():
    code = ("import sys\n"
            "from bwcoh.cli import main\n"
            "main(['check-laws', '--seed', '1', '--cases', '4', "
            "'--law', 'dd'])\n"
            "print('multiprocessing' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
