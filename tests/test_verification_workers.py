"""verify_records in forked worker processes.

On Linux with two or more CPUs the suites run as tasks of a pool of
forked workers.  The records must equal those of the run in this
process, come back in the order the suites were named, and every worker
must have exited when the call returns, whether it succeeded or not.
Each test fixes the worker count, so that both paths run on any number
of CPUs.
"""

import multiprocessing
import os
import signal
import sys
import time
from contextlib import contextmanager

import pytest

from dpgfem import verification
from dpgfem.verification import verify_records

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the workers are forked on Linux")


@contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the block takes longer than
    seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"verify_records did not return in {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _records(monkeypatch, workers, **kw):
    with monkeypatch.context() as m, _deadline(120):
        m.setattr(verification, "_worker_count", lambda n: workers)
        return verify_records(**kw)


@pytest.mark.parametrize("suites", [None, ("stability", "duality")],
                         ids=["all", "two"])
def test_workers_give_the_in_process_records(monkeypatch, suites):
    in_workers = _records(monkeypatch, 2, suites=suites)
    assert multiprocessing.active_children() == []
    in_process = _records(monkeypatch, 0, suites=suites)
    assert in_workers == in_process
    names = list(verification._SUITES) if suites is None else list(suites)
    assert [r["suite"] for r in in_workers] == sorted(
        (r["suite"] for r in in_process), key=names.index)
    assert len(in_workers) == (30 if suites is None else 2 + 8)


def _pid_suite(name, pause=0.0):
    def run(seed):
        time.sleep(pause)
        return [(name, "pid", float(os.getpid()), float(seed), True)]
    return run


def test_records_follow_the_named_order_not_the_finishing_order(
        monkeypatch):
    # duality is submitted first and finishes last
    monkeypatch.setitem(verification._SUITES, "duality",
                        _pid_suite("duality", pause=0.3))
    monkeypatch.setitem(verification._SUITES, "stability",
                        _pid_suite("stability"))
    recs = _records(monkeypatch, 2, seed=4, suites=("stability", "duality"))
    assert [r["suite"] for r in recs] == ["stability", "duality"]
    assert [r["tolerance"] for r in recs] == [4.0, 4.0]
    assert os.getpid() not in {int(r["value"]) for r in recs}
    assert multiprocessing.active_children() == []


def test_suite_exception_reaches_the_caller(monkeypatch):
    def broken(seed):
        raise ZeroDivisionError(f"suite broke at seed {seed}")
    monkeypatch.setitem(verification._SUITES, "infsup", broken)
    with pytest.raises(ZeroDivisionError, match="suite broke at seed 3"):
        _records(monkeypatch, 2, seed=3, suites=("stability", "infsup"))
    assert multiprocessing.active_children() == []


def test_dead_worker_is_a_runtime_error_naming_the_suite(monkeypatch):
    def die(seed):
        os._exit(1)
    monkeypatch.setitem(verification._SUITES, "fortin", die)
    with pytest.raises(RuntimeError, match="worker process died") as exc:
        _records(monkeypatch, 2, suites=("stability", "fortin"))
    assert "'fortin'" in str(exc.value)
    assert multiprocessing.active_children() == []


def test_worker_count_follows_the_cpus(monkeypatch):
    count = verification._worker_count
    monkeypatch.setattr(verification.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3})
    assert [count(n) for n in (1, 2, 3, 5)] == [0, 2, 3, 4]
    # one CPU, as under taskset -c 0: the run stays in this process
    monkeypatch.setattr(verification.os, "sched_getaffinity",
                        lambda pid: {0})
    assert count(5) == 0
    monkeypatch.setattr(verification.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(verification.sys, "platform", "darwin")
    assert count(5) == 0
