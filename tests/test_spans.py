"""The span runner's forked children: results in span order, the earliest
failure raised, and every child reaped, whatever its span did."""

import os
import signal
import time

import numpy as np
import pytest

from couponcollector import UniformDistinct, simulate_collection
import couponcollector._spans as _spans
import couponcollector.oracle as oracle

from conftest import spy_forks


@pytest.fixture(autouse=True)
def _deadline():
    """Fail, rather than hang, a test whose caller waits for a child that
    never finishes."""

    def expire(signum, frame):
        raise TimeoutError("the span runner did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run(monkeypatch, span, spans=3):
    """``_run_spans`` of one unit per span, in ``spans`` processes: the
    caller's and spans - 1 forked children."""
    monkeypatch.setattr(_spans, "usable_cpus", lambda: spans)
    return _spans._run_spans(span, None, spans, 1, spans)


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    """An exception that refuses to be pickled."""

    def __reduce__(self):
        raise TypeError("this exception must not be pickled")


def test_results_come_back_in_span_order(monkeypatch):
    got = _run(monkeypatch, lambda model, lo, hi: (lo, hi, os.getpid()), spans=3)
    assert [(lo, hi) for lo, hi, _ in got] == [(0, 1), (1, 2), (2, 3)]
    pids = [pid for _, _, pid in got]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    _assert_no_child_is_left()


def test_a_child_killed_mid_span_raises_in_the_caller(monkeypatch):
    def span(model, lo, hi):
        if lo == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return lo

    with pytest.raises(RuntimeError, match=f"by signal {int(signal.SIGKILL)} without its result"):
        _run(monkeypatch, span)
    _assert_no_child_is_left()


def test_an_exception_that_cannot_be_pickled_still_raises(monkeypatch):
    def span(model, lo, hi):
        if lo:
            raise _Unpicklable(f"span {lo} failed")
        return lo

    with pytest.raises(RuntimeError, match="_Unpicklable: span 1 failed.*cannot be pickled"):
        _run(monkeypatch, span)
    _assert_no_child_is_left()


def test_the_earliest_failing_span_raises(monkeypatch):
    def span(model, lo, hi):
        if lo:
            raise ValueError(f"span {lo}")
        return lo

    with pytest.raises(ValueError, match="^span 1$"):
        _run(monkeypatch, span)
    _assert_no_child_is_left()


def test_a_failing_caller_span_ends_the_children_at_once(monkeypatch):
    # the children would sleep for a minute; the caller's failure kills them
    def span(model, lo, hi):
        if lo:
            time.sleep(60)
        raise LookupError("span 0")

    start = time.monotonic()
    with pytest.raises(LookupError, match="^span 0$"):
        _run(monkeypatch, span)
    assert time.monotonic() - start < 30
    _assert_no_child_is_left()


def test_a_result_larger_than_a_pipe_buffer_equals_the_one_span_result(monkeypatch):
    # 20,000 trials in two spans: each child sends 80 KB of int64 group
    # counts, past a 64 KB pipe buffer, so it blocks until the caller reads
    model = UniformDistinct(5, 3)
    one = simulate_collection(model, trials=20_000, seed=7)
    made = spy_forks(monkeypatch, 2)
    draws = oracle._simulate_spans(model, 20_000, 7, 2, 10**6)
    assert made == [1]
    assert draws.nbytes // 2 > 64 * 1024
    assert simulate_collection(model, trials=20_000, seed=7, workers=2) == one
    assert made == [1, 1]
    assert np.array_equal(draws, oracle._simulate_spans(model, 20_000, 7, 1, 10**6))
    _assert_no_child_is_left()
