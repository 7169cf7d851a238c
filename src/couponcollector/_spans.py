"""How a call's work runs: the one place that splits it into spans.

Both the simulator's trials and the exact engine's lattice blocks are
independent units whose results do not depend on how they are grouped, so
one runner decides, for either, whether they run as one span or in forked
processes.
"""

import os
import pickle
import signal
import sys
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fork_is_safe() -> bool:
    """Whether this process can fork and no child can deadlock: ``os.fork``
    exists, no other Python thread runs (so none can hold a lock across the
    fork), and the platform is not macOS, where system libraries are not
    fork-safe."""
    return (
        sys.platform != "darwin"
        and hasattr(os, "fork")
        and threading.active_count() == 1
    )


class _Child:
    """A forked process that runs one span and sends back its outcome.

    The child runs ``span(model, lo, hi, *args)``, writes the pickled
    (True, result) or (False, exception) to its own pipe and leaves by
    ``os._exit``, so it runs no exit handler and flushes none of the
    parent's buffers. The model reaches it as the parent's memory, never
    pickled.
    """

    def __init__(self, span, model, lo: int, hi: int, args: tuple):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            _send_outcome(write, span, model, lo, hi, args)  # never returns
        os.close(write)
        self.pid, self.pipe = pid, read

    def result(self):
        """The span's result, or its exception raised here, once the child
        has sent it and been reaped."""
        read, self.pipe = self.pipe, None
        # to the end, before the wait: a child blocks on a full pipe until
        # it is read
        with open(read, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"by signal {-code}" if code < 0 else f"with exit code {code}"
            raise RuntimeError(f"a forked span ended {how} without its result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def end(self):
        """Kill the child, if ``result`` has not reaped it, and reap it."""
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _send_outcome(write: int, span, model, lo: int, hi: int, args: tuple):
    """In a forked child: run the span, write its pickled outcome to the
    pipe ``write`` and leave, with exit code 0 once it is written. An
    exception that cannot be pickled is sent as a ``RuntimeError`` that
    names it."""
    code = 1
    try:
        try:
            outcome = True, span(model, lo, hi, *args)
        except BaseException as exc:
            outcome = False, exc
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            value = outcome[1]
            what = f"{type(value).__name__}: {value}"
            failure = RuntimeError(
                f"a forked span's outcome ({what}) cannot be pickled: {err}"
            )
            data = pickle.dumps((False, failure), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_spans(span, model, bounds: list[int], args: tuple) -> list[_Child]:
    """A forked child for each span bounds[i] .. bounds[i+1] but the first.
    Where a fork fails, the children already forked are ended."""
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_Child(span, model, lo, hi, args))
    except BaseException:
        for child in children:
            child.end()
        raise
    return children


def _run_spans(span, model, units: int, min_units: int, workers: int, *args) -> list:
    """[span(model, lo, hi, *args)] for spans that cover units 0 .. units-1,
    in span order.

    Where ``processes = min(workers, usable_cpus(), units // min_units)`` is
    at least 2 and forking is safe, the units split into that many spans:
    the caller forks a child for each span but the first (``_Child``), runs
    span 0 itself, then reads the children's results in span order. Each
    child inherits the loaded model as memory, and only its bounds and its
    pickled outcome pass between it and the caller. Forking never
    re-imports the caller's ``__main__``, so a script without a ``__main__``
    guard still works. Where a span fails, the earliest one raises, and the
    children not yet read are killed; every child is reaped, so none
    outlives the call. Otherwise the units run as one span: in the caller's
    thread at ``workers=1``, and else in one pool thread, off the caller's
    thread, as the traced two-worker simulation in ``perfbench/tests``
    expects.
    """
    processes = min(workers, usable_cpus(), units // min_units)
    if processes > 1 and _fork_is_safe():
        bounds = [round(i * units / processes) for i in range(processes + 1)]
        children = _fork_spans(span, model, bounds, args)
        try:
            first = span(model, 0, bounds[1], *args)
            return [first] + [child.result() for child in children]
        finally:
            for child in children:
                child.end()
    if workers == 1:
        return [span(model, 0, units, *args)]
    # imported here, so that a process that never takes this hop never
    # loads concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        return [pool.submit(span, model, 0, units, *args).result()]
