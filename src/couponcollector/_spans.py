"""How a call's work runs: the one place that splits it into spans.

Both the simulator's trials and the exact engine's lattice blocks are
independent units whose results do not depend on how they are grouped, so
one runner decides, for either, whether they run as one span or in forked
processes.
"""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fork_is_safe() -> bool:
    """Whether forking this process cannot deadlock a child: no other Python
    thread runs (so none can hold a lock across the fork), and the platform
    is not macOS, where system libraries are not fork-safe."""
    return sys.platform != "darwin" and threading.active_count() == 1


# The work every span of a forked call shares, (span, model, args), set in
# each child by its pool's initializer: ``fork`` hands it over as the
# parent's memory, without pickling the model
_span_work = None


def _share_span_work(span, model, args):
    global _span_work
    _span_work = span, model, args


def _forked_span(lo: int, hi: int):
    span, model, args = _span_work
    return span(model, lo, hi, *args)


def _run_spans(span, model, units: int, min_units: int, workers: int, *args) -> list:
    """[span(model, lo, hi, *args)] for spans that cover units 0 .. units-1,
    in span order.

    Where ``processes = min(workers, usable_cpus(), units // min_units)`` is
    at least 2, forking is safe and ``fork`` is available, the units split
    into that many spans: the caller runs span 0 itself and a pool of
    ``processes - 1`` forked processes runs the others, one each. ``fork``
    (not ``spawn`` or ``forkserver``) inherits the loaded model, which the
    pool's initializer hands to each child unpickled, and never re-imports
    the caller's ``__main__``, so a script without a ``__main__`` guard still
    works. Only the span bounds cross to the children. The results are read
    in span order, the caller's first, so where spans fail the earliest one
    raises. Otherwise the units run as one span: in the caller's thread at
    ``workers=1``, and else in one pool thread, off the caller's thread, as
    the traced two-worker simulation in ``perfbench/tests`` expects.
    """
    processes = min(workers, usable_cpus(), units // min_units)
    if processes > 1 and _fork_is_safe():
        import multiprocessing  # only here: it costs start-up time on import

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            bounds = [round(i * units / processes) for i in range(processes + 1)]
            with ProcessPoolExecutor(
                processes - 1,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_share_span_work,
                initargs=(span, model, args),
            ) as pool:
                futures = [
                    pool.submit(_forked_span, lo, hi)
                    for lo, hi in zip(bounds[1:-1], bounds[2:])
                ]
                first = span(model, 0, bounds[1], *args)
                return [first] + [future.result() for future in futures]
    if workers == 1:
        return [span(model, 0, units, *args)]
    with ThreadPoolExecutor(max_workers=1) as pool:
        return [pool.submit(span, model, 0, units, *args).result()]
