"""Spans around the package's public entry points, installed from outside.

``Tracer.install()`` replaces module and class attributes of the package
with timing wrappers; ``restore()`` puts the originals back. No file of
the package is edited. Spans (name, start, end, parent, op id and the
counts taken at that boundary) stay in memory until ``write``.

A span's self time is its duration minus that of its direct children.
A call made in a pool thread (``simulate_collection`` with workers > 1)
has no span of its own thread above it; its parent is the innermost
open span of the thread that installed the wrappers, which is blocked
waiting for the pool. Such work counts at its share: when a span's
children run in k threads other than its own, each of those children
and everything under them counts 1/k of its duration, so the shares of
k threads running side by side add up to the wall time they took.
Layer metrics are self times, so they partition the traced time:

- ``philox.uniform_span_s``: Philox block generation;
- ``models.draw_groups_s.<model>``: mapping uniforms to group masks;
- ``oracle.lockstep_self_s``: ``simulate_collection`` minus the two above;
- ``oracle.chain_s``: the absorbing-chain solve;
- ``models.avoidance_table_s.<model>``: the q(S) table, minus the lattice
  helpers it calls, which are ``bits.subset_sums_s`` / ``bits.subset_zeta_s``;
- ``engine.sum_s``: ``inclusion_exclusion_expectation`` minus its table;
- ``cli.self_s``: ``cli.main`` minus the engine and oracle calls.
"""

import json
import threading
import time

SHORT_NAMES = {
    "UniformDistinct": "ud",
    "WeightedDistinct": "wd",
    "IidWithinGroup": "iid",
    "WithoutReplacement": "wor",
    "DraftLottery": "dl",
}

# span name -> metric that accumulates its self time
TIME_METRICS = {
    "philox.uniform_span": "philox.uniform_span_s",
    "oracle.simulate_collection": "oracle.lockstep_self_s",
    "oracle.chain_expectation": "oracle.chain_s",
    "bits.subset_sums": "bits.subset_sums_s",
    "bits.subset_zeta": "bits.subset_zeta_s",
    "engine.inclusion_exclusion_expectation": "engine.sum_s",
    "cli.main": "cli.self_s",
}
for _short in SHORT_NAMES.values():
    TIME_METRICS[f"models.draw_groups.{_short}"] = f"models.draw_groups_s.{_short}"
    TIME_METRICS[f"models.avoidance_table.{_short}"] = (
        f"models.avoidance_table_s.{_short}"
    )

COUNT_METRICS = (
    "philox.blocks",
    "models.groups_drawn",
    "oracle.passes",
    "oracle.uniforms_generated",
    "oracle.uniforms_used",
    "oracle.chain_states",
    "engine.terms",
)


def _uniform_span_counts(args, kwargs, result):
    _seed, trials, first, count = args
    blocks_per_trial = ((first + count - 1) >> 2) - (first >> 2) + 1
    return {
        "philox.blocks": len(trials) * blocks_per_trial,
        "oracle.uniforms_generated": int(result.size),
        "oracle.passes": 1,
    }


def _draw_counts(args, kwargs, result):
    return {"models.groups_drawn": int(result.shape[0])}


def _simulate_counts(args, kwargs, result):
    model = args[0]
    draws = round(result.mean * result.trials)  # the mean is an exact sum / trials
    return {"oracle.uniforms_used": draws * model.uniforms_per_group}


def _chain_counts(args, kwargs, result):
    return {"oracle.chain_states": int(result.state_values.size)}


def _engine_counts(args, kwargs, result):
    m = args[0].m
    return {
        "engine.terms": result.terms_evaluated,
        "engine.cancellation_ratio": result.cancellation_ratio,
        "engine.table_bytes": 8 << m,  # one float64 q(S) table, computed from 2**m
    }


class Tracer:
    """Collects spans from wrappers installed on the package's entry points."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the op being run, stamped on each span
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = None  # span stack of the thread that ran install()
        self._patches = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        """Ids of the spans open in the calling thread, innermost last."""
        return self._local.__dict__.setdefault("stack", [])

    def _wrap(self, owner, attr, name, counter=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread starts with an empty stack: its work belongs to
            # the span that submitted it, open in the installing thread
            parents = stack or tracer._owner_stack
            span = {
                "name": name,
                "op": tracer.op,
                "parent": parents[-1] if parents else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter() - tracer._t0,
            }
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span_id)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter() - tracer._t0
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap the entry points of every layer. Call ``restore`` afterwards."""
        from couponcollector import cli, engine, models, oracle

        self._owner_stack = self._stack()
        self._wrap(oracle, "uniform_span", "philox.uniform_span", _uniform_span_counts)
        for cls_name, short in SHORT_NAMES.items():
            cls = getattr(models, cls_name)
            self._wrap(cls, "draw_groups", f"models.draw_groups.{short}", _draw_counts)
            self._wrap(cls, "avoidance_table", f"models.avoidance_table.{short}")
        self._wrap(models, "subset_sums", "bits.subset_sums")
        self._wrap(models, "subset_zeta", "bits.subset_zeta")
        for module in (engine, cli):  # cli holds its own reference to each
            self._wrap(
                module,
                "inclusion_exclusion_expectation",
                "engine.inclusion_exclusion_expectation",
                _engine_counts,
            )
        for module in (oracle, cli):
            self._wrap(
                module,
                "simulate_collection",
                "oracle.simulate_collection",
                _simulate_counts,
            )
        self._wrap(oracle, "chain_expectation", "oracle.chain_expectation", _chain_counts)
        self._wrap(cli, "main", "cli.main")

    def restore(self):
        """Put back every attribute ``install`` replaced, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, **span}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Durations are weighted by the thread share described in the module
    docstring, so the self times of one tree add up to its root's duration.
    """
    # distinct threads, other than the parent's own, that each span's children ran in
    pool_threads = [set() for _ in spans]
    for s in spans:
        parent = s["parent"]
        if parent is not None and s["thread"] != spans[parent]["thread"]:
            pool_threads[parent].add(s["thread"])
    weights = []
    for s in spans:  # a parent is opened, so listed, before its children
        parent = s["parent"]
        if parent is None:
            weights.append(1.0)
        elif s["thread"] == spans[parent]["thread"]:
            weights.append(weights[parent])
        else:
            weights.append(weights[parent] / len(pool_threads[parent]))
    out = [w * (s["end"] - s["start"]) for s, w in zip(spans, weights)]
    for s, weighted in zip(spans, list(out)):
        if s["parent"] is not None:
            out[s["parent"]] -= weighted
    return out


def layer_metrics(spans, ops, passes: int) -> dict:
    """Per-pass layer metrics from the spans of ``passes`` passes over ``ops``.

    Only spans stamped with an op id in ``ops`` count; times and counts are
    totals divided by ``passes``. Ratios are taken over the totals.
    """
    totals = dict.fromkeys(TIME_METRICS.values(), 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    cancellation = table_bytes = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span["op"] not in ops:
            continue
        totals[TIME_METRICS[span["name"]]] += own
        for key, value in span.get("counts", {}).items():
            if key == "engine.cancellation_ratio":
                cancellation = max(cancellation, value)
            elif key == "engine.table_bytes":
                table_bytes = max(table_bytes, value)
            else:
                counts[key] += value
    philox_s = totals["philox.uniform_span_s"]
    generated, used = counts["oracle.uniforms_generated"], counts["oracle.uniforms_used"]
    metrics = {name: value / passes for name, value in totals.items()}
    metrics.update({name: value / passes for name, value in counts.items()})
    metrics["philox.blocks_per_s"] = counts["philox.blocks"] / philox_s if philox_s else 0.0
    metrics["oracle.overdraw_ratio"] = generated / used - 1.0 if used else 0.0
    metrics["engine.cancellation_ratio"] = cancellation
    metrics["engine.table_bytes"] = table_bytes
    return metrics
