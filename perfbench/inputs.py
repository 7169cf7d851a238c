"""Workload inputs, generated from the benchmark seed alone.

``build(workload, seed)`` returns the model laws the CLI reads, the
description of each law's exact reference, and the ordered list of ops
one workload pass runs. Zipf-Mandelbrot laws and their rounding to a
population are computed here rather than by the package, so a change to
the package cannot change what the benchmark feeds it.

The seed assigns the Mandelbrot probabilities to type labels in a seeded
order, draws the ``weighted_distinct`` integer weights and picks the
``oracle-mix`` simulation seeds; ``simulate`` passes the seed itself.
Sizes and laws are fixed per workload, so every seed asks for the same
amount of work.
"""

import math
import random

WORKLOADS = ("exact-count", "exact-explicit", "simulate", "oracle-mix")

MANDELBROT_C = 0.30
MANDELBROT_THETA = 1.75
POPULATION = 1000
MAX_WEIGHT = 100  # weighted_distinct integer weights are drawn from 1..MAX_WEIGHT
MIX_M = 12
MIX_G = 3
MIX_TRIALS = 20_000


def _mandelbrot(m: int) -> list[float]:
    raw = [(MANDELBROT_C + i) ** -MANDELBROT_THETA for i in range(1, m + 1)]
    total = math.fsum(raw)
    return [r / total for r in raw]


def _population(m: int) -> list[int]:
    """Mandelbrot proportions rounded to POPULATION individuals, each type >= 1.

    The rounding slack goes to the most common type (rank 1).
    """
    counts = [max(1, round(POPULATION * p)) for p in _mandelbrot(m)]
    counts[0] += POPULATION - sum(counts)
    return counts


def _shuffled(values, rng: random.Random) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.models = {}
        self.refs = {}
        self.ops = []

    def without_replacement(self, name, m, g):
        counts = _shuffled(_population(m), self.rng)
        self.models[name] = {"model": "without_replacement", "g": g, "counts": counts}
        self.refs[name] = {"kind": "urn", "counts": counts, "g": g, "replace": False}

    def iid_within_group(self, name, m, g):
        # p = counts / N: i.i.d. draws with replacement from the rounded
        # population, a count-statistic law with an exact reference.
        counts = _shuffled(_population(m), self.rng)
        p = [c / POPULATION for c in counts]
        self.models[name] = {"model": "iid_within_group", "g": g, "p": p}
        self.refs[name] = {"kind": "urn", "counts": counts, "g": g, "replace": True}

    def uniform_distinct(self, name, m, g):
        self.models[name] = {"model": "uniform_distinct", "g": g, "m": m}
        self.refs[name] = {"kind": "uniform", "m": m, "g": g}

    def weighted_distinct(self, name, m, g):
        weights = [self.rng.randint(1, MAX_WEIGHT) for _ in range(math.comb(m, g))]
        total = sum(weights)
        self.models[name] = {
            "model": "weighted_distinct",
            "g": g,
            "q": [w / total for w in weights],
        }
        self.refs[name] = {"kind": "weighted", "m": m, "g": g, "weights": weights}

    def draft_lottery(self, name, m, g):
        p = _shuffled(_mandelbrot(m), self.rng)
        self.models[name] = {"model": "draft_lottery", "g": g, "p": p}
        self.refs[name] = {"kind": "draft", "p": p, "g": g}

    def exact(self, name):
        self.ops.append({"id": f"{name}.exact", "kind": "exact", "model": name})

    def chain(self, name):
        self.ops.append({"id": f"{name}.chain", "kind": "chain", "model": name})

    def simulate(self, name, trials=None, seed=None):
        """A CLI ``simulate`` op; ``trials=None`` keeps the CLI's default."""
        op = {"id": f"{name}.simulate", "kind": "simulate", "model": name}
        if trials is not None:
            op["trials"] = trials
        op["seed"] = self.rng.randrange(1 << 32) if seed is None else seed
        self.ops.append(op)

    def spec(self) -> dict:
        return {"models": self.models, "refs": self.refs, "ops": self.ops}


def build(workload: str, seed: int) -> dict:
    """Models, reference descriptions and ops of one workload for ``seed``."""
    b = _Builder(workload, seed)
    if workload == "exact-count":
        b.without_replacement("wor24", 24, 2)
        b.iid_within_group("iid22", 22, 3)
        b.uniform_distinct("ud22", 22, 4)
        for name in ("wor24", "iid22", "ud22"):
            b.exact(name)
    elif workload == "exact-explicit":
        b.weighted_distinct("wd24", 24, 2)
        b.draft_lottery("dl22", 22, 3)
        for name in ("wd24", "dl22"):
            b.exact(name)
    elif workload == "simulate":
        b.without_replacement("wor20", 20, 2)
        b.simulate("wor20", seed=seed)
    elif workload == "oracle-mix":
        b.uniform_distinct("ud12", MIX_M, MIX_G)
        b.weighted_distinct("wd12", MIX_M, MIX_G)
        b.iid_within_group("iid12", MIX_M, MIX_G)
        b.without_replacement("wor12", MIX_M, MIX_G)
        b.draft_lottery("dl12", MIX_M, MIX_G)
        for name in ("ud12", "wd12", "iid12", "wor12", "dl12"):
            b.exact(name)
            b.chain(name)
            b.simulate(name, MIX_TRIALS)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return b.spec()

