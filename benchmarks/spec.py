"""What the benchmark runs and what it reports.

A workload is a list of command lines for ``manakov.cli.main``, built from the
benchmark seed; the program receives the seeded inputs only through
``--lambda`` and ``--seed``.  ``python3 benchmarks/run.py
--write-spec`` writes BENCHMARK.json from the definitions here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import tracing

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 40


@dataclass(frozen=True)
class Op:
    """One command-line invocation and the oracle that checks its output."""

    argv: tuple
    oracle: str
    n: int
    lambdas: tuple = ()
    output_dir: str = ""


def _moments(rng, n, pool):
    """n distinct moments drawn from a fixed pool of small rationals."""
    return [Fraction(v) for v in rng.sample(pool, n)]


def _csv(values):
    return ",".join(str(v) for v in values)


# small rationals with small denominators keep coefficient sizes, and so
# the time per check, alike across seeds
MOMENT_POOL = [Fraction(k, 2) for k in range(1, 25)]


def central_n4(seed, workdir):
    # involution only (--points 0): the sampled rank checks of the
    # central-force scopes fail on some seeds (see README.md)
    argv = ("tables", "central-force", "--n", "4", "--points", "0", "--format", "json", "--seed", str(seed))
    return [Op(argv, "central-tables", 4)]


def rigid_symbolic_n5(seed, workdir):
    return [
        Op(("verify", scope, "--n", "5", "--seed", str(seed)), scope, 5)
        for scope in ("classical-rigid", "quantum-rigid")
    ]


def rigid_sampled(seed, workdir):
    rng = random.Random(seed)
    s = str(seed)
    lam6 = _moments(rng, 6, MOMENT_POOL)
    ops = [
        Op(
            ("verify", "quantum-rigid", "--n", "6", "--samples", "1", "--lambda", _csv(lam6), "--seed", s),
            "quantum-rigid",
            6,
        )
    ]
    for _ in range(3):
        lam5 = _moments(rng, 5, MOMENT_POOL)
        argv = ("verify", "classical-rigid", "--n", "5", "--mode", "sampled", "--samples", "1")
        ops.append(Op(argv + ("--lambda", _csv(lam5), "--seed", s), "classical-rigid", 5))
    ops.append(Op(("tables", "rigid-body", "--max-n", "6", "--format", "json", "--seed", s), "tables", 6))
    lam_sim = _moments(rng, 6, MOMENT_POOL)
    out = f"{workdir}/simulate"
    argv = ("simulate", "--n", "6", "--lambda", _csv(lam_sim), "--seed", s, "--output-dir", out)
    ops.append(Op(argv, "simulate", 6, tuple(lam_sim), out))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object
    pbw_dims: tuple = ()  # so(n) for the pbw_mul homomorphism oracle


WORKLOADS = (
    Workload(
        "central-n4",
        "canonical brackets of the n=4 catalog rows over the radical coefficient field; never touches uea",
        central_n4,
    ),
    Workload(
        "rigid-symbolic-n5",
        "symbolic moments: the same ratfunc layer over lambda feeding lie_poisson_bracket and pbw_mul",
        rigid_symbolic_n5,
        (4, 5),
    ),
    Workload(
        "rigid-sampled",
        "plain Fraction moments: the C6,2 battery, sampled Lie-Poisson brackets, kernel tables and RK4",
        rigid_sampled,
        (4, 5, 6),
    ),
)

END_TO_END = (
    {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
)


def per_layer():
    units = {"calls": "count", "self_s": "s", "s": "s", "terms_out": "count", "entries": "count", "steps": "count"}
    out = []
    for name in tracing.metric_names():
        measure = name.rsplit(".", 1)[1]
        if name == tracing.OVERHEAD_METRIC:
            out.append({"name": name, "unit": "s", "better": "lower"})
        elif measure == "nontrivial_ratio":
            out.append({"name": name, "unit": "ratio", "better": "higher"})
        else:
            out.append({"name": name, "unit": units[measure], "better": "lower"})
    return out


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": list(END_TO_END),
        "per_layer": per_layer(),
    }
