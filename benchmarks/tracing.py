"""Per-layer tracing from outside the program.

A probe wraps one public function or method of the manakov package.  The
wrapper is installed wherever the original is bound: on every loaded
``manakov`` module that holds the same object (``from .x import f`` makes a
second binding) and on every attribute of a class that holds it
(``__rmul__ = __mul__``).  Each call is a span; a span's self time is its
duration minus the time covered by the spans it encloses.  Spans are
aggregated in memory per probe and per (caller, callee) edge.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


def _terms(result):
    terms = getattr(result, "terms", None)
    if terms is None:
        terms = getattr(getattr(result, "poly", None), "terms", None)
    return len(terms) if terms is not None else 0


def _nonconstant(result):
    return 0 if result.is_constant() else 1


def _entries(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return m.rows * m.cols


def _steps(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["steps"]


@dataclass(frozen=True)
class Probe:
    """``target`` is 'function' or 'Class.method' inside ``module``; the
    metrics are '<name>.<measure>' for each measure.  ``size`` adds up a
    number per call, from the result (``out``) or from the arguments
    (``args``)."""

    module: str
    target: str
    name: str
    measures: tuple = ("calls", "self_s")
    size: tuple = None  # (measure, "out" | "args", function)


PROBES = (
    Probe("suites", "suite_classical_rigid", "suites.classical_rigid", ("s",)),
    Probe("suites", "suite_quantum_rigid", "suites.quantum_rigid", ("s",)),
    Probe("suites", "rigid_table_rows_verified", "suites.rigid_table_rows_verified", ("s",)),
    Probe("ratfunc", "RationalFunction.__init__", "ratfunc.RationalFunction"),
    Probe(
        "ratfunc",
        "poly_gcd",
        "ratfunc.poly_gcd",
        ("calls", "self_s", "nontrivial_ratio"),
        ("nontrivial", "out", _nonconstant),
    ),
    Probe(
        "ratfunc",
        "MultiPoly.__mul__",
        "ratfunc.MultiPoly.mul",
        ("calls", "self_s", "terms_out"),
        ("terms_out", "out", _terms),
    ),
    Probe("radical", "RadicalElement.__mul__", "radical.RadicalElement.mul"),
    Probe("brackets", "canonical_bracket", "brackets.canonical_bracket"),
    Probe(
        "brackets",
        "lie_poisson_bracket",
        "brackets.lie_poisson_bracket",
        ("calls", "self_s", "terms_out"),
        ("terms_out", "out", _terms),
    ),
    Probe("uea", "pbw_mul", "uea.pbw_mul", ("calls", "self_s", "terms_out"), ("terms_out", "out", _terms)),
    Probe("uea", "obstruction_b", "uea.obstruction_b"),
    Probe("rigid_body", "manakov_coefficient", "rigid_body.manakov_coefficient"),
    Probe("rigid_body", "manakov_integral", "rigid_body.manakov_integral"),
    Probe("linalg", "exact_rank", "linalg.exact_rank", ("calls", "self_s", "entries"), ("entries", "args", _entries)),
    Probe("charts", "jacobian_rank", "charts.jacobian_rank"),
    Probe("son", "ad_kernel_dim", "son.ad_kernel_dim"),
    Probe("central_force", "verify_integrable_set", "central_force.verify_integrable_set"),
    Probe("dynamics", "integrate", "dynamics.integrate", ("self_s", "steps"), ("steps", "args", _steps)),
    Probe("report", "VerificationReport.to_json", "report.to_json", ("self_s",)),
)

OVERHEAD_METRIC = "trace.overhead_s"


def metric_names():
    return [f"{p.name}.{m}" for p in PROBES for m in p.measures] + [OVERHEAD_METRIC]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "size")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.size = 0


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` afterwards."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.stats = {p.name: _Stat() for p in probes}
        self.edges = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, probe, fn):
        stat = self.stats[probe.name]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        name = probe.name
        size_kind, size_fn = (probe.size[1], probe.size[2]) if probe.size else (None, None)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                edges[(parent[1] if parent is not None else None, name)] += 1
            if size_kind == "out":
                stat.size += size_fn(result)
            elif size_kind == "args":
                stat.size += size_fn(args, kwargs)
            return result

        return span

    def _bind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if (k == "manakov" or k.startswith("manakov.")) and m]
        for probe in self.probes:
            home = sys.modules[f"manakov.{probe.module}"]
            if "." in probe.target:
                cls_name, meth = probe.target.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(probe, original)
                for attr, value in list(cls.__dict__.items()):
                    if value is original:
                        self._bind(cls, attr, wrapper)
            else:
                original = getattr(home, probe.target)
                wrapper = self._wrap(probe, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self):
        out = {}
        for probe in self.probes:
            st = self.stats[probe.name]
            values = {
                "calls": (st.calls, "count"),
                "self_s": (st.self_s, "s"),
                "s": (st.total_s, "s"),
            }
            if probe.size:
                measure = probe.size[0]
                if measure == "nontrivial":
                    values["nontrivial_ratio"] = (st.size / st.calls if st.calls else 0.0, "ratio")
                else:
                    values[measure] = (st.size, "count")
            for m in probe.measures:
                value, unit = values[m]
                out[f"{probe.name}.{m}"] = {"value": value, "unit": unit}
        return out

    def summary(self):
        """Everything recorded, for the trace file."""
        return {
            "layers": {
                name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s, "size": st.size}
                for name, st in self.stats.items()
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls}
                for (caller, callee), calls in sorted(self.edges.items(), key=lambda kv: -kv[1])
            ],
        }
