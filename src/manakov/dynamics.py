"""Floating-point corroboration: integrate the rigid-body momentum flow and
measure drift of the conserved quantities along trajectories.

This is a sanity layer, not a dynamics product: classical RK4 over binary64
with re-skew-symmetrization each step, checked against the exact engines
elsewhere in the package.  numpy is imported by the functions that build or
step arrays, so importing the package (and every exact command) never loads
it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from .son import MomentSpec, pair_list


@dataclass
class FlowState:
    n: int
    p: np.ndarray  # dense skew matrix, binary64
    t: float
    lambdas: np.ndarray

    @classmethod
    def from_spec(cls, spec: MomentSpec, p0, t=0.0):
        import numpy as np

        lam = np.array([float(v) for v in spec.lambdas])
        p = np.asarray(p0, dtype=float)
        return cls(n=spec.n, p=_skew_part(p), t=t, lambdas=lam)


def _skew_part(m):
    return (m - m.T) / 2.0


def _rhs_tables(lambdas: np.ndarray):
    """The moment tables of the right-hand side: 1/(l_i+l_j) and -(l_i-l_j)."""
    import numpy as np

    return 1.0 / np.add.outer(lambdas, lambdas), -np.subtract.outer(lambdas, lambdas)


def _rhs(p, tables):
    w, neg_diff = tables
    q = p * w
    return neg_diff * (q @ q)


def euler_rhs(p: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """dP_ij/dt = -(l_i - l_j) sum_k P_ik P_kj / ((l_i+l_k)(l_k+l_j)).

    Vanishes identically when all moments coincide; the matrix form uses the
    elementwise-weighted square Q = P/(l_i+l_j), giving -(l_i-l_j) (Q^2)_ij.
    """
    return _rhs(p, _rhs_tables(lambdas))


def rk4_step(p, tables, dt):
    """One RK4 step; ``tables`` is ``_rhs_tables(lambdas)``, built once per
    trajectory."""
    k1 = _rhs(p, tables)
    k2 = _rhs(p + 0.5 * dt * k1, tables)
    k3 = _rhs(p + 0.5 * dt * k2, tables)
    k4 = _rhs(p + dt * k3, tables)
    out = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return _skew_part(out)


def integrate(state: FlowState, dt, steps, stride=1):
    """Deterministic RK4 trajectory; samples every ``stride`` steps
    (the initial state is always included)."""
    import numpy as np

    if dt <= 0:
        raise ValueError("need dt > 0")
    p = state.p.copy()
    t = state.t
    samples = [(t, p.copy())]
    tables = _rhs_tables(state.lambdas)
    # overflow is detected explicitly below, not via numpy warnings
    with np.errstate(all="ignore"):
        for step in range(1, steps + 1):
            p = rk4_step(p, tables, dt)
            t = state.t + step * dt
            if not np.all(np.isfinite(p)):
                raise FloatingPointError(f"non-finite state at step {step}")
            if step % stride == 0:
                samples.append((t, p.copy()))
    return samples


def _float_terms(poly):
    """The terms of a momentum polynomial as (binary64 coefficient, [(variable,
    exponent)] over its nonzero exponents), converted once per polynomial."""
    return [(float(coef), [(k, e) for k, e in enumerate(mono) if e]) for mono, coef in poly.terms.items()]


def _evaluate(terms, p: np.ndarray):
    n = p.shape[0]
    values = [p[i - 1, j - 1] for (i, j) in pair_list(n)]
    total = 0.0
    for coef, factors in terms:
        v = coef
        for k, e in factors:
            v *= values[k] ** e
        total += v
    return total


def evaluate_invariant(poly, p: np.ndarray):
    """Evaluate a momentum polynomial (rational coefficients) in binary64."""
    return _evaluate(_float_terms(poly), p)


def conservation_report(samples, invariants):
    """Max relative drift per invariant: |I(t) - I(0)| / max(1, |I(0)|)."""
    out = []
    for poly in invariants:
        terms = _float_terms(poly)
        base = _evaluate(terms, samples[0][1])
        scale = max(1.0, abs(base))
        drift = max(abs(_evaluate(terms, p) - base) for _, p in samples) / scale
        out.append(drift)
    return out


def write_trajectory_csv(path, samples, invariants=None, invariant_names=None):
    """CSV export: t, momentum components in pair order, then invariants."""
    n = samples[0][1].shape[0]
    pairs = pair_list(n)
    header = ["t"] + [f"P_{i}_{j}" for (i, j) in pairs]
    invariants = [_float_terms(f) for f in invariants or []]
    header += list(invariant_names or [f"inv{k}" for k in range(1, len(invariants) + 1)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, p in samples:
            row = [repr(float(t))] + [repr(float(p[i - 1, j - 1])) for (i, j) in pairs]
            row += [repr(float(_evaluate(f, p))) for f in invariants]
            writer.writerow(row)


def write_drift_json(path, names, drifts, config):
    with open(path, "w") as fh:
        json.dump(
            {"config": config, "drift": {nm: d for nm, d in zip(names, drifts)}},
            fh,
            indent=2,
            sort_keys=True,
        )


def default_initial_momentum(n, rng, scale=1.0):
    """A generic skew seed, reproducible from the rng.

    ``scale`` sets the momentum magnitude; convergence studies use large
    values so RK4 truncation error dominates binary64 roundoff.
    """
    import numpy as np

    m = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    return _skew_part(m) * scale

