import csv
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from manakov.brackets import LiePoissonPoly, lie_poisson_bracket
from manakov.dynamics import (
    _rhs,
    _rhs_tables,
    FlowState,
    conservation_report,
    default_initial_momentum,
    integrate,
    write_drift_json,
    write_trajectory_csv,
)
from manakov.rigid_body import ManakovIndex, hamiltonian, manakov_integral
from manakov.son import MomentSpec, pair_list
from oracles import exact_rhs_reference


def euler_rhs(p, lambdas):
    """dP/dt at p by the kernel the RK4 steps call."""
    return _rhs(p, _rhs_tables(lambdas))


def spec4():
    return MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4)))


def test_rhs_vanishes_for_equal_moments():
    lam = np.array([2.0, 2.0, 2.0])
    p = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    assert np.allclose(euler_rhs(p, lam), 0.0)


def test_single_plane_momentum_is_equilibrium():
    lam = np.array([1.0, 2.0, 3.0])
    p = np.zeros((3, 3))
    p[0, 1], p[1, 0] = 1.0, -1.0
    assert np.allclose(euler_rhs(p, lam), 0.0)


def test_rhs_matches_exact_reference():
    rng = random.Random(3)
    n = 4
    spec = spec4()
    p_exact = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            p_exact[i][j] = v
            p_exact[j][i] = -v
    ref = exact_rhs_reference(p_exact, spec)
    p_float = np.array([[float(v) for v in row] for row in p_exact])
    got = euler_rhs(p_float, np.array([1.0, 2.0, 3.0, 4.0]))
    for i in range(n):
        for j in range(n):
            expected = float(ref[i][j])
            scale = max(1.0, abs(expected))
            assert abs(got[i, j] - expected) / scale < 1e-13


def test_rhs_matches_poisson_bracket():
    # dP_ij/dt = {P_ij, H}: the closed form against the exact bracket engine
    rng = random.Random(5)
    n = 4
    spec = spec4()
    h = hamiltonian(spec)
    p_exact = [[Fraction(0)] * n for _ in range(n)]
    vals = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            p_exact[i][j], p_exact[j][i] = v, -v
            vals[(i + 1, j + 1)] = v
    ref = exact_rhs_reference(p_exact, spec)
    coords = [vals[p] for p in pair_list(n)]
    for k, (i, j) in enumerate(pair_list(n)):
        br = lie_poisson_bracket(LiePoissonPoly.gen(n, (i, j)), h)
        assert br.eval(coords) == ref[i - 1][j - 1]


def test_zero_momentum_is_constant():
    spec = spec4()
    state = FlowState.from_spec(spec, np.zeros((4, 4)))
    samples = integrate(state, 1e-2, 100, stride=10)
    for _, p in samples:
        assert np.allclose(p, 0.0)


def test_skewness_maintained():
    rng = random.Random(7)
    spec = spec4()
    p0 = default_initial_momentum(4, rng, scale=5.0)
    samples = integrate(FlowState.from_spec(spec, p0), 1e-3, 500, stride=50)
    for _, p in samples:
        assert np.allclose(p, -p.T)


def test_invariants_conserved_and_negative_control():
    rng = random.Random(9)
    spec = spec4()
    p0 = default_initial_momentum(4, rng, scale=1.0)
    samples = integrate(FlowState.from_spec(spec, p0), 1e-3, 2000, stride=100)
    invs = [hamiltonian(spec)] + [
        manakov_integral(ManakovIndex(k, l), 4, spec) for (k, l) in [(2, 1), (4, 2), (3, 1), (4, 1)]
    ]
    drifts = conservation_report(samples, invs)
    assert max(drifts) < 1e-9
    control = LiePoissonPoly.gen(4, (1, 2))
    (bad,) = conservation_report(samples, [control])
    assert bad > 1e-3


def test_fourth_order_convergence():
    rng = random.Random(4)
    spec = spec4()
    p0 = default_initial_momentum(4, rng, scale=80.0)
    state = FlowState.from_spec(spec, p0)
    invs = [hamiltonian(spec), manakov_integral(ManakovIndex(3, 1), 4, spec)]
    coarse = conservation_report(integrate(state, 1e-3, 2000, stride=100), invs)
    fine = conservation_report(integrate(state, 5e-4, 4000, stride=200), invs)
    for a, b in zip(coarse, fine):
        assert 12 <= a / b <= 20


def test_nonfinite_detection():
    spec = MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3)))
    p0 = default_initial_momentum(3, random.Random(1), scale=1e150)
    with pytest.raises(FloatingPointError):
        integrate(FlowState.from_spec(spec, p0), 10.0, 50)


def test_csv_and_json_export(tmp_path):
    rng = random.Random(11)
    spec = spec4()
    p0 = default_initial_momentum(4, rng, scale=2.0)
    samples = integrate(FlowState.from_spec(spec, p0), 1e-2, 20, stride=5)
    h = hamiltonian(spec)
    csv_path = tmp_path / "traj.csv"
    write_trajectory_csv(csv_path, samples, [h], ["H"])
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "P_1_2", "P_1_3", "P_1_4", "P_2_3", "P_2_4", "P_3_4", "H"]
    assert len(rows) == 1 + len(samples)
    # locale-independent floats: repr round-trips
    val = float(rows[1][1])
    assert val == samples[0][1][0, 1]
    j_path = tmp_path / "drift.json"
    write_drift_json(j_path, ["H"], [1.5e-9], {"n": 4})
    data = json.loads(j_path.read_text())
    assert data["drift"]["H"] == 1.5e-9
