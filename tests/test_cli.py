import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/manakov/schema/report.schema.json").read_text()
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "manakov.cli", *args], capture_output=True, text=True, timeout=600
    )


def test_usage_error_exit_code():
    r = run_cli("verify", "classical-rigid")  # missing --n
    assert r.returncode == 2
    r2 = run_cli("verify", "classical-rigid", "--n", "4", "--lambda", "1,2", "--q", "1,3")
    assert r2.returncode == 2
    r3 = run_cli("verify", "quantum-rigid", "--n", "7")
    assert r3.returncode == 2
    r4 = run_cli("tables", "central-force", "--n", "6")
    assert r4.returncode == 2


def test_tables_central_force_json():
    # with no rank points (--points 0) every row's involution is still checked
    for extra in ((), ("--points", "0")):
        r = run_cli("tables", "central-force", "--n", "4", "--format", "json", *extra)
        assert r.returncode == 0
        rows = json.loads(r.stdout)
        assert len(rows) == 4
        assert all(set(row) >= {"set", "k"} for row in rows)
        assert [row["k"] for row in rows] == [2, 3, 4, 4]


def test_tables_rigid_body_markdown():
    r = run_cli("tables", "rigid-body", "--max-n", "4", "--format", "markdown")
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("|")]
    assert len(lines) == 2 + 3 + 5  # header rows + n=3 rows + n=4 rows
    assert "FAIL" not in r.stdout


def test_verify_report_schema_and_determinism():
    args = ("verify", "classical-rigid", "--n", "3", "--q", "1,2", "--seed", "11")
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical for fixed config and seed
    report = json.loads(r1.stdout)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True
    assert report["config"]["seed"] == 11


def test_verify_markdown_roundtrip():
    args = ("verify", "classical-rigid", "--n", "3", "--q", "3", "--seed", "2")
    j = run_cli(*args)
    m = run_cli(*args, "--format", "markdown")
    assert m.returncode == 0
    report = json.loads(j.stdout)
    # every check id from the JSON representation appears in the markdown
    for check in report["checks"]:
        assert check["id"].split("/")[0] in m.stdout or check["id"] in m.stdout


def test_verify_quantum_rigid_small():
    r = run_cli(
        "verify", "quantum-rigid", "--n", "3", "--lambda", "1,2,3", "--mode", "sampled",
        "--samples", "1", "--seed", "3",
    )
    assert r.returncode == 0
    report = json.loads(r.stdout)
    jsonschema.validate(report, SCHEMA)
    ids = [c["id"] for c in report["checks"]]
    assert any("[H , c3,1]" in i for i in ids)


def test_verify_classical_rigid_n6():
    # the full n = 6 classical scope, assembled set and central brackets included
    r = run_cli("verify", "classical-rigid", "--n", "6", "--seed", "0", "--format", "json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    jsonschema.validate(report, SCHEMA)
    assert {c["status"] for c in report["checks"]} <= {"pass", "generic-point-certificate"}
    ids = {c["id"] for c in report["checks"]}
    assert {"rigid/assembled set", "rigid/assembled central brackets", "rigid/{c6,4,c6,2}"} <= ids


def test_verify_quantum_central_n5():
    from manakov.cli import main

    assert main(["verify", "quantum-central", "--n", "5"]) == 0


def test_simulate_roundtrip(tmp_path):
    out = tmp_path / "run"
    r = run_cli(
        "simulate", "--n", "3", "--lambda", "1,2,3", "--t-end", "1", "--dt", "1e-3",
        "--output-dir", str(out), "--seed", "5",
    )
    assert r.returncode == 0
    drift = json.loads((out / "drift.json").read_text())
    assert all(v < 1e-6 for v in drift["drift"].values())
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,P_1_2,P_1_3,P_2_3")
    # equal moments: zero dynamics, zero drift
    out2 = tmp_path / "run2"
    r2 = run_cli(
        "simulate", "--n", "3", "--lambda", "2,2,2", "--t-end", "1", "--dt", "1e-2",
        "--output-dir", str(out2),
    )
    assert r2.returncode == 0
    drift2 = json.loads((out2 / "drift.json").read_text())
    assert all(v == 0.0 for v in drift2["drift"].values())


def test_simulate_unachievable_tolerance(tmp_path):
    r = run_cli(
        "simulate", "--n", "3", "--lambda", "1,2,3", "--t-end", "1", "--dt", "1e-3",
        "--tolerance", "1e-30", "--output-dir", str(tmp_path / "x"), "--seed", "5",
    )
    assert r.returncode == 1


def test_simulate_rejects_bad_parameters(tmp_path):
    r = run_cli("simulate", "--n", "3", "--lambda", "1,2,3", "--dt", "-1")
    assert r.returncode == 2
    r2 = run_cli("simulate", "--n", "3", "--lambda", "1,2")
    assert r2.returncode == 2
    r3 = run_cli("simulate", "--n", "3", "--lambda", "1,-2,3")
    assert r3.returncode == 2


@pytest.mark.parametrize(
    "extra",
    [
        ("--t-end", "inf"),
        ("--t-end", "nan"),
        ("--dt", "nan"),
        ("--dt", "inf"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--t-end=-inf",),
    ],
)
def test_simulate_rejects_non_finite_parameters(tmp_path, capsys, extra):
    # an infinite end time once overflowed the step count with a traceback
    from manakov.cli import main

    out = tmp_path / "run"
    assert main(["simulate", "--n", "3", "--lambda", "1,2,3", *extra, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert not out.exists()


def test_verify_all_needs_exploratory_beyond_n6(monkeypatch, capsys):
    # `all` runs the quantum-rigid battery at n, so it takes the same guard
    from manakov import cli, suites

    def unreachable(*args, **kwargs):
        raise AssertionError("the suite ran without --exploratory")

    monkeypatch.setattr(suites, "suite_all", unreachable)
    monkeypatch.setattr(suites, "suite_quantum_rigid", unreachable)
    assert cli.main(["verify", "all", "--n", "7"]) == 2
    captured = capsys.readouterr()
    assert "--exploratory" in captured.err and captured.out == ""


def test_simulate_rejects_fewer_steps_than_one_stride(tmp_path):
    # only the t = 0 sample would exist, and its drift against itself is 0
    for extra in (("--t-end", "0.0004", "--dt", "0.001"), ("--t-end", "0.01", "--dt", "0.001", "--stride", "100")):
        out = tmp_path / "run"
        r = run_cli("simulate", "--n", "4", "--lambda", "1,2,3,4", *extra, "--output-dir", str(out))
        assert r.returncode == 2
        assert "no step would be sampled" in r.stderr
        assert not out.exists()


def test_tables_reject_negative_points():
    for which in (("central-force", "--n", "4"), ("rigid-body", "--max-n", "3")):
        r = run_cli("tables", *which, "--points", "-2")
        assert r.returncode == 2
        assert "--points" in r.stderr
        assert r.stdout == ""


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "0.1.0" in r.stdout


def test_zero_samples_rejected():
    # zero samples would drop the whole commutator battery and still pass
    r = run_cli("verify", "quantum-rigid", "--n", "4", "--mode", "sampled", "--samples", "0")
    assert r.returncode == 2
    assert "sample" in r.stderr
    assert r.stdout == ""


def test_rigid_scopes_reject_small_n():
    # so(1) and so(2) would pass every rigid-body check vacuously
    for scope in ("classical-rigid", "quantum-rigid"):
        for n in ("1", "2"):
            r = run_cli("verify", scope, "--n", n)
            assert r.returncode == 2
            assert "n >= 3" in r.stderr
            assert r.stdout == ""


@pytest.mark.parametrize("n, lambdas", [("0", ""), ("1", "1"), ("2", "1,2")])
def test_simulate_rejects_small_n(tmp_path, n, lambdas):
    # H vanishes for n < 2 and the flow is constant at n = 2: the drift
    # would read 0 whatever the integrator did
    out = tmp_path / "run"
    r = run_cli("simulate", "--n", n, "--lambda", lambdas, "--output-dir", str(out))
    assert r.returncode == 2
    assert "n >= 3" in r.stderr
    assert r.stdout == ""
    assert not out.exists()


def test_sampled_classical_rigid_draws_the_samples_after_given_moments(monkeypatch, tmp_path):
    # the given moments are the first sample and the others are drawn, as in
    # quantum-rigid; the battery once ran on the given moments every time
    from manakov import cli, suites

    seen = []
    real = suites.verify_involution_family

    def record(n, spec, report=None):
        seen.append(spec.lambdas)
        return real(n, spec, report=report)

    monkeypatch.setattr(suites, "verify_involution_family", record)
    argv = ["verify", "classical-rigid", "--n", "4", "--mode", "sampled", "--lambda", "1,2,3,5"]
    argv += ["--output", str(tmp_path / "report.json")]
    assert cli.main(argv + ["--samples", "3"]) == 0
    assert len(seen) == 3 and seen[0] == (1, 2, 3, 5) and len(set(seen)) == 3
    seen.clear()
    assert cli.main(argv + ["--samples", "1"]) == 0
    assert seen == [(1, 2, 3, 5)]


def test_zero_denominator_is_a_usage_error():
    r = run_cli("verify", "classical-rigid", "--n", "4", "--lambda", "1/0,2,3,4")
    assert r.returncode == 2
    assert "zero denominator" in r.stderr
    assert "Traceback" not in r.stderr


def test_timings_are_real_and_default_output_is_unchanged():
    args = ("verify", "quantum-rigid", "--n", "4", "--seed", "1")
    plain = run_cli(*args)
    timed = run_cli(*args, "--timings")
    assert plain.returncode == timed.returncode == 0
    assert "elapsed_s" not in plain.stdout
    report = json.loads(timed.stdout)
    jsonschema.validate(report, SCHEMA)
    times = [c.pop("elapsed_s") for c in report["checks"]]
    assert all(t >= 0 for t in times)
    assert sum(times) > 0
    # apart from the times, the timed report is the default report
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == plain.stdout


def test_quantum_central_rejects_n_below_2():
    # a one-dimensional particle has no angular momenta: every check would
    # pass vacuously
    r = run_cli("verify", "quantum-central", "--n", "1")
    assert r.returncode == 2
    assert "n >= 2" in r.stderr
    assert r.stdout == ""


def test_rigid_body_table_rejects_unverifiable_input():
    # an empty table, or rows checked against no sampled point, verify nothing
    r = run_cli("tables", "rigid-body", "--max-n", "2", "--format", "json")
    assert r.returncode == 2
    assert "start at n = 3" in r.stderr
    assert r.stdout == ""
    r = run_cli("tables", "rigid-body", "--max-n", "3", "--points", "0")
    assert r.returncode == 2
    assert "at least one sampled point" in r.stderr
    assert "disagree" not in r.stderr and r.stdout == ""
