"""Self-test of the benchmark: the form of BENCHMARK.json, planted faults that
every oracle must reject, and a smoke pass of the whole pipeline at reduced
size (traced and untraced).

    python3 benchmarks/selftest.py

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))

FAILURES = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


# -- BENCHMARK.json ------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_benchmark_json():
    path = run.ROOT / "BENCHMARK.json"
    data = json.loads(path.read_text())
    check(data == spec.benchmark_json(), "BENCHMARK.json matches spec.py (regenerate with run.py --write-spec)")
    check(
        set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the required fields",
    )
    check(path.stat().st_size <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    cmd = data["command"]
    check(
        isinstance(cmd, list) and 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd),
        "command is a list of at most 32 short strings",
    )
    check(not any(c.startswith("/") or ".." in c for c in cmd), "command names no absolute path and no '..'")
    paths = data["paths"]
    check(1 <= len(paths) <= 16 and all(PATH.fullmatch(p) and ".." not in p for p in paths), "paths are short relative paths")
    check(all((run.ROOT / p).is_dir() for p in paths), "every path is a directory")
    check(isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60, "run_seconds is a whole number in 1..60")
    names = []
    workloads = data["workloads"]
    check(2 <= len(workloads) <= 8, "2 to 8 workloads")
    for w in workloads:
        names.append(w["name"])
        check(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200, f"workload {w['name']}: name and a one-line why")
    e2e, layers = data["end_to_end"], data["per_layer"]
    check(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(layers) <= 128, "1 to 128 per-layer metrics")
    for m in e2e:
        check(
            set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
            f"end-to-end {m['name']}: unit, direction and a bound in (0, 0.25]",
        )
    for m in layers:
        check(set(m) == {"name", "unit", "better"}, f"per-layer {m['name']}: unit and direction only")
    for m in e2e + layers:
        names.append(m["name"])
        check(bool(NAME.fullmatch(m["name"])) and bool(UNIT.fullmatch(m["unit"])), f"{m['name']}: name and unit characters")
        check(m["better"] in ("lower", "higher"), f"{m['name']}: direction is lower or higher")
    check(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in e2e),
        "setup_s is present, in seconds, lower is better, with the largest bound",
    )
    check([m["name"] for m in layers] == tracing.metric_names(), "per-layer metrics are the traced probes")


# -- planted faults --------------------------------------------------------------------


def cli_output(argv):
    import manakov.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = manakov.cli.main(list(argv))
    return code, buf.getvalue()


def rejects(verdict):
    return bool(verdict.problems)


def accepts(verdict):
    return not verdict.problems


def rename_claim(report, old, new):
    out = copy.deepcopy(report)
    hits = [c for c in out["checks"] if c["id"] == old]
    for c in hits:
        c["id"] = new
    if not hits:
        raise KeyError(f"no check {old!r} to plant a fault in")
    return out


def planted_faults():
    rng = lambda: random.Random(7)  # noqa: E731
    schema = json.loads((run.SRC / "manakov" / "schema" / "report.schema.json").read_text())

    _, text = cli_output(["verify", "classical-central", "--n", "3", "--alpha", "3/2"])
    v, cc = oracles.check_report_contract(text, "classical-central", 3, schema)
    check(accepts(v) and accepts(oracles.check_central_classical(cc, rng())), "classical-central n=3 passes its oracles")
    fault = rename_claim(cc, "n=3 generic rotation-invariant family/involution/{H,P13}", "n=3 generic rotation-invariant family/involution/{P12,P13}")
    check(rejects(oracles.check_central_classical(fault, rng())), "planted {P12,P13} = 0 is rejected by the canonical-bracket oracle")

    bad = json.loads(text)
    bad["checks"][0]["status"] = "fail"
    check(rejects(oracles.check_report_contract(json.dumps(bad), "classical-central", 3, schema)[0]), "planted failed check is rejected by the contract")
    bad = json.loads(text)
    bad["checks"][0]["extra"] = 1
    check(rejects(oracles.check_report_contract(json.dumps(bad), "classical-central", 3, schema)[0]), "planted schema violation is rejected")
    bad = json.loads(text)
    bad["checks"] = [c for c in bad["checks"] if c["anchor"] != "central-force/conserved-vector"]
    check(rejects(oracles.check_report_contract(json.dumps(bad), "classical-central", 3, schema)[0]), "planted empty battery is rejected")

    _, text = cli_output(["tables", "central-force", "--n", "4", "--points", "0", "--format", "json"])
    rows = json.loads(text)
    check(accepts(oracles.check_central_tables(rows, 4, rng())), "central-force table n=4 passes its oracle")
    bad = copy.deepcopy(rows)
    bad[0]["set"] = bad[0]["set"].replace("P2;", "P2, P13;")
    bad[0]["k"] += 1
    check(rejects(oracles.check_central_tables(bad, 4, rng())), "planted P13 among the central entries of a row is rejected")

    _, text = cli_output(["verify", "quantum-central", "--n", "3", "--alpha", "2"])
    v, qc = oracles.check_report_contract(text, "quantum-central", 3, schema)
    check(accepts(v) and accepts(oracles.check_central_quantum(qc, rng())), "quantum-central n=3 passes its oracles")
    fault = rename_claim(qc, "[H,P12]", "[A1,P12]")
    check(rejects(oracles.check_central_quantum(fault, rng())), "planted [A1,P12] = 0 is rejected by the Weyl-operator oracle")

    _, text = cli_output(["verify", "classical-rigid", "--n", "4", "--mode", "sampled", "--samples", "1", "--lambda", "1,3/2,2,7/2"])
    v, cr = oracles.check_report_contract(text, "classical-rigid", 4, schema)
    check(accepts(v) and accepts(oracles.check_rigid_classical(cr, rng())), "classical-rigid n=4 passes its oracles")
    fault = rename_claim(cr, "rigid/{c2,0,c3,1}", "rigid/{c3,1,P12}")
    check(rejects(oracles.check_rigid_classical(fault, rng())), "planted {c3,1,P12} = 0 is rejected by the Lie-Poisson oracle")
    fault = copy.deepcopy(cr)
    span = next(c for c in fault["checks"] if c["anchor"] == "rigid-classical/hamiltonian-span")
    span["witness"] = re.sub(r"b2=([-\d/]+)", lambda m: f"b2={Fraction(m.group(1)) + 1}", span["witness"])
    check(rejects(oracles.check_rigid_classical(fault, rng())), "planted wrong coefficient of H in the quadratic integrals is rejected")

    _, text = cli_output(["verify", "quantum-rigid", "--n", "4"])
    v, qr = oracles.check_report_contract(text, "quantum-rigid", 4, schema)
    check(accepts(v) and accepts(oracles.check_rigid_quantum(qr, rng())), "quantum-rigid n=4 passes its oracles")
    fault = rename_claim(qr, "symbolic/[H , c2,0]", "symbolic/[H , P12]")
    check(rejects(oracles.check_rigid_quantum(fault, rng())), "planted [H, P12] = 0 is rejected by the representation oracle")
    bad = json.loads(text)
    bad["checks"] = [c for c in bad["checks"] if c["anchor"] != "rigid-quantum"]
    check(rejects(oracles.check_report_contract(json.dumps(bad), "quantum-rigid", 4, schema)[0]), "planted missing commutator battery is rejected")

    def n6(*claims):
        return {
            "config": {"n": 6, "mode": "sampled", "lambdas": ["1", "3/2", "2", "5/2", "4", "11/2"]},
            "checks": [{"id": f"sample0/{c}", "anchor": "rigid-quantum", "status": "pass", "witness": ""} for c in claims],
        }

    check(
        accepts(oracles.check_rigid_quantum(n6("[H , C6,2]", "[H , c6,2] != 0"), rng())),
        "n=6: in Sym^2 V the image of [H, C6,2] vanishes and that of [H, c6,2] does not",
    )
    check(rejects(oracles.check_rigid_quantum(n6("[H , c6,2]"), rng())), "planted [H, c6,2] = 0 (no correction term) is rejected")

    from manakov.uea import PBWElement, pbw_mul

    def corrupted(a, b):
        c = pbw_mul(a, b)
        word = max(c.terms)
        return PBWElement(c.n, {**c.terms, word: c.terms[word] + 1})

    check(accepts(oracles.check_pbw_mul(rng(), (4,))), "pbw_mul maps to matrix products")
    check(rejects(oracles.check_pbw_mul(rng(), (4,), mul=corrupted)), "planted corrupted pbw_mul product is rejected")

    _, text = cli_output(["tables", "rigid-body", "--max-n", "4", "--format", "json"])
    rows = json.loads(text)
    check(accepts(oracles.check_tables(rows, rng())), "rigid-body table n <= 4 passes its oracle")
    bad = copy.deepcopy(rows)
    bad[-1]["k"] += 1
    check(rejects(oracles.check_tables(bad, rng())), "planted wrong k in a table row is rejected by the kernel-dimension oracle")
    op = [spec.Op(("tables", "rigid-body"), "tables", 4)]
    first = [{"code": 0, "stdout": text, "files": {}}]
    check(accepts(run.identity_verdict("repeats", op, first, [first])), "identical repeats are accepted")
    changed = [{"code": 0, "stdout": text.replace("true", "false", 1), "files": {}}]
    check(rejects(run.identity_verdict("repeats", op, first, [changed])), "planted repeat that differs by one byte is rejected")

    outdir = run.OUT / "work" / "selftest-simulate"
    lam = [Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(4)]
    cli_output(["simulate", "--n", "4", "--lambda", "1,3/2,5/2,4", "--t-end", "2", "--output-dir", str(outdir)])
    traj, drift = (outdir / "trajectory.csv").read_text(), (outdir / "drift.json").read_text()
    check(accepts(oracles.check_simulation(traj, drift, lam)), "simulate n=4 passes its oracle")
    lines = traj.splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    bad = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    check(rejects(oracles.check_simulation(bad, drift, lam)), "planted perturbed trajectory point is rejected")
    check(rejects(oracles.check_simulation(traj, drift, lam[::-1])), "planted wrong moments for the trajectory are rejected")


# -- smoke pass --------------------------------------------------------------------------


def small_ops(seed, workdir):
    s = str(seed)
    out = f"{workdir}/simulate"
    return [
        spec.Op(("tables", "central-force", "--n", "4", "--points", "0", "--format", "json", "--seed", s), "central-tables", 4),
        spec.Op(("verify", "classical-rigid", "--n", "4", "--seed", s), "classical-rigid", 4),
        spec.Op(("verify", "quantum-rigid", "--n", "4", "--seed", s), "quantum-rigid", 4),
        spec.Op(("tables", "rigid-body", "--max-n", "4", "--format", "json", "--seed", s), "tables", 4),
        spec.Op(
            ("simulate", "--n", "4", "--lambda", "1,2,3,4", "--t-end", "1", "--seed", s, "--output-dir", out),
            "simulate",
            4,
            (1, 2, 3, 4),
            out,
        ),
    ]


def smoke():
    small = spec.Workload("smoke", "reduced sizes", small_ops, (4,))
    e2e = [m["name"] for m in spec.END_TO_END]
    for trace in (0, 1):
        record = run.run(small, seed=5, seconds=1, trace=trace)
        problems = [p for v in record["oracles"] for p in v["problems"]]
        check(record["correct"] and not problems, f"smoke trace={trace}: every oracle passes {problems[:2]}")
        check(record["failed"] == 0 and record["attempted"] >= 5, f"smoke trace={trace}: no failed operation")
        want = tracing.metric_names() if trace else e2e
        check(list(record["metrics"]) == want, f"smoke trace={trace}: reports exactly its metrics")
        if not trace:
            check(all(m["value"] > 0 for m in record["metrics"].values()), "smoke: end-to-end metrics are nonzero")
    layers = record["metrics"]
    check(layers["central_force.verify_integrable_set.calls"]["value"] > 0, "smoke: traced layers are counted")
    check(layers["ratfunc.MultiPoly.mul.terms_out"]["value"] > 0, "smoke: output sizes are recorded")


def main():
    check_benchmark_json()
    planted_faults()
    smoke()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
