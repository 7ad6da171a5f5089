"""Benchmark of the manakov verifier: times the command-line scopes on one
workload, checks every output against the oracles in ``oracles.py`` and
prints the metrics.

    python3 benchmarks/run.py --workload central-n4 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --write-spec      # regenerate BENCHMARK.json

Run from anywhere; paths are taken relative to this file.  With ``--trace 0``
the workload runs in one process, in whole rounds, for about ``--seconds``
and the end-to-end metrics are reported; with ``--trace 1`` one untraced and
one traced round run and the per-layer metrics are reported.  Details go to
``benchmarks/out/``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spec  # noqa: E402

SETUP_SPAWNS = 3
RUN_TIMEOUT_S = 170


def _worker(job, timeout):
    """Run one worker process to completion; returns (result, seconds from
    spawn to the worker's ready mark)."""
    env = {k: v for k, v in os.environ.items() if k not in ("MANAKOV_THREADS", "PYTHONPATH")}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def identity_verdict(name, ops, reference, repeats):
    """Every repeat's outputs must equal the reference outputs byte for byte."""
    v = oracles.Verdict(name)
    for outputs in repeats:
        for op, ref, out in zip(ops, reference, outputs):
            if ref["code"] == 0 and out["code"] == 0:
                same = out["stdout"] == ref["stdout"] and out["files"] == ref["files"]
                v.expect(same, f"{' '.join(op.argv)}: output differs between runs")
    return v


def check_outputs(workload, ops, outputs, seed):
    """Oracle verdicts for one round of outputs; ops that exited nonzero are
    not checked (they are counted as failed)."""
    schema = json.loads((SRC / "manakov" / "schema" / "report.schema.json").read_text())
    rng = random.Random(f"oracle/{workload.name}/{seed}")
    verdicts = []
    for op, out in zip(ops, outputs):
        if out["code"] != 0:
            continue
        if op.oracle == "tables":
            verdicts.append(oracles.check_tables(json.loads(out["stdout"]), rng))
        elif op.oracle == "central-tables":
            verdicts.append(oracles.check_central_tables(json.loads(out["stdout"]), op.n, rng))
        elif op.oracle == "simulate":
            files = {Path(p).name: text for p, text in out["files"].items()}
            verdicts.append(oracles.check_simulation(files["trajectory.csv"], files["drift.json"], op.lambdas))
        else:
            contract, report = oracles.check_report_contract(out["stdout"], op.oracle, op.n, schema)
            verdicts.append(contract)
            if report is not None:
                check = {
                    "classical-central": oracles.check_central_classical,
                    "quantum-central": oracles.check_central_quantum,
                    "classical-rigid": oracles.check_rigid_classical,
                    "quantum-rigid": oracles.check_rigid_quantum,
                }[op.oracle]
                verdicts.append(check(report, rng))
    if workload.pbw_dims:
        sys.path.insert(0, str(SRC))
        verdicts.append(oracles.check_pbw_mul(rng, workload.pbw_dims))
    return verdicts


def _files(op):
    return [f"{op.output_dir}/trajectory.csv", f"{op.output_dir}/drift.json"] if op.output_dir else []


def run(workload, seed, seconds, trace):
    """Run one workload and return the full result record."""
    workdir = OUT / "work" / workload.name
    ops = workload.build(seed, str(workdir))
    job = {"src": str(SRC), "ops": [list(op.argv) for op in ops], "files": [_files(op) for op in ops]}
    started = time.monotonic()

    def setup_samples():
        return [_worker({"setup_only": True, "src": str(SRC)}, 30)[1] for _ in range(SETUP_SPAWNS)]

    # set-up is sampled before and after the workload so that its median
    # spans the run, as verify_s does
    setups = setup_samples()
    remaining = RUN_TIMEOUT_S - 30 - (time.monotonic() - started)
    result, setup = _worker({**job, "seconds": seconds, "trace": bool(trace)}, remaining)
    setups += [setup] + setup_samples()
    outputs = [r["outputs"] for r in result["rounds"]]
    verdicts = check_outputs(workload, ops, outputs[0], seed)
    if len(outputs) > 1:
        name = "traced run equals untraced run" if trace else "byte-identical repeats"
        verdicts.append(identity_verdict(name, ops, outputs[0], outputs[1:]))
    if trace:
        metrics = result["trace"]
    else:
        walls = [r["wall"] for r in result["rounds"]]
        metrics = {
            "verify_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    problems = [p for v in verdicts for p in v.problems]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "attempted": sum(len(outs) for outs in outputs),
        "failed": sum(out["code"] != 0 for outs in outputs for out in outs),
        "metrics": metrics,
        "rounds": [
            {"wall": r["wall"], "ops": [[" ".join(op.argv), o["code"], o["seconds"]] for op, o in zip(ops, r["outputs"])]}
            for r in result["rounds"]
        ],
        "setup_samples": setups,
        "oracles": [{"name": v.name, "checked": v.checked, "unchecked": v.unchecked, "problems": v.problems} for v in verdicts],
        "environment": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    if trace:
        record["trace_summary"] = result["trace_summary"]
    return record


def _write_outputs(record):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    summary = record.pop("trace_summary", None)
    if summary is not None:
        (OUT / f"trace-{record['workload']}-seed{record['seed']}.json").write_text(json.dumps(summary, indent=1))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))


def main(argv=None):
    workloads = {w.name: w for w in spec.WORKLOADS}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "manakov" / "__init__.py").is_file():
        print(f"no manakov package under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    record = run(workloads[args.workload], args.seed, args.seconds, args.trace)
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for v in record["oracles"]:
        print(f"oracle {v['name']}: {v['checked']} checked, {len(v['problems'])} problems")
        for p in v["problems"][:5]:
            print(f"  {p}")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed")
    _write_outputs(record)
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
