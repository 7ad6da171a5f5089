"""Command-line front end: verification suites, catalog tables, trajectory
simulation.

Exact rationals cross the CLI boundary as 'p/q' strings.  Exit codes:
0 all checks passed, 1 at least one check failed (or drift/tolerance
violated), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from . import suites
from .dynamics import (
    FlowState,
    conservation_report,
    default_initial_momentum,
    integrate,
    write_drift_json,
    write_trajectory_csv,
)
from .central_force import emit_tables
from .ratfunc import rational
from .report import VERSION
from .rigid_body import hamiltonian, manakov_indices, manakov_integral
from .son import MomentSpec


def _parse_rationals(text):
    return [rational(part) for part in text.split(",") if part.strip()]


def _parse_partition(text):
    parts = [int(v) for v in text.split(",") if v.strip()]
    if any(v < 1 for v in parts):
        raise argparse.ArgumentTypeError("partition entries must be positive")
    return tuple(sorted(parts))


def _emit(text, output):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report_markdown(data):
    lines = [f"# verification report (v{data['version']})", ""]
    lines.append(f"- ok: {data['ok']}")
    lines.append(f"- config: `{json.dumps(data['config'], sort_keys=True)}`")
    lines.append("")
    lines.append("| status | check | witness |")
    lines.append("|---|---|---|")
    for c in data["checks"]:
        witness = c["witness"].replace("|", "\\|")
        if len(witness) > 120:
            witness = witness[:117] + "..."
        lines.append(f"| {c['status']} | {c['id']} | {witness} |")
    return "\n".join(lines) + "\n"


def _central_table_json(n, seed, points):
    rows = []
    for spec, report in emit_tables(n, random.Random(seed), points=points):
        k = spec.k
        display = (
            "(" + ", ".join(spec.labels[:k]) + ("; " + ", ".join(spec.labels[k:]) if spec.labels[k:] else "") + ")"
        )
        rows.append({"set": display, "k": k, "verified": report.ok})
    return rows


def cmd_tables(args):
    if args.points < 0:
        print("--points must be 0 or more", file=sys.stderr)
        return 2
    if args.which == "central-force":
        n = args.n or 4
        if n not in (4, 5):
            print("central-force tables cover n = 4 and n = 5", file=sys.stderr)
            return 2
        rows = _central_table_json(n, args.seed, args.points)
        if args.format == "json":
            _emit(json.dumps(rows, indent=2), args.output)
        else:
            lines = ["| F | k |", "|---|---|"]
            for row in rows:
                mark = "" if row["verified"] else "  **FAIL**"
                lines.append(f"| {row['set']}{mark} | {row['k']} |")
            _emit("\n".join(lines), args.output)
        return 0 if all(r["verified"] for r in rows) else 1
    rows = suites.rigid_table_rows_verified(max_n=args.max_n, seed=args.seed, points=args.points)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.output)
    else:
        lines = ["| n | q | k(B) | r(B) | kbar |", "|---|---|---|---|---|"]
        for row in rows:
            q = "(" + ",".join(str(v) for v in row["q"]) + ")"
            mark = "" if row["verified"] else " **FAIL**"
            lines.append(f"| {row['n']} | {q}{mark} | {row['k']} | {row['r']} | {row['kbar']} |")
        _emit("\n".join(lines), args.output)
    return 0 if all(r["verified"] for r in rows) else 1


def cmd_verify(args):
    lambdas = _parse_rationals(args.lambdas) if args.lambdas else None
    partition = args.q
    if lambdas and partition:
        print("give either explicit moments or a partition, not both", file=sys.stderr)
        return 2
    n = args.n
    scope = args.scope
    if scope in ("quantum-rigid", "all") and n > 6 and not args.exploratory:
        print("quantum-rigid is verified for n <= 6; pass --exploratory to go higher", file=sys.stderr)
        return 2
    if lambdas and len(lambdas) != n:
        print(f"expected {n} moments, got {len(lambdas)}", file=sys.stderr)
        return 2
    if partition and sum(partition) != n:
        print(f"partition must sum to n={n}", file=sys.stderr)
        return 2
    common = dict(seed=args.seed)
    if scope == "classical-central":
        report = suites.suite_classical_central(n, alpha=rational(args.alpha), **common)
    elif scope == "quantum-central":
        report = suites.suite_quantum_central(n, alpha=rational(args.alpha), **common)
    elif scope == "classical-rigid":
        report = suites.suite_classical_rigid(
            n, lambdas=lambdas, partition=partition, mode=args.mode, samples=args.samples, **common
        )
    elif scope == "quantum-rigid":
        report = suites.suite_quantum_rigid(
            n, lambdas=lambdas, partition=partition, mode=args.mode, samples=args.samples, **common
        )
    elif scope == "all":
        report = suites.suite_all(n, alpha=rational(args.alpha), seed=args.seed)
    else:
        print(f"unknown scope {scope}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(report.to_json(include_timings=args.timings), args.output)
    else:
        _emit(_report_markdown(report.to_dict(include_timings=args.timings)), args.output)
    if args.output:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def cmd_simulate(args):
    # H vanishes for n < 2 and the flow is constant at n = 2: no drift to measure
    suites.check_rigid_args(args.n, 1)
    if not all(math.isfinite(v) for v in (args.dt, args.t_end, args.tolerance)):
        print("--dt, --t-end and --tolerance must be finite numbers", file=sys.stderr)
        return 2
    if args.dt <= 0 or args.t_end <= 0 or args.stride < 1:
        print("dynamics parameters must be positive", file=sys.stderr)
        return 2
    steps = int(round(args.t_end / args.dt))
    if steps < args.stride:
        # only the t = 0 sample would be taken, and drift against itself is 0
        print(f"{steps} steps is fewer than one stride ({args.stride}): no step would be sampled", file=sys.stderr)
        return 2
    lambdas = _parse_rationals(args.lambdas)
    n = args.n
    if len(lambdas) != n:
        print(f"expected {n} moments, got {len(lambdas)}", file=sys.stderr)
        return 2
    if any(v <= 0 for v in lambdas):
        print("moments of inertia must be positive", file=sys.stderr)
        return 2
    import numpy as np

    spec = MomentSpec.from_lambdas(lambdas)
    rng = random.Random(args.seed)
    p0 = default_initial_momentum(n, rng)
    state = FlowState.from_spec(spec, p0)
    # overflow on the trajectory is caught by integrate; an invariant that
    # overflows on a finite state reads inf or nan in the CSV and the drift
    with np.errstate(all="ignore"):
        try:
            samples = integrate(state, args.dt, steps, stride=args.stride)
        except FloatingPointError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        invariants = [hamiltonian(spec)]
        names = ["H"]
        for idx in manakov_indices(n, max_degree=4):
            invariants.append(manakov_integral(idx, n, spec))
            names.append(idx.label())
        drifts = conservation_report(samples, invariants)
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        config = {
            "n": n,
            "lambdas": [str(v) for v in lambdas],
            "dt": args.dt,
            "t_end": args.t_end,
            "stride": args.stride,
            "seed": args.seed,
            "tolerance": args.tolerance,
        }
        csv_names = ["H"] + [f"inv{k}" for k in range(1, len(invariants))]
        write_trajectory_csv(outdir / "trajectory.csv", samples, invariants, csv_names)
        write_drift_json(outdir / "drift.json", names, drifts, config)
    worst = max(drifts)
    print(f"max relative drift {worst:.3e} over {len(names)} invariants -> {outdir}")
    return 0 if worst <= args.tolerance else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="manakov",
        description="Exact verification of classical and quantum integrable sets "
        "for rotation-invariant systems and the free n-dimensional rigid body.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="emit the verified catalog tables")
    t.add_argument("which", choices=["central-force", "rigid-body"])
    t.add_argument("--n", type=int, default=None, help="dimension for central-force tables (4 or 5)")
    t.add_argument("--max-n", type=int, default=6, help="largest dimension for rigid-body rows")
    t.add_argument("--format", choices=["markdown", "json"], default="markdown")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--points", type=int, default=3, help="sample points per independence check")
    t.add_argument("--output", default=None)
    t.set_defaults(fn=cmd_tables)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument(
        "scope",
        choices=["classical-central", "quantum-central", "classical-rigid", "quantum-rigid", "all"],
    )
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--lambda", dest="lambdas", default=None, help="comma-separated p/q moments")
    v.add_argument("--q", type=_parse_partition, default=None, help="multiplicity partition, e.g. 1,2,3")
    v.add_argument("--alpha", default="1", help="coupling for the 1/r family (p/q)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--mode", choices=["symbolic", "sampled"], default=None)
    v.add_argument("--samples", type=int, default=3)
    v.add_argument("--format", choices=["json", "markdown"], default="json")
    v.add_argument("--output", default=None)
    v.add_argument("--timings", action="store_true", help="include elapsed times (breaks byte-stability)")
    v.add_argument("--exploratory", action="store_true", help="allow quantum-rigid beyond n=6")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("simulate", help="integrate the momentum flow and measure drift")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--lambda", dest="lambdas", required=True, help="comma-separated p/q moments")
    s.add_argument("--t-end", type=float, default=10.0)
    s.add_argument("--dt", type=float, default=1e-3)
    s.add_argument("--stride", type=int, default=100)
    s.add_argument("--tolerance", type=float, default=1e-6)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output-dir", default="manakov-run")
    s.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
