"""One workload process: runs command lines through ``manakov.cli.main`` and
reports wall times, captured outputs and peak memory.

Reads a JSON job on standard input and writes one JSON result on standard
output.  Every invocation starts with the package's caches cleared, as a
fresh ``manakov`` process would.  Jobs:

- ``{"setup_only": true, "src": ...}``: import the package and report when it
  is ready;
- ``{"src": ..., "ops": [argv, ...], "files": [[path, ...], ...],
  "seconds": s, "trace": false}``: repeat whole rounds of the ops until the
  next round would end after ``seconds`` (at least one round); peak memory
  is read after the first round;
- the same with ``"trace": true``: one round untraced, then one round with
  every probe of ``tracing.PROBES`` installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def clear_caches():
    """Empty every module-level memo of the package: functools caches and
    dictionaries whose name says cache."""
    for name, mod in list(sys.modules.items()):
        if not (name == "manakov" or name.startswith("manakov.")) or mod is None:
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and "cache" in attr.lower():
                value.clear()


def run_round(cli, ops, files):
    """Run every op once; returns (wall seconds, [output per op])."""
    outputs = []
    start = time.perf_counter()
    for argv, paths in zip(ops, files):
        clear_caches()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a lost run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        texts = {p: Path(p).read_text() for p in paths if Path(p).is_file()}
        outputs.append({"code": code, "seconds": seconds, "stdout": buf.getvalue(), "files": texts})
    return time.perf_counter() - start, outputs


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import manakov.cli as cli

    ops = job.get("ops", [])
    files = job.get("files", [[] for _ in ops])
    for paths in files:
        for p in paths:
            Path(p).parent.mkdir(parents=True, exist_ok=True)
    ready = time.monotonic()
    result = {"ready": ready}
    if not job.get("setup_only"):
        rounds = []
        if job.get("trace"):
            import tracing

            rounds.append(run_round(cli, ops, files))
            with tracing.Tracer() as tracer:
                traced = run_round(cli, ops, files)
            rounds.append(traced)
            result["trace"] = tracer.metrics()
            result["trace"][tracing.OVERHEAD_METRIC] = {"value": traced[0] - rounds[0][0], "unit": "s"}
            result["trace_summary"] = tracer.summary()
        else:
            start = time.perf_counter()
            while True:
                rounds.append(run_round(cli, ops, files))
                if len(rounds) == 1:
                    # later rounds add allocator growth that a single
                    # command-line process never reaches
                    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if time.perf_counter() - start + rounds[-1][0] > job["seconds"]:
                    break
        result["rounds"] = [{"wall": wall, "outputs": outs} for wall, outs in rounds]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
