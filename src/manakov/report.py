"""Structured pass/fail records for verification runs."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
GENERIC = "generic-point-certificate"


@dataclass
class CheckResult:
    """One verified claim: exact identities report pass/fail, sampled rank
    facts report generic-point-certificate (true at the sampled points,
    not proved everywhere).  ``elapsed`` is the wall time spent on it."""

    id: str
    anchor: str
    status: str
    witness: str = ""
    elapsed: float = 0.0

    @property
    def ok(self):
        return self.status != FAIL


@dataclass
class VerificationReport:
    """Checks in the order they were verified.  Each check is stamped with
    the wall time since this report's previous check, or since the report
    was created: the time spent computing it."""

    version: str = VERSION
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    last_mark: float = field(default_factory=time.perf_counter, repr=False, compare=False)

    def add(self, id, anchor, ok, witness="", generic=False):
        now = time.perf_counter()
        status = (GENERIC if generic else PASS) if ok else FAIL
        check = CheckResult(id, anchor, status, str(witness), elapsed=now - self.last_mark)
        self.last_mark = now
        self.checks.append(check)
        return check

    def add_zero(self, id, anchor, value):
        """Pass when ``value`` is exactly zero; a nonzero value is the witness."""
        ok = value.is_zero()
        return self.add(id, anchor, ok, witness="0" if ok else str(value))

    def extend(self, other: "VerificationReport"):
        # the merged checks carry their own times
        self.checks.extend(other.checks)
        self.last_mark = time.perf_counter()
        return self

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_dict(self, include_timings=False):
        out = {
            "version": self.version,
            "config": self.config,
            "ok": self.ok,
            "checks": [
                {
                    "id": c.id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "witness": c.witness,
                    **({"elapsed_s": round(c.elapsed, 6)} if include_timings else {}),
                }
                for c in self.checks
            ],
        }
        return out

    def to_json(self, include_timings=False):
        # timings are excluded by default so identical (config, seed) runs
        # produce byte-identical reports
        return json.dumps(self.to_dict(include_timings=include_timings), indent=2, sort_keys=True)

    def summary_lines(self):
        lines = []
        for c in self.checks:
            mark = "PASS" if c.status == PASS else ("CERT" if c.status == GENERIC else "FAIL")
            extra = f"  [{c.witness}]" if (c.witness and not c.ok) else ""
            lines.append(f"{mark}  {c.id}{extra}")
        return lines
