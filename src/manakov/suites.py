"""Top-level verification suites, one per scope, shared by the CLI and the
acceptance tests.  Each returns a VerificationReport whose checks are
deterministic for a fixed (config, seed)."""

from __future__ import annotations

import random
from fractions import Fraction

from .brackets import LiePoissonPoly, lie_poisson_bracket
from .central_force import (
    all_split_trees,
    catalog,
    emit_tables,
    recursive_set_spec,
    runge_lenz_check,
    verify_integrable_set,
)
from .charts import GroupChart
from .report import VerificationReport
from .rigid_body import (
    assemble_integrable_set,
    centrality_defect,
    centrality_defect_sampled,
    hamiltonian_as_integral_combination,
    table3,
    verify_euler_closed_form,
    verify_involution_family,
    verify_z_lambda,
)
from .son import DegenerateSampleError, MomentSpec, dim_so, retry_generic
from .uea import (
    verify_quantum_central_set,
    verify_quantum_flat_cases,
    verify_quantum_rigid,
)
from .weyl import quantum_central_force_suite


_RANK_POINTS = 3  # sampled points per catalog set's independence check
_TREE_DEPTH = 2  # splitting trees of the central scopes, up to this depth


def suite_classical_central(n, alpha=1, seed=0) -> VerificationReport:
    """Catalog families, conserved-vector identities, splitting trees, and
    the table rows when n is 4 or 5."""
    rng = random.Random(seed)
    report = VerificationReport()
    report.config.update({"scope": "classical-central", "n": n, "alpha": str(alpha), "seed": seed})
    for family in ("generic_f", "kepler", "oscillator", "f_of_P2"):
        spec = catalog(n, family, alpha=alpha)
        report.extend(verify_integrable_set(spec, rng, points=_RANK_POINTS))
    report.extend(runge_lenz_check(n, alpha))
    if n in (4, 5):
        for spec, row_report in emit_tables(n, rng, points=_RANK_POINTS):
            report.extend(row_report)
    trees = [t for t in all_split_trees(range(1, n + 1), _TREE_DEPTH) if t.children]
    for tree in trees:
        spec = recursive_set_spec(n, tree)
        report.extend(verify_integrable_set(spec, rng, points=1))
    return report


def suite_quantum_central(n, alpha=1, seed=0) -> VerificationReport:
    if n < 2:
        raise ValueError(f"quantum-central needs n >= 2 (angular momenta P_ij), got n = {n}")
    rng = random.Random(seed)
    trees = all_split_trees(range(1, n + 1), _TREE_DEPTH)
    report = quantum_central_force_suite(n, alpha, rng=rng, trees=trees)
    report.config.update({"scope": "quantum-central", "n": n, "alpha": str(alpha), "seed": seed})
    return report


def _moment_spec_from_args(n, lambdas=None, partition=None, rng=None):
    if lambdas is not None:
        return MomentSpec.from_lambdas(tuple(Fraction(v) for v in lambdas))
    if partition is not None:
        if rng is None:
            return MomentSpec.from_partition(tuple(partition))
        mus = _distinct_rationals(len(partition), rng)
        return MomentSpec.from_partition_values(tuple(partition), mus)
    raise ValueError("need explicit moments or a multiplicity partition")


def check_rigid_args(n, samples):
    """Reject arguments that would make a rigid-body report (or a drift
    measurement) pass vacuously."""
    if n < 3:
        raise ValueError(f"rigid-body scopes need n >= 3 (the first counting-table row), got n = {n}")
    if samples < 1:
        raise ValueError(f"need at least one moment sample, got {samples}")


def _distinct_rationals(count, rng, bound=30):
    out = []
    while len(out) < count:
        v = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        if v not in out:
            out.append(v)
    return out


def suite_classical_rigid(
    n, lambdas=None, partition=None, seed=0, mode=None, samples=3, points=3, chart_bound=30
) -> VerificationReport:
    """Euler form, integral involution, central-set construction, counting
    formulas (closed form against sampled kernel dimensions), and a fully
    assembled integrable set.

    ``mode`` defaults to symbolic moments for n <= 5 and sampled for n = 6.
    """
    check_rigid_args(n, samples)
    rng = random.Random(seed)
    report = VerificationReport()
    if mode is None:
        mode = "symbolic" if n <= 5 else "sampled"
    report.config.update(
        {
            "scope": "classical-rigid",
            "n": n,
            "mode": mode,
            "seed": seed,
            "lambdas": [str(v) for v in (lambdas or [])] or None,
            "partition": list(partition) if partition else None,
        }
    )
    if partition is None and lambdas is None:
        partition = (1,) * n  # pairwise distinct moments
    # the Euler-equation closed form is an identity in the moment field:
    # always verified fully symbolically (cheap at every n <= 6)
    verify_euler_closed_form(MomentSpec.symbolic(n), report=report)
    if mode == "symbolic":
        spec = _moment_spec_from_args(n, lambdas, partition)
        verify_involution_family(n, spec, report=report)
        specs_for_counts = [spec]
    else:
        # given moments are the first sample; the rest are drawn
        specs_for_counts = [_moment_spec_from_args(n, lambdas)] if lambdas is not None else []
        while len(specs_for_counts) < samples:
            specs_for_counts.append(_moment_spec_from_args(n, None, partition or (1,) * n, rng=rng))
        for spec in specs_for_counts:
            verify_involution_family(n, spec, report=report)
    # counting formulas: closed forms against exact kernel dimensions
    count_spec = specs_for_counts[0]
    numeric_spec = (
        count_spec
        if not count_spec.is_symbolic
        else MomentSpec.from_partition_values(count_spec.q, _distinct_rationals(count_spec.u, rng))
    )
    closed = centrality_defect(numeric_spec)
    sampled = centrality_defect_sampled(numeric_spec, rng, points=points)
    report.add(
        "rigid/counts closed==sampled",
        "rigid-classical/counting",
        closed == sampled,
        witness=f"closed {closed}, sampled {sampled}",
        generic=True,
    )
    verify_z_lambda(numeric_spec, rng, report=report, points=points, chart_bound=chart_bound)
    combo = hamiltonian_as_integral_combination(numeric_spec)
    report.add(
        "rigid/H as combination of quadratic integrals",
        "rigid-classical/hamiltonian-span",
        combo is not None,
        witness="insolvable" if combo is None else ", ".join(f"b{k}={v}" for k, v in combo.items()),
    )

    def build(r):
        return assemble_integrable_set(numeric_spec, GroupChart.random(n, r, bound=chart_bound))

    try:
        rb = retry_generic(build, rng)
        target = 2 * dim_so(n) - rb.counts[3]
        report.add(
            "rigid/assembled set",
            "rigid-classical/full-set",
            rb.size == target,
            witness=f"{rb.size} functions, {len(rb.central)} central: {', '.join(rb.labels)}",
            generic=True,
        )
        central_ok = _central_brackets_vanish(rb)
        report.add(
            "rigid/assembled central brackets",
            "rigid-classical/full-set",
            central_ok,
            witness="all central-vs-all brackets zero" if central_ok else "nonzero bracket",
        )
    except DegenerateSampleError as exc:
        report.add("rigid/assembled set", "rigid-classical/full-set", False, witness=str(exc))
    return report


def _central_brackets_vanish(rb):
    n = rb.spec.n
    extra = [LiePoissonPoly.gen(n, p, side=side) for side, p in rb.noncentral_pairs]
    for c in rb.central:
        for other in rb.central + extra:
            if not lie_poisson_bracket(c, other).is_zero():
                return False
    return True


def suite_quantum_rigid(
    n, lambdas=None, partition=None, seed=0, mode=None, samples=3, chart_bound=30
) -> VerificationReport:
    """Quantum rigid-body battery: commutator identities per moment sample,
    quantized central sets, and the zero-defect families."""
    check_rigid_args(n, samples)
    rng = random.Random(seed)
    if mode is None:
        mode = "symbolic" if n <= 5 else "sampled"
    report = VerificationReport()
    report.config.update(
        {
            "scope": "quantum-rigid",
            "n": n,
            "mode": mode,
            "seed": seed,
            "lambdas": [str(v) for v in (lambdas or [])] or None,
            "partition": list(partition) if partition else None,
            "samples": samples,
        }
    )
    if mode == "symbolic":
        spec = (
            _moment_spec_from_args(n, lambdas, partition)
            if (lambdas or partition)
            else MomentSpec.symbolic(n)
        )
        sub = verify_quantum_rigid(n, spec)
        _tag_and_extend(report, sub, "symbolic")
    else:
        sample_specs = []
        if lambdas is not None:
            sample_specs.append(_moment_spec_from_args(n, lambdas))
        while len(sample_specs) < samples:
            vals = _distinct_rationals(n, rng)
            sample_specs.append(MomentSpec.from_lambdas(tuple(vals)))
        for k, spec in enumerate(sample_specs):
            _tag_and_extend(report, verify_quantum_rigid(n, spec), f"sample{k}")
    part = tuple(partition) if partition else None
    if part and part != (1,) * n:
        qspec = (
            _moment_spec_from_args(n, lambdas)
            if lambdas
            else MomentSpec.from_partition_values(part, _distinct_rationals(len(part), rng))
        )
        report.extend(verify_quantum_central_set(qspec, rng, chart_bound=chart_bound))
    report.extend(verify_quantum_flat_cases(n, rng, chart_bound=chart_bound))
    return report


def _tag_and_extend(report, sub, tag):
    for c in sub.checks:
        c.id = f"{tag}/{c.id}"
    report.extend(sub)


def suite_all(n, alpha=1, seed=0) -> VerificationReport:
    check_rigid_args(n, 1)
    report = VerificationReport()
    report.config.update({"scope": "all", "n": n, "seed": seed})
    for sub in (
        suite_classical_central(min(n, 5), alpha=alpha, seed=seed),
        suite_quantum_central(min(n, 5), alpha=alpha, seed=seed),
        suite_classical_rigid(n, seed=seed),
        suite_quantum_rigid(n, seed=seed),
    ):
        report.extend(sub)
    return report


def rigid_table_rows_verified(max_n=6, seed=0, points=3):
    """Counting-table rows, each re-verified: closed forms against exact
    kernel dimensions at sampled momenta."""
    if max_n < 3:
        raise ValueError(f"counting-table rows start at n = 3, got a largest n of {max_n}")
    if points < 1:
        raise ValueError(f"need at least one sampled point per table row, got {points}")
    rng = random.Random(seed)
    rows = []
    for (n, q, k, r, kbar) in table3(max_n):
        spec = MomentSpec.from_partition_values(q, _distinct_rationals(len(q), rng))
        sampled = centrality_defect_sampled(spec, rng, points=points)
        ok = sampled[1:] == (k, r, kbar) and sampled[0] == centrality_defect(spec)[0]
        rows.append({"n": n, "q": list(q), "k": k, "r": r, "kbar": kbar, "verified": ok})
    return rows
