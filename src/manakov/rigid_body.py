"""The free n-dimensional rigid body on T*SO(n), classical side.

Everything is expressed in the left-invariant momentum components P_ij with
coefficients in the moments-of-inertia field: the quadratic Hamiltonian
H = 1/2 sum P_ij^2/(l_i+l_j), the trace-generated commuting integrals
c_{k,k-2l}, the counting formulas for centrality and the defect of
integrability as functions of the multiplicity partition q, and the greedy
assembly of a full integrable set (Casimirs, block Casimirs, a defect-filling
subset of integrals, and right momenta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .brackets import LiePoissonPoly, lie_poisson_bracket, momentum_vars
from .charts import GroupChart, generic_full_rank
from .linalg import ExactMatrix, IntegerEchelon, solve
from .ratfunc import MultiPoly
from .report import VerificationReport
from .son import (
    DegenerateSampleError,
    MomentSpec,
    SkewMatrix,
    ad_kernel_dim,
    casimir_set,
    dim_so,
    pair_list,
    random_skew,
    sigma_triple,
    signed_pair,
)


@dataclass(frozen=True)
class ManakovIndex:
    """Index (k, l) of the integral c_{k,k-2l}: degree 2l in the momenta,
    coefficient degree 2(k-2l) in the moments."""

    k: int
    l: int

    def __post_init__(self):
        if self.l < 1 or self.k - 2 * self.l < 0:
            raise ValueError(f"invalid integral index k={self.k}, l={self.l}")

    @property
    def j(self):
        return self.k - 2 * self.l

    def label(self):
        return f"c{self.k},{self.j}"


def manakov_indices(n, max_degree=None):
    """All independent indices for dimension n: k = 2..n, l = 1..[k/2],
    ordered lexicographically by (k, l)."""
    out = []
    for k in range(2, n + 1):
        for l in range(1, k // 2 + 1):
            idx = ManakovIndex(k, l)
            if max_degree is None or 2 * l <= max_degree:
                out.append(idx)
    return out


def hamiltonian(spec: MomentSpec) -> LiePoissonPoly:
    """H = 1/2 sum_{i<j} P_ij^2 / (l_i + l_j)."""
    n = spec.n
    vars = momentum_vars(n)
    one = spec.coeff_one()
    terms = {}
    for k, (i, j) in enumerate(pair_list(n)):
        mono = [0] * len(vars)
        mono[k] = 2
        coef = one / (2 * (spec.lambdas[i - 1] + spec.lambdas[j - 1]))
        terms[tuple(mono)] = coef
    return LiePoissonPoly(n, MultiPoly(vars, terms))


def euler_bracket_closed_form(spec: MomentSpec, i, j) -> LiePoissonPoly:
    """{H, P_ij} = (l_i - l_j) sum_k P_ik P_kj / ((l_i+l_k)(l_k+l_j))."""
    n = spec.n
    one = spec.coeff_one()
    lam = spec.lambdas
    acc = LiePoissonPoly.zero(n)
    for k in range(1, n + 1):
        if k == i or k == j:
            continue
        coef = (one * (lam[i - 1] - lam[j - 1])) / (
            (lam[i - 1] + lam[k - 1]) * (lam[k - 1] + lam[j - 1])
        )
        term = LiePoissonPoly.gen(n, (i, k)) * LiePoissonPoly.gen(n, (k, j))
        acc = acc + term * coef
    return acc


# (spec, k - 2l, sorted index tuple) -> a^{i1..i_{2l}}_{k,k-2l}
_COEFFICIENT_CACHE = {}


def manakov_coefficient(idx: ManakovIndex, indices, spec: MomentSpec):
    """a^{i1..i_{2l}}_{k,k-2l}: complete homogeneous sum of squared moments.

    The sum over exponents b_1..b_{2l} >= 0 with total k-2l of the products
    l_{i1}^{2b_1} ... l_{i_{2l}}^{2b_{2l}} is the degree-(k-2l) complete
    homogeneous polynomial h in the squares, built one index at a time by
    h_t += l_i^2 h_{t-1} for t = 1..k-2l.  h is symmetric in its indices, so
    each value is computed once per spec, degree and index multiset.
    """
    if len(indices) != 2 * idx.l:
        raise ValueError("index tuple length must be 2l")
    key = (spec, idx.j, tuple(sorted(indices)))
    cached = _COEFFICIENT_CACHE.get(key)
    if cached is not None:
        return cached
    one = spec.coeff_one()
    h = [one] + [one * 0] * idx.j
    for i in key[2]:
        x = spec.lambdas[i - 1] ** 2
        for t in range(1, idx.j + 1):
            h[t] = h[t] + x * h[t - 1]
    _COEFFICIENT_CACHE[key] = h[idx.j]
    return h[idx.j]


def cycle_letters(n, cycle):
    """(sign, letters) with P_{c1 c2} P_{c2 c3} ... P_{cm c1} equal to sign
    times the product of the momentum variables ``letters`` (each descending
    step flips the sign); None when two neighbours coincide (P_ii = 0)."""
    sign = 1
    letters = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        sp = signed_pair(n, a, b)
        if sp is None:
            return None
        letters.append(sp[0])
        sign *= sp[1]
    return sign, letters


def closed_walks(n, length):
    """Closed index walks i_1 -> i_2 -> ... -> i_length -> i_1 on 1..n with
    no step from an index to itself, in lexicographic order.

    Yields (walk, sign, letters) with (sign, letters) = cycle_letters(n, walk).
    """
    for walk in product(range(1, n + 1), repeat=length):
        cyc = cycle_letters(n, walk)
        if cyc is not None:
            yield (walk,) + cyc


def manakov_integral(idx: ManakovIndex, n, spec: MomentSpec) -> LiePoissonPoly:
    """c_{k,k-2l} = (1/4l) sum over closed index walks of a * P_{i1 i2} ... P_{i_2l i1}."""
    if idx.k > n:
        raise ValueError(f"index k={idx.k} exceeds dimension {n}")
    vars = momentum_vars(n)
    scale = Fraction(1, 4 * idx.l)
    # terms keep the order in which walks first reach them, cancelled ones
    # included until MultiPoly drops them (float evaluation sums in this order)
    acc_terms = {}
    for walk, sign, letters in closed_walks(n, 2 * idx.l):
        mono = [0] * len(vars)
        for g in letters:
            mono[g] += 1
        coef = manakov_coefficient(idx, walk, spec) * (scale * sign)
        key = tuple(mono)
        cur = acc_terms.get(key)
        acc_terms[key] = coef if cur is None else cur + coef
    return LiePoissonPoly(n, MultiPoly(vars, acc_terms))


def hamiltonian_as_integral_combination(spec: MomentSpec):
    """Solve H = sum_k beta_k c_{k,k-2} exactly; returns {k: beta_k}.

    The moments must be explicit rationals.  The linear system has one
    equation per momentum pair; a None return means the system is
    inconsistent for this set of moments.
    """
    if spec.is_symbolic:
        raise ValueError("solving for the combination needs explicit rational moments")
    n = spec.n
    one = spec.coeff_one()
    ks = list(range(2, n + 1))
    rows = []
    rhs = []
    for (i, j) in pair_list(n):
        row = [manakov_coefficient(ManakovIndex(k, 1), (i, j), spec) for k in ks]
        rows.append(row)
        rhs.append(-(one / (spec.lambdas[i - 1] + spec.lambdas[j - 1])))
    sol = solve(ExactMatrix(rows), rhs)
    if sol is None:
        return None
    return dict(zip(ks, sol))


# -- counting ------------------------------------------------------------------


def centrality_defect(spec: MomentSpec):
    """(rank B^lambda, centrality k, defect r, central count kbar) from the
    closed forms in the multiplicity partition q."""
    n = spec.n
    q = spec.q
    d = spec.d
    two_n = 2 * dim_so(n)
    if spec.u == 1:
        rank = two_n - n // 2
        k = n // 2
        r = 0
    else:
        s1 = sum(q[i] * q[j] for i in range(len(q)) for j in range(i + 1, len(q)))
        rank = two_n - s1
        k = n // 2 + sum(s // 2 for s in q)
        r = s1 - k
    kbar = Fraction(n * n + 2 * n - sum(s * s for s in q), 4) - Fraction((d + 1) // 2, 2)
    if kbar.denominator != 1:
        raise AssertionError("central count formula must be an integer")
    kbar = int(kbar)
    if r % 2 != 0 or kbar != k + r // 2:
        raise AssertionError("counting invariants violated")
    return rank, k, r, kbar


def centrality_defect_sampled(spec: MomentSpec, rng, points=3, bound=10**6):
    """The same counts from exact kernel dimensions at random momentum values.

    Uses rank = 2N - s1, k = s + s2 - s3 and r = s1 - k at each sampled
    point; raises DegenerateSampleError if the samples disagree.
    """
    results = set()
    for _ in range(points):
        a = random_skew(spec.n, rng, bound)
        s1, s2, s3 = sigma_triple(a, spec)
        sigma = ad_kernel_dim(a)
        rank = 2 * dim_so(spec.n) - s1
        k = sigma + s2 - s3
        r = s1 - k
        results.add((rank, k, r, k + r // 2))
    if len(results) != 1:
        raise DegenerateSampleError(f"sampled counts disagree: {sorted(results)}")
    return results.pop()


def partitions(n):
    """All partitions of n as non-decreasing tuples, ordered by (length, lex)."""
    out = []

    def rec(remaining, minimum, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(minimum, remaining + 1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, 1, [])
    return sorted(out, key=lambda q: (len(q), q))


# the reference catalog lists 10 of the 11 partitions of 6; (2,2,2) is absent
_CATALOG_SKIP = {(6, (2, 2, 2))}


def table3(max_n=6, all_partitions=False):
    """Rows (n, q, k(B^lambda), r(B^lambda), kbar(q)) for 3 <= n <= max_n.

    By default reproduces the 25 reference rows; pass all_partitions=True to
    include every partition (adds (2,2,2) at n=6).
    """
    rows = []
    for n in range(3, max_n + 1):
        for q in partitions(n):
            if not all_partitions and (n, q) in _CATALOG_SKIP:
                continue
            spec = MomentSpec.from_partition(q)
            _, k, r, kbar = centrality_defect(spec)
            rows.append((n, q, k, r, kbar))
    return rows


# -- Casimir-based central sets -------------------------------------------------


def casimir_polynomials(n, indices=None):
    """Standard Casimirs of the momentum matrix on ``indices`` (son.casimir_set
    of the skew matrix whose entries are the momentum generators), as a tuple
    of momentum polynomials; memoized, so callers must not mutate it."""
    return _casimir_polynomials(n, tuple(indices) if indices is not None else tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def _casimir_polynomials(n, indices):
    vars = momentum_vars(n)
    upper = {}
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            k, sign = signed_pair(n, indices[a], indices[b])
            upper[(a + 1, b + 1)] = MultiPoly.gen(vars, k) * sign
    m = SkewMatrix(len(indices), upper)
    return tuple(LiePoissonPoly(n, c) for c in casimir_set(m, one=MultiPoly.const(vars, 1)))


def z_lambda(spec: MomentSpec):
    """The set Z^lambda: full Casimirs, plus the block Casimirs of every
    equal-moment class when there are at least two classes.

    Returns (functions, labels); the count is [n/2] + sum [q_j/2] for u > 1
    and [n/2] for u = 1.
    """
    n = spec.n
    funcs = list(casimir_polynomials(n))
    labels = [f"C{k}" for k in range(1, len(funcs) + 1)]
    if spec.u > 1:
        for cls in spec.classes:
            if len(cls) < 2:
                continue
            blocks = casimir_polynomials(n, cls)
            tag = "".join(str(i) for i in cls)
            funcs.extend(blocks)
            labels.extend([f"C({tag}){k}" for k in range(1, len(blocks) + 1)])
    return funcs, labels


def z_lambda_count(spec: MomentSpec):
    if spec.u == 1:
        return spec.n // 2
    return spec.n // 2 + sum(s // 2 for s in spec.q)


# -- full integrable set assembly ------------------------------------------------


@dataclass
class RigidBodySet:
    """Assembled integrable set: central = Z^lambda plus r/2 trace integrals,
    noncentral = equal-moment left momenta and right momenta chosen for rank
    growth."""

    spec: MomentSpec
    z: list
    z_labels: list
    central_integrals: list
    central_integral_labels: list
    noncentral_pairs: tuple  # entries ("L"|"R", (i, j))
    counts: tuple

    @property
    def central(self):
        return list(self.z) + list(self.central_integrals)

    @property
    def functions(self):
        n = self.spec.n
        extra = [LiePoissonPoly.gen(n, p, side=side) for side, p in self.noncentral_pairs]
        return self.central + extra

    @property
    def labels(self):
        return (
            list(self.z_labels)
            + list(self.central_integral_labels)
            + [f"P{side}{i}{j}" for side, (i, j) in self.noncentral_pairs]
        )

    @property
    def size(self):
        return len(self.z) + len(self.central_integrals) + len(self.noncentral_pairs)


def assemble_integrable_set(spec: MomentSpec, chart: GroupChart) -> RigidBodySet:
    """Greedy construction of a full integrable set at the given chart point.

    Candidates are scanned in deterministic order (integral indices by
    (k, l), then right-momentum pairs lexicographically); a candidate is kept
    iff its gradient row is independent of the rows already kept, so each
    row is added once to one integer echelon.  The final set has 2N - kbar
    elements of rank 2N - kbar, with kbar of them central.
    """
    if spec.is_symbolic:
        raise ValueError("assembly needs explicit rational moments")
    n = spec.n
    rank_counts = centrality_defect(spec)
    _, k, r, kbar = rank_counts
    target_total = 2 * dim_so(n) - kbar
    z, z_labels = z_lambda(spec)
    echelon = IntegerEchelon()
    if not all(echelon.add(chart.gradient_row(f)) for f in z):
        raise DegenerateSampleError("Casimir set not independent at this point")
    integrals = []
    integral_labels = []
    need = r // 2
    for idx in manakov_indices(n):
        if len(integrals) == need:
            break
        if idx.j == 0:
            continue  # c_{2m,0} duplicates the full Casimirs
        cand = manakov_integral(idx, n, spec)
        if echelon.add(chart.gradient_row(cand)):
            integrals.append(cand)
            integral_labels.append(idx.label())
    if len(integrals) != need:
        raise DegenerateSampleError(
            f"only {len(integrals)} of {need} defect-filling integrals found"
        )
    # noncentral candidates come from B^lambda: the equal-moment left
    # momenta first, then the right momenta, in lexicographic pair order;
    # every kept row raised the rank, so the rank counts the chosen set
    candidates = [("L", p) for p in spec.equal_moment_pairs()]
    candidates += [("R", p) for p in pair_list(n)]
    noncentral = []
    for side, p in candidates:
        if echelon.rank == target_total:
            break
        if echelon.add(chart.gradient_row(LiePoissonPoly.gen(n, p, side=side))):
            noncentral.append((side, p))
    if echelon.rank != target_total:
        raise DegenerateSampleError(f"rank target {target_total} unreachable (got {echelon.rank})")
    return RigidBodySet(
        spec=spec,
        z=z,
        z_labels=z_labels,
        central_integrals=integrals,
        central_integral_labels=integral_labels,
        noncentral_pairs=tuple(noncentral),
        counts=rank_counts,
    )


# -- verification suites ----------------------------------------------------------


def verify_involution_family(n, spec: MomentSpec, report=None):
    """{c, c'} = 0 for all integral pairs and {c, H} = 0, exact in the
    coefficient field of ``spec``."""
    report = report if report is not None else VerificationReport()
    anchor = "rigid-classical/involution"
    items = [(idx.label(), manakov_integral(idx, n, spec)) for idx in manakov_indices(n)]
    items.append(("H", hamiltonian(spec)))
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            br = lie_poisson_bracket(items[a][1], items[b][1])
            report.add_zero(f"rigid/{{{items[a][0]},{items[b][0]}}}", anchor, br)
    return report


def verify_euler_closed_form(spec: MomentSpec, report=None):
    """{H, P_ij} equals the quadratic closed form, as an identity in the
    moment field."""
    report = report if report is not None else VerificationReport()
    h = hamiltonian(spec)
    n = spec.n
    for (i, j) in pair_list(n):
        br = lie_poisson_bracket(h, LiePoissonPoly.gen(n, (i, j)))
        expected = euler_bracket_closed_form(spec, i, j)
        ok = br == expected
        report.add(
            f"rigid/euler-form/P{i}{j}",
            "rigid-classical/euler-equations",
            ok,
            witness="match" if ok else f"{br} != {expected}",
        )
    return report


def verify_z_lambda(spec: MomentSpec, rng, report=None, points=3, chart_bound=40):
    """{Z^lambda, B^lambda} = 0 exactly and rank Z^lambda = z^lambda at
    sampled chart points."""
    report = report if report is not None else VerificationReport()
    n = spec.n
    funcs, labels = z_lambda(spec)
    count = z_lambda_count(spec)
    report.add(
        "rigid/z-count",
        "rigid-classical/central-set",
        len(funcs) == count,
        witness=f"{len(funcs)} functions, formula {count}",
    )
    lam_pairs = spec.equal_moment_pairs()
    for f, lb in zip(funcs, labels):
        bad = None
        for p in lam_pairs:
            br = lie_poisson_bracket(f, LiePoissonPoly.gen(n, p))
            if not br.is_zero():
                bad = (p, br)
                break
        report.add(
            f"rigid/{{{lb},B-lambda}}",
            "rigid-classical/central-set",
            bad is None,
            witness="0" if bad is None else f"nonzero at P{bad[0]}: {bad[1]}",
        )
    for s in range(points):
        ok, witness = generic_full_rank(funcs, lambda r: GroupChart.random(n, r, bound=chart_bound), rng)
        report.add(
            f"rigid/z-rank/sample{s}",
            "rigid-classical/central-set",
            ok,
            witness=witness,
            generic=True,
        )
    return report
