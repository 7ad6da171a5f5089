"""Acceptance criteria, one test per criterion.

Every tolerance is pinned here; exact checks have zero tolerance.  Each test
prints a PASS line on success (visible with -s or in failure reports), and
the -v test names serve as the per-criterion pass/fail lines.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from manakov.brackets import LiePoissonPoly, PhasePoly, canonical_bracket, lie_poisson_bracket
from manakov.central_force import (
    all_split_trees,
    emit_tables,
    kepler_hamiltonian,
    kinetic,
    p_squared,
    r_squared,
    recursive_set_structure,
    runge_lenz_vector,
)
from manakov.charts import CotangentChart
from manakov.dynamics import (
    FlowState,
    conservation_report,
    default_initial_momentum,
    integrate,
)
from manakov.linalg import ExactMatrix, exact_rank
from manakov.rigid_body import (
    ManakovIndex,
    centrality_defect,
    centrality_defect_sampled,
    hamiltonian,
    manakov_indices,
    manakov_integral,
    table3,
    verify_euler_closed_form,
    verify_involution_family,
)
from manakov.son import (
    MomentSpec,
    ad_kernel_dim,
    cayley_orthogonal,
    casimir_set,
    pair_list,
    random_skew,
    right_from_left,
)
from manakov.uea import (
    EXPANSION_SIGN,
    PBWElement,
    hamiltonian_commutator,
    manakov_operator,
    pbw_mul,
    sym3_expansion,
    uea_commutator,
    verify_quantum_rigid,
)
from manakov.weyl import (
    WeylOperator,
    commutator as weyl_commutator,
    compose,
    items_commute,
    momentum_square_operator,
    symmetrize,
    x_dot_p_operator,
)
from oracles import gen_bracket, hamiltonian_obstruction_b, pbw_normalize, top_p_part

# the published counting table (n, q) -> (k, r, kbar); 25 rows
PRINTED_TABLE = {
    (3, (3,)): (1, 0, 1),
    (3, (1, 2)): (2, 0, 2),
    (3, (1, 1, 1)): (1, 2, 2),
    (4, (4,)): (2, 0, 2),
    (4, (1, 3)): (3, 0, 3),
    (4, (2, 2)): (4, 0, 4),
    (4, (1, 1, 2)): (3, 2, 4),
    (4, (1, 1, 1, 1)): (2, 6, 5),
    (5, (5,)): (2, 0, 2),
    (5, (1, 4)): (4, 0, 4),
    (5, (2, 3)): (4, 2, 5),
    (5, (1, 1, 3)): (3, 4, 5),
    (5, (1, 2, 2)): (4, 4, 6),
    (5, (1, 1, 1, 2)): (3, 6, 6),
    (5, (1, 1, 1, 1, 1)): (2, 8, 6),
    (6, (6,)): (3, 0, 3),
    (6, (1, 5)): (5, 0, 5),
    (6, (2, 4)): (6, 2, 7),
    (6, (3, 3)): (6, 2, 7),
    (6, (1, 1, 4)): (5, 4, 7),
    (6, (1, 2, 3)): (5, 6, 8),
    (6, (1, 1, 1, 3)): (4, 8, 8),
    (6, (1, 1, 2, 2)): (5, 8, 9),
    (6, (1, 1, 1, 1, 2)): (4, 10, 9),
    (6, (1, 1, 1, 1, 1, 1)): (3, 12, 9),
}

# printed rows whose values are arithmetically inconsistent with the
# counting identities they accompany; both computation routes below agree
# on the corrected values.
#  - (6,(3,3)): printed (6,2,7); r = sum q_i q_j - k = 9 - k forces r = 3
#    for k = 6 (odd, violating the evenness of the defect); computed (5,4,7).
#  - (4,(1,1,1,1)): printed (2,6,5); r = 6 - k = 4, and r = 6 would need
#    rank = 4, i.e. a commutant of dimension 8 > dim so(4) = 6; the
#    distinct-moments central count (N + [n/2])/2 = 4 also contradicts 5;
#    computed (2,4,4).
KNOWN_INCONSISTENT_ROWS = {
    (6, (3, 3)): ((5, 4, 7), (6, 2, 7)),
    (4, (1, 1, 1, 1)): ((2, 4, 4), (2, 6, 5)),
}


def _distinct_rationals(count, rng, bound=30):
    out = []
    while len(out) < count:
        v = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        if v not in out:
            out.append(v)
    return out


def test_criterion_1_counting_table_reproduction():
    """All 25 rows, from closed forms AND exact kernel dimensions, zero tolerance."""
    rng = random.Random(20240801)
    rows = table3(6)
    assert len(rows) == 25
    mismatched = {}
    for (n, q, k, r, kbar) in rows:
        spec = MomentSpec.from_partition_values(q, _distinct_rationals(len(q), rng))
        closed = centrality_defect(spec)
        sampled = centrality_defect_sampled(spec, rng, points=3)
        assert closed == sampled, f"routes disagree at n={n}, q={q}"
        assert closed[1:] == (k, r, kbar)
        printed = PRINTED_TABLE[(n, q)]
        if (k, r, kbar) != printed:
            mismatched[(n, q)] = ((k, r, kbar), printed)
    assert mismatched == KNOWN_INCONSISTENT_ROWS, mismatched
    print(
        "ACCEPTANCE 1: PASS - 25 counting rows, closed forms == exact kernels; "
        "23 match the printed table; the two printed rows that violate their own "
        "counting identities, (6,(3,3)) -> (5,4,7) and (4,(1,1,1,1)) -> (2,4,4), "
        "are corrected by both computation routes in agreement"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the printed (k, r) pairs for (6,(3,3)) and (4,(1,1,1,1)) violate "
    "r = sum q_i q_j - k (and evenness / commutant-dimension bounds); both "
    "exact computation routes agree on the corrected values",
)
@pytest.mark.parametrize("row", sorted(KNOWN_INCONSISTENT_ROWS))
def test_criterion_1_printed_inconsistent_rows_reproduce(row):
    n, q = row
    mus = [Fraction(k + 1) for k in range(len(q))]
    spec = MomentSpec.from_partition_values(q, mus)
    closed = centrality_defect(spec)
    assert closed[1:] == PRINTED_TABLE[row]


def test_criterion_2_central_force_tables():
    """4 + 7 catalog rows with their k values; exact involution and exact
    Jacobian rank = set size at 3 random points per row."""
    rng = random.Random(42)
    expected_k = {4: [2, 3, 4, 4], 5: [2, 3, 4, 5, 5, 4, 5]}
    for n in (4, 5):
        rows = emit_tables(n, rng, points=3)
        assert [spec.k for spec, _ in rows] == expected_k[n]
        for spec, report in rows:
            assert report.ok, (spec.label, [c.id for c in report.failures])
            assert spec.size == 2 * n - spec.k
    print("ACCEPTANCE 2: PASS - 11 catalog rows verified (involution exact, rank = size at 3 points each)")


def test_criterion_3_classical_trace_integral_suite():
    """n <= 5 fully symbolic involution; n = 6 at 3 random distinct rational
    moment samples; quadratic flow closed form as a field identity up to n = 6."""
    for n in (3, 4, 5):
        rep = verify_involution_family(n, MomentSpec.symbolic(n))
        assert rep.ok, [c.id for c in rep.failures]
    rng = random.Random(99)
    for _ in range(3):
        vals = _distinct_rationals(6, rng)
        rep = verify_involution_family(6, MomentSpec.from_lambdas(tuple(vals)))
        assert rep.ok, [c.id for c in rep.failures]
    for n in range(3, 7):
        rep = verify_euler_closed_form(MomentSpec.symbolic(n))
        assert rep.ok
    print("ACCEPTANCE 3: PASS - classical integrals in involution (symbolic n<=5, 3 samples at n=6), flow closed form exact for n<=6")


def test_criterion_4_quantum_central_force():
    """Operator identities for 2 <= n <= 6, the conserved-vector identities
    at n = 3 for two couplings, and every splitting tree to depth 3 for n <= 5."""
    for n in range(2, 7):
        shift = momentum_square_operator(n) - symmetrize(p_squared(n))
        assert shift == WeylOperator.const(n, Fraction(n * (n - 1), 4))
        lap, r2, xp = symmetrize(kinetic(n)), symmetrize(r_squared(n)), x_dot_p_operator(n)
        assert weyl_commutator(lap, r2) == xp.scale(4) + WeylOperator.const(n, 2 * n)
        assert momentum_square_operator(n) == compose(r2, lap) - compose(xp, xp) - xp.scale(n - 2)
    for alpha in (1, 2):
        h = symmetrize(kepler_hamiltonian(3, alpha))
        a_ops = [symmetrize(a) for a in runge_lenz_vector(3, alpha)]
        for ai in a_ops:
            assert weyl_commutator(h, ai).is_zero()
        a2 = sum((compose(ai, ai) for ai in a_ops), WeylOperator.zero(3))
        rhs = compose(h, momentum_square_operator(3) - WeylOperator.const(3, Fraction(1))).scale(
            2
        ) + WeylOperator.const(3, Fraction(alpha * alpha))
        assert a2 == rhs
    tree_count = 0
    for n in range(2, 6):
        for tree in all_split_trees(range(1, n + 1), 3):
            z_items, l_items = recursive_set_structure(n, tree)
            for zi in z_items:
                for it in z_items + l_items:
                    assert items_commute(n, zi, it), (n, tree.describe())
            tree_count += 1
    print(f"ACCEPTANCE 4: PASS - operator identities n=2..6, conserved vector at n=3 (alpha=1,2), {tree_count} splitting trees commute exactly")


def test_criterion_5_quantum_rigid_body_n6():
    """The n = 6 commutator battery at (1,2,3,4,5,6) and two further random
    distinct rational moment vectors; exact zeros of canonical forms."""
    rng = random.Random(2718)
    lams = [tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6))]
    while len(lams) < 3:
        vals = tuple(_distinct_rationals(6, rng))
        lams.append(vals)
    required = [
        "[c2,0 , c3,1]",
        "[c5,3 , c6,4]",
        "[c2,0 , c5,1]",
        "[c6,4 , c5,1]",
        "[H , c5,1]",
        "[H , c6,2] != 0",
        "[H , c6,2] == Sym3 expansion",
        "[H , C6,2]",
        "[c2,0 , C6,2]",
        "[c6,4 , C6,2]",
        "[c5,1 , C6,2]",
        "correction commutator == Sym3/Sym5 expansion",
    ]
    for k, lam in enumerate(lams):
        spec = MomentSpec.from_lambdas(lam)
        report = verify_quantum_rigid(6, spec)
        assert report.ok, (k, [c.id for c in report.failures])
        ids = [c.id for c in report.checks]
        for rid in required:
            assert any(rid in i for i in ids), (k, rid)
        if k == 0:
            spot = hamiltonian_obstruction_b(spec, 1, 2, 3)
            assert spot == Fraction(-5, 3)
            (check,) = [c for c in report.checks if c.id == "[H , c6,2] == Sym3 expansion"]
            assert check.witness == f"b^123 = {spot}"
    print("ACCEPTANCE 5: PASS - n=6 quantum battery exact at 3 moment samples; spot b^123 = -5/3; commutators equal minus the displayed expansions (orientation pinned by independent cross-check)")


def test_criterion_6_property_suites():
    """Randomized property families, 100 cases each, fixed seeds, zero failures."""
    # PBW confluence against an order-agnostic rewriter
    rng = random.Random(61)
    n = 4
    plist = pair_list(n)
    for _ in range(100):
        word = tuple(rng.randrange(len(plist)) for _ in range(rng.randint(1, 4)))
        coef = Fraction(rng.randint(1, 4))
        engine = pbw_normalize(n, [(word, coef)])
        out = {}
        work = [(word, coef)]
        while work:
            w, c = work.pop(rng.randrange(len(work)))
            desc = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
            if desc is None:
                cur = out.get(w, 0) + c
                if cur:
                    out[w] = cur
                else:
                    out.pop(w, None)
                continue
            work.append((w[:desc] + (w[desc + 1], w[desc]) + w[desc + 2 :], c))
            br = gen_bracket(n, w[desc], w[desc + 1])
            if br is not None:
                h, s = br
                work.append((w[:desc] + (h,) + w[desc + 2 :], c * s))
        assert engine.terms == out

    # Jacobi: canonical bracket
    rng = random.Random(62)
    for _ in range(100):
        polys = []
        for _ in range(3):
            t = PhasePoly.const(3, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 3)):
                pick = rng.random()
                if pick < 0.5:
                    t = t * PhasePoly.coordinate(3, rng.randint(1, 3))
                else:
                    t = t * PhasePoly.momentum(3, rng.randint(1, 3))
            polys.append(t)
        f, g, h = polys
        jac = (
            canonical_bracket(canonical_bracket(f, g), h)
            + canonical_bracket(canonical_bracket(g, h), f)
            + canonical_bracket(canonical_bracket(h, f), g)
        )
        assert jac.is_zero()

    # Jacobi: momentum bracket
    rng = random.Random(63)
    for _ in range(100):
        polys = []
        for _ in range(3):
            t = LiePoissonPoly.const(4, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 2)):
                t = t * LiePoissonPoly.gen(4, pair_list(4)[rng.randrange(6)])
            polys.append(t)
        f, g, h = polys
        jac = (
            lie_poisson_bracket(lie_poisson_bracket(f, g), h)
            + lie_poisson_bracket(lie_poisson_bracket(g, h), f)
            + lie_poisson_bracket(lie_poisson_bracket(h, f), g)
        )
        assert jac.is_zero()

    # Jacobi: operator algebras (words in the enveloping algebra, and the
    # differential-operator algebra through composition)
    rng = random.Random(64)
    for case in range(100):
        words = []
        for _ in range(3):
            w = tuple(sorted(rng.randrange(6) for _ in range(rng.randint(1, 2))))
            words.append(PBWElement(4, {w: Fraction(rng.randint(1, 3))}))
        a, b, c = words
        jac = (
            uea_commutator(uea_commutator(a, b), c)
            + uea_commutator(uea_commutator(b, c), a)
            + uea_commutator(uea_commutator(c, a), b)
        )
        assert jac.is_zero()

    # Jacobi and symbol homomorphism in the differential-operator algebra
    rng = random.Random(68)
    for _ in range(100):
        ops = []
        for _ in range(3):
            t = WeylOperator.const(2, Fraction(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5:
                    t = compose(t, WeylOperator.coordinate(2, rng.randint(1, 2)))
                else:
                    t = compose(t, WeylOperator.momentum(2, rng.randint(1, 2)))
            ops.append(t)
        a, b, c = ops
        jac = (
            weyl_commutator(weyl_commutator(a, b), c)
            + weyl_commutator(weyl_commutator(b, c), a)
            + weyl_commutator(weyl_commutator(c, a), b)
        )
        assert jac.is_zero()
        prod = compose(a, b)
        if prod.p_degree() == a.p_degree() + b.p_degree():
            assert prod.principal_symbol() == top_p_part(
                a.principal_symbol() * b.principal_symbol()
            )

    # principal-symbol homomorphism (enveloping algebra)
    rng = random.Random(65)
    for _ in range(100):
        wa = tuple(sorted(rng.randrange(6) for _ in range(rng.randint(1, 2))))
        wb = tuple(sorted(rng.randrange(6) for _ in range(rng.randint(1, 2))))
        a = PBWElement(4, {wa: Fraction(rng.randint(1, 3))})
        b = PBWElement(4, {wb: Fraction(rng.randint(1, 3))})
        comm = uea_commutator(a, b)
        d = len(wa) + len(wb) - 1
        top = PBWElement(4, {w: c for w, c in comm.terms.items() if len(w) == d})
        assert top.principal_symbol() == lie_poisson_bracket(a.principal_symbol(), b.principal_symbol())

    # conjugation invariance of the Casimir coefficients
    rng = random.Random(66)
    for _ in range(100):
        n_c = rng.randint(2, 5)
        a = random_skew(n_c, rng, 30)
        x = cayley_orthogonal(random_skew(n_c, rng, 10))
        assert casimir_set(right_from_left(x, a)) == casimir_set(a)

    # commutant dimension [n/2] at generic points, n <= 7
    rng = random.Random(67)
    cases = [2] * 25 + [3] * 20 + [4] * 20 + [5] * 15 + [6] * 12 + [7] * 8
    assert len(cases) == 100
    for n_k in cases:
        assert ad_kernel_dim(random_skew(n_k, rng)) == n_k // 2
    print("ACCEPTANCE 6: PASS - 8 property families x 100 seeded cases, zero failures")


def test_criterion_7_dynamics_corroboration():
    """RK4 at n = 4, moments (1,2,3,4), dt = 1e-3, t = 10: drift < 1e-6 for
    the five monitored invariants, halving ratio in [12, 20], negative
    control above 1e-3."""
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4)))
    rng = random.Random(4)
    p0 = default_initial_momentum(4, rng, scale=80.0)
    state = FlowState.from_spec(spec, p0)
    invariants = [hamiltonian(spec)] + [
        manakov_integral(ManakovIndex(k, l), 4, spec)
        for (k, l) in [(2, 1), (4, 2), (3, 1), (4, 1)]
    ]
    names = ["H", "c2,0", "c4,0", "c3,1", "c4,2"]
    coarse_samples = integrate(state, 1e-3, 10000, stride=100)
    drifts = conservation_report(coarse_samples, invariants)
    for name, d in zip(names, drifts):
        assert d < 1e-6, (name, d)
    fine = conservation_report(integrate(state, 5e-4, 20000, stride=200), invariants)
    for name, a, b in zip(names, drifts, fine):
        assert 12 <= a / b <= 20, (name, a / b)
    control = LiePoissonPoly.gen(4, (1, 2))
    (bad,) = conservation_report(coarse_samples, [control])
    assert bad > 1e-3
    print(
        f"ACCEPTANCE 7: PASS - max drift {max(drifts):.2e} < 1e-6, halving ratios "
        f"{[f'{a/b:.1f}' for a, b in zip(drifts, fine)]} in [12,20], negative control {bad:.2e} > 1e-3"
    )
