import itertools
import random
from fractions import Fraction

import pytest

from manakov.brackets import (
    LiePoissonPoly,
    PhasePoly,
    canonical_bracket,
    lie_poisson_bracket,
    momentum_vars,
)
from manakov.central_force import (
    emit_tables,
    generic_hamiltonian,
    item_function,
    kepler_hamiltonian,
    kinetic,
    momenta,
    momentum,
    oscillator_hamiltonian,
    p_squared,
    r_squared,
    runge_lenz_vector,
)
from manakov.charts import CotangentChart, GroupChart, MomentumPullback, involution_report, jacobian_rank, momentum_table
from manakov.radical import RadicalElement, x_vars
from manakov.report import VerificationReport
from manakov.son import bracket as matrix_bracket
from manakov.ratfunc import MultiPoly, RationalFunction
from manakov.son import basis_element, dim_so, lambda_vars, pair_list, structure_table
from manakov.rigid_body import hamiltonian
from manakov.son import MomentSpec
from oracles import lie_poisson_bracket_by_table, lie_poisson_bracket_per_term, x_dot_p


def test_bracket_sign_convention():
    # the single most error-prone convention: {p_i, x_j} = delta_ij
    n = 2
    p1 = PhasePoly.momentum(n, 1)
    x1 = PhasePoly.coordinate(n, 1)
    x2 = PhasePoly.coordinate(n, 2)
    assert canonical_bracket(p1, x1) == PhasePoly.const(n, 1)
    assert canonical_bracket(x1, p1) == PhasePoly.const(n, -1)
    assert canonical_bracket(p1, x2).is_zero()


def test_momentum_bracket_relations():
    n = 3
    assert canonical_bracket(momentum(n, 1, 2), momentum(n, 2, 3)) == momentum(n, 1, 3)
    # {x_i, P_jk} = d_ij x_k - d_ik x_j and the momentum analogue
    assert canonical_bracket(PhasePoly.coordinate(n, 1), momentum(n, 2, 3)).is_zero()
    assert canonical_bracket(PhasePoly.coordinate(n, 2), momentum(n, 2, 3)) == PhasePoly.coordinate(n, 3)
    assert canonical_bracket(PhasePoly.momentum(n, 2), momentum(n, 2, 3)) == PhasePoly.momentum(n, 3)


def test_momentum_brackets_match_matrix_brackets():
    # {P_ij, P_hk} realizes the same structure constants as [D_ij, D_hk]
    n = 4
    for (i, j) in pair_list(n):
        for (h, k) in pair_list(n):
            br = canonical_bracket(momentum(n, i, j), momentum(n, h, k))
            mat = matrix_bracket(basis_element(n, i, j), basis_element(n, h, k))
            expected = PhasePoly.zero(n)
            for (a, b), c in mat.upper.items():
                expected = expected + c * momentum(n, a, b)
            assert br == expected


def test_p_squared_involution():
    n = 4
    p2 = p_squared(n)
    for (i, j) in pair_list(n):
        assert canonical_bracket(p2, momentum(n, i, j)).is_zero()


def test_p2_r2_bracket():
    n = 3
    assert canonical_bracket(kinetic(n), r_squared(n)) == 4 * x_dot_p(n)


def test_scalars_commute_with_momenta():
    n = 4
    for f in (r_squared(n), kinetic(n)):
        for (i, j) in pair_list(n):
            assert canonical_bracket(f, momentum(n, i, j)).is_zero()


def test_canonical_jacobi_and_leibniz():
    rng = random.Random(3)
    n = 3

    def rand_poly():
        acc = PhasePoly.zero(n)
        for _ in range(rng.randint(1, 2)):
            t = PhasePoly.const(n, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    t = t * PhasePoly.coordinate(n, rng.randint(1, n))
                else:
                    t = t * PhasePoly.momentum(n, rng.randint(1, n))
            acc = acc + t
        return acc

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        jac = (
            canonical_bracket(canonical_bracket(f, g), h)
            + canonical_bracket(canonical_bracket(g, h), f)
            + canonical_bracket(canonical_bracket(h, f), g)
        )
        assert jac.is_zero()
        assert canonical_bracket(f, g * h) == canonical_bracket(f, g) * h + g * canonical_bracket(f, h)
        assert (canonical_bracket(f, g) + canonical_bracket(g, f)).is_zero()


def test_lie_poisson_structure():
    n = 4
    assert lie_poisson_bracket(
        LiePoissonPoly.gen(n, (1, 2)), LiePoissonPoly.gen(n, (1, 3))
    ) == -LiePoissonPoly.gen(n, (2, 3))
    c1 = sum(
        (LiePoissonPoly.gen(n, p) ** 2 for p in pair_list(n)), LiePoissonPoly.zero(n)
    )
    for p in pair_list(n):
        assert lie_poisson_bracket(c1, LiePoissonPoly.gen(n, p)).is_zero()


def test_lie_poisson_jacobi_and_antisymmetry():
    rng = random.Random(11)
    n = 4
    plist = pair_list(n)

    def rand_poly():
        acc = LiePoissonPoly.zero(n)
        for _ in range(rng.randint(1, 3)):
            t = LiePoissonPoly.const(n, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 3)):
                t = t * LiePoissonPoly.gen(n, plist[rng.randrange(len(plist))])
            acc = acc + t
        return acc

    for _ in range(20):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        jac = (
            lie_poisson_bracket(lie_poisson_bracket(f, g), h)
            + lie_poisson_bracket(lie_poisson_bracket(g, h), f)
            + lie_poisson_bracket(lie_poisson_bracket(h, f), g)
        )
        assert jac.is_zero()
        assert lie_poisson_bracket(f, f).is_zero()
        assert lie_poisson_bracket(f, g * h) == lie_poisson_bracket(f, g) * h + g * lie_poisson_bracket(f, h)


def test_symbolic_lie_poisson_bracket_factors_no_polynomial(monkeypatch):
    # symbolic coefficients multiply by adding exponents and add by lifting
    # them: the bracket never factors a denominator or takes a gcd
    from manakov import ratfunc
    from manakov.rigid_body import ManakovIndex, hamiltonian, manakov_integral
    from manakov.son import MomentSpec

    spec = MomentSpec.symbolic(4)
    h, c = hamiltonian(spec), manakov_integral(ManakovIndex(4, 1), 4, spec)
    calls = []
    for name in ("poly_gcd", "factor_declared"):
        real = getattr(ratfunc, name)
        monkeypatch.setattr(ratfunc, name, lambda *args, real=real: calls.append(1) or real(*args))
    assert lie_poisson_bracket(h, c).is_zero()
    assert len(calls) == 0
    # the counter does see a denominator being factored
    lam = lambda_vars(4)
    RationalFunction(MultiPoly.const(lam, 1), MultiPoly.gen(lam, 0))
    assert len(calls) == 1
    monkeypatch.undo()

    # the integer loop runs once per pair of denominator classes, and each
    # coefficient is joined into a quotient once per pair: a zero bracket of
    # one class against one class does no rational-function arithmetic, and
    # one of many classes at most one sum per (monomial, class pair)
    spec5 = MomentSpec.symbolic(5)
    c31, c42 = manakov_integral(ManakovIndex(3, 1), 5, spec5), manakov_integral(ManakovIndex(4, 2), 5, spec5)
    assert len(_denominator_parts(c31)) == len(_denominator_parts(c42)) == 1
    arithmetic = _count_rational_function_arithmetic(monkeypatch)
    assert lie_poisson_bracket(c31, c42).is_zero()
    assert arithmetic == []
    monkeypatch.undo()
    h_parts, c_parts = _denominator_parts(h), _denominator_parts(c)
    assert len(h_parts) == 6 and len(c_parts) == 1
    # the monomials that some pair of classes reaches before they are summed
    reached = set()
    for a in h_parts:
        for b in c_parts:
            reached |= set(lie_poisson_bracket(a, b).terms)
    arithmetic = _count_rational_function_arithmetic(monkeypatch)
    assert lie_poisson_bracket(h, c).is_zero()
    assert 0 < len(arithmetic) <= len(reached) * len(h_parts) * len(c_parts)


def _count_rational_function_arithmetic(monkeypatch):
    """Count every RationalFunction sum and product from here on."""
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        real = getattr(RationalFunction, name)
        monkeypatch.setattr(RationalFunction, name, lambda a, b, real=real: calls.append(1) or real(a, b))
    return calls


def _denominator_parts(f):
    """f split into one polynomial per denominator class of its coefficients."""
    parts = {}
    for m, c in f.terms.items():
        parts.setdefault(c.e, {})[m] = c
    return [f._new(terms) for terms in parts.values()]


def _random_momentum_poly(rng, n, kind, max_deg, side, moments=None):
    """A random polynomial in the momenta of so(n) with total degree at
    most ``max_deg``; ``kind`` picks int, non-integer Fraction,
    RationalFunction coefficients over the variables ``moments`` (lambda by
    default) or a mix of Fraction and RationalFunction."""
    lam = moments or lambda_vars(n)
    gens = [MultiPoly.gen(lam, i) for i in range(len(lam))]
    factors = [a + b for a, b in itertools.combinations(gens, 2)]

    def coeff():
        if kind == "int":
            return rng.choice([-3, -2, -1, 1, 2, 5])
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 7))
        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
            return c
        num = MultiPoly.const(lam, c) + rng.choice(gens) * rng.randint(-2, 2)
        return RationalFunction(num, rng.choice(factors)) if rng.random() < 0.5 else RationalFunction(num)

    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * dim_so(n)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(dim_so(n))] += 1
        terms[tuple(mono)] = coeff()
    return LiePoissonPoly(n, MultiPoly(momentum_vars(n), terms), side)


def _symbolic_operand(rng, spec, side):
    """A momentum polynomial over the moments of ``spec``: zero, a constant,
    H (one denominator class per pair), c * H for a random c, or a random
    polynomial with RationalFunction or mixed coefficients."""
    n, vars = spec.n, spec.coeff_one().vars
    shape = rng.randrange(8)
    if shape == 0:
        return LiePoissonPoly.zero(n, side)
    if shape == 1:
        return LiePoissonPoly.const(n, spec.lambdas[0] / (spec.lambdas[0] + spec.lambdas[-1]), side)
    if shape in (2, 3):
        h = LiePoissonPoly(n, hamiltonian(spec), side)
        return h if shape == 2 else h * _random_momentum_poly(rng, n, "symbolic", 1, side, vars)
    return _random_momentum_poly(rng, n, ("symbolic", "mixed")[shape % 2], 2, side, vars)


def _coefficient_triples(f, vars):
    """{monomial: (c, p, e)} of f's coefficients read over ``vars``."""
    out = {}
    for m, c in f.terms.items():
        c = c if isinstance(c, RationalFunction) else RationalFunction.const(vars, c)
        out[m] = (c.c, c.p.terms, c.e)
    return out


def test_lie_poisson_kernel_matches_table_oracle(monkeypatch):
    # the N-product packed kernel against the structure-table formula, on
    # both sides, over int, Fraction and symbolic coefficients, with
    # operands of total degree 0 and 1 among them
    rng = random.Random(97)
    kinds = ("int", "fraction", "symbolic")
    nonzero = 0
    for case in range(100):
        n = 3 + case % 4
        side = "LR"[case // 4 % 2]
        kind_f, kind_g = kinds[case % 3], kinds[case // 3 % 3]
        deg_f = (0, 1, 3, 3)[case % 4] if kind_f != "symbolic" else rng.randint(1, 2)
        f = _random_momentum_poly(rng, n, kind_f, deg_f, side)
        g = _random_momentum_poly(rng, n, kind_g, rng.randint(1, 3 if kind_g != "symbolic" else 2), side)
        br = lie_poisson_bracket(f, g)
        assert br.side == side
        assert br == lie_poisson_bracket_by_table(f, g)
        if "symbolic" not in (kind_f, kind_g):
            assert all(isinstance(c, Fraction) for c in br.terms.values())
        nonzero += not br.is_zero()
    assert nonzero > 50

    # the denominator-class split against one rational-function product and
    # sum per pair of terms, triple for triple: n = 3..6, moments over
    # lambda and over the class symbols mu of a partition, operands with
    # many classes (H, c * H), mixed Fraction and rational-function
    # coefficients, zero and constant operands, rational operands against
    # symbolic ones, and both sides; no call does more rational-function
    # sums and products than the loop it replaces
    partitions = {3: (1, 2), 4: (2, 2), 5: (2, 3), 6: (1, 2, 3)}
    nonzero = 0
    arithmetic = _count_rational_function_arithmetic(monkeypatch)
    for case in range(100):
        n = 3 + case % 4
        spec = MomentSpec.from_partition(partitions[n]) if case % 3 == 2 else MomentSpec.symbolic(n)
        vars = spec.coeff_one().vars
        side = "LR"[case // 4 % 2]
        f = _symbolic_operand(rng, spec, side)
        g = _random_momentum_poly(rng, n, "fraction", 2, side) if case % 5 == 4 else _symbolic_operand(rng, spec, side)
        f, g = (f, g) if case % 2 else (g, f)
        arithmetic.clear()
        br = lie_poisson_bracket(f, g)
        ours = len(arithmetic)
        expected = lie_poisson_bracket_per_term(f, g)
        assert ours <= len(arithmetic) - ours
        assert br.side == side
        assert _coefficient_triples(br, vars) == _coefficient_triples(expected, vars)
        nonzero += not br.is_zero()
    assert nonzero > 30
    # one pair of classes whose numerator holds a denominator factor: the
    # join must cancel it, as no sum with another class does
    lam = lambda_vars(3)
    l1, l2, l3 = (MultiPoly.gen(lam, i) for i in range(3))
    f = LiePoissonPoly.gen(3, (1, 2)).scale(RationalFunction(l1, l1 + l2))
    g = LiePoissonPoly.gen(3, (1, 3)).scale(RationalFunction(l1 + l2, l3))
    br = lie_poisson_bracket(f, g)
    assert _coefficient_triples(br, lam) == _coefficient_triples(lie_poisson_bracket_per_term(f, g), lam)
    assert [c.e for c in br.terms.values()] == [(0, 0, 0, 0, 0, 1)]


def test_lie_poisson_kernel_high_exponents():
    # exponents past 255: the packed fields widen with the degrees
    n = 4
    vars = momentum_vars(n)
    f = LiePoissonPoly(n, MultiPoly(vars, {(300, 1, 0, 0, 0, 2): Fraction(3, 2), (0, 0, 256, 0, 0, 0): Fraction(1)}))
    g = LiePoissonPoly(n, MultiPoly(vars, {(0, 255, 0, 1, 0, 0): Fraction(-5, 7), (1, 0, 0, 0, 1, 0): Fraction(2)}))
    br = lie_poisson_bracket(f, g)
    assert max(max(m) for m in br.terms) >= 256
    assert br == lie_poisson_bracket_by_table(f, g)
    # moment degrees whose sum passes 255 under small momentum degrees: the
    # moment fields set the width
    lam = lambda_vars(n)
    l1, l2 = MultiPoly.gen(lam, 0), MultiPoly.gen(lam, 1)
    a = RationalFunction(l1**200 * 3 + l2, l1 + l2)
    b = RationalFunction(l1**100 * l2**7 - 2, l2)
    f = LiePoissonPoly(n, MultiPoly(vars, {(1, 0, 0, 0, 0, 1): a, (0, 0, 1, 0, 0, 0): Fraction(1, 2)}))
    g = LiePoissonPoly(n, MultiPoly(vars, {(0, 1, 0, 1, 0, 0): b, (0, 0, 0, 0, 1, 0): a}))
    br = lie_poisson_bracket(f, g)
    assert max(max(m) for c in br.terms.values() for m in c.p.terms) >= 300
    assert _coefficient_triples(br, lam) == _coefficient_triples(lie_poisson_bracket_per_term(f, g), lam)
    assert br == lie_poisson_bracket_by_table(f, g)


def test_left_right_momenta_commute_and_right_sign():
    n = 3
    left = LiePoissonPoly.gen(n, (1, 2), side="L")
    right = LiePoissonPoly.gen(n, (1, 3), side="R")
    assert lie_poisson_bracket(left, right).is_zero()
    r12 = LiePoissonPoly.gen(n, (1, 2), side="R")
    r13 = LiePoissonPoly.gen(n, (1, 3), side="R")
    assert lie_poisson_bracket(r12, r13) == LiePoissonPoly.gen(n, (2, 3), side="R")


def test_structure_table_single_term():
    # distinct ordered pairs bracket to at most one signed generator
    for n in (3, 4, 5):
        for (u, v), (w, s) in structure_table(n).items():
            assert u < v
            assert s in (-1, 1)


def test_rank_of_momentum_map():
    rng = random.Random(5)
    n = 3
    pt = CotangentChart.random(n, rng)
    pi = [p_squared(n), momentum(n, 1, 3), momentum(n, 2, 3)]
    assert jacobian_rank(pi, pt) == 2 * n - 3


def test_rank_full_set_free_particle():
    rng = random.Random(7)
    n = 4
    h = Fraction(1, 2) * kinetic(n)
    funcs = [h, p_squared(n)] + [momentum(n, i, j) for (i, j) in [(1, 3), (1, 4), (2, 3), (2, 4)]]
    pt = CotangentChart.random(n, rng)
    assert jacobian_rank(funcs, pt) == 2 * n - 2


def test_rank_momenta_left_right_and_b():
    rng = random.Random(9)
    for n in (3, 4, 5):
        gc = GroupChart.random(n, rng, bound=12)
        nn = len(pair_list(n))
        pl = [LiePoissonPoly.gen(n, p, side="L") for p in pair_list(n)]
        pr = [LiePoissonPoly.gen(n, p, side="R") for p in pair_list(n)]
        assert jacobian_rank(pl, gc) == nn
        assert jacobian_rank(pr, gc) == nn
        assert jacobian_rank(pl + pr, gc) == 2 * nn - n // 2


def test_group_chart_derivatives_reuse_the_cayley_inverse(monkeypatch):
    # (I + S)^-1 = (I + X)/2, so a chart inverts I + S once, for X itself;
    # its rank-2 outer products give the tables of the dense products
    from manakov import son
    from oracles import momentum_derivatives_by_inverse

    calls = []
    real_invert = son.invert
    monkeypatch.setattr(son, "invert", lambda m: calls.append(m) or real_invert(m))
    rng = random.Random(17)
    for k in range(20):
        n = 3 + k % 4
        calls.clear()
        gc = GroupChart.random(n, rng, bound=(12, 10**6)[k % 2])
        assert gc._momentum_derivatives() == momentum_derivatives_by_inverse(gc)
        assert len(calls) == 1


def test_rank_b_lambda():
    from manakov.rigid_body import partitions

    rng = random.Random(13)
    for n in (3, 4, 5):
        for q in partitions(n):
            if len(q) == 1:
                continue
            mus = []
            while len(mus) < len(q):
                v = Fraction(rng.randint(1, 20), rng.randint(1, 20))
                if v not in mus:
                    mus.append(v)
            from manakov.son import MomentSpec

            spec = MomentSpec.from_partition_values(q, mus)
            gc = GroupChart.random(n, rng, bound=12)
            nn = len(pair_list(n))
            funcs = [LiePoissonPoly.gen(n, p, side="L") for p in spec.equal_moment_pairs()]
            funcs += [LiePoissonPoly.gen(n, p, side="R") for p in pair_list(n)]
            s1 = sum(q[i] * q[j] for i in range(len(q)) for j in range(i + 1, len(q)))
            assert jacobian_rank(funcs, gc) == 2 * nn - s1


def test_involution_report_witnesses():
    n = 3
    rep = involution_report(
        [p_squared(n)], [momentum(n, 1, 2), kinetic(n)], labels_a=["P2"], labels_b=["P12", "p2"]
    )
    assert rep.ok
    rep2 = involution_report([kinetic(n)], [r_squared(n)])
    assert not rep2.ok
    assert "p" in rep2.checks[0].witness  # the nonzero bracket 4 x.p is recorded


def _seeded_invariant(rng, n):
    """A seeded f(p^2, r^2, x.p, P^2): a rational sum of products of at most
    two of the invariants."""
    invariants = [kinetic(n), r_squared(n), x_dot_p(n), p_squared(n)]
    f = PhasePoly.zero(n)
    for _ in range(3):
        factor = rng.choice(invariants + [PhasePoly.const(n, 1)])
        f = f + rng.choice(invariants) * factor * Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    return f


def _seeded_radical_phase(rng, n):
    """A seeded phase polynomial of p-degree 1 or 2 whose coefficients are
    (a + b r)/q^e, a and b seeded polynomials in x: not rotation-invariant."""
    xs = x_vars(n)

    def poly():
        return MultiPoly(xs, {tuple(rng.randint(0, 1) for _ in range(n)): Fraction(rng.randint(-3, 3))})

    terms = {}
    for _ in range(3):
        mono = [0] * n
        for _ in range(rng.randint(1, 2)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = RadicalElement(n, poly(), poly(), rng.randint(0, 1))
    f = PhasePoly(n, terms)
    return f if f else PhasePoly.momentum(n, 1)


def _seeded_cubic(rng, n):
    """F o P for a seeded cubic F on so(n)* with a P_12 term, so that the
    support of F starts at P_12 and reaches past it."""
    vars = momentum_vars(n)
    terms = {tuple(int(k == 0) for k in range(len(vars))): Fraction(rng.randint(1, 3))}
    for degree in (2, 3):
        mono = [0] * len(vars)
        for _ in range(degree):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
    return MomentumPullback(LiePoissonPoly(n, MultiPoly(vars, terms)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_structural_zeros_agree_with_the_kernel(n):
    # involution_report decides a pair without the canonical kernel when
    # antisymmetry or the chain rule through P makes it zero.  Each such
    # decision is checked against ``canonical_bracket``, over phase
    # functions h that are rotation-invariant (every {h, F o P} is then
    # decided by the chain rule) or not (Runge-Lenz components: A_n
    # commutes with P_12 but not with the P_in after it; seeded radical
    # coefficients), and pullbacks F o P of pairs, squares and seeded
    # cubics, against h and against each other
    from manakov import charts

    rng = random.Random(2300 + n)
    alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    invariant = [generic_hamiltonian(n), kepler_hamiltonian(n, alpha), oscillator_hamiltonian(n), _seeded_invariant(rng, n)]
    lenz = runge_lenz_vector(n, alpha)
    moving = [lenz[0], lenz[-1], _seeded_radical_phase(rng, n), _seeded_radical_phase(rng, n)]
    subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, n))))
    items = [("pair", (1, 2)), ("pair", tuple(sorted(rng.sample(range(1, n + 1), 2)))), ("square", subset)]
    items.append(("square", tuple(range(1, n + 1))))
    pullbacks = [item_function(n, item) for item in items] + [_seeded_cubic(rng, n), _seeded_cubic(rng, n)]
    table = momentum_table(n)

    def phase(f):
        return f.phase if isinstance(f, MomentumPullback) else f

    for h in invariant + moving:
        for pullback in pullbacks:
            commutes = all(canonical_bracket(h, table[pair]).is_zero() for pair, _ in pullback.partials)
            for f, g in ((h, pullback), (pullback, h)):
                kernel = canonical_bracket(phase(f), phase(g))
                decided = charts.vanishes_by_structure(f, g)
                # the chain rule fires exactly when h commutes with the
                # whole support of F, always for an invariant h; it is never
                # wrong, and every undecided pair gets the kernel's value
                assert decided == commutes and (decided or h not in invariant), (f, g)
                assert not decided or kernel.is_zero(), (f, g)
                assert involution_report([f], [g]).checks[0].witness == ("0" if kernel.is_zero() else str(kernel))
    # two pullbacks: equal images, or the chain rule in either order, the
    # commutation of an image with a P_ij read on so(n)*
    def commutes_with_support(f, g):
        return all(lie_poisson_bracket(f.image, LiePoissonPoly.gen(n, pair)).is_zero() for pair, _ in g.partials)

    nonzero = 0
    for f in pullbacks:
        for g in pullbacks:
            kernel = canonical_bracket(f.phase, g.phase)
            decided = charts.vanishes_by_structure(f, g)
            assert decided == (f.image == g.image or commutes_with_support(f, g) or commutes_with_support(g, f))
            assert not decided or kernel.is_zero(), (f, g)
            assert involution_report([f], [g]).checks[0].witness == ("0" if kernel.is_zero() else str(kernel))
            nonzero += not kernel.is_zero()
    assert nonzero
    # a zero sum of nonzero chain-rule terms is left to the kernel: P^2 is
    # a Casimir, so {P_12, P^2} = 0 though {P_12, P_13} is not
    whole = item_function(n, ("square", tuple(range(1, n + 1))))
    assert not charts.vanishes_by_structure(table[1, 2], whole)
    assert involution_report([table[1, 2]], [whole]).ok
    # as pullbacks, only the swapped order decides it: P^2 commutes with P_12
    p12 = item_function(n, ("pair", (1, 2)))
    assert not commutes_with_support(p12, whole) and commutes_with_support(whole, p12)
    assert charts.vanishes_by_structure(p12, whole) and charts.vanishes_by_structure(whole, p12)
    # a whole report, diagonal and item pairs included, equals the one
    # built from the kernel alone
    batch = [invariant[0], moving[-1]] + pullbacks
    labels = [f"F{k}" for k in range(len(batch))]
    expected = VerificationReport()
    kernel = {}
    for i, f in enumerate(batch):
        for j, g in enumerate(batch):
            kernel[i, j] = canonical_bracket(phase(f), phase(g))
            expected.add_zero(f"involution/{{{labels[i]},{labels[j]}}}", "", kernel[i, j])
    assert involution_report(batch, batch, labels, labels).to_json() == expected.to_json()
    assert any(not value.is_zero() for value in kernel.values())


def test_equal_hashes_do_not_make_functions_equal(monkeypatch):
    # antisymmetry needs equal functions, not equal hashes: two different
    # phase polynomials, and two pullbacks with different images, whose
    # hashes are all forced equal are still bracketed; the (function, P_ij)
    # memo then holds colliding keys of both kinds
    from manakov import brackets, charts

    n = 3
    f, g = kinetic(n), r_squared(n)
    a, b = (MomentumPullback(LiePoissonPoly.gen(n, pair)) for pair in ((1, 2), (1, 3)))
    monkeypatch.setattr(PhasePoly, "__hash__", lambda self: 12345)
    monkeypatch.setattr(LiePoissonPoly, "__hash__", lambda self: 12345)
    try:
        assert hash(f) == hash(g) == hash(a.image) == hash(b.image)
        assert not involution_report([f], [g]).ok
        assert not involution_report([a], [b]).ok
        assert involution_report([f, a], [f, a]).ok
    finally:
        brackets.partials.cache_clear()
        charts._commutes_with_momentum.cache_clear()


def test_canonical_bracket_kernel_runs_once_per_unordered_pair(monkeypatch):
    # the n = 4 table rows ask for some pairs more than once (every row
    # starts with the generic H).  {H, H} is zero by antisymmetry, and every
    # pair with an item by the chain rule, on the (function, P_ij) memo:
    # the kernel forms exactly the six {H, P_ij}, each once, and the memo
    # asks each (function, P_ij) once
    from manakov import charts

    formed, on_so = [], []
    real_kernel, real_lie_poisson = charts.canonical_bracket, charts.lie_poisson_bracket
    monkeypatch.setattr(charts, "canonical_bracket", lambda f, g: formed.append((f, g)) or real_kernel(f, g))
    monkeypatch.setattr(charts, "lie_poisson_bracket", lambda f, g: on_so.append((f, g)) or real_lie_poisson(f, g))
    charts._commutes_with_momentum.cache_clear()
    rows = emit_tables(4, random.Random(0), points=0)
    assert all(report.ok for _, report in rows)
    h = generic_hamiltonian(4)
    assert len(formed) == len(set(formed)) == 6
    assert set(formed) == {(h, p) for p in momenta(4)}
    assert on_so and len(on_so) == len(set(on_so))
    memo = charts._commutes_with_momentum.cache_info()
    assert memo.misses == memo.currsize == len(formed) + len(on_so) and memo.hits > 0


def test_sphere_chart_is_exact():
    rng = random.Random(21)
    for n in (2, 3, 5):
        for _ in range(5):
            pt = CotangentChart.random(n, rng)
            assert sum(v * v for v in pt.x) == pt.r**2
            assert pt.r > 0


def test_chart_rejects_irrational_radius():
    with pytest.raises(ValueError):
        CotangentChart(2, [Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)])
