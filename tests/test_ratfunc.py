import inspect
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from manakov.radical import RadicalElement, x_square_poly, x_vars
from manakov.ratfunc import (
    MultiPoly,
    RationalFunction,
    add_terms,
    declare_factors,
    divide_out,
    factor_declared,
    poly_gcd,
    rational,
)
from manakov.son import lambda_vars
from oracles import FractionRationalFunction, GeneralQuotient, divexact, general_gcd

V = ("a", "b", "c")


def gen(i):
    return MultiPoly.gen(V, i)


def _moment_factors(vars):
    singles = [MultiPoly.gen(vars, i) for i in range(len(vars))]
    return [singles[i] + singles[j] for i in range(len(vars)) for j in range(i + 1, len(vars))] + singles


# the shipped ring over V cancels pair sums and single variables, as over
# the moments; anything else needs the general gcd of ``oracles``
declare_factors(V, _moment_factors(V))


def const(c):
    return MultiPoly.const(V, c)


def random_poly(rng, max_terms=4, max_deg=3, bound=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in V)
        terms[mono] = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return MultiPoly(V, terms)


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)
    f = rational("10/4")
    assert (f.numerator, f.denominator) == (5, 2)
    assert f.denominator > 0


def test_basic_arithmetic():
    a, b = gen(0), gen(1)
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b
    assert p - p == MultiPoly.zero(V)
    assert not (p - p)


def test_no_zero_terms_stored():
    a = gen(0)
    p = a - a
    assert p.terms == {}
    q = MultiPoly(V, {(1, 0, 0): Fraction(0)})
    assert q.terms == {}


def test_arithmetic_results_hold_no_zero_coefficient():
    # +, -, *, diff and division build their results without the
    # constructor's zero filter, so each must leave no zero behind itself;
    # small coefficients over few monomials make sums cancel often
    rng = random.Random(71)

    def zero_free(p):
        assert isinstance(p, MultiPoly) and p.vars == V
        assert all(c for c in p.terms.values()), p.terms
        return p

    for _ in range(100):
        p, q = random_poly(rng, max_deg=1, bound=2), random_poly(rng, max_deg=1, bound=2)
        for r in (p + q, p - q, p - p, -p, p * q, p * 0, p * Fraction(-2, 3), 3 * p, p.diff(rng.randrange(3))):
            zero_free(r)
        if q:
            zero_free((p * q)._try_div(q))
            zero_free(p._try_div(q.leading()[1] * const(1)))
        zero_free(p - p.constant_value())


def test_diff_and_eval():
    a, b, c = gen(0), gen(1), gen(2)
    p = a * a * b + 3 * c
    assert p.diff(0) == 2 * a * b
    assert p.diff(2) == const(3)
    assert p.eval([Fraction(2), Fraction(3), Fraction(-1)]) == 12 - 3


def test_divexact():
    a, b = gen(0), gen(1)
    p = (a + b) ** 3
    q = divexact(p, a + b)
    assert q == (a + b) ** 2
    with pytest.raises(ValueError):
        divexact(a * a + b, a + b)


def test_gcd_examples():
    # the general gcd, moved out of the package into the test oracles
    a, b, c = gen(0), gen(1), gen(2)
    assert general_gcd((a + b) ** 3, (a + b) * (a - c)) == a + b
    assert general_gcd(a * b, a * c) == a
    assert general_gcd(a + b, a + c) == const(1)
    assert general_gcd(MultiPoly.zero(V), a + b) == a + b
    # content handling: gcd is primitive with positive leading coefficient
    g = general_gcd(2 * (a + b), 4 * (a + b) * (a - b))
    assert g == a + b
    g2 = general_gcd(-2 * (a + b), -4 * (a + b))
    assert g2 == a + b


def test_declared_factor_gcd_examples():
    a, b, c = gen(0), gen(1), gen(2)
    assert poly_gcd((a + b) ** 3 * (b + c), (a + b) * (a + c)) == a + b
    assert poly_gcd(a * b, a * c) == a
    assert poly_gcd(a + b, a + c) == const(1)
    assert poly_gcd(MultiPoly.zero(V), (a + b) * c) == (a + b) * c
    # the gcd is monic whatever the scalars
    assert poly_gcd(-2 * (a + b) * (a - b), 4 * (a + b) ** 2) == a + b
    with pytest.raises(ZeroDivisionError):
        poly_gcd(a, MultiPoly.zero(V))


def test_undeclared_denominator_factor_raises():
    a, b, c = gen(0), gen(1), gen(2)
    with pytest.raises(ValueError, match="declared"):
        RationalFunction(a, a - b)
    with pytest.raises(ValueError, match="declared"):
        # even where the numerator would cancel it
        RationalFunction((a - b) * c, (a - b) * (a + b))
    lam = [MultiPoly.gen(lambda_vars(3), i) for i in range(3)]
    with pytest.raises(ValueError):
        RationalFunction(lam[0], lam[0] - lam[1])
    # no factor is declared over x, not even |x|^2: radical coefficients
    # never form a quotient
    xs = [MultiPoly.gen(x_vars(3), i) for i in range(3)]
    with pytest.raises(ValueError):
        RationalFunction(xs[0], xs[0] + xs[1])
    with pytest.raises(ValueError):
        RationalFunction(xs[0], x_square_poly(3))
    # variables nobody declared have no denominator factors at all
    w = MultiPoly.gen(("w",), 0)
    with pytest.raises(ValueError):
        RationalFunction(w * w, w)
    assert RationalFunction(w * w, MultiPoly.const(("w",), 2)).num == w * w * Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
def test_ring_axioms_randomized(s1, s2, s3):
    r1, r2, r3 = random.Random(s1), random.Random(s2), random.Random(s3)
    p, q, r = random_poly(r1), random_poly(r2), random_poly(r3)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


def test_rational_function_normalization():
    # the general-quotient oracle reduces any denominator
    a, b, c = gen(0), gen(1), gen(2)
    f = GeneralQuotient((a + b) ** 2, (a + b) * (a - c))
    assert f.num == a + b
    assert f.den == a - c
    # monic denominator
    g = GeneralQuotient(a, 2 * b)
    assert g.den == b
    assert g.num == Fraction(1, 2) * a


def test_declared_factor_normalization():
    a, b, c = gen(0), gen(1), gen(2)
    f = RationalFunction((a + b) ** 2 * (a - c), (a + b) * (b + c) * c)
    assert f.num == (a + b) * (a - c)
    assert f.den == (b + c) * c
    # monic denominator
    g = RationalFunction(a, 2 * b)
    assert g.den == b
    assert g.num == Fraction(1, 2) * a
    h = RationalFunction(-3 * (b + c) * a, 6 * (b + c) * (a + c) ** 2)
    assert (h.num, h.den) == (Fraction(-1, 2) * a, (a + c) ** 2)


def test_cancels_every_shared_moment_factor():
    # the general heuristic gcd the package used to run returned l2 here,
    # not l2*l3, so the stored pair kept l3 and equal values compared unequal
    l1, l2, l3, l4 = (MultiPoly.gen(lambda_vars(4), i) for i in range(4))
    f = RationalFunction(l2 * l3 * (l1 + l4 + 1) * (l1 - l2), l2 * l3 * (l1 + l4))
    assert (f.num, f.den) == ((l1 + l4 + 1) * (l1 - l2), l1 + l4)
    assert f == RationalFunction(f.num * l1, f.den * l1)


def test_rational_function_sum_identity():
    # the general-quotient oracle, over arbitrary denominators
    rng = random.Random(7)
    for _ in range(25):
        a = random_poly(rng) + const(1)
        b = random_poly(rng) + gen(0) + const(2)
        c = random_poly(rng)
        d = random_poly(rng) + gen(1) ** 2 + const(3)
        lhs = GeneralQuotient(a, b) + GeneralQuotient(c, d)
        rhs = GeneralQuotient(a * d + c * b, b * d)
        assert lhs == rhs
        assert (lhs - rhs).is_zero()


def _declared_product(rng, factors, most=3):
    """A random product of up to ``most`` of the declared ``factors``."""
    p = MultiPoly.const(factors[0].vars, rng.choice([1, 2, -3, Fraction(1, 2)]))
    for _ in range(rng.randint(0, most)):
        p = p * rng.choice(factors)
    return p


def test_declared_factor_sum_identity():
    rng = random.Random(7)
    factors = _moment_factors(V)
    for _ in range(25):
        a = random_poly(rng) + const(1)
        b = _declared_product(rng, factors)
        c = random_poly(rng)
        d = _declared_product(rng, factors)
        lhs = RationalFunction(a, b) + RationalFunction(c, d)
        rhs = RationalFunction(a * d + c * b, b * d)
        assert lhs == rhs
        assert (lhs - rhs).is_zero()


def _declared_factor_cases():
    """100 seeded (vars, num, den): a random numerator times declared
    factors, over declared factors, alternately over the moments and over x
    (where the one factor is |x|^2)."""
    rings = [(lambda_vars(4), _moment_factors(lambda_vars(4))), (x_vars(3), [x_square_poly(3)])]
    rng = random.Random(41)
    for case in range(100):
        vars, factors = rings[case % 2]
        r = MultiPoly.zero(vars)
        while r.is_zero():
            r = MultiPoly(vars, {
                tuple(rng.randint(0, 2) for _ in vars): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))
            })
        yield vars, r * _declared_product(rng, factors), _declared_product(rng, factors)


def _reduced(vars, num, den):
    """The package's canonical (numerator, monic denominator) for num/den:
    a ``RationalFunction`` over the moments, a ``RadicalElement`` with
    b = 0 over x, whose denominator is (|x|^2)^e."""
    if vars != x_vars(3):
        f = RationalFunction(num, den)
        return f.num, f.den
    x2 = x_square_poly(3)
    # den = c * (|x|^2)^k
    k = den.total_degree() // 2
    c = divexact(den, x2**k).constant_value()
    u = RadicalElement(3, num * (1 / c), e=k)
    assert u.b.is_zero()
    return u.a, x2**u.e


def test_declared_factor_ring_matches_general_gcd_and_sympy():
    # the shipped pair is the one the general gcd gives, and sympy.cancel's
    # pair scaled to a monic (graded-lex) denominator
    sympy = pytest.importorskip("sympy")

    for vars, num, den in _declared_factor_cases():
        gens = sympy.symbols(vars)

        def to_sympy(p):
            return sum(
                (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**e for g, e in zip(gens, m)))
                 for m, c in p.terms.items()),
                sympy.Integer(0),
            )

        f_num, f_den = _reduced(vars, num, den)
        oracle = GeneralQuotient(num, den)
        assert (f_num, f_den) == (oracle.num, oracle.den)
        p, q = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
        lc = sympy.Poly(q, *gens).LC(order="grlex")
        assert sympy.expand(to_sympy(f_num) - p / lc) == 0
        assert sympy.expand(to_sympy(f_den) - q / lc) == 0


def test_exponent_pairs_match_general_quotients():
    # 100 seeded cases: +, -, *, /, ** (negative too), ==, den and str of
    # the (num, e) pairs against the general-quotient oracle, on operands
    # drawn from the moment half of the cases above and from random sums
    # and products of them
    cases = [(num, den) for vars, num, den in _declared_factor_cases() if vars == lambda_vars(4)]
    factors = _moment_factors(lambda_vars(4))
    rng = random.Random(59)

    def operand():
        (n1, d1), (n2, d2) = rng.sample(cases, 2)
        x, y = RationalFunction(n1, d1), RationalFunction(n2, d2)
        gx, gy = GeneralQuotient(n1, d1), GeneralQuotient(n2, d2)
        return rng.choice([(x, gx), (x + y, gx + gy), (x * y, gx * gy)])

    for _ in range(100):
        (x, gx), (y, gy) = operand(), operand()
        # a quotient of declared products, which ``/`` and negative powers invert
        p, q = _declared_product(rng, factors), _declared_product(rng, factors)
        d, gd = RationalFunction(p, q), GeneralQuotient(p, q)
        k = rng.randint(1, 3)
        pairs = [
            (x, gx), (x + y, gx + gy), (x - y, gx - gy), (x * y, gx * gy), (2 * x - 1, 2 * gx - 1),
            (x / d, gx / gd), (x**k, gx**k), (d**-k, gd**-k), (x * d**-k - y, gx * gd**-k - gy),
        ]
        for f, oracle in pairs:
            assert (f.num, f.den, str(f)) == (oracle.num, oracle.den, str(oracle))
        assert (x == y) == (gx == gy)
        assert (x + y) - y == x and x * y == y * x
        assert x == RationalFunction(gx.num, gx.den)


def test_factor_declared_and_divide_out():
    a, b, c = gen(0), gen(1), gen(2)
    # the factors over V are a+b, a+c, b+c, a, b, c in that order
    assert factor_declared(-2 * (a + b) ** 2 * c) == (-2, (2, 0, 0, 0, 0, 1))
    assert factor_declared(const(3)) == (3, (0,) * 6)
    with pytest.raises(ValueError, match="declared"):
        factor_declared((a + b) * (a - b))
    with pytest.raises(ZeroDivisionError):
        factor_declared(MultiPoly.zero(V))
    # a factor comes out of every part while it divides them all (zero
    # included), at most its limit of times
    parts, counts = divide_out([(a + b) ** 2 * c, (a + b) * c * c, MultiPoly.zero(V)], [a + b, c], [5, 1])
    assert (parts, counts) == ([a + b, c, MultiPoly.zero(V)], [1, 1])


def test_rational_function_stores_exponents():
    a, b, c = gen(0), gen(1), gen(2)
    assert RationalFunction.__slots__ == ("c", "p", "e")
    assert list(inspect.signature(RationalFunction).parameters) == ["num", "den"]
    f = RationalFunction(3 * a, (a + b) * c * c)
    assert (f.c, f.p, f.e) == (3, a, (1, 0, 0, 0, 0, 2))
    assert (f.num, f.e, f.den) == (3 * a, (1, 0, 0, 0, 0, 2), (a + b) * c * c)
    assert str(f) == f"({3 * a})/({(a + b) * c * c})"
    assert (f * 0).e == (0,) * 6 and (f - f).e == (0,) * 6


def test_gcd_tries_only_divisions_the_leading_monomials_allow(monkeypatch):
    # a declared factor is tried only when its leading monomial divides the
    # dividend's: fewer trial divisions than trying every one, same pairs
    from manakov import ratfunc

    calls = []
    real_try_div = MultiPoly._try_div
    monkeypatch.setattr(MultiPoly, "_try_div", lambda self, *args: calls.append(1) or real_try_div(self, *args))
    cases = [case for case in _declared_factor_cases() if case[0] == lambda_vars(4)]
    filtered = [RationalFunction(num, den) for _, num, den in cases]
    filtered_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(ratfunc, "_lead_divides", lambda mono, f: True)
    unfiltered = [RationalFunction(num, den) for _, num, den in cases]
    assert len(calls) > filtered_calls
    assert [(f.num, f.den) for f in filtered] == [(f.num, f.den) for f in unfiltered]


def test_rational_function_arithmetic():
    a, b = gen(0), gen(1)
    x = RationalFunction(a, b)
    assert x * RationalFunction(b, a) == 1
    assert x / x == 1
    assert (x + 1) * b == a + b
    assert x**-2 == RationalFunction(b * b, a * a)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(a, MultiPoly.zero(V))


def test_grlex_leading():
    a, b = gen(0), gen(1)
    p = a * b + b**3
    mono, coef = p.leading()
    assert mono == (0, 3, 0)
    assert coef == 1


def test_add_terms_matches_naive_sum():
    # small integer values make cancellations frequent, including a key
    # that cancels and then reappears
    rng = random.Random(23)
    for _ in range(300):
        acc = {k: Fraction(rng.randint(-3, 3)) for k in rng.sample(range(6), rng.randint(0, 6))}
        acc = {k: v for k, v in acc.items() if v}
        pairs = [(rng.randrange(6), Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(0, 12))]
        totals = {}
        for k, v in list(acc.items()) + pairs:
            totals[k] = totals.get(k, Fraction(0)) + v
        expected = {k: v for k, v in totals.items() if v}
        target = dict(acc)
        got = add_terms(target, pairs)
        assert got is target
        assert got == expected


def test_add_terms_rational_function_values():
    a, b = gen(0), gen(1)
    x = RationalFunction(a, b)
    acc = add_terms({}, [("u", x), ("v", x), ("u", -x), ("v", x * 0)])
    assert acc == {"v": x}


def test_int_coefficient_division_is_exact():
    # int coefficients, as ``integer_scaled`` leaves them: a quotient that
    # divides is an int, one that does not is a Fraction, never a float
    def poly(terms):
        return MultiPoly(V, terms)

    cases = [
        # (2a + 4b) / 2
        (poly({(1, 0, 0): 2, (0, 1, 0): 4}), poly({(0, 0, 0): 2}), {(1, 0, 0): 1, (0, 1, 0): 2}),
        # (3a^2 + 3ab) / 3a
        (poly({(2, 0, 0): 3, (1, 1, 0): 3}), poly({(1, 0, 0): 3}), {(1, 0, 0): 1, (0, 1, 0): 1}),
        # (a + 2b) / 2 and (a^2 + 3ab) / 2a
        (poly({(1, 0, 0): 1, (0, 1, 0): 2}), poly({(0, 0, 0): 2}), {(1, 0, 0): Fraction(1, 2), (0, 1, 0): 1}),
        (poly({(2, 0, 0): 1, (1, 1, 0): 3}), poly({(1, 0, 0): 2}), {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(3, 2)}),
    ]
    for f, g, expected in cases:
        q = f._try_div(g)
        assert q.terms == expected
        assert {m: type(c) for m, c in q.terms.items()} == {m: type(c) for m, c in expected.items()}
    a, b = gen(0), gen(1)
    # Fraction operands keep Fraction quotients
    assert all(type(c) is Fraction for c in ((a + b) * (a - b))._try_div(a + b).terms.values())


def _primitive_over_int(f: RationalFunction):
    """Whether f's numerator has int coefficients with gcd 1 and a positive
    leading coefficient, under a Fraction content."""
    coeffs = list(f.p.terms.values())
    return (
        type(f.c) is Fraction
        and all(type(c) is int for c in coeffs)
        and (not f.c or (gcd(*coeffs) == 1 and f.p.leading()[1] > 0))
    )


def test_content_primitive_ring_matches_fraction_numerator_ring():
    # 100 seeded cases: +, -, *, /, integer powers (negative too), ==, num,
    # e, den and str of the (c, p, e) triples against the Fraction-numerator
    # pairs they replaced; operands include zero, constants, invertible
    # quotients of declared products and random quotients with different
    # exponent vectors
    vars = lambda_vars(4)
    factors = _moment_factors(vars)
    cases = [(num, den) for v, num, den in _declared_factor_cases() if v == vars]
    one = MultiPoly.const(vars, 1)
    rng = random.Random(83)

    def operand():
        kind = rng.randrange(5)
        if kind == 0:
            num, den = MultiPoly.zero(vars), _declared_product(rng, factors)
        elif kind == 1:
            num, den = MultiPoly.const(vars, Fraction(rng.randint(-6, 6), rng.randint(1, 5))), one
        elif kind == 2:
            num, den = _declared_product(rng, factors), _declared_product(rng, factors)
        else:
            num, den = rng.choice(cases)
        return RationalFunction(num, den), FractionRationalFunction(num, den)

    def same(f, oracle):
        assert isinstance(f, RationalFunction) and _primitive_over_int(f)
        assert (f.num, f.e, f.den, str(f)) == (oracle.num, oracle.e, oracle.den, str(oracle))

    kinds = set()
    for _ in range(100):
        (x, ox), (y, oy) = operand(), operand()
        kinds.add((bool(x), any(x.e), x.e == y.e))
        k = rng.randint(0, 3)
        s = rng.choice([0, 1, -2, Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
        pairs = [
            (x, ox), (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (y * x - x * y, oy * ox - ox * oy),
            # sums over one exponent vector
            (x - 3 * x, ox - 3 * ox), (x * y + s * (y * x), ox * oy + s * (oy * ox)),
            (x * s, ox * s), (x + s, ox + s), (s - x, s - ox), (x**k, ox**k), ((x + y) ** k, (ox + oy) ** k),
        ]
        for f, oracle in pairs:
            same(f, oracle)
        assert (x == y) == (ox == oy) and x == RationalFunction(ox.num, ox.den)
        for op in (lambda u, v: u / v, lambda u, v: v ** -(k + 1), lambda u, v: u * v**-1 + v):
            try:
                expected = op(ox, oy)
            except (ValueError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    op(x, y)
            else:
                same(op(x, y), expected)
    # zero, constants and quotients with a denominator all occurred, and
    # nonzero operands with different exponent vectors were added
    assert {(False, False), (True, False), (True, True)} <= {(z, d) for z, d, _ in kinds}
    assert (True, True, False) in kinds


def test_one_value_has_one_triple():
    # one value built along different paths is stored as one (c, p, e),
    # with one hash, and p is primitive over int with a positive leading
    # coefficient
    l1, l2, l3, l4 = (MultiPoly.gen(lambda_vars(4), i) for i in range(4))
    target = RationalFunction(Fraction(-3, 2) * (l1 - l2) * l3, (l1 + l2) * l4)
    # factors over the moments: l1+l2, l1+l3, l1+l4, l2+l3, l2+l4, l3+l4, l1..l4
    assert (target.c, target.p, target.e) == (Fraction(-3, 2), (l1 - l2) * l3, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    shifted = RationalFunction(l1, l1 + l3)
    paths = [
        # cancelled by the constructor
        RationalFunction(6 * (l2 - l1) * l3 * (l1 + l3), 4 * (l1 + l2) * l4 * (l1 + l3)),
        # a sum over one denominator whose content and sign come out
        RationalFunction(-3 * l1 * l3, 2 * (l1 + l2) * l4) + RationalFunction(3 * l2 * l3, 2 * (l1 + l2) * l4),
        # products whose factors cancel
        RationalFunction(-3 * (l1 - l2), (l1 + l2) * (l1 + l3)) * RationalFunction(l3 * (l1 + l3), 2 * l4),
        target * RationalFunction(l1 + l3, l4) * RationalFunction(l4, l1 + l3),
        (target * l4) / l4,
        # a sum lifted to a larger exponent vector and cancelled back
        (target + shifted) - shifted,
        # scalars and negation
        (target * 4) / 4,
        -(-target),
    ]
    for f in paths:
        assert (f.c, f.p.terms, f.e) == (target.c, target.p.terms, target.e)
        assert hash(f) == hash(target) and f == target
        assert _primitive_over_int(f)
    assert _primitive_over_int(target - target) and (target - target).e == (0,) * 10


def test_symbolic_results_keep_int_primitive_numerators():
    # after a symbolic bracket and a symmetrization, every coefficient is a
    # triple whose numerator has int coefficients only: no Fraction, no float
    from manakov.brackets import LiePoissonPoly, lie_poisson_bracket
    from manakov.rigid_body import ManakovIndex, hamiltonian, manakov_integral
    from manakov.son import MomentSpec
    from manakov.uea import manakov_operator

    spec = MomentSpec.symbolic(4)
    h, c = hamiltonian(spec), manakov_integral(ManakovIndex(4, 1), 4, spec)
    g = LiePoissonPoly.gen(4, (1, 2))
    coeffs = [
        *lie_poisson_bracket(h, g).terms.values(),
        *lie_poisson_bracket(c, g * h).terms.values(),
        *manakov_operator(ManakovIndex(4, 1), 4, spec).terms.values(),
        *manakov_operator(ManakovIndex(4, 2), 4, spec).terms.values(),
    ]
    assert coeffs and all(isinstance(f, RationalFunction) and _primitive_over_int(f) for f in coeffs)
    assert any(any(f.e) for f in coeffs)
