import random
from fractions import Fraction

import pytest

from manakov.charts import CotangentChart
from manakov.radical import RadicalElement, x_square_poly, x_vars
from manakov.ratfunc import MultiPoly
from oracles import PairRadical


def xgen(n, i):
    return MultiPoly.gen(x_vars(n), i - 1)


def test_radius_square_reduces():
    n = 3
    sq = RadicalElement.radius(n) * RadicalElement.radius(n)
    assert (sq.a, sq.b, sq.e) == (x_square_poly(n), MultiPoly.zero(x_vars(n)), 0)


def test_coordinate_over_radius():
    n = 3
    x1 = RadicalElement.coordinate(n, 1)
    rinv = RadicalElement.radius(n).inverse()
    assert (rinv.a, rinv.b, rinv.e) == (MultiPoly.zero(x_vars(n)), MultiPoly.const(x_vars(n), 1), 1)
    val = (x1 * rinv) * (x1 * rinv)
    # (x1/r)^2 = x1^2 / x^2
    assert (val.a, val.b, val.e) == (xgen(n, 1) ** 2, MultiPoly.zero(x_vars(n)), 1)


def test_inverse_radius_squared():
    n = 4
    rinv = RadicalElement.radius(n).inverse()
    sq = rinv * rinv
    assert sq == RadicalElement(n, MultiPoly.const(x_vars(n), 1), e=1)
    assert sq.inverse() == RadicalElement(n, x_square_poly(n))


def test_triple_is_reduced_on_construction():
    n = 3
    q = x_square_poly(n)
    x1, x2 = xgen(n, 1), xgen(n, 2)
    # q divides both parts: cancelled as often as it divides both and e allows
    u = RadicalElement(n, x1 * q**2, x2 * q**3, e=3)
    assert (u.a, u.b, u.e) == (x1, x2 * q, 1)
    assert RadicalElement(n, x1 * q**3, x2 * q**3, e=2) == RadicalElement(n, x1 * q, x2 * q)
    # q divides only one part: nothing cancels
    v = RadicalElement(n, x1 * q, x2, e=1)
    assert (v.a, v.b, v.e) == (x1 * q, x2, 1)
    # zero has exponent 0
    assert RadicalElement(n, MultiPoly.zero(x_vars(n)), e=4).e == 0
    # a sum whose parts become divisible by q drops the exponent
    w = RadicalElement(n, x1 * x1, e=1) + RadicalElement(n, x2 * x2 + xgen(n, 3) ** 2, e=1)
    assert w == 1 and w.e == 0


def test_inverse_accepts_only_a_power_of_x_squared_norm():
    n = 3
    x1 = RadicalElement.coordinate(n, 1)
    # norm x1^2 - x^2 = -(x2^2 + x3^2) is not c*(x^2)^k
    with pytest.raises(ValueError):
        (x1 + RadicalElement.radius(n)).inverse()
    with pytest.raises(ValueError):
        x1.inverse()
    with pytest.raises(ZeroDivisionError):
        RadicalElement.const(n, 0).inverse()
    with pytest.raises(ValueError):
        # norm 9 - 4 x^2
        RadicalElement(n, MultiPoly.const(x_vars(n), 3), MultiPoly.const(x_vars(n), 2), e=2).inverse()
    u = RadicalElement(n, MultiPoly.zero(x_vars(n)), MultiPoly.const(x_vars(n), 2), e=2)
    assert u.inverse() == RadicalElement(n, MultiPoly.zero(x_vars(n)), x_square_poly(n) * Fraction(1, 2))
    assert u * u.inverse() == 1


def test_derivative_of_radius():
    n = 3
    d = RadicalElement.radius(n).diff(1)
    # x1 * r / x^2
    assert (d.a, d.b, d.e) == (MultiPoly.zero(x_vars(n)), xgen(n, 1), 1)


def test_derivative_of_inverse_radius():
    n = 3
    d = RadicalElement.radius(n).inverse().diff(1)
    # -x1 r / (x^2)^2
    assert (d.a, d.b, d.e) == (MultiPoly.zero(x_vars(n)), -xgen(n, 1), 2)
    assert str(d) == "((-x1)*r)/(x1^2 + x2^2 + x3^2)^2"


def test_derivative_of_unrelated_coordinate():
    n = 3
    x1 = RadicalElement.coordinate(n, 1)
    assert x1.diff(2).is_zero()
    with pytest.raises(ValueError):
        x1.diff(4)


def test_mul_distributes_and_associates_over_declared_denominators():
    # the shipped ring: every denominator a power of |x|^2
    rng = random.Random(5)
    n = 3
    for _ in range(15):
        u, v, w = (_random_element(rng, n) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_leibniz_rule():
    n = 3
    u = RadicalElement.coordinate(n, 1) * RadicalElement.radius(n)
    v = RadicalElement.radius(n).inverse() + RadicalElement.coordinate(n, 2)
    for i in (1, 2, 3):
        lhs = (u * v).diff(i)
        rhs = u.diff(i) * v + u * v.diff(i)
        assert lhs == rhs


def test_eval_with_rational_radius():
    n = 3
    # point (2, 3, 6): x^2 = 49, r = 7
    x = [Fraction(2), Fraction(3), Fraction(6)]
    r = Fraction(7)
    e = RadicalElement.coordinate(n, 1) * RadicalElement.radius(n).inverse()
    assert e.eval(x, r) == Fraction(2, 7)
    with pytest.raises(ZeroDivisionError):
        e.eval([Fraction(0)] * 3, Fraction(0))


def _random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[tuple(rng.randint(0, 2) for _ in range(n))] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    p = MultiPoly(x_vars(n), terms)
    # a factor of x^2 now and then, so that reductions happen
    return p * x_square_poly(n) if rng.random() < 0.3 else p


def _random_element(rng, n):
    return RadicalElement(n, _random_poly(rng, n), _random_poly(rng, n), rng.randint(0, 2))


def _agrees(u, pair):
    """``u`` has the value of ``pair`` and the least exponent: the larger of
    the pair's two gcd-reduced denominators is (x^2)^e."""
    den = max(pair.a.den, pair.b.den, key=MultiPoly.total_degree)
    return PairRadical.of(u) == pair and den == x_square_poly(u.n) ** u.e


def test_triples_match_the_rational_function_pair():
    # 100 seeded cases: every operation on (a, b, e) triples against the
    # same operation on pairs of gcd-reduced rational functions
    rng = random.Random(2024)
    for case in range(100):
        n = 2 + case % 3
        u, v = _random_element(rng, n), _random_element(rng, n)
        pu, pv = PairRadical.of(u), PairRadical.of(v)
        assert _agrees(u, pu) and _agrees(v, pv)
        assert _agrees(u + v, pu + pv)
        assert _agrees(u - v, pu - pv)
        assert _agrees(u * v, pu * pv)
        rinv = RadicalElement.radius(n).inverse()
        assert _agrees(rinv, PairRadical.radius(n).inverse())
        assert _agrees(u * rinv, pu * PairRadical.radius(n).inverse())
        for i in range(1, n + 1):
            assert _agrees(u.diff(i), pu.diff(i))
        chart = CotangentChart.random(n, rng)
        assert u.eval(chart.x, chart.r) == pu.eval(chart.x, chart.r)
        assert (u * v).eval(chart.x, chart.r) == pu.eval(chart.x, chart.r) * pv.eval(chart.x, chart.r)


def test_coordinate_coefficients_never_form_a_rational_function(monkeypatch):
    # the T*R^n tower (phase polynomials, Weyl operators, radical
    # coefficients) runs on polynomials alone: no quotient, no gcd
    from manakov import brackets, central_force, charts, weyl
    from manakov.central_force import all_split_trees, emit_tables
    from manakov.ratfunc import RationalFunction

    # functions, brackets and operators memoized by earlier tests would skip
    # the work counted here
    for memo in (
        central_force.generic_hamiltonian,
        central_force.item_function,
        charts.momentum_table,
        brackets.partials,
        charts._commutes_with_momentum,
    ):
        memo.cache_clear()
    # a quotient is made by the constructor or, in arithmetic, by ``_of``
    calls = []
    real_init, real_of = RationalFunction.__init__, RationalFunction._of

    def counting_init(self, *args):
        calls.append(1)
        real_init(self, *args)

    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    monkeypatch.setattr(RationalFunction, "_of", classmethod(lambda cls, *args: calls.append(1) or real_of(*args)))
    rows = emit_tables(4, random.Random(0), points=1)
    assert all(report.ok for _, report in rows)
    report = weyl.quantum_central_force_suite(3, 1, rng=random.Random(0), trees=all_split_trees(range(1, 4), 2))
    assert report.ok
    assert len(calls) == 0
    # the counter does see a quotient when one is formed, by either route
    -RationalFunction.const(x_vars(3), 1)
    assert len(calls) == 2
