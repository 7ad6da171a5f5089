from fractions import Fraction

import pytest

from manakov.radical import RadicalElement, x_square_poly
from manakov.ratfunc import RationalFunction


def test_radius_square_reduces():
    r = RadicalElement.radius(3)
    sq = r * r
    assert sq.b.is_zero()
    assert sq.a == RationalFunction(x_square_poly(3), reduce=False)


def test_coordinate_over_radius():
    n = 3
    x1 = RadicalElement.coordinate(n, 1)
    rinv = RadicalElement.radius(n).inverse()
    val = (x1 * rinv) * (x1 * rinv)
    # (x1/r)^2 = x1^2 / x^2
    assert val.b.is_zero()
    num = val.a.num
    den = val.a.den
    assert num == RationalFunction.gen(num.vars, 0).num ** 2
    assert den == x_square_poly(n)


def test_inverse_radius_squared():
    n = 4
    rinv = RadicalElement.radius(n).inverse()
    sq = rinv * rinv
    assert sq.b.is_zero()
    assert sq.a == RationalFunction(
        RationalFunction.const(x_square_poly(n).vars, 1).num, x_square_poly(n)
    )


def test_derivative_of_radius():
    n = 3
    r = RadicalElement.radius(n)
    d = r.diff(1)
    # x1 * r / x^2
    assert d.a.is_zero()
    assert d.b.num.degree_in(0) == 1
    assert d.b.den == x_square_poly(n)


def test_derivative_of_inverse_radius():
    n = 3
    rinv = RadicalElement.radius(n).inverse()
    d = rinv.diff(1)
    # -x1 r / (x^2)^2
    assert d.a.is_zero()
    assert d.b.den == x_square_poly(n) ** 2
    x1 = d.b.num.vars[0]
    assert str(d.b.num) == f"-{x1}"


def test_derivative_of_unrelated_coordinate():
    n = 3
    x1 = RadicalElement.coordinate(n, 1)
    assert x1.diff(2).is_zero()
    with pytest.raises(ValueError):
        x1.diff(4)


def test_mul_distributes_and_associates(general_gcd_ring):
    # arbitrary denominators: the radical field over the general gcd of
    # the test oracles
    import random

    rng = random.Random(5)
    n = 3

    def rand_elem():
        from manakov.ratfunc import MultiPoly

        vars = x_square_poly(n).vars
        def rp():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in vars)
                terms[mono] = Fraction(rng.randint(-4, 4))
            return MultiPoly(vars, terms)
        return RadicalElement(n, RationalFunction(rp(), rp() + MultiPoly.const(vars, 1)),
                              RationalFunction(rp(), reduce=False))

    for _ in range(15):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_mul_distributes_and_associates_over_declared_denominators():
    # the shipped ring: every denominator a power of |x|^2
    import random

    from manakov.ratfunc import MultiPoly

    rng = random.Random(5)
    n = 3
    x2 = x_square_poly(n)

    def rand_elem():
        vars = x2.vars

        def rp():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in vars)
                terms[mono] = Fraction(rng.randint(-4, 4))
            return MultiPoly(vars, terms)

        return RadicalElement(n, RationalFunction(rp(), x2 ** rng.randint(0, 1)),
                              RationalFunction(rp(), x2 ** rng.randint(0, 1)))

    for _ in range(15):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
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
