"""The sparse element types keep their class (and momentum side) through
their arithmetic, and print in fixed forms that the failure witnesses use."""

import random
from fractions import Fraction

import pytest

from manakov.brackets import LiePoissonPoly, PhasePoly, momentum_vars
from manakov.central_force import runge_lenz_vector
from manakov.radical import RadicalElement, x_vars
from manakov.ratfunc import MultiPoly
from manakov.rigid_body import ManakovIndex, hamiltonian, manakov_integral
from manakov.son import MomentSpec, dim_so
from manakov.uea import PBWElement, manakov_operator, pbw_mul, symmetrize_momentum_poly
from manakov.weyl import WeylOperator, compose, symmetrize


def _coeff(rng):
    return rng.choice([rng.randint(-5, 5) or 1, Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 7))])


def _momentum_terms(rng, n):
    terms = {}
    for _ in range(4):
        mono = [0] * dim_so(n)
        for _ in range(rng.randint(1, 3)):
            mono[rng.randrange(dim_so(n))] += 1
        terms[tuple(mono)] = _coeff(rng)
    return terms


def _phase_terms(rng, n):
    terms = {}
    for _ in range(3):
        x = MultiPoly.gen(("x1", "x2", "x3")[:n], rng.randrange(n)) * _coeff(rng)
        coef = RadicalElement(n, x, MultiPoly.const(x.vars, _coeff(rng)), rng.randint(0, 1))
        terms[tuple(rng.randint(0, 2) for _ in range(n))] = coef
    return terms


def _elements(rng, moment):
    """(element, scalars) per sparse type, the scalars acting on the
    coefficients from either side."""
    n = 3
    rational = [3, Fraction(-2, 7), moment]
    x_side = [3, Fraction(-2, 7), RadicalElement.radius(n)]
    words = {(): Fraction(1, 2), (0, 2): -3, (1, 1, 2): Fraction(5, 4)}
    return [
        (MultiPoly(momentum_vars(n), _momentum_terms(rng, n)), rational),
        (LiePoissonPoly(n, MultiPoly(momentum_vars(n), _momentum_terms(rng, n)), "L"), rational),
        (LiePoissonPoly(n, MultiPoly(momentum_vars(n), _momentum_terms(rng, n)), "R"), rational),
        (PhasePoly(n, _phase_terms(rng, n)), x_side),
        (WeylOperator(n, _phase_terms(rng, n)), x_side),
        (PBWElement(n, words), rational),
    ]


def _same_kind(a, b):
    assert type(a) is type(b)
    if isinstance(a, LiePoissonPoly):
        assert (a.n, a.side) == (b.n, b.side)


def test_sparse_types_keep_their_class_and_side():
    rng = random.Random(18)
    lam = MomentSpec.symbolic(3).lambdas
    moment = (lam[0] + lam[1]) / lam[2]
    for x, scalars in _elements(rng, moment):
        y = x.map_coeffs(lambda c: c * 2 + 1)
        results = [x + y, x - y, -x, x.scale(Fraction(3, 5)), x.map_coeffs(lambda c: -c)]
        for s in scalars:
            results += [s * x, x * s]
        if isinstance(x, MultiPoly):
            results += [x.diff(0), x.diff(2), x**0, x**2, x * 0, 0 * x, x * y, x * moment]
        elif isinstance(x, PhasePoly):
            results += [x.dp(1), x.dp(3), x**0, x**2, x * y]
        else:
            results += [x * y, x * 0]
        for r in results:
            _same_kind(x, r)
    # a RationalFunction is a scalar of a momentum polynomial, plain or not:
    # the product keeps the side and matches the coefficient-wise product
    p12 = LiePoissonPoly.gen(3, (1, 2), side="R")
    assert moment * p12 == p12 * moment == p12.map_coeffs(lambda c: c * moment)
    plain = MultiPoly.gen(momentum_vars(3), 0)
    assert moment * plain == plain * moment == plain.map_coeffs(lambda c: c * moment)


def _outcome(op, a, b):
    try:
        return op(a, b)
    except (TypeError, ValueError) as exc:
        return type(exc)


def test_mixed_types_give_one_result_in_either_order():
    # an element of one type with one of another: both orders give the same
    # class and side (and, but for a Weyl product, the same value), or both
    # raise; a plain polynomial in x joins the six sparse types
    rng = random.Random(19)
    lam = MomentSpec.symbolic(3).lambdas
    elements = [x for x, _ in _elements(rng, (lam[0] + lam[1]) / lam[2])]
    elements.append(MultiPoly(x_vars(3), {(1, 0, 2): _coeff(rng), (0, 1, 0): _coeff(rng)}))
    ops = [
        ("+", lambda a, b: a + b, lambda a, b: b + a),
        ("-", lambda a, b: a - b, lambda a, b: -(b - a)),
        ("*", lambda a, b: a * b, lambda a, b: b * a),
    ]
    mixed = []
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if i == j:
                continue
            for name, forward, backward in ops:
                one, other = _outcome(forward, a, b), _outcome(backward, a, b)
                if isinstance(one, type):
                    assert one is other, (name, a, b)
                    continue
                _same_kind(one, other)
                if not (name == "*" and isinstance(one, WeylOperator)):
                    assert one == other, (name, a, b)
                mixed.append((i, j))
    # momentum polynomials mix with either side, and x-polynomials with
    # phase terms: 4 pairs, both orders, 3 operations
    assert sorted(set(mixed)) == [(0, 1), (0, 2), (1, 0), (2, 0), (3, 6), (4, 6), (6, 3), (6, 4)]
    assert len(mixed) == 24
    x1, p1 = MultiPoly.gen(x_vars(2), 0), PhasePoly.momentum(2, 1)
    assert x1 * p1 == p1 * x1 == PhasePoly.coordinate(2, 1) * p1


def test_mixing_left_and_right_momenta_raises_and_they_are_unequal():
    n = 3
    left = LiePoissonPoly.gen(n, (1, 2), side="L")
    right = LiePoissonPoly.gen(n, (1, 2), side="R")
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
    ):
        for a, b in ((left, right), (right, left)):
            with pytest.raises(ValueError, match="mixed momentum sides"):
                op(a, b)
    # equal terms on different sides are different functions
    assert left != right and right != left
    assert len({left, right, LiePoissonPoly.gen(n, (1, 2), side="L")}) == 2


def test_negative_power_of_a_phase_polynomial_raises():
    p = PhasePoly.momentum(2, 1) + PhasePoly.coordinate(2, 2)
    with pytest.raises(ValueError, match="negative power"):
        p**-1
    with pytest.raises(ValueError, match="negative power"):
        MultiPoly.gen(("a",), 0) ** -2


def test_printed_forms():
    # the strings the failure witnesses are made of
    n = 2
    x1, p1, p2 = PhasePoly.coordinate(n, 1), PhasePoly.momentum(n, 1), PhasePoly.momentum(n, 2)
    spec = MomentSpec.symbolic(3)
    g = [PBWElement(3, {(u,): 1}) for u in range(3)]
    lam = spec.lambdas[0]
    cases = [
        (x1 * p1**2 + PhasePoly.radius(n) * p2 * Fraction(-3, 2) + 5, "(x1)*p1^2 + ((-3/2)*r)*p2 + (5)"),
        (
            runge_lenz_vector(3, Fraction(1, 2))[0],
            "(-x2)*p1*p2 + (-x3)*p1*p3 + (x1)*p2^2 + (x1)*p3^2 + (((-1/2*x1)*r)/(x1^2 + x2^2 + x3^2))",
        ),
        (symmetrize(runge_lenz_vector(2, 1)[0]), "(-x2)*D1*D2 + (x1)*D2^2 + (-1/2)*D1 + (((-x1)*r)/(x1^2 + x2^2))"),
        (
            compose(WeylOperator.momentum(2, 1), WeylOperator.coordinate(2, 2) * WeylOperator.momentum(2, 2)),
            "(x2)*D1*D2",
        ),
        (
            manakov_integral(ManakovIndex(3, 1), 3, spec),
            "(-1/2*l1^2 - 1/2*l2^2)*P1_2^2 + (-1/2*l1^2 - 1/2*l3^2)*P1_3^2 + (-1/2*l2^2 - 1/2*l3^2)*P2_3^2",
        ),
        (
            hamiltonian(spec),
            "((1/2)/(l1 + l2))*P1_2^2 + ((1/2)/(l1 + l3))*P1_3^2 + ((1/2)/(l2 + l3))*P2_3^2",
        ),
        (
            LiePoissonPoly.gen(3, (1, 3), side="R") ** 2 * Fraction(2, 3) - LiePoissonPoly.gen(3, (2, 1), side="R"),
            "2/3*P1_3^2 + P1_2 [right]",
        ),
        (LiePoissonPoly.zero(3, "R"), "0 [right]"),
        (
            manakov_operator(ManakovIndex(3, 1), 3, spec),
            "(-1/2*l1^2 - 1/2*l2^2)*P1_2*P1_2 + (-1/2*l1^2 - 1/2*l3^2)*P1_3*P1_3"
            " + (-1/2*l2^2 - 1/2*l3^2)*P2_3*P2_3",
        ),
        (
            symmetrize_momentum_poly(hamiltonian(MomentSpec.from_lambdas((1, 2, Fraction(3, 2))))),
            "(1/6)*P1_2*P1_2 + (1/5)*P1_3*P1_3 + (1/7)*P2_3*P2_3",
        ),
        (
            pbw_mul(g[2], g[0]) * Fraction(3, 4) + pbw_mul(g[1], g[1]).scale(lam) + Fraction(1, 2),
            "(1/2)*1 + (-3/4)*P1_3 + (3/4)*P1_2*P2_3 + (l1)*P1_3*P1_3",
        ),
    ]
    for element, text in cases:
        assert str(element) == text
        assert repr(element) == text
