"""Quadratic radical extension adjoining r = sqrt(x1^2 + ... + xn^2).

Elements are pairs a + b*r with a, b rational functions in x1..xn and the
reduction r^2 -> x1^2+...+xn^2 applied on every product, so the (a, b)
representation is unique.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ratfunc import MultiPoly, RationalFunction, declare_factors


@lru_cache(maxsize=None)
def x_vars(n):
    """The coordinates x1..xn; |x|^2 is the one denominator factor over them
    (x1 itself at n = 1, where |x|^2 = x1^2 is not irreducible)."""
    vars = tuple(f"x{i}" for i in range(1, n + 1))
    declare_factors(vars, [_sum_of_squares(vars) if n > 1 else MultiPoly.gen(vars, 0)])
    return vars


def _sum_of_squares(vars):
    n = len(vars)
    return MultiPoly(vars, {tuple(2 * (k == i) for k in range(n)): Fraction(1) for i in range(n)})


def check_axis(n, i):
    """Reject a 1-based axis index outside 1..n (index 0 would wrap to n)."""
    if not 1 <= i <= n:
        raise ValueError(f"axis {i} out of range 1..{n}")


@lru_cache(maxsize=None)
def x_square_poly(n) -> MultiPoly:
    return _sum_of_squares(x_vars(n))


@lru_cache(maxsize=None)
def _log_radius_derivative(n, i):
    """d(log r)/dx_i = x_i / x^2, formed once per axis."""
    return RationalFunction(MultiPoly.gen(x_vars(n), i - 1), x_square_poly(n))


class RadicalElement:
    """Value a + b*r over the x-variables, with r^2 = x1^2+...+xn^2."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n, a: RationalFunction, b: RationalFunction | None = None):
        self.n = n
        self.a = a
        self.b = b if b is not None else RationalFunction.const(x_vars(n), 0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, n, c):
        return cls(n, RationalFunction.const(x_vars(n), c))

    @classmethod
    def coordinate(cls, n, i):
        """The coordinate function x_i (1-based)."""
        check_axis(n, i)
        return cls(n, RationalFunction.gen(x_vars(n), i - 1))

    @classmethod
    def radius(cls, n):
        return cls(n, RationalFunction.const(x_vars(n), 0), RationalFunction.const(x_vars(n), 1))

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RadicalElement):
            if other.n != self.n:
                raise ValueError("mixed dimensions in radical arithmetic")
            return other
        if isinstance(other, RationalFunction):
            return RadicalElement(self.n, other)
        if isinstance(other, MultiPoly):
            return RadicalElement(self.n, RationalFunction(other, reduce=False))
        if isinstance(other, (int, Fraction)):
            return RadicalElement.const(self.n, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RadicalElement(self.n, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return RadicalElement(self.n, -self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x2 = x_square_poly(self.n)
        a = self.a * other.a + self.b * other.b * x2
        b = self.a * other.b + self.b * other.a
        return RadicalElement(self.n, a, b)

    __rmul__ = __mul__

    def inverse(self):
        """(a + b r)^-1 = (a - b r) / (a^2 - b^2 x^2)."""
        x2 = x_square_poly(self.n)
        norm = self.a * self.a - self.b * self.b * x2
        if norm.is_zero():
            raise ZeroDivisionError("radical element with zero norm")
        return RadicalElement(self.n, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.n, self.a, self.b))

    # -- calculus -------------------------------------------------------------

    def diff(self, i):
        """d/dx_i (1-based), using dr/dx_i = x_i * r / x^2."""
        check_axis(self.n, i)
        da = self.a.diff(i - 1)
        db = self.b.diff(i - 1) + self.b * _log_radius_derivative(self.n, i)
        return RadicalElement(self.n, da, db)

    def eval(self, x_values, r_value):
        """Evaluate at a rational point with r known exactly."""
        return self.a.eval(x_values) + self.b.eval(x_values) * r_value

    def __str__(self):
        if self.b.is_zero():
            return str(self.a)
        if self.a.is_zero():
            return f"({self.b})*r"
        return f"{self.a} + ({self.b})*r"

    __repr__ = __str__
