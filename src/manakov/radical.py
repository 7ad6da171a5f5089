"""Quadratic radical extension adjoining r = sqrt(x1^2 + ... + xn^2).

Every x-coefficient the package forms is (a + b*r)/q^e with a, b
polynomials in x1..xn and q = x1^2 + ... + xn^2 = r^2: 1/r = r/q and
dr/dx_i = x_i r/q, so a power of q is the only denominator that occurs and
no rational function over x is needed.  The stored triple (a, b, e) takes
the least e >= 0 that makes a and b polynomials, so it is unique and
equality is structural.  Like the (c, p, e) triples of
``ratfunc.RationalFunction``, it stores a denominator as the exponent of a
known factor, and it cancels q with the same ``ratfunc.divide_out``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ratfunc import MultiPoly, RingElement, divide_out


@lru_cache(maxsize=None)
def x_vars(n):
    return tuple(f"x{i}" for i in range(1, n + 1))


def check_axis(n, i):
    """Reject a 1-based axis index outside 1..n (index 0 would wrap to n)."""
    if not 1 <= i <= n:
        raise ValueError(f"axis {i} out of range 1..{n}")


@lru_cache(maxsize=None)
def x_square_poly(n) -> MultiPoly:
    """q = x1^2 + ... + xn^2."""
    return MultiPoly(x_vars(n), {tuple(2 * (k == i) for k in range(n)): Fraction(1) for i in range(n)})


class RadicalElement(RingElement):
    """Value (a + b*r)/q^e with a, b polynomials over the x-variables and
    r^2 = q; construction cancels q from a and b while e > 0 and q divides
    both."""

    __slots__ = ("n", "a", "b", "e")

    def __init__(self, n, a: MultiPoly, b: MultiPoly | None = None, e=0):
        b = b if b is not None else MultiPoly.zero(x_vars(n))
        if e:
            (a, b), (k,) = divide_out((a, b), (x_square_poly(n),), (e,))
            e -= k
        self.n, self.a, self.b, self.e = n, a, b, e

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, n, c):
        return cls(n, MultiPoly.const(x_vars(n), c))

    @classmethod
    def coordinate(cls, n, i):
        """The coordinate function x_i (1-based)."""
        check_axis(n, i)
        return cls(n, MultiPoly.gen(x_vars(n), i - 1))

    @classmethod
    def radius(cls, n):
        return cls(n, MultiPoly.zero(x_vars(n)), MultiPoly.const(x_vars(n), 1))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RadicalElement):
            if other.n != self.n:
                raise ValueError("mixed dimensions in radical arithmetic")
            return other
        if isinstance(other, MultiPoly):
            return RadicalElement(self.n, other)
        if isinstance(other, (int, Fraction)):
            return RadicalElement.const(self.n, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.e == other.e:
            return RadicalElement(self.n, self.a + other.a, self.b + other.b, self.e)
        low, high = (self, other) if self.e < other.e else (other, self)
        lift = x_square_poly(self.n) ** (high.e - low.e)
        return RadicalElement(self.n, low.a * lift + high.a, low.b * lift + high.b, high.e)

    __radd__ = __add__

    def __neg__(self):
        return RadicalElement(self.n, -self.a, -self.b, self.e)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            return RadicalElement(self.n, self.a * other, self.b * other, self.e)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = self.a * other.a
        if self.b and other.b:
            a = a + self.b * other.b * x_square_poly(self.n)
        b = self.a * other.b + self.b * other.a if self.b or other.b else self.b
        return RadicalElement(self.n, a, b, self.e + other.e)

    __rmul__ = __mul__

    def inverse(self):
        """q^e (a - b r)/(a^2 - b^2 q), for a norm a^2 - b^2 q = c q^k with c
        a nonzero constant; any other norm raises ValueError."""
        q = x_square_poly(self.n)
        norm = self.a * self.a - self.b * self.b * q
        if not norm:
            raise ZeroDivisionError("radical element with zero norm")
        (norm,), (k,) = divide_out((norm,), (q,), (norm.total_degree(),))
        if not norm.is_constant():
            raise ValueError(f"norm factor {norm} is not a power of {q}")
        lift = q ** max(self.e - k, 0) * (1 / norm.constant_value())
        return RadicalElement(self.n, self.a * lift, -self.b * lift, max(k - self.e, 0))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.e == other.e and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.n, self.a, self.b, self.e))

    # -- calculus -------------------------------------------------------------

    def diff(self, i):
        """d/dx_i (1-based): ((a_i q - 2e x_i a) + (b_i q + (1 - 2e) x_i b) r)/q^(e+1)."""
        check_axis(self.n, i)
        a, b, e = self.a, self.b, self.e
        if not b and not e:
            return RadicalElement(self.n, a.diff(i - 1), b)
        q = x_square_poly(self.n)
        xi = MultiPoly.gen(q.vars, i - 1)
        da = a.diff(i - 1) * q - xi * a * (2 * e)
        db = b.diff(i - 1) * q + xi * b * (1 - 2 * e)
        return RadicalElement(self.n, da, db, e + 1)

    def eval(self, x_values, r_value):
        """Evaluate at a rational point with r known exactly."""
        value = self.a.eval(x_values) + self.b.eval(x_values) * r_value
        if not self.e:
            return value
        q = sum(v * v for v in x_values)
        if q == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return value / q**self.e

    def __str__(self):
        parts = [str(self.a)] if self.a or not self.b else []
        if self.b:
            parts.append(f"({self.b})*r")
        num = " + ".join(parts)
        if not self.e:
            return num
        return f"({num})/({x_square_poly(self.n)})" + (f"^{self.e}" if self.e > 1 else "")

    __repr__ = __str__
