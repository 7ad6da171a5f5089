"""Sparse multivariate polynomials and rational functions over the rationals.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
coefficients.  Coefficients are ``fractions.Fraction`` in the base ring; the
same container is reused with other coefficient domains (e.g. rational
functions in the inertia moments) as long as the domain supports ``+ - * ==``
with itself and with small integers.  All values are treated as immutable:
no method mutates ``self`` after construction.

Rational functions cancel only the denominator factors declared for their
variables (``declare_factors``): every denominator the package forms over
the moments is a product of v_i + v_j and v_i, so exact trial division by
those factors takes the place of a general multivariate gcd.  (Coefficients
over the coordinates x never need one: see ``radical``.)

The monomial order used everywhere is graded lexicographic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


def rational(text) -> Fraction:
    """Parse an exact rational from an int, a Fraction or a 'p/q' string;
    malformed text and a zero denominator raise ValueError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {str(text).strip()!r}") from None


def add_terms(acc, pairs):
    """Add each (key, value) of ``pairs`` into the dict ``acc`` and return it.

    A key whose sum cancels is deleted, so ``acc`` never holds a zero value.
    Zero is tested by truthiness: every coefficient domain here defines
    ``__bool__``, and ``== 0`` would build a constant on each comparison.
    """
    for k, v in pairs:
        if k in acc:
            s = acc[k] + v
            if s:
                acc[k] = s
            else:
                del acc[k]
        elif v:
            acc[k] = v
    return acc


def integer_scaled(x):
    """``(x * d, d)`` for ``x`` a MultiPoly or a PBW element, where d is the
    least common denominator of its coefficients, so that those of ``x * d``
    are integers; ``(x, 1)`` when a coefficient is not a rational number
    (symbolic moments)."""
    denom = 1
    for c in x.terms.values():
        if not isinstance(c, (int, Fraction)):
            return x, 1
        denom = denom * c.denominator // int_gcd(denom, c.denominator)
    return x.map_coeffs(lambda c: int(c * denom)), denom


class TermMap:
    """Sparse element ``{key: nonzero coefficient}`` of a free module over
    the coefficients, in dimension ``n``; the linear structure shared by
    phase polynomials, Weyl operators and PBW elements.

    A subclass supplies ``_coerce(other)`` (an element of the same class, or
    None for an unsupported operand) and its own products and printing.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, n):
        return cls(n)

    def _new(self, terms):
        """An element of the same class holding ``terms`` (not re-filtered)."""
        out = type(self)(self.n)
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


def grlex_key(mono):
    return (sum(mono), mono)


class MultiPoly:
    """Polynomial in a fixed ordered tuple of variables.

    ``vars`` is a tuple of variable names; ``terms`` maps exponent tuples of
    length ``len(vars)`` to nonzero coefficients.  Two polynomials are equal
    iff they have the same variable tuple and identical term maps.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        c = Fraction(c) if isinstance(c, int) else c
        if not c:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def gen(cls, vars, i, power=1):
        mono = [0] * len(vars)
        mono[i] = power
        return cls(vars, {tuple(mono): Fraction(1)})

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        """Coefficient of the constant monomial (the whole value if constant)."""
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"mixed variable sets {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        return MultiPoly(self.vars, add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly.zero(self.vars)
            return MultiPoly(self.vars, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        terms = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for m1, c1 in a.terms.items():
            products = ((tuple(e1 + e2 for e1, e2 in zip(m1, m2)), c1 * c2) for m2, c2 in b.terms.items())
            add_terms(terms, products)
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(self.vars, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, i):
        return max((m[i] for m in self.terms), default=-1)

    def leading(self):
        """(monomial, coefficient) maximal in graded lex order."""
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

    def diff(self, i):
        terms = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            dm = list(m)
            e = dm[i]
            dm[i] = e - 1
            terms[tuple(dm)] = c * e
        return MultiPoly(self.vars, terms)

    def eval(self, values):
        """Evaluate at a full assignment (sequence parallel to ``vars``)."""
        if len(values) != len(self.vars):
            raise ValueError("wrong number of values")
        total = 0
        for m, c in self.terms.items():
            v = c
            for e, val in zip(m, values):
                if e:
                    v = v * val**e
            total = total + v
        return total

    def map_coeffs(self, fn):
        return MultiPoly(self.vars, {m: fn(c) for m, c in self.terms.items()})

    # -- division ----------------------------------------------------------

    def divexact(self, other):
        """Exact quotient ``self / other``; raises ValueError if not divisible."""
        q = self._try_div(other)
        if q is None:
            raise ValueError("inexact polynomial division")
        return q

    def _try_div(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_constant():
            inv = 1 / other.constant_value()
            return self * inv
        rem = dict(self.terms)
        quot = {}
        gm, gc = other.leading()
        while rem:
            m = max(rem, key=grlex_key)
            c = rem[m]
            qm = tuple(a - b for a, b in zip(m, gm))
            if any(e < 0 for e in qm):
                return None
            qc = c / gc
            quot[qm] = qc
            products = ((tuple(a + b for a, b in zip(qm, m2)), -qc * c2) for m2, c2 in other.terms.items())
            add_terms(rem, products)
        return MultiPoly(self.vars, quot)

    # -- printing ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            factors = [
                self.vars[i] if e == 1 else f"{self.vars[i]}^{e}"
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            cs = str(c)
            if any(ch in cs for ch in "+ ") or (cs.count("-") > (1 if cs.startswith("-") else 0)):
                cs = f"({cs})"
            if not body:
                parts.append(cs)
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{cs}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


# -- denominators -------------------------------------------------------------

# The irreducible polynomials that may divide a denominator, per variable
# tuple.  The module that names a variable tuple declares them once:
# ``son.lambda_vars`` and ``son.mu_vars`` declare v_i + v_j and v_i.  Every
# denominator the package forms is a product of these, so cancelling a
# quotient is exact trial division by them.
# A polynomial carries only its variable tuple, so the tuple is the key.
_DECLARED_FACTORS = {}


def declare_factors(vars, factors):
    """Declare the monic irreducible polynomials over ``vars`` that
    denominators may contain.  Declaring a tuple again replaces its list."""
    _DECLARED_FACTORS[tuple(vars)] = tuple(factors)


def _lead_divides(mono, f: MultiPoly):
    """Whether ``mono`` divides the leading monomial of ``f`` (true for a
    zero ``f``, which every factor divides).  A factor p can divide f only if
    LM(p) divides LM(f), since LM(p q) = LM(p) LM(q) in graded-lex order."""
    return not f.terms or all(a >= b for a, b in zip(f.leading()[0], mono))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd of ``f`` and a nonzero denominator ``g``: the product of
    the factors declared for their variables, each to the highest power
    that divides both, found by exact trial division.  A division is tried
    only when the factor's leading monomial divides the dividend's.  A
    factor of ``g`` outside the declared ones raises ValueError.
    """
    if f.vars != g.vars:
        raise ValueError("gcd of polynomials over different variables")
    if g.is_zero():
        raise ZeroDivisionError("gcd with a zero denominator")
    common = MultiPoly.const(g.vars, 1)
    for p in _DECLARED_FACTORS.get(g.vars, ()):
        lead = p.leading()[0]
        shared = True
        while not g.is_constant() and _lead_divides(lead, g) and (q := g._try_div(p)) is not None:
            g = q
            if shared and _lead_divides(lead, f) and (q := f._try_div(p)) is not None:
                f = q
                common = common * p
            else:
                shared = False
    if not g.is_constant():
        raise ValueError(f"denominator factor {g} is none of those declared for {g.vars}")
    return common


class RationalFunction:
    """Quotient num/den of polynomials over the same variables.

    The stored pair is unique: gcd(num, den) = 1 and the denominator is monic
    in graded-lex order.  A denominator factor that is not declared for the
    variables raises ValueError (see ``poly_gcd``).
    Supports arithmetic with itself, MultiPoly, int and Fraction operands.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, reduce=True):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.vars != den.vars:
            raise ValueError("numerator and denominator over different variables")
        if reduce and not num.is_zero() and not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.divexact(g)
                den = den.divexact(g)
        if num.is_zero():
            den = MultiPoly.const(num.vars, 1)
        else:
            _, lc = den.leading()
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, vars, c):
        return cls(MultiPoly.const(vars, c), reduce=False)

    @classmethod
    def gen(cls, vars, i):
        return cls(MultiPoly.gen(vars, i), reduce=False)

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other, reduce=False)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

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
        if self.num.is_zero() or other.num.is_zero():
            return RationalFunction.const(self.vars, 0)
        if self.den.is_constant() and other.den.is_constant():
            return RationalFunction(
                self.num * other.num, self.den * other.den, reduce=False
            )
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, k):
        if k < 0:
            return RationalFunction(self.den ** (-k), self.num ** (-k))
        return RationalFunction(self.num**k, self.den**k, reduce=False)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
