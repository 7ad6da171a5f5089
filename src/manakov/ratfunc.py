"""Sparse multivariate polynomials and rational functions over the rationals.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
coefficients.  Coefficients are ``fractions.Fraction`` in the base ring; the
same container is reused with other coefficient domains (e.g. rational
functions in the inertia moments) as long as the domain supports ``+ - * ==``
with itself and with small integers.  All values are treated as immutable:
no method mutates ``self`` after construction.

A rational function is a pair (num, e): a polynomial numerator over the
exponent vector e of the denominator factors declared for its variables
(``declare_factors``: v_i + v_j and v_i over the moments).  Every
denominator the package forms is a product of these, so cancelling is exact
trial division by them (``divide_out``), not a gcd.  (Coefficients over the
coordinates x never need a quotient: see ``radical``.)

The monomial order used everywhere is graded lexicographic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from operator import add


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


class RingElement:
    """Subtraction and the zero test, from a subclass's ``+``, unary ``-``,
    ``__bool__`` and ``_coerce(other)`` (an element of the same class, or
    None for an unsupported operand)."""

    __slots__ = ()

    def is_zero(self):
        return not self

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


class TermMap(RingElement):
    """Sparse element ``{key: nonzero coefficient}`` of a free module over
    the coefficients, in dimension ``n``; the linear structure shared by
    phase polynomials, Weyl operators and PBW elements.  A subclass supplies
    ``_coerce`` and its own products and printing.
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

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


def grlex_key(mono):
    return (sum(mono), mono)


class MultiPoly(RingElement):
    """Polynomial in a fixed ordered tuple of variables.

    ``vars`` is a tuple of variable names; ``terms`` maps exponent tuples of
    length ``len(vars)`` to nonzero coefficients.  Two polynomials are equal
    iff they have the same variable tuple and identical term maps.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {m: c for m, c in terms.items() if c}

    def _new(self, terms):
        """A polynomial over the same variables holding ``terms``, already
        free of zeros (not re-filtered)."""
        out = MultiPoly.__new__(MultiPoly)
        out.vars, out.terms = self.vars, terms
        return out

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

    def _coerce(self, other):
        return other if isinstance(other, MultiPoly) else MultiPoly.const(self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self._new(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly.zero(self.vars)
            return self._new({m: c * other for m, c in self.terms.items()})
        self._check(other)
        terms = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for m1, c1 in a.terms.items():
            products = ((tuple(e1 + e2 for e1, e2 in zip(m1, m2)), c1 * c2) for m2, c2 in b.terms.items())
            add_terms(terms, products)
        return self._new(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        for _ in range(k):
            result = result * self
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
        return self._new(terms)

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

    def _try_div(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_constant():
            return self * (1 / other.constant_value())
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
        return self._new(quot)

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
# denominator the package forms is a product of these, so a quotient stores
# the exponent of each one and cancelling is exact trial division by them.
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


def divide_out(parts, factors, limits):
    """Divide each of ``factors`` out of all the polynomials ``parts``, as
    often as it divides every one of them and at most ``limits[k]`` times;
    return the quotients and the count for each factor.  A division is
    tried only when the factor's leading monomial divides the part's."""
    counts = []
    for p, limit in zip(factors, limits):
        lead, k = p.leading()[0], 0
        while k < limit:
            quotients = [f._try_div(p) if _lead_divides(lead, f) else None for f in parts]
            if any(q is None for q in quotients):
                break
            parts, k = quotients, k + 1
        counts.append(k)
    return parts, counts


def factor_declared(g: MultiPoly):
    """(c, e) with g = c * prod p_k^e_k over the factors p_k declared for
    the variables of ``g``; any other factor raises ValueError."""
    if g.is_zero():
        raise ZeroDivisionError("zero denominator")
    factors = _DECLARED_FACTORS.get(g.vars, ())
    (rest,), e = divide_out((g,), factors, [g.total_degree()] * len(factors))
    if not rest.is_constant():
        raise ValueError(f"denominator factor {rest} is none of those declared for {g.vars}")
    return rest.constant_value(), tuple(e)


def _power_product(vars, e):
    """prod p_k^e_k over the factors declared for ``vars``."""
    out = MultiPoly.const(vars, 1)
    for p, k in zip(_DECLARED_FACTORS.get(vars, ()), e):
        if k:
            out = out * p**k
    return out


def _cancel(num, e, limits):
    """(num, e) with each declared factor p_k divided out of ``num`` as
    often as it divides, at most ``limits[k]`` times."""
    if not any(limits):
        return num, e
    (num,), k = divide_out((num,), _DECLARED_FACTORS[num.vars], limits)
    return num, tuple(a - b for a, b in zip(e, k))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd of ``f`` and a nonzero denominator ``g``: the product of
    the declared factors, each to the highest power that divides both.  A
    factor of ``g`` outside the declared ones raises ValueError."""
    if f.vars != g.vars:
        raise ValueError("gcd of polynomials over different variables")
    _, e = factor_declared(g)
    _, common = divide_out((f,), _DECLARED_FACTORS.get(g.vars, ()), e)
    return _power_product(g.vars, common)


class RationalFunction(RingElement):
    """Quotient num / prod p_k^e_k over the factors p_k declared for the
    variables of num, stored as (num, e): unique, since no p_k with e_k > 0
    divides num and zero has e = 0.  Products add exponents and sums lift
    both numerators to the larger ones; only the constructor, ``/`` and
    negative powers factor a polynomial, and an undeclared factor raises
    ValueError.  Operands may also be MultiPoly, int and Fraction.
    """

    __slots__ = ("num", "e")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            self.num, self.e = num, (0,) * len(_DECLARED_FACTORS.get(num.vars, ()))
            return
        if num.vars != den.vars:
            raise ValueError("numerator and denominator over different variables")
        c, e = factor_declared(den)
        self.num, self.e = _cancel(num * (1 / c), e, e)

    @classmethod
    def _of(cls, num, e):
        """The element (num, e), already canonical."""
        out = cls.__new__(cls)
        out.num, out.e = num, e
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, vars, c):
        return cls(MultiPoly.const(vars, c))

    @classmethod
    def gen(cls, vars, i):
        return cls(MultiPoly.gen(vars, i))

    @property
    def vars(self):
        return self.num.vars

    @property
    def den(self):
        return _power_product(self.num.vars, self.e)

    def __bool__(self):
        return bool(self.num.terms)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return RationalFunction(other) if isinstance(other, MultiPoly) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        e1, e2 = self.e, other.e
        if e1 == e2:
            num, e, limits = self.num + other.num, e1, e1
        else:
            # where e1_k != e2_k, p_k divides one lifted term and not the
            # other, so it cannot divide the sum
            e = tuple(map(max, e1, e2))
            num = (self.num * _power_product(self.vars, [a - b for a, b in zip(e, e1)])
                   + other.num * _power_product(self.vars, [a - b for a, b in zip(e, e2)]))
            limits = [a if a == b else 0 for a, b in zip(e1, e2)]
        if not num:
            return RationalFunction(num)
        return RationalFunction._of(*_cancel(num, e, limits))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._of(-self.num, self.e)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            return RationalFunction._of(self.num * other, self.e)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return RationalFunction(self.num * 0)
        # p_k can divide the product only through a numerator whose own
        # exponent is 0, so only where just one of e1_k, e2_k is positive
        e = tuple(map(add, self.e, other.e))
        limits = [a if not (x and y) else 0 for a, x, y in zip(e, self.e, other.e)]
        return RationalFunction._of(*_cancel(self.num * other.num, e, limits))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other**-1

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, k):
        if k >= 0:
            return RationalFunction._of(self.num**k, tuple(k * a for a in self.e))
        # den/num is canonical: no p_k with e_k > 0 divides num
        c, e = factor_declared(self.num)
        return RationalFunction._of(self.den * (1 / c), e) ** -k

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.e == other.e

    def __hash__(self):
        return hash((self.num, self.e))

    def __str__(self):
        if not any(self.e):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
