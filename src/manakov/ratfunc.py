"""Sparse multivariate polynomials and rational functions over the rationals.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
coefficients.  Coefficients are ``fractions.Fraction`` in the base ring; the
same container is reused with other coefficient domains (e.g. rational
functions in the inertia moments) as long as the domain supports ``+ - * ==``
with itself and with small integers.  All values are treated as immutable:
no method mutates ``self`` after construction.

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

    # -- content / division (Fraction coefficients only) -----------------

    def content(self) -> Fraction:
        """Positive rational c with ``self / c`` integer-primitive.

        Sign is taken from the graded-lex leading coefficient, so the
        primitive part has positive leading coefficient.
        """
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        c = Fraction(num, den)
        _, lead = self.leading()
        return -c if lead < 0 else c

    def primitive(self):
        if not self.terms:
            return self
        inv = 1 / self.content()
        return MultiPoly(self.vars, {m: c * inv for m, c in self.terms.items()})

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

    def divides(self, other):
        return other._try_div(self) is not None

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


# -- gcd ------------------------------------------------------------------


def _to_univariate(f: MultiPoly, i):
    """Regroup ``f`` by the degree in variable ``i``; coefficients keep the ring."""
    coeffs = {}
    for m, c in f.terms.items():
        e = m[i]
        rest = list(m)
        rest[i] = 0
        coeffs.setdefault(e, {})[tuple(rest)] = c
    return {e: MultiPoly(f.vars, t) for e, t in coeffs.items()}


def _from_univariate(coeffs, i, vars):
    terms = {}
    for e, p in coeffs.items():
        for m, c in p.terms.items():
            mm = list(m)
            mm[i] = e
            terms[tuple(mm)] = c
    return MultiPoly(vars, terms)


def _pseudo_rem(f, g, i):
    """Pseudo-remainder of f by g in variable ``i`` (both as coefficient maps)."""
    df = max(f)
    dg = max(g)
    lg = g[dg]
    while f and max(f) >= dg:
        df = max(f)
        lf = f[df]
        # lg * f - lf * x^(df-dg) * g
        new = {}
        for e, p in f.items():
            new[e] = p * lg
        for e, p in g.items():
            ee = e + df - dg
            q = new.get(ee)
            term = p * lf
            new[ee] = (q - term) if q is not None else -term
        f = {e: p for e, p in new.items() if not p.is_zero()}
        if f and max(f) == df:
            raise ArithmeticError("pseudo-division failed to reduce degree")
    return f


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive gcd over Q[vars], positive leading coefficient.

    Cheap paths handle constants, monomials and exact divisibility; the
    general case runs the evaluation-point heuristic (candidate verified by
    exact division, hence sound) and falls back to the primitive
    polynomial-remainder-sequence when the heuristic abstains.
    """
    if f.vars != g.vars:
        raise ValueError("gcd of polynomials over different variables")
    if f.is_zero():
        return g.primitive() if not g.is_zero() else g
    if g.is_zero():
        return f.primitive()
    f = f.primitive()
    g = g.primitive()
    if f.is_constant() or g.is_constant():
        return MultiPoly.const(f.vars, 1)
    if f == g:
        return f
    if len(f.terms) == 1 or len(g.terms) == 1:
        return _monomial_gcd(f, g)
    # trial division settles the common fully-reducible case quickly
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    if small.divides(large):
        return small
    h = _heuristic_gcd(f, g)
    if h is not None:
        return h.primitive()
    return _prs_gcd(f, g)


def _prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    # main variable: smallest combined degree among variables present in both
    cand = [
        (f.degree_in(i) + g.degree_in(i), i)
        for i in range(len(f.vars))
        if f.degree_in(i) > 0 and g.degree_in(i) > 0
    ]
    if not cand:
        return MultiPoly.const(f.vars, 1)
    _, mv = min(cand)
    fu = _to_univariate(f, mv)
    gu = _to_univariate(g, mv)
    f_cont = _list_gcd(list(fu.values()))
    g_cont = _list_gcd(list(gu.values()))
    cont = poly_gcd(f_cont, g_cont)
    fu = {e: p.divexact(f_cont) for e, p in fu.items()}
    gu = {e: p.divexact(g_cont) for e, p in gu.items()}
    if max(fu) < max(gu):
        fu, gu = gu, fu
    while True:
        r = _pseudo_rem(fu, gu, mv)
        if not r:
            h = _from_univariate(gu, mv, f.vars)
            break
        if max(r) == 0:
            h = MultiPoly.const(f.vars, 1)
            break
        rc = _list_gcd(list(r.values()))
        fu, gu = gu, {e: p.divexact(rc) for e, p in r.items()}
    h = h.primitive() * cont
    return h.primitive()


def _monomial_gcd(f, g):
    mono = tuple(
        min(min(m[i] for m in f.terms), min(m[i] for m in g.terms))
        for i in range(len(f.vars))
    )
    return MultiPoly(f.vars, {mono: Fraction(1)})


def _subst_var(f: MultiPoly, i, value):
    """Substitute an integer for variable i (degree collapses onto the rest)."""
    terms = ((m[:i] + (0,) + m[i + 1 :], c * value ** m[i] if m[i] else c) for m, c in f.terms.items())
    return MultiPoly(f.vars, add_terms({}, terms))


def _max_norm(f: MultiPoly):
    return max(abs(c) for c in f.terms.values())


def _int_content(f: MultiPoly):
    acc = 0
    for c in f.terms.values():
        acc = int_gcd(acc, int(c))
    return acc


def _sym_mod(f: MultiPoly, xi):
    """Coefficient-wise symmetric residue in (-xi/2, xi/2]."""
    half = xi // 2
    terms = {}
    for m, c in f.terms.items():
        r = int(c) % xi
        if r > half:
            r -= xi
        if r:
            terms[m] = Fraction(r)
    return MultiPoly(f.vars, terms)


def _heuristic_gcd(f: MultiPoly, g: MultiPoly, depth=0):
    """Evaluation-point gcd (integer-primitive inputs): reconstruct a
    candidate from the gcd of images at a large integer and verify it by
    exact division.  Returns None when six point choices fail; any returned
    polynomial exactly divides both inputs and equals their gcd by the
    usual magnitude argument for points beyond twice the coefficient norms.
    """
    mv = None
    best = None
    for i in range(len(f.vars)):
        df, dg = f.degree_in(i), g.degree_in(i)
        if df > 0 and dg > 0 and (best is None or df + dg < best):
            best = df + dg
            mv = i
    if mv is None:
        # disjoint variables: only an integer factor can be shared
        return MultiPoly.const(f.vars, Fraction(int_gcd(_int_content(f), _int_content(g))))
    xi = 2 * min(int(_max_norm(f)), int(_max_norm(g))) + 29
    for _ in range(6):
        fi = _subst_var(f, mv, xi)
        gi = _subst_var(g, mv, xi)
        if fi.is_zero() or gi.is_zero():
            xi = xi * 73794 // 27011 + 5
            continue
        if fi.is_constant() or gi.is_constant():
            himg = MultiPoly.const(
                f.vars, Fraction(int_gcd(_int_content(fi), _int_content(gi)))
            )
        elif depth < 12:
            himg = _heuristic_gcd(fi, gi, depth + 1)
            if himg is None:
                xi = xi * 73794 // 27011 + 5
                continue
        else:
            return None
        # base-xi digit reconstruction along the main variable
        digits = {}
        rest = himg
        power = 0
        while not rest.is_zero() and power <= f.degree_in(mv) + g.degree_in(mv):
            digit = _sym_mod(rest, xi)
            if not digit.is_zero():
                digits[power] = digit
            rest = (rest - digit) * Fraction(1, xi)
            power += 1
        if not rest.is_zero():
            xi = xi * 73794 // 27011 + 5
            continue
        terms = {}
        for e, p in digits.items():
            for m, c in p.terms.items():
                mm = list(m)
                mm[mv] = e
                terms[tuple(mm)] = c
        h = MultiPoly(f.vars, terms)
        if h.is_zero():
            xi = xi * 73794 // 27011 + 5
            continue
        h = h.primitive()
        if h.divides(f) and h.divides(g):
            return h
        xi = xi * 73794 // 27011 + 5
    return None


def _list_gcd(polys):
    acc = polys[0]
    for p in polys[1:]:
        if acc.is_constant():
            break
        acc = poly_gcd(acc, p)
    return acc.primitive() if not acc.is_constant() else MultiPoly.const(acc.vars, 1)


class RationalFunction:
    """Quotient num/den of polynomials over the same variables.

    The stored pair is unique: gcd(num, den) = 1 and the denominator is monic
    in graded-lex order.  Supports arithmetic with itself, MultiPoly, int and
    Fraction operands.
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

    def is_polynomial(self):
        return self.den.is_constant()

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

    def diff(self, i):
        num = self.num.diff(i) * self.den - self.num * self.den.diff(i)
        return RationalFunction(num, self.den * self.den)

    def eval(self, values):
        den = self.den.eval(values)
        if den == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.eval(values) / den

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
