"""Sparse multivariate polynomials and rational functions over the rationals.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
coefficients.  Coefficients are ``int`` or ``fractions.Fraction`` in the
base ring, and every coefficient division is exact (an ``int`` quotient when
it divides, a ``Fraction`` otherwise); the same container is reused with
other coefficient domains (e.g. rational functions in the inertia moments)
as long as the domain supports ``+ - * ==`` with itself and with small
integers.  All values are treated as immutable: no method mutates ``self``
after construction.

A rational function is a triple (c, p, e): one rational content c, a
primitive numerator p with ``int`` coefficients, and the exponent vector e
of the denominator factors declared for its variables (``declare_factors``:
v_i + v_j and v_i over the moments, stored with ``int`` coefficients).
Every denominator the package forms is a product of these, so cancelling is
exact trial division by them (``divide_out``), not a gcd, and numerator
arithmetic is integer arithmetic.  (Coefficients over the coordinates x
never need a quotient: see ``radical``.)  Over symbolic moments the
bracket and commutator kernels run on integer numerators, one per
denominator class (``split_by_denominator``, ``join_packed``).

The monomial order used everywhere is graded lexicographic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from operator import add, sub


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


def _exact_quotient(c, d):
    """c / d exactly: an int when two ints divide, else the Fraction (or
    the domain's own quotient), never a float."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return c / d


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


def lowered_terms(terms, i):
    """d/dv_i of the term map ``terms`` over exponent tuples: each term with
    a positive exponent e at position i (0-based), lowered to e - 1, times e."""
    out = {}
    for m, c in terms.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1 :]] = c if e == 1 else c * e
    return out


def product_terms(a, b):
    """The product of the term maps ``a`` and ``b`` over exponent tuples:
    exponents add, and the products are summed with cancellation."""
    terms = {}
    for m1, c1 in a.items():
        add_terms(terms, ((tuple(map(add, m1, m2)), c1 * c2) for m2, c2 in b.items()))
    return terms


class SparseElement(RingElement):
    """Sparse element ``terms = {key: nonzero coefficient}``: the sum and
    the coefficient-wise operations shared by polynomials, phase
    polynomials, Weyl operators and PBW elements, from a subclass's
    ``_new(terms)`` (an element of the same class and kind holding
    ``terms``) and ``_coerce``."""

    __slots__ = ()

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

    def scale(self, c):
        return self._new({m: d for m, v in self.terms.items() if (d := v * c)})

    def map_coeffs(self, fn):
        return self._new({m: d for m, c in self.terms.items() if (d := fn(c))})


class TermMap(SparseElement):
    """Sparse element of a free module over the coefficients, in dimension
    ``n``; the linear structure shared by phase polynomials, Weyl operators
    and PBW elements.  A subclass supplies ``const(n, c)``, its product
    ``_product`` with an element of its own class, and its printing;
    ``_scalars`` are the types that act on the coefficients, from either
    side, and coerce to constants.
    """

    __slots__ = ("n", "terms")
    _scalars = (int, Fraction)

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

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.n != self.n:
                raise ValueError("mixed dimensions")
            return other
        if isinstance(other, self._scalars):
            return self.const(self.n, other)
        return None

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        # an operand this class coerces (a polynomial in x for phase terms)
        # multiplies from the left
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._product(self)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


def grlex_key(mono):
    return (sum(mono), mono)


class MultiPoly(SparseElement):
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
        """A polynomial of the same class over the same variables holding
        ``terms``, already free of zeros (not re-filtered)."""
        cls = type(self)
        out = cls.__new__(cls)
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

    # -- ring operations ------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"mixed variable sets {self.vars} vs {other.vars}")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        # another sparse type decides (or refuses) the mixed operation
        if isinstance(other, SparseElement):
            return None
        return MultiPoly.const(self.vars, other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented if isinstance(other, SparseElement) else self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        return self._new(product_terms(b, a) if len(a) > len(b) else product_terms(a, b))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return self._new({(0,) * len(self.vars): Fraction(1)})
        # from ``self``, so that int coefficients stay int
        result = self
        for _ in range(k - 1):
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
        return self._new(lowered_terms(self.terms, i))

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

    # -- division ----------------------------------------------------------

    def _try_div(self, other, lead=None):
        """The exact quotient self / other, or None when other does not
        divide self; ``lead`` is self's leading monomial when the caller
        knows it."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_constant():
            k = other.constant_value()
            return self._new({m: _exact_quotient(c, k) for m, c in self.terms.items()})
        rem = dict(self.terms)
        quot = {}
        gm, gc = other.leading()
        m = lead
        while rem:
            if m is None:
                m = max(rem, key=grlex_key)
            c = rem[m]
            qm = tuple(map(sub, m, gm))
            if min(qm) < 0:
                return None
            qc = c if gc == 1 else _exact_quotient(c, gc)
            quot[qm] = qc
            products = ((tuple(map(add, qm, m2)), -qc * c2) for m2, c2 in other.terms.items())
            add_terms(rem, products)
            m = None
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

# prod p_k^e_k per (variable tuple, e), emptied when a tuple is declared
_POWER_PRODUCT_CACHE = {}


def declare_factors(vars, factors):
    """Declare the irreducible polynomials over ``vars`` that denominators
    may contain; each is stored primitive, with int coefficients and a
    positive leading coefficient.  Declaring a tuple again replaces its
    list."""
    _DECLARED_FACTORS[tuple(vars)] = tuple(_primitive_part(f)[1] for f in factors)
    _POWER_PRODUCT_CACHE.clear()


def _primitive_terms(terms):
    """(g, terms / g) for nonzero int ``terms``: g is their gcd, signed so
    that the quotient's leading (graded-lex) coefficient is positive."""
    g = int_gcd(*terms.values())
    if terms[max(terms, key=grlex_key)] < 0:
        g = -g
    return g, (terms if g == 1 else {m: c // g for m, c in terms.items()})


def _primitive_part(f: MultiPoly):
    """(c, p) with f = c * p, c a Fraction and p primitive with int
    coefficients and a positive leading coefficient; (0, 0) for f = 0."""
    if not f.terms:
        return Fraction(0), f
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // int_gcd(den, c.denominator)
    g, terms = _primitive_terms({m: c.numerator * (den // c.denominator) for m, c in f.terms.items()})
    return Fraction(g, den), f._new(terms)


def _lead_divides(mono, lead):
    """Whether ``mono`` divides the leading monomial ``lead`` of a part
    (true for a zero part, whose ``lead`` is None and which every factor
    divides).  A factor p can divide f only if LM(p) divides LM(f), since
    LM(p q) = LM(p) LM(q) in graded-lex order."""
    return lead is None or all(a >= b for a, b in zip(lead, mono))


def divide_out(parts, factors, limits):
    """Divide each of ``factors`` out of all the polynomials ``parts``, as
    often as it divides every one of them and at most ``limits[k]`` times;
    return the quotients and the count for each factor.  A division is
    tried only when the factor's leading monomial divides the part's.  Each
    part's leading monomial is taken once: an exact division by p takes
    LM(p) off it."""
    leads = [f.leading()[0] if f.terms else None for f in parts]
    counts = []
    for p, limit in zip(factors, limits):
        lead, k = p.leading()[0] if limit else None, 0
        while k < limit:
            quotients = [f._try_div(p, m) if _lead_divides(lead, m) else None for f, m in zip(parts, leads)]
            if any(q is None for q in quotients):
                break
            parts, k = quotients, k + 1
            leads = [None if m is None else tuple(map(sub, m, lead)) for m in leads]
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
    """prod p_k^e_k over the factors declared for ``vars``: primitive, with
    int coefficients and a positive leading coefficient."""
    key = (vars, e)
    out = _POWER_PRODUCT_CACHE.get(key)
    if out is None:
        out = MultiPoly(vars, {(0,) * len(vars): 1})
        for p, k in zip(_DECLARED_FACTORS.get(vars, ()), e):
            if k:
                out = out * p**k
        _POWER_PRODUCT_CACHE[key] = out
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
    return _power_product(g.vars, tuple(common))


class RationalFunction(RingElement):
    """Quotient c * p / prod p_k^e_k over the factors p_k declared for the
    variables of p, stored as (c, p, e): c a Fraction content, p a primitive
    numerator with int coefficients and a positive leading coefficient, e
    the exponent vector.  The triple is unique, since no p_k with e_k > 0
    divides p, and zero is (0, 0, 0).

    Products multiply the contents and the int numerators (a product of
    primitive polynomials is primitive, by Gauss's lemma); sums lift both
    numerators to the larger exponents, add them over the common
    denominator of the contents and take out one integer gcd.  Dividing out
    a declared factor keeps p integral and primitive.  Only the constructor,
    ``/`` and negative powers factor a polynomial, and an undeclared factor
    raises ValueError.  ``num`` (c * p) and ``den`` are the quotient's
    numerator and monic denominator.  Operands may also be MultiPoly, int
    and Fraction.
    """

    __slots__ = ("c", "p", "e")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        c, p = _primitive_part(num)
        e = (0,) * len(_DECLARED_FACTORS.get(num.vars, ()))
        if den is not None:
            if num.vars != den.vars:
                raise ValueError("numerator and denominator over different variables")
            c_den, e = factor_declared(den)
            c = c / c_den
            p, e = _cancel(p, e, e)
        self.c, self.p, self.e = c, p, e

    @classmethod
    def _of(cls, c, p, e):
        """The element (c, p, e), already canonical."""
        out = cls.__new__(cls)
        out.c, out.p, out.e = c, p, e
        return out

    def _zero(self):
        return RationalFunction._of(Fraction(0), self.p._new({}), (0,) * len(self.e))

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, vars, c):
        return cls(MultiPoly.const(vars, c))

    @classmethod
    def gen(cls, vars, i):
        return cls(MultiPoly.gen(vars, i))

    @property
    def vars(self):
        return self.p.vars

    @property
    def num(self):
        return self.p * self.c

    @property
    def den(self):
        return _power_product(self.p.vars, self.e)

    def __bool__(self):
        return bool(self.c)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._zero()
            zeros = (0,) * len(self.e)
            return RationalFunction._of(Fraction(other), _power_product(self.vars, zeros), zeros)
        # an exact MultiPoly in the same variables is an element of this
        # ring; any other polynomial (over the momenta) takes a rational
        # function as a scalar, from either side
        return RationalFunction(other) if type(other) is MultiPoly and other.vars == self.p.vars else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.c:
            return self
        if not self.c:
            return other
        e1, e2 = self.e, other.e
        p1, p2 = self.p.terms, other.p.terms
        if e1 == e2:
            e, limits = e1, e1
        else:
            # where e1_k != e2_k, p_k divides one lifted term and not the
            # other, so it cannot divide the sum
            e = tuple(map(max, e1, e2))
            if e != e1:
                p1 = (self.p * _power_product(self.vars, tuple(a - b for a, b in zip(e, e1)))).terms
            if e != e2:
                p2 = (other.p * _power_product(self.vars, tuple(a - b for a, b in zip(e, e2)))).terms
            limits = [a if a == b else 0 for a, b in zip(e1, e2)]
        # c1 p1 + c2 p2 = (g / d) (k1 p1 + k2 p2) over the common denominator
        # d of the contents and the gcd g of their numerators
        a1, b1, a2, b2 = self.c.numerator, self.c.denominator, other.c.numerator, other.c.denominator
        g, d = int_gcd(a1, a2), b1 * b2 // int_gcd(b1, b2)
        k1, k2 = a1 // g * (d // b1), a2 // g * (d // b2)
        terms = dict(p1) if k1 == 1 else {m: k1 * v for m, v in p1.items()}
        add_terms(terms, p2.items() if k2 == 1 else ((m, k2 * v) for m, v in p2.items()))
        if not terms:
            return self._zero()
        h, terms = _primitive_terms(terms)
        p, e = _cancel(self.p._new(terms), e, limits)
        return RationalFunction._of(Fraction(g * h, d), p, e)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._of(-self.c, self.p, self.e)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction._of(self.c * other, self.p, self.e) if other else self._zero()
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.c or not other.c:
            return self._zero()
        # p_k can divide the product only through a numerator whose own
        # exponent is 0, so only where just one of e1_k, e2_k is positive
        e = tuple(map(add, self.e, other.e))
        limits = [a if not (x and y) else 0 for a, x, y in zip(e, self.e, other.e)]
        p, e = _cancel(self.p * other.p, e, limits)
        return RationalFunction._of(self.c * other.c, p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other**-1

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, k):
        if k == 0:
            return self._coerce(1)
        if k > 0:
            return RationalFunction._of(self.c**k, self.p**k, tuple(k * a for a in self.e))
        # den/p is canonical: no p_k with e_k > 0 divides p, and p is a
        # product of the declared factors with content 1
        _, e = factor_declared(self.p)
        return RationalFunction._of(1 / self.c, self.den, e) ** -k

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c and self.e == other.e and self.p.terms == other.p.terms

    def __hash__(self):
        return hash((self.c, self.p, self.e))

    def __str__(self):
        if not any(self.e):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def moment_vars(coeffs):
    """The variables of the first RationalFunction among ``coeffs``, or None
    when all are rational."""
    return next((c.p.vars for c in coeffs if isinstance(c, RationalFunction)), None)


def split_by_denominator(terms, vars):
    """Split the {key: coefficient} ``terms`` (RationalFunction over ``vars``,
    int or Fraction) into denominator classes {e: (L, [(key, moment
    exponents m, int a)])}: a key's coefficient is the sum of its a * v^m
    over L * prod p_k^e_k, and L, the lcm of the class's content
    denominators, makes every numerator integral."""
    classes = {}
    for key, c in terms.items():
        if not c:
            continue
        if not isinstance(c, RationalFunction):
            c = RationalFunction.const(vars, c)
        elif c.p.vars != vars:
            raise ValueError(f"mixed variable sets {vars} vs {c.p.vars}")
        classes.setdefault(c.e, []).append((key, c))
    out = {}
    for e, members in classes.items():
        lcm = int_lcm(*(c.c.denominator for _, c in members))
        scaled = ((key, c.c.numerator * (lcm // c.c.denominator), c.p.terms) for key, c in members)
        out[e] = lcm, [(key, m, k * a) for key, k, p in scaled for m, a in p.items()]
    return out


def moment_degree(classes):
    """The largest total degree of a moment monomial in split ``classes``."""
    return max((sum(m) for _, triples in classes.values() for _, m, _ in triples), default=0)


def join_packed(vars, parts, high, width):
    """{key: coefficient} summed over integer parts (e, scale, {packed key:
    int}) whose keys hold moment exponents in ``width``-bit fields from bit
    ``high`` up: per part and key below bit ``high``, scale * numerator /
    prod p_k^e_k is made canonical once, cancelling each p_k at most e_k
    times; the parts are summed as RationalFunctions."""
    mask, low = (1 << width) - 1, (1 << high) - 1
    shifts = range(high, high + width * len(vars), width)
    terms = {}
    for e, scale, acc in parts:
        numerators = {}
        for key, a in acc.items():
            numerators.setdefault(key & low, {})[tuple((key >> k) & mask for k in shifts)] = a
        for key, num in numerators.items():
            g, num = _primitive_terms(num)
            p, e_key = _cancel(MultiPoly(vars, num), e, e)
            add_terms(terms, ((key, RationalFunction._of(scale * g, p, e_key)),))
    return terms
