"""Exact Poisson bracket engines.

Two phase spaces are covered: the cotangent bundle of punctured R^n with
canonical coordinates (x, p), and the momentum picture of T*SO(n) where
polynomials live in the left- (or right-) invariant momentum components.

Sign convention, pinned by test_bracket_sign_convention: the elementary
bracket is {p_i, x_j} = delta_ij, which reproduces {P_12, P_23} = +P_13 and
matches the operator commutator [p_i-hat, x_j] = delta_ij.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .radical import RadicalElement, check_axis
from .ratfunc import MultiPoly, RationalFunction, RingElement, TermMap, add_terms, integer_scaled
from .son import SkewMatrix, pair_list, signed_pair, structure_rows


class PhasePoly(TermMap):
    """Polynomial on T*R^n: sum of coefficient(x, r) * p-monomial terms.

    Coefficients are elements of the radical extension ((a + b*r)/q^e with
    a, b polynomials in x, r = sqrt(q) and q = x^2); the exponent tuples
    index powers of p_1..p_n.
    """

    __slots__ = ()

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, n, c):
        if isinstance(c, (int, Fraction)):
            c = RadicalElement.const(n, c)
        return cls(n, {(0,) * n: c})

    @classmethod
    def coordinate(cls, n, i):
        return cls.const(n, RadicalElement.coordinate(n, i))

    @classmethod
    def momentum(cls, n, i):
        check_axis(n, i)
        mono = [0] * n
        mono[i - 1] = 1
        return cls(n, {tuple(mono): RadicalElement.const(n, 1)})

    @classmethod
    def radius(cls, n):
        return cls.const(n, RadicalElement.radius(n))

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PhasePoly):
            if other.n != self.n:
                raise ValueError("mixed dimensions")
            return other
        if isinstance(other, (int, Fraction)):
            return PhasePoly.const(self.n, RadicalElement.const(self.n, other))
        if isinstance(other, MultiPoly):
            other = RadicalElement(self.n, other)
        if isinstance(other, RadicalElement):
            return PhasePoly.const(self.n, other)
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            products = ((tuple(a + b for a, b in zip(m1, m2)), c1 * c2) for m2, c2 in other.terms.items())
            add_terms(terms, products)
        return self._new(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = PhasePoly.const(self.n, 1)
        for _ in range(k):
            result = result * self
        return result

    # -- calculus ----------------------------------------------------------

    def dp(self, i):
        """d/dp_i (1-based)."""
        terms = {}
        for m, c in self.terms.items():
            e = m[i - 1]
            if e == 0:
                continue
            mm = list(m)
            mm[i - 1] = e - 1
            terms[tuple(mm)] = c * e
        return self._new(terms)

    def dx(self, i):
        """d/dx_i (1-based), acting on the radical coefficients."""
        return self._new({m: d for m, c in self.terms.items() if (d := c.diff(i))})

    def p_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def eval(self, x_values, r_value, p_values):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c.eval(x_values, r_value)
            for e, pv in zip(m, p_values):
                if e:
                    v = v * pv**e
            total += v
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(
                f"p{i+1}" if e == 1 else f"p{i+1}^{e}" for i, e in enumerate(m) if e
            )
            c = str(self.terms[m])
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


def canonical_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} = sum_i df/dp_i dg/dx_i - df/dx_i dg/dp_i."""
    if f.n != g.n:
        raise ValueError("mixed dimensions")
    acc = {}
    for i in range(1, f.n + 1):
        fp = f.dp(i)
        if fp.terms:
            add_terms(acc, (fp * g.dx(i)).terms.items())
        fx = f.dx(i)
        if fx.terms:
            add_terms(acc, (-fx * g.dp(i)).terms.items())
    return f._new(acc)


# -- Lie-Poisson side ---------------------------------------------------------


@lru_cache(maxsize=None)
def momentum_vars(n):
    return tuple(f"P{i}_{j}" for (i, j) in pair_list(n))


class LiePoissonPoly(RingElement):
    """Polynomial in the N = n(n-1)/2 invariant momentum components.

    ``side`` records whether the variables are the left- or right-invariant
    momenta ("L"/"R"); the two families mutually Poisson-commute and the
    right family carries opposite-sign structure constants.
    """

    __slots__ = ("n", "side", "poly")

    def __init__(self, n, poly: MultiPoly, side="L"):
        if poly.vars != momentum_vars(n):
            raise ValueError("polynomial over the wrong variable set")
        if side not in ("L", "R"):
            raise ValueError("side must be 'L' or 'R'")
        self.n = n
        self.side = side
        self.poly = poly

    @classmethod
    def zero(cls, n, side="L"):
        return cls(n, MultiPoly.zero(momentum_vars(n)), side)

    @classmethod
    def const(cls, n, c, side="L"):
        return cls(n, MultiPoly.const(momentum_vars(n), c), side)

    @classmethod
    def gen(cls, n, pair, side="L"):
        sp = signed_pair(n, *pair)
        if sp is None:
            return cls.zero(n, side)
        k, sign = sp
        return cls(n, MultiPoly.gen(momentum_vars(n), k) * sign, side)

    def _coerce(self, other):
        if isinstance(other, LiePoissonPoly):
            if other.n != self.n:
                raise ValueError("mixed dimensions")
            if other.side != self.side:
                raise ValueError("mixed momentum sides in polynomial arithmetic")
            return other
        if isinstance(other, (int, Fraction, RationalFunction)):
            return LiePoissonPoly.const(self.n, other, self.side)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LiePoissonPoly(self.n, self.poly + other.poly, self.side)

    __radd__ = __add__

    def __neg__(self):
        return LiePoissonPoly(self.n, -self.poly, self.side)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return LiePoissonPoly(self.n, self.poly * other, self.side)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LiePoissonPoly(self.n, self.poly * other.poly, self.side)

    __rmul__ = __mul__

    def __pow__(self, k):
        return LiePoissonPoly(self.n, self.poly**k, self.side)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash((self.n, self.side, self.poly))

    def __bool__(self):
        return bool(self.poly)

    def total_degree(self):
        return self.poly.total_degree()

    def eval(self, values):
        """Evaluate at a SkewMatrix or at a sequence ordered like pair_list."""
        if isinstance(values, SkewMatrix):
            values = values.coords()
        return self.poly.eval(list(values))

    def map_coeffs(self, fn):
        return LiePoissonPoly(self.n, self.poly.map_coeffs(fn), self.side)

    def __str__(self):
        tag = "" if self.side == "L" else " [right]"
        return f"{self.poly}{tag}"

    __repr__ = __str__


def lie_poisson_bracket(f: LiePoissonPoly, g: LiePoissonPoly) -> LiePoissonPoly:
    """{f, g} = sum_u df/dP_u * X_u(g), with X_u(g) = {P_u, g} =
    sum_v dg/dP_v * {P_u, P_v} read monomial by monomial off
    ``son.structure_rows``: one polynomial product per momentum component.

    Inside the kernel a monomial is one int with a bit field per variable,
    (deg f + deg g).bit_length() bits wide.  No exponent of a partial, of
    X_u(g) or of a product exceeds deg f + deg g, so multiplying monomials
    is one integer addition that never carries into the next field.
    Rational operands are scaled to integer coefficients (``integer_scaled``)
    and the result divided once by both scales; symbolic coefficients take
    the same loop with their own arithmetic.

    Brackets between a left- and a right-side polynomial vanish identically;
    right-with-right uses the opposite-sign constants.
    """
    if f.n != g.n:
        raise ValueError("mixed dimensions")
    n = f.n
    deg_f, deg_g = f.total_degree(), g.total_degree()
    if f.side != g.side or deg_f < 1 or deg_g < 1:
        return LiePoissonPoly.zero(n, f.side)
    width = (deg_f + deg_g).bit_length()
    f_poly, f_scale = integer_scaled(f.poly)
    g_poly, g_scale = integer_scaled(g.poly)
    df = _packed_partials(f_poly, width)
    dg = _packed_partials(g_poly, width)
    acc = {}
    for u, row in enumerate(structure_rows(n)):
        if u not in df:
            continue
        xu = {}
        for v, w, s in row:
            bit = 1 << (width * w)
            if s > 0:
                add_terms(xu, ((m + bit, c) for m, c in dg.get(v, ())))
            else:
                add_terms(xu, ((m + bit, -c) for m, c in dg.get(v, ())))
        for m1, c1 in df[u]:
            add_terms(acc, ((m1 + m2, c1 * c2) for m2, c2 in xu.items()))
    scale = Fraction(1 if f.side == "L" else -1, f_scale * g_scale)
    mask = (1 << width) - 1
    shifts = range(0, width * len(f.poly.vars), width)
    terms = {}
    for m, c in acc.items():
        terms[tuple((m >> k) & mask for k in shifts)] = c * scale
    return LiePoissonPoly(n, MultiPoly(f.poly.vars, terms), f.side)


def _packed_partials(poly: MultiPoly, width):
    """{v: [(packed monomial, coefficient)] of d poly/dP_v} over the
    variables v that occur, with ``width`` bits per exponent field."""
    partials = {}
    for mono, c in poly.terms.items():
        packed = sum(e << (width * v) for v, e in enumerate(mono))
        for v, e in enumerate(mono):
            if e:
                partials.setdefault(v, []).append((packed - (1 << (width * v)), c if e == 1 else c * e))
    return partials
