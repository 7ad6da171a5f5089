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
from itertools import chain
from operator import add

from .radical import RadicalElement, check_axis, x_vars
from .ratfunc import MultiPoly, TermMap, add_terms, integer_scaled, join_packed, lowered_terms, product_terms
from .ratfunc import moment_degree, moment_vars, split_by_denominator
from .son import SkewMatrix, pair_list, signed_pair, structure_rows


class PhaseTerms(TermMap):
    """Sum of coefficient(x, r) times a monomial in the momenta p_1..p_n,
    keyed by exponent tuples: the structure shared by phase polynomials
    and normal-ordered operators (coefficients to the left of the
    derivatives).  Coefficients are elements of the radical extension
    ((a + b*r)/q^e with a, b polynomials in x, r = sqrt(q) and q = x^2);
    ``letter`` names the momenta in print.  The hash is taken once: the
    terms of an element never change after it is built, and the partials
    memo and the (function, P_ij) memo of ``charts`` hash the same
    functions many times.
    """

    __slots__ = ("_hash",)
    _scalars = (int, Fraction, RadicalElement)
    letter = "p"

    def __eq__(self, other):
        # equal term maps are equal values (no zero is ever stored), so the
        # memos and antisymmetry compare functions without forming their
        # difference; a polynomial in other variables than x (the momenta
        # P_ij) is another function
        if type(other) is type(self):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, MultiPoly) and other.vars != x_vars(self.n):
            return False
        return TermMap.__eq__(self, other)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = TermMap.__hash__(self)
        return h

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

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            other = RadicalElement.polynomial(self.n, other)
        return TermMap._coerce(self, other)

    def p_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(
                f"{self.letter}{i+1}" if e == 1 else f"{self.letter}{i+1}^{e}" for i, e in enumerate(m) if e
            )
            c = str(self.terms[m])
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


class PhasePoly(PhaseTerms):
    """Polynomial on T*R^n: the commutative product of phase terms."""

    __slots__ = ()

    @classmethod
    def radius(cls, n):
        return cls.const(n, RadicalElement.radius(n))

    def _product(self, other):
        return self._new(product_terms(self.terms, other.terms))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a phase polynomial")
        result = PhasePoly.const(self.n, 1)
        for _ in range(k):
            result = result * self
        return result

    # -- calculus ----------------------------------------------------------

    def dp(self, i):
        """d/dp_i (1-based)."""
        return self._new(lowered_terms(self.terms, i - 1))

    def dx(self, i):
        """d/dx_i (1-based), acting on the radical coefficients."""
        return self._new({m: d for m, c in self.terms.items() if (d := c.diff(i))})

    def eval(self, x_values, r_value, p_values):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c.eval(x_values, r_value)
            for e, pv in zip(m, p_values):
                if e:
                    v = v * pv**e
            total += v
        return total


def canonical_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} = sum_i df/dp_i dg/dx_i - df/dx_i dg/dp_i, on the memoized
    partials; a product with a zero factor is skipped."""
    if f.n != g.n:
        raise ValueError("mixed dimensions")
    n = f.n
    df, dg = partials(f), partials(g)
    acc = {}
    for i in range(n):
        fp, gx = df[n + i].terms, dg[i].terms
        if fp and gx:
            add_terms(acc, product_terms(fp, gx).items())
        fx, gp = df[i].terms, dg[n + i].terms
        if fx and gp:
            add_terms(acc, ((m, -c) for m, c in product_terms(fx, gp).items()))
    return f._new(acc)


@lru_cache(maxsize=None)
def partials(f: PhasePoly):
    """df/dx_1..df/dx_n, df/dp_1..df/dp_n, taken once per function and
    shared (callers must not mutate them): the canonical kernel multiplies
    them and the rank checks evaluate them at every chart point.  A phase
    element keeps its hash, so a lookup does not rehash the function."""
    n = f.n
    return tuple(f.dx(i) for i in range(1, n + 1)) + tuple(f.dp(i) for i in range(1, n + 1))


# -- Lie-Poisson side ---------------------------------------------------------


@lru_cache(maxsize=None)
def momentum_vars(n):
    return tuple(f"P{i}_{j}" for (i, j) in pair_list(n))


class LiePoissonPoly(MultiPoly):
    """Polynomial in the N = n(n-1)/2 invariant momentum components.

    ``side`` records whether the variables are the left- or right-invariant
    momenta ("L"/"R"); the two families mutually Poisson-commute and the
    right family carries opposite-sign structure constants.  Arithmetic is
    ``MultiPoly``'s and keeps the side, with a plain ``MultiPoly`` operand
    on either side; mixing the sides raises ValueError, and polynomials of
    different sides are unequal.
    """

    __slots__ = ("n", "side")

    def __init__(self, n, poly: MultiPoly, side="L"):
        if poly.vars != momentum_vars(n):
            raise ValueError("polynomial over the wrong variable set")
        if side not in ("L", "R"):
            raise ValueError("side must be 'L' or 'R'")
        self.n, self.side = n, side
        self.vars, self.terms = poly.vars, poly.terms

    def _new(self, terms):
        out = MultiPoly._new(self, terms)
        out.n, out.side = self.n, self.side
        return out

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

    def _check(self, other):
        MultiPoly._check(self, other)
        if isinstance(other, LiePoissonPoly) and other.side != self.side:
            raise ValueError("mixed momentum sides in polynomial arithmetic")

    def __eq__(self, other):
        # the two sides are different functions, never equal
        if isinstance(other, LiePoissonPoly) and other.side != self.side:
            return False
        return MultiPoly.__eq__(self, other)

    __hash__ = MultiPoly.__hash__

    # Python tries a subclass's reflected method before the base's own
    # method only when the subclass overrides it: with these, a plain
    # MultiPoly on the left keeps the side too
    def __radd__(self, other):
        return MultiPoly.__add__(self, other)

    def __rsub__(self, other):
        return MultiPoly.__rsub__(self, other)

    def __rmul__(self, other):
        return MultiPoly.__mul__(self, other)

    def eval(self, values):
        """Evaluate at a SkewMatrix or at a sequence ordered like pair_list."""
        if isinstance(values, SkewMatrix):
            values = values.coords()
        return MultiPoly.eval(self, list(values))

    def __str__(self):
        tag = "" if self.side == "L" else " [right]"
        return f"{MultiPoly.__str__(self)}{tag}"

    __repr__ = __str__


def lie_poisson_bracket(f: LiePoissonPoly, g: LiePoissonPoly) -> LiePoissonPoly:
    """{f, g} = sum_u df/dP_u * X_u(g), with X_u(g) = {P_u, g} =
    sum_v dg/dP_v * {P_u, P_v} read monomial by monomial off
    ``son.structure_rows``: one polynomial product per momentum component,
    on integer coefficients.

    Inside the kernel a monomial is one int with a bit field per variable,
    (deg f + deg g).bit_length() bits wide.  No exponent of a partial, of
    X_u(g) or of a product exceeds deg f + deg g, so multiplying monomials
    is one integer addition that never carries into the next field.
    Rational operands are scaled to integer coefficients (``integer_scaled``)
    and the result divided once by both scales.  Over symbolic moments each
    operand splits into denominator classes with integer numerators
    (``ratfunc.split_by_denominator``), whose moment exponents are more bit
    fields above the momenta, and the fields are wide enough for the moment
    degree sum too; each pair of classes runs the same loop, and each of its
    coefficients is joined into a quotient once (``ratfunc.join_packed``).

    Brackets between a left- and a right-side polynomial vanish identically;
    right-with-right uses the opposite-sign constants.
    """
    if f.n != g.n:
        raise ValueError("mixed dimensions")
    n, count = f.n, len(f.vars)
    deg_f, deg_g = f.total_degree(), g.total_degree()
    if f.side != g.side or deg_f < 1 or deg_g < 1:
        return f._new({})
    sign = 1 if f.side == "L" else -1
    vars = moment_vars(chain(f.terms.values(), g.terms.values()))
    if vars is None:
        width = (deg_f + deg_g).bit_length()
        f_poly, f_scale = integer_scaled(f)
        g_poly, g_scale = integer_scaled(g)
        df = _packed_partials(f_poly.terms.items(), width, count)
        dg = _packed_partials(g_poly.terms.items(), width, count)
        scale = Fraction(sign, f_scale * g_scale)
        acc = _bracket_terms(n, df, dg, width)
    else:
        f_classes, g_classes = split_by_denominator(f.terms, vars), split_by_denominator(g.terms, vars)
        width = max(deg_f + deg_g, moment_degree(f_classes) + moment_degree(g_classes)).bit_length()
        # the moment exponents extend each momentum exponent tuple
        f_parts, g_parts = (
            [(e, lcm, _packed_partials(((m + x, a) for m, x, a in t), width, count)) for e, (lcm, t) in classes.items()]
            for classes in (f_classes, g_classes)
        )
        parts = (
            (tuple(map(add, e_f, e_g)), Fraction(sign, lcm_f * lcm_g), _bracket_terms(n, df, dg, width))
            for e_f, lcm_f, df in f_parts
            for e_g, lcm_g, dg in g_parts
        )
        acc, scale = join_packed(vars, parts, width * count, width), None
    mask = (1 << width) - 1
    shifts = range(0, width * count, width)
    return f._new({tuple((m >> k) & mask for k in shifts): c if scale is None else c * scale for m, c in acc.items()})


def _bracket_terms(n, df, dg, width):
    """sum_u df/dP_u * X_u(g) over packed partials, as {packed monomial:
    int}."""
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
    return acc


def _packed_partials(terms, width, count):
    """{v: [(packed monomial, coefficient)] of d/dP_v} over the first
    ``count`` variables v that occur in the (exponents, coefficient) pairs
    ``terms``, with ``width`` bits per exponent field."""
    partials = {}
    for mono, c in terms:
        packed = sum(e << (width * v) for v, e in enumerate(mono))
        for v, e in zip(range(count), mono):
            if e:
                partials.setdefault(v, []).append((packed - (1 << (width * v)), c if e == 1 else c * e))
    return partials
