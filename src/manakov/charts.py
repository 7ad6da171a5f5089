"""Exact Jacobian-rank checks at rational chart points.

Two charts are supported: canonical (x, p) coordinates on punctured T*R^n,
with x sampled on rational-radius spheres so the radical r evaluates to a
rational, and a 2N-dimensional local chart on T*SO(n) given by a Cayley
parameter S (seeding X = (I-S)(I+S)^{-1}) together with the left-momentum
values.  Right momenta are expanded through the chart and differentiated
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import mul

from .brackets import LiePoissonPoly, PhasePoly, canonical_bracket, lie_poisson_bracket, partials
from .linalg import ExactMatrix, rank_of
from .report import VerificationReport
from .son import (
    DegenerateSampleError,
    SkewMatrix,
    cayley_orthogonal,
    pair_list,
    random_rational,
    random_skew,
    retry_generic,
    right_from_left,
)


class CotangentChart:
    """Rational point of T*R^n with r = sqrt(x^2) exactly rational."""

    __slots__ = ("n", "x", "p", "r", "_momenta")

    def __init__(self, n, x, p, r=None):
        self.n = n
        self.x = tuple(Fraction(v) for v in x)
        self.p = tuple(Fraction(v) for v in p)
        x2 = sum(v * v for v in self.x)
        if r is None:
            r = _rational_sqrt(x2)
            if r is None:
                raise ValueError("x^2 is not the square of a rational; sample on a sphere")
        r = Fraction(r)
        if r * r != x2 or r <= 0:
            raise ValueError("inconsistent radius for the given x")
        self.r = r
        self._momenta = None

    @classmethod
    def random(cls, n, rng, bound=10):
        """Stereographic sample: rational radius, rational coordinates."""
        radius = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        t = [random_rational(rng, bound) for _ in range(n - 1)]
        tt = sum(v * v for v in t)
        denom = 1 + tt
        x = [2 * radius * v / denom for v in t] + [radius * (1 - tt) / denom]
        p = [random_rational(rng, bound) for _ in range(n)]
        return cls(n, x, p, r=radius)

    def momenta(self):
        """The values of P_ij = x_i p_j - x_j p_i here, in pair order,
        formed once per point."""
        if self._momenta is None:
            x, p = self.x, self.p
            self._momenta = [x[i - 1] * p[j - 1] - x[j - 1] * p[i - 1] for i, j in pair_list(self.n)]
        return self._momenta

    def gradient_row(self, f):
        """(df/dx_1..df/dx_n, df/dp_1..df/dp_n) evaluated exactly.  A
        ``MomentumPullback`` F o P takes the chain rule, sum_u dF/dP_u(P(x, p))
        grad P_u, with the P values formed once per point; a PhasePoly
        evaluates its partials, taken once per function
        (``brackets.partials``)."""
        if isinstance(f, MomentumPullback):
            n, x, p, momenta = self.n, self.x, self.p, self.momenta()
            row = [Fraction(0)] * (2 * n)
            for (i, j), d in f.partials:
                c = d.eval(momenta)
                # the gradient of P_ij: p_j dx_i - p_i dx_j - x_j dp_i + x_i dp_j
                row[i - 1] += c * p[j - 1]
                row[j - 1] -= c * p[i - 1]
                row[n + i - 1] -= c * x[j - 1]
                row[n + j - 1] += c * x[i - 1]
            return row
        try:
            return [d.eval(self.x, self.r, self.p) for d in partials(f)]
        except ZeroDivisionError:
            raise DegenerateSampleError("pole hit while evaluating gradient; resample point")


@lru_cache(maxsize=None)
def momentum_table(n):
    """{(i, j): P_ij = x_i p_j - x_j p_i} over every ordered pair of axes
    (P_ji = -P_ij, P_ii = 0), built once per n and shared: callers must not
    mutate the entries."""
    x, p = PhasePoly.coordinate, PhasePoly.momentum
    table = {(i, i): PhasePoly.zero(n) for i in range(1, n + 1)}
    for i, j in pair_list(n):
        table[i, j] = x(n, i) * p(n, j) - x(n, j) * p(n, i)
        table[j, i] = -table[i, j]
    return table


class MomentumPullback:
    """F o P for a polynomial F on so(n)* (``image``), where P: T*R^n ->
    so(n)* is the momentum map P_ij = x_i p_j - x_j p_i.  ``phase`` is
    F o P as a phase polynomial and ``partials`` the nonzero dF/dP_ij, each
    formed on first use; the gradient never differentiates F o P."""

    def __init__(self, image: LiePoissonPoly):
        self.n, self.image = image.n, image

    @cached_property
    def phase(self) -> PhasePoly:
        """F with the shared P_ij of ``momentum_table`` substituted."""
        n, table = self.n, momentum_table(self.n)
        acc = PhasePoly.zero(n)
        for mono, c in self.image.terms.items():
            factors = [table[pair] for pair, e in zip(pair_list(n), mono) for _ in range(e)]
            term = reduce(mul, factors) if factors else PhasePoly.const(n, 1)
            acc = acc + (term if c == 1 else term * c)
        return acc

    @cached_property
    def partials(self):
        """(pair (i, j), dF/dP_ij) for every partial that is not zero."""
        f = self.image
        partials = ((pair, f.diff(u)) for u, pair in enumerate(pair_list(f.n)))
        return [(pair, d) for pair, d in partials if d.terms]


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    num = _int_sqrt_exact(q.numerator)
    den = _int_sqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_sqrt_exact(v):
    from math import isqrt

    r = isqrt(v)
    return r if r * r == v else None


class GroupChart:
    """Rational point of T*SO(n): Cayley seed S and left-momentum values."""

    __slots__ = ("n", "s", "pl", "x", "pr", "_dpr_s", "_dpr_pl")

    def __init__(self, n, s: SkewMatrix, pl: SkewMatrix):
        self.n = n
        self.s = s
        self.pl = pl
        self.x = cayley_orthogonal(s)
        self.pr = right_from_left(self.x, pl)
        self._dpr_s = None
        self._dpr_pl = None

    @classmethod
    def random(cls, n, rng, bound=10**6):
        return cls(n, random_skew(n, rng, bound), random_skew(n, rng, bound))

    def _momentum_derivatives(self):
        """d(PR coords)/d(chart coords), coordinates ordered by pair_list."""
        if self._dpr_s is not None:
            return self._dpr_s, self._dpr_pl
        # X = (I - S)(I + S)^-1 gives (I + S)^-1 = (I + X)/2, so that
        # dX = -A dS A / 2 with A = I + X.  For dS = D^{uv} = E_uv - E_vu,
        # K = dX PL X~ is the rank-2 product -(A_.u B_v. - A_.v B_u.)/2 with
        # B = A PL X~, and X PL dX~ = -K~ since PL is skew, so
        # dPR = K - K~; likewise (X D^{uv} X~)_ij = X_iu X_jv - X_iv X_ju.
        ipx = ExactMatrix.identity(self.n) + self.x
        a, x = ipx.entries, self.x.entries
        b = (ipx @ self.pl.to_dense() @ self.x.transpose()).entries
        minus_half = Fraction(-1, 2)
        index = [(i - 1, j - 1) for (i, j) in pair_list(self.n)]
        dpr_s = []
        dpr_pl = []
        for u, v in index:
            dpr_s.append([
                (a[i][u] * b[v][j] - a[i][v] * b[u][j] - a[j][u] * b[v][i] + a[j][v] * b[u][i]) * minus_half
                for i, j in index
            ])
            dpr_pl.append([x[i][u] * x[j][v] - x[i][v] * x[j][u] for i, j in index])
        self._dpr_s = dpr_s
        self._dpr_pl = dpr_pl
        return dpr_s, dpr_pl

    def gradient_row(self, f: LiePoissonPoly):
        """Gradient in the 2N chart coordinates (S pairs then PL pairs)."""
        n = self.n
        pairs = pair_list(n)
        if f.side == "L":
            vals = self.pl.coords()
            row = [Fraction(0)] * len(pairs)
            row += [f.diff(k).eval(vals) for k in range(len(pairs))]
            return row
        vals = self.pr.coords()
        g = [f.diff(k).eval(vals) for k in range(len(pairs))]
        dpr_s, dpr_pl = self._momentum_derivatives()
        row = []
        for a in range(len(pairs)):
            row.append(sum((g[c] * dpr_s[a][c] for c in range(len(pairs))), Fraction(0)))
        for a in range(len(pairs)):
            row.append(sum((g[c] * dpr_pl[a][c] for c in range(len(pairs))), Fraction(0)))
        return row


def jacobian_rank(fs, at) -> int:
    """Exact rank of the Jacobian of the given functions at a chart point."""
    return rank_of(at.gradient_row(f) for f in fs)


def generic_full_rank(fs, draw_chart, rng):
    """(ok, witness) for "the functions are independent": full Jacobian rank
    at a random chart point, ``draw_chart(rng)``.

    Full rank at one point certifies generic full rank; a deficient point
    certifies nothing, so it is redrawn (``retry_generic``) and the check
    fails only when every attempt is deficient.  The first point is the one
    a single draw would take, so a full-rank first point reads the same.
    """
    size = len(fs)

    def draw(r):
        rank = jacobian_rank(fs, draw_chart(r))
        if rank < size:
            raise DegenerateSampleError(f"rank {rank} of {size}")
        return rank

    try:
        return True, f"rank {retry_generic(draw, rng)} of {size}"
    except DegenerateSampleError as exc:
        return False, f"rank below {size} at every sampled point ({exc})"


def involution_report(a, b, labels_a=None, labels_b=None, anchor="", id_prefix="involution") -> VerificationReport:
    """Decide every pairwise canonical bracket between the two batches of
    phase functions (PhasePoly or MomentumPullback); nonzero brackets are
    recorded verbatim as failure witnesses.

    A pair that ``vanishes_by_structure`` is recorded as zero without its
    canonical bracket.  Every other pair, a nonzero bracket and a zero sum
    of nonzero chain-rule terms included, is decided by the canonical
    bracket of the phase polynomials.
    """
    labels_a = labels_a or [f"A{i}" for i in range(len(a))]
    labels_b = labels_b or [f"B{j}" for j in range(len(b))]
    report = VerificationReport()
    for f, label_f in zip(a, labels_a):
        for g, label_g in zip(b, labels_b):
            if vanishes_by_structure(f, g):
                value = PhasePoly.zero(f.n)
            else:
                value = canonical_bracket(getattr(f, "phase", f), getattr(g, "phase", g))
            report.add_zero(f"{id_prefix}/{{{label_f},{label_g}}}", anchor, value)
    return report


def vanishes_by_structure(f, g) -> bool:
    """True when {f, g} = 0 follows from one of two identities, for phase
    polynomials and pullbacks F o P alike; False decides nothing.

    - Antisymmetry: {f, f} = 0 for equal functions (by value, not hash;
      a pullback is its image F).
    - The chain rule through the momentum map, in either order:
      {f, G o P} = sum_ij (dG/dP_ij o P) {f, P_ij} is zero when f commutes
      with every P_ij that G depends on, as a rotation-invariant f does.

    The same rule decides the quantum items (``weyl.items_commute``).
    """
    if getattr(f, "image", f) == getattr(g, "image", g):
        return True
    return _commutes_with_support(f, g) or _commutes_with_support(g, f)


def _commutes_with_support(f, g) -> bool:
    """g = G o P and f commutes with every P_ij in the support of G."""
    if not isinstance(g, MomentumPullback):
        return False
    return all(_commutes_with_momentum(f, pair) for pair, _ in g.partials)


@lru_cache(maxsize=None)
def _commutes_with_momentum(f, pair) -> bool:
    """Whether {f, P_ij} = 0 is shown, once per (f, (i, j)): for a phase
    polynomial f by its canonical bracket with the shared ``momentum_table``
    entry; for a pullback F o P by {F, P_ij}_LP = 0 on so(n)*, which P, a
    Poisson map, carries to {F o P, P_ij} = 0.  A pullback is its own key
    (the items are built once each), so its image is never hashed."""
    if isinstance(f, MomentumPullback):
        return lie_poisson_bracket(f.image, LiePoissonPoly.gen(f.n, pair)).is_zero()
    return canonical_bracket(f, momentum_table(f.n)[pair]).is_zero()
