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
from functools import cached_property, lru_cache

from .brackets import LiePoissonPoly, PhasePoly, canonical_bracket, lie_poisson_bracket
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

    def gradient_row(self, f: PhasePoly):
        """(df/dx_1..df/dx_n, df/dp_1..df/dp_n) evaluated exactly; ``f`` is
        a PhasePoly, a ``Differentiated`` one or a ``MomentumPullback``."""
        if isinstance(f, MomentumPullback):
            return f.gradient_at(self)
        try:
            row = [f.dx(i).eval(self.x, self.r, self.p) for i in range(1, self.n + 1)]
            row += [f.dp(i).eval(self.x, self.r, self.p) for i in range(1, self.n + 1)]
        except ZeroDivisionError:
            raise DegenerateSampleError("pole hit while evaluating gradient; resample point")
        return row


class Differentiated:
    """A phase function whose partial derivatives are taken once, on first
    use, and kept: a rank check over several chart points wraps its
    functions in this so that each point only evaluates the derivatives.
    ``dx``/``dp`` answer as the function's own do."""

    def __init__(self, f: PhasePoly):
        self.f = f

    @cached_property
    def _partials(self):
        n = self.f.n
        return [self.f.dx(i) for i in range(1, n + 1)] + [self.f.dp(i) for i in range(1, n + 1)]

    def dx(self, i):
        return self._partials[i - 1]

    def dp(self, i):
        return self._partials[self.f.n + i - 1]


class MomentumPullback:
    """F o P for a polynomial F on so(n)*, where P: T*R^n -> so(n)* is the
    momentum map P_ij = x_i p_j - x_j p_i.  Its gradient at a chart point is
    sum_u dF/dP_u(P(x, p)) grad P_u: the partials of F are taken once, on
    first use, and F o P is never differentiated on T*R^n."""

    def __init__(self, image: LiePoissonPoly):
        self.image = image

    @cached_property
    def _partials(self):
        """(pair (i, j), dF/dP_ij) for every partial that is not zero."""
        f = self.image
        partials = ((pair, f.diff(u)) for u, pair in enumerate(pair_list(f.n)))
        return [(pair, d) for pair, d in partials if d.terms]

    def gradient_at(self, chart: CotangentChart):
        n, x, p = chart.n, chart.x, chart.p
        momenta = chart.momenta()
        row = [Fraction(0)] * (2 * n)
        for (i, j), d in self._partials:
            c = d.eval(momenta)
            # the gradient of P_ij: p_j dx_i - p_i dx_j - x_j dp_i + x_i dp_j
            row[i - 1] += c * p[j - 1]
            row[j - 1] -= c * p[i - 1]
            row[n + i - 1] -= c * x[j - 1]
            row[n + j - 1] += c * x[i - 1]
        return row


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
    Callers that check one set at several T*R^n points pass
    ``Differentiated`` functions, so that no redraw differentiates again.
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


def involution_report(
    a, b, labels_a=None, labels_b=None, anchor="", id_prefix="involution", images_a=None, images_b=None
) -> VerificationReport:
    """Decide every pairwise canonical bracket between the two batches;
    nonzero brackets are recorded verbatim as failure witnesses.

    ``images_a``/``images_b`` may give each function's LiePoissonPoly image
    when it is a function of the momenta P_ij (None otherwise).  The
    momentum map P: T*R^n -> so(n)* is a Poisson map, {f o P, g o P} =
    {f, g}_LP o P, so a pair whose images Lie-Poisson commute is recorded
    as zero without its canonical bracket.  Every other pair, a nonzero
    Lie-Poisson bracket included, is decided by the canonical bracket.
    """
    labels_a = labels_a or [f"A{i}" for i in range(len(a))]
    labels_b = labels_b or [f"B{j}" for j in range(len(b))]
    images_a = images_a or [None] * len(a)
    images_b = images_b or [None] * len(b)
    report = VerificationReport()
    for f, label_f, image_f in zip(a, labels_a, images_a):
        for g, label_g, image_g in zip(b, labels_b, images_b):
            if image_f is not None and image_g is not None and _lie_poisson_commute(image_f, image_g):
                value = PhasePoly.zero(f.n)
            else:
                value = canonical_bracket(f, g)
            report.add_zero(f"{id_prefix}/{{{label_f},{label_g}}}", anchor, value)
    return report


@lru_cache(maxsize=None)
def _lie_poisson_commute(f: LiePoissonPoly, g: LiePoissonPoly) -> bool:
    """{f, g}_LP = 0, decided once per pair: the sets of a sweep share items."""
    return lie_poisson_bracket(f, g).is_zero()
