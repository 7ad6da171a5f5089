"""Normal-ordered differential operators on punctured R^n.

Operators are sums coefficient(x, r) * phat^mono with all coefficients to the
left of the derivatives phat_i = d/dx_i.  There is no factor of i or hbar
anywhere: [phat_i, x_j] = delta_ij over the rationals, which is the
convention every verified identity below is stated in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .brackets import PhasePoly
from .radical import RadicalElement, x_square_poly
from .ratfunc import TermMap, add_terms
from .report import VerificationReport


class WeylOperator(TermMap):
    """Normal-ordered operator: map from phat-exponent tuples to radical
    coefficients; no stored zero coefficients, equality is structural."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, n, c):
        if isinstance(c, (int, Fraction)):
            c = RadicalElement.const(n, c)
        return cls(n, {(0,) * n: c})

    @classmethod
    def position(cls, n, i):
        return cls.const(n, RadicalElement.coordinate(n, i))

    @classmethod
    def momentum(cls, n, i):
        return cls(n, PhasePoly.momentum(n, i).terms)

    # -- linear structure ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, WeylOperator):
            if other.n != self.n:
                raise ValueError("mixed dimensions")
            return other
        if isinstance(other, (int, Fraction, RadicalElement)):
            return WeylOperator.const(self.n, other)
        return None

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = RadicalElement.const(self.n, c)
        return self._new({m: d for m, v in self.terms.items() if (d := v * c)})

    def __mul__(self, other):
        """Operator composition (scalars act as multiplication operators)."""
        if isinstance(other, (int, Fraction, RadicalElement)):
            return self.scale(other)
        return compose(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RadicalElement)):
            return self.scale(other)
        return NotImplemented

    def p_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def principal_symbol(self) -> PhasePoly:
        """Top phat-degree part read as a classical phase polynomial."""
        d = self.p_degree()
        return PhasePoly(self.n, {m: c for m, c in self.terms.items() if sum(m) == d})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(
                f"D{i+1}" if e == 1 else f"D{i+1}^{e}" for i, e in enumerate(m) if e
            )
            parts.append(f"({self.terms[m]})*{mono}" if mono else f"({self.terms[m]})")
        return " + ".join(parts)

    __repr__ = __str__


def _derivative_table(coef: RadicalElement, deltas):
    """Iterated partials of a coefficient for every multi-index in deltas."""
    table = {(0,) * coef.n: coef}
    for delta in sorted(deltas, key=sum):
        if delta in table:
            continue
        i = next(k for k, e in enumerate(delta) if e)
        prev = list(delta)
        prev[i] -= 1
        table[delta] = table[tuple(prev)].diff(i + 1)
    return table


def compose(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Normal-ordered product: phat^alpha g = sum_{d<=alpha} C(alpha,d) g^{(d)} phat^{alpha-d}."""
    if a.n != b.n:
        raise ValueError("mixed dimensions")
    deltas = set()
    for am in a.terms:
        deltas.update(_sub_multiindices(am))

    def products():
        for bm, bc in b.terms.items():
            table = _derivative_table(bc, deltas)
            for am, ac in a.terms.items():
                for d in _sub_multiindices(am):
                    der = table[d]
                    if der.is_zero():
                        continue
                    coef = ac * der
                    binom = prod(comb(ai, di) for ai, di in zip(am, d))
                    if binom != 1:
                        coef = coef * binom
                    yield tuple(ai - di + bi for ai, di, bi in zip(am, d, bm)), coef

    return a._new(add_terms({}, products()))


def _sub_multiindices(m):
    out = [()]
    for e in m:
        out = [t + (k,) for t in out for k in range(e + 1)]
    return out


def commutator(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    return compose(a, b) - compose(b, a)


def diamond(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Symmetrized product (ab + ba)/2."""
    return (compose(a, b) + compose(b, a)).scale(Fraction(1, 2))


# -- symmetrized (Weyl) quantization ------------------------------------------

_sym_cache = {}


def _sym_monomial(n, xmono, pmono) -> WeylOperator:
    """Average over all orderings of the factors of x^xmono p^pmono."""
    key = (n, xmono, pmono)
    hit = _sym_cache.get(key)
    if hit is not None:
        return hit
    total = sum(xmono) + sum(pmono)
    if total == 0:
        result = WeylOperator.const(n, 1)
    else:
        acc = WeylOperator.zero(n)
        for i, e in enumerate(xmono):
            if e:
                rest = list(xmono)
                rest[i] -= 1
                sub = _sym_monomial(n, tuple(rest), pmono)
                acc = acc + compose(WeylOperator.position(n, i + 1), sub).scale(e)
        for i, e in enumerate(pmono):
            if e:
                rest = list(pmono)
                rest[i] -= 1
                sub = _sym_monomial(n, xmono, tuple(rest))
                acc = acc + compose(WeylOperator.momentum(n, i + 1), sub).scale(e)
        result = acc.scale(Fraction(1, total))
    _sym_cache[key] = result
    return result


def symmetrize(f: PhasePoly) -> WeylOperator:
    """Weyl-ordered quantization with respect to (x, phat).

    The rational part a/q^e of a coefficient (a + b*r)/q^e, when it is a
    polynomial, is split into x-monomials, each averaged jointly with the
    p-factors.  The rest of the coefficient (b*r/q^e, or all of it when the
    rational part is not a polynomial, for instance x_i/r) acts
    multiplicatively from the left, which matches its use in the
    conserved-vector construction where it multiplies p-free terms.  The
    map is linear on symbols whose rational parts are polynomials.
    """
    n = f.n
    acc = WeylOperator.zero(n)
    for pmono, coef in f.terms.items():
        rational = RadicalElement(n, coef.a, e=coef.e)
        if rational.e == 0:
            for xmono, q in rational.a.terms.items():
                acc = acc + _sym_monomial(n, xmono, pmono).scale(q)
            coef = coef - rational
        if coef:
            acc = acc + compose(WeylOperator.const(n, coef), _sym_monomial(n, (0,) * n, pmono))
    return acc


# -- named operators -----------------------------------------------------------


def momentum_operator(n, i, j) -> WeylOperator:
    """Phat_ij = x_i phat_j - x_j phat_i."""
    xi = WeylOperator.position(n, i)
    xj = WeylOperator.position(n, j)
    return compose(xi, WeylOperator.momentum(n, j)) - compose(xj, WeylOperator.momentum(n, i))


def momentum_square_operator(n, subset=None) -> WeylOperator:
    subset = sorted(subset) if subset is not None else list(range(1, n + 1))
    acc = WeylOperator.zero(n)
    for a in range(len(subset)):
        for b in range(a + 1, len(subset)):
            pij = momentum_operator(n, subset[a], subset[b])
            acc = acc + compose(pij, pij)
    return acc


def laplace_operator(n) -> WeylOperator:
    return sum(
        (compose(WeylOperator.momentum(n, i), WeylOperator.momentum(n, i)) for i in range(1, n + 1)),
        WeylOperator.zero(n),
    )


def multiplication_by_r_squared(n) -> WeylOperator:
    return WeylOperator.const(n, RadicalElement(n, x_square_poly(n)))


def x_dot_p_operator(n) -> WeylOperator:
    return sum(
        (compose(WeylOperator.position(n, i), WeylOperator.momentum(n, i)) for i in range(1, n + 1)),
        WeylOperator.zero(n),
    )


def kepler_operator(n, alpha) -> WeylOperator:
    pot = RadicalElement.radius(n).inverse() * Fraction(alpha)
    return laplace_operator(n).scale(Fraction(1, 2)) - WeylOperator.const(n, pot)


def conserved_vector_operators(n, alpha):
    """A_i-hat = sum_j Phat_ij <> phat_j - alpha x_i / r."""
    alpha = Fraction(alpha)
    rinv = RadicalElement.radius(n).inverse()
    out = []
    for i in range(1, n + 1):
        acc = WeylOperator.zero(n)
        for j in range(1, n + 1):
            if j == i:
                continue
            acc = acc + diamond(momentum_operator(n, i, j), WeylOperator.momentum(n, j))
        acc = acc - WeylOperator.const(n, rinv * alpha * RadicalElement.coordinate(n, i))
        out.append(acc)
    return out


# -- verification suite ---------------------------------------------------------


def quantum_central_force_suite(n, alpha, rng=None, trees=None, rank_points=2) -> VerificationReport:
    """Exact operator identities for the quantum rotation-invariant system."""
    from .central_force import p_squared

    report = VerificationReport()
    anchor = "quantum-central-force"
    pij_ops = [momentum_operator(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    pair_names = [f"P{i}{j}" for i in range(1, n) for j in range(i + 1, n + 1)]
    h = kepler_operator(n, alpha)
    for name, op in zip(pair_names, pij_ops):
        c = commutator(h, op)
        report.add(f"[H,{name}]", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))

    p2hat = momentum_square_operator(n)
    lap = laplace_operator(n)
    r2 = multiplication_by_r_squared(n)
    xp = x_dot_p_operator(n)

    c = commutator(lap, r2) - (xp.scale(4) + WeylOperator.const(n, 2 * n))
    report.add("[p^2,r^2]=4x.p+2n", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))

    rhs = compose(r2, lap) - compose(xp, xp) - xp.scale(n - 2)
    c = p2hat - rhs
    report.add("P2hat=r2 p2-(x.p)^2-(n-2)x.p", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))

    rhs = (compose(lap, r2) - compose(r2, lap)).scale(Fraction(1, 4)) - WeylOperator.const(n, Fraction(n, 2))
    c = xp - rhs
    report.add("x.p=(p2 r2-r2 p2)/4-n/2", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))

    shift = p2hat - symmetrize(p_squared(n))
    expected = WeylOperator.const(n, Fraction(n * (n - 1), 4))
    c = shift - expected
    report.add("P2hat-(P2)^sym=n(n-1)/4", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))

    a_ops = conserved_vector_operators(n, alpha)
    for i, ai in enumerate(a_ops, start=1):
        c = commutator(h, ai)
        report.add(f"[H,A{i}]", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))
    a2 = sum((compose(ai, ai) for ai in a_ops), WeylOperator.zero(n))
    alpha = Fraction(alpha)
    bracket_term = p2hat - WeylOperator.const(n, Fraction((n - 1) ** 2, 4))
    rhs = compose(h, bracket_term).scale(2) + WeylOperator.const(n, alpha * alpha)
    c = a2 - rhs
    report.add("A^2=2H[P2-((n-1)/2)^2]+a^2", anchor, c.is_zero(), witness="0" if c.is_zero() else str(c))

    if trees:
        from .central_force import recursive_set_structure
        from .charts import CotangentChart, Differentiated, generic_full_rank

        for tree in trees:
            z_items, l_items = recursive_set_structure(n, tree)
            items = z_items + l_items
            ok = True
            witness = "all commutators zero"
            for zi in z_items:
                for it in items:
                    if not items_commute(n, zi, it):
                        ok = False
                        witness = f"[{zi},{it}] != 0"
                        break
                if not ok:
                    break
            report.add(f"recursive/{tree.describe()}/commute", anchor, ok, witness=witness)
            if rng is not None:
                ops, labels, symbols = quantum_recursive_set(n, tree)
                symbols = [Differentiated(f) for f in symbols]
                for s in range(rank_points):
                    ok, witness = generic_full_rank(symbols, lambda r: CotangentChart.random(n, r), rng)
                    report.add(
                        f"recursive/{tree.describe()}/symbol-rank/sample{s}",
                        anchor,
                        ok,
                        witness=witness,
                        generic=True,
                    )
    return report


@lru_cache(maxsize=None)
def _item_operator(n, item):
    kind, data = item
    if kind == "pair":
        return momentum_operator(n, *data)
    return momentum_square_operator(n, data)


@lru_cache(maxsize=None)
def items_commute(n, a, b) -> bool:
    """Cached commutator vanishing between two structural set entries
    (("pair", (i, j)) or ("square", subset)); trees reuse the same entries
    heavily, so the sweep over all splittings stays cheap."""
    if b < a:
        a, b = b, a
    return commutator(_item_operator(n, a), _item_operator(n, b)).is_zero()


def quantum_recursive_set(n, tree):
    """Operators (Z-hat, L-hat) for a splitting tree, plus their symbols.

    Degree-2 entries are sums of squares of momentum operators, so plain
    substitution of operators for momenta needs no symmetrization.
    """
    from .central_force import recursive_set_structure, _item_label

    z_items, l_items = recursive_set_structure(n, tree)
    ops = [_item_operator(n, it) for it in z_items + l_items]
    labels = [f"Z:{_item_label(n, it)}" for it in z_items]
    labels += [f"L:{_item_label(n, it)}" for it in l_items]
    symbols = [op.principal_symbol() for op in ops]
    return ops, labels, symbols
