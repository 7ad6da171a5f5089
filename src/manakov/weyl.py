"""Normal-ordered differential operators on punctured R^n.

Operators are sums coefficient(x, r) * phat^mono with all coefficients to the
left of the derivatives phat_i = d/dx_i.  There is no factor of i or hbar
anywhere: [phat_i, x_j] = delta_ij over the rationals, which is the
convention every verified identity below is stated in.

The central-force system is quantized by symmetrization once: every quantum
operator of the suite (the Kepler Hamiltonian, the Laplacian, r^2, P-hat_ij,
the conserved vector A-hat_i and the splitting-tree items) is ``symmetrize``
of its classical function from ``central_force``, each monomial averaged
over its orderings by McCoy's closed formula, one axis at a time.  Only
P-hat^2, composed from the P-hat_ij, and the normal-ordered x.phat are
built otherwise: the identities are stated in them.

The splitting-tree items (P-hat_ij and sums of P-hat_ij^2) are commuted by
the rule that decides the classical pairs, antisymmetry and the chain rule
through the momentum map (``items_commute``); only a pair that the rule
leaves open is normal-ordered as differential operators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from .brackets import PhasePoly, PhaseTerms
from .central_force import (
    item_function,
    kepler_hamiltonian,
    kinetic,
    momenta,
    momentum,
    p_squared,
    r_squared,
    recursive_set_structure,
    runge_lenz_vector,
)
from .charts import CotangentChart, generic_full_rank, vanishes_by_structure
from .radical import RadicalElement, x_vars
from .ratfunc import MultiPoly, add_terms
from .report import VerificationReport


class WeylOperator(PhaseTerms):
    """Normal-ordered operator: map from phat-exponent tuples to radical
    coefficients; no stored zero coefficients, equality is structural.
    The product is composition; scalars act as multiplication operators,
    so a coefficient on the right is composed with, not scaled by."""

    __slots__ = ()
    letter = "D"

    def __mul__(self, other):
        if isinstance(other, RadicalElement):
            other = self.const(self.n, other)
        return PhaseTerms.__mul__(self, other)

    def _product(self, other):
        return compose(self, other)

    def principal_symbol(self) -> PhasePoly:
        """Top phat-degree part read as a classical phase polynomial."""
        d = self.p_degree()
        return PhasePoly(self.n, {m: c for m, c in self.terms.items() if sum(m) == d})


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


# -- symmetrized (Weyl) quantization ------------------------------------------


def _sym_monomial(n, xmono, pmono) -> WeylOperator:
    """Average over all orderings of the factors of x^xmono p^pmono.

    Factors on different axes commute, so the average is the product of
    the one-axis averages, each in closed form (McCoy's formula):
    sym(x^a p^b) = sum_k C(a,k) C(b,k) k!/2^k x^(a-k) p^(b-k).
    """
    axes = [
        [(a - k, b - k, Fraction(comb(a, k) * comb(b, k) * factorial(k), 2**k)) for k in range(min(a, b) + 1)]
        for a, b in zip(xmono, pmono)
    ]
    terms = {}
    for choice in product(*axes):
        xm, pm, weights = zip(*choice)
        terms[pm] = RadicalElement(n, MultiPoly(x_vars(n), {xm: prod(weights)}))
    return WeylOperator(n, terms)


def symmetrize(f: PhasePoly) -> WeylOperator:
    """Weyl-ordered quantization with respect to (x, phat).

    The rational part a/q^e of a coefficient (a + b*r)/q^e, when it is a
    polynomial, is split into x-monomials, each averaged jointly with the
    p-factors.  The rest of the coefficient (b*r/q^e, or all of it when the
    rational part is not a polynomial) acts multiplicatively from the left.
    In the central-force functions such a rest only multiplies p-free
    terms: the potential -alpha/r of the Kepler Hamiltonian and the
    -alpha x_i/r of the conserved vector A_i, whose quantizations are
    therefore the symmetrizations themselves.  The map is linear on symbols
    whose rational parts are polynomials.
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
            acc = acc + _sym_monomial(n, (0,) * n, pmono).scale(coef)
    return acc


# -- the quantum central-force system ------------------------------------------

_SYMBOL_RANK_POINTS = 2  # sampled points per splitting tree's symbol-rank check


def momentum_square_operator(n) -> WeylOperator:
    """P-hat^2 = sum_{i<j} P-hat_ij o P-hat_ij: composed, not symmetrized,
    so that its shift from the symmetrization of P^2 compares two
    independent constructions."""
    return sum((compose(p, p) for p in map(symmetrize, momenta(n))), WeylOperator.zero(n))


def x_dot_p_operator(n) -> WeylOperator:
    """Normal-ordered x.phat = sum_i x_i phat_i, in which the identities are stated."""
    return sum(
        (compose(WeylOperator.coordinate(n, i), WeylOperator.momentum(n, i)) for i in range(1, n + 1)),
        WeylOperator.zero(n),
    )


def quantum_central_force_suite(n, alpha, rng=None, trees=None) -> VerificationReport:
    """Exact operator identities for the quantum rotation-invariant system."""
    report = VerificationReport()
    anchor = "quantum-central-force"
    h = symmetrize(kepler_hamiltonian(n, alpha))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            report.add_zero(f"[H,P{i}{j}]", anchor, commutator(h, symmetrize(momentum(n, i, j))))

    p2hat = momentum_square_operator(n)
    lap = symmetrize(kinetic(n))
    r2 = symmetrize(r_squared(n))
    xp = x_dot_p_operator(n)

    c = commutator(lap, r2) - (xp.scale(4) + WeylOperator.const(n, 2 * n))
    report.add_zero("[p^2,r^2]=4x.p+2n", anchor, c)

    rhs = compose(r2, lap) - compose(xp, xp) - xp.scale(n - 2)
    report.add_zero("P2hat=r2 p2-(x.p)^2-(n-2)x.p", anchor, p2hat - rhs)

    rhs = (compose(lap, r2) - compose(r2, lap)).scale(Fraction(1, 4)) - WeylOperator.const(n, Fraction(n, 2))
    report.add_zero("x.p=(p2 r2-r2 p2)/4-n/2", anchor, xp - rhs)

    c = p2hat - symmetrize(p_squared(n)) - WeylOperator.const(n, Fraction(n * (n - 1), 4))
    report.add_zero("P2hat-(P2)^sym=n(n-1)/4", anchor, c)

    a_ops = [symmetrize(a) for a in runge_lenz_vector(n, alpha)]
    for i, ai in enumerate(a_ops, start=1):
        report.add_zero(f"[H,A{i}]", anchor, commutator(h, ai))
    a2 = sum((compose(ai, ai) for ai in a_ops), WeylOperator.zero(n))
    alpha = Fraction(alpha)
    bracket_term = p2hat - WeylOperator.const(n, Fraction((n - 1) ** 2, 4))
    rhs = compose(h, bracket_term).scale(2) + WeylOperator.const(n, alpha * alpha)
    report.add_zero("A^2=2H[P2-((n-1)/2)^2]+a^2", anchor, a2 - rhs)

    for tree in trees or ():
        z_items, l_items = recursive_set_structure(n, tree)
        items = z_items + l_items
        bad = next(((zi, it) for zi in z_items for it in items if not items_commute(n, zi, it)), None)
        witness = "all commutators zero" if bad is None else f"[{bad[0]},{bad[1]}] != 0"
        report.add(f"recursive/{tree.describe()}/commute", anchor, bad is None, witness=witness)
        if rng is not None:
            # the symbols of the item operators are the classical items
            symbols = [item_function(n, it) for it in items]
            for s in range(_SYMBOL_RANK_POINTS):
                ok, witness = generic_full_rank(symbols, lambda r: CotangentChart.random(n, r), rng)
                report.add(
                    f"recursive/{tree.describe()}/symbol-rank/sample{s}",
                    anchor,
                    ok,
                    witness=witness,
                    generic=True,
                )
    return report


def items_commute(n, a, b) -> bool:
    """Whether two structural set entries (("pair", (i, j)) or ("square",
    subset)) commute as operators, by the classical rule on their items
    (``charts.vanishes_by_structure``); a pair the rule leaves open is
    decided by the Weyl commutator of the symmetrized items.

    The rule carries over: symmetrization beta is injective and so(n)-
    equivariant, so [P-hat_ij, beta(F)] = beta({P_ij, F}) vanishes exactly
    when {P_ij, F} does; ad beta(F) is a derivation of U(so(n)), and
    P-hat_ij -> x_i d_j - x_j d_i extends to an algebra map U(so(n)) ->
    Diff(R^n) taking beta of an item to its operator, up to a constant for
    a square."""
    f, g = item_function(n, a), item_function(n, b)
    return vanishes_by_structure(f, g) or commutator(symmetrize(f.phase), symmetrize(g.phase)).is_zero()
