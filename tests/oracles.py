"""Independent reference implementations used only by the tests.

Each one computes a quantity the package also computes, by a different and
slower route: Laplace expansion and fraction-free elimination for
determinants and ranks, exhaustive exponent enumeration for the Manakov
coefficients, dense or direct forms of the rigid-body operators, the sum of
a generator multiset over its orderings from single-generator products, the
walk-by-walk symmetrization of the Manakov integrals, the Sym_3/Sym_5
expansions summed one symmetrized cycle at a time, word-by-word PBW normal
ordering, the PBW products, commutators and symmetrized words on tuple words
that the packed-int kernels replaced, greedy rank completions that re-rank
the whole chosen set for every candidate, the Lie-Poisson bracket summed
over the structure table one pair of partial derivatives at a time, the
Lie-Poisson bracket and the squared-generator weightings with one
coefficient product and sum per pair of terms (the loops that the
denominator-class split replaced), the group-chart momentum derivatives by
dense matrix products, the moment
quotients with ``Fraction`` numerators, the general multivariate gcd, the
ring of quotients of polynomials it reduces, and the radical coefficients as
a pair of such quotients, the quantum central-force operators composed by
hand (P-hat_ij, the Laplacian, r^2, the Kepler Hamiltonian and the conserved
vector through symmetrized products) where the package symmetrizes the
classical functions, the Weyl average of a monomial built one factor at a
time by composition where the package uses McCoy's closed formula, and the
Hamiltonian obstruction coefficient written out where the package reads it
off the h = 6 closed form.  The remaining helpers (standard quantization,
the top p-degree part of a phase polynomial, the classical x.p, the so(n)
bracket of two basis elements, the splitting-tree items as phase
polynomials) are small maps only tests use.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd as int_gcd

from manakov.brackets import LiePoissonPoly, PhasePoly, momentum_vars
from manakov.charts import GroupChart
from manakov.linalg import ExactMatrix, invert
from manakov.radical import RadicalElement, x_square_poly, x_vars
from manakov.ratfunc import (
    _DECLARED_FACTORS,
    MultiPoly,
    _cancel,
    _power_product,
    add_terms,
    factor_declared,
    integer_scaled,
)
from manakov.rigid_body import (
    centrality_defect,
    closed_walks,
    manakov_coefficient,
    manakov_indices,
    manakov_integral,
    z_lambda,
)
from manakov.son import (
    MomentSpec,
    basis_element,
    dim_so,
    pair_list,
    signed_pair,
    structure_rows,
    structure_table,
)
from manakov.uea import PBWElement, correction_weights, pbw_mul, square_commutator, weighted_square_commutators
from manakov.weyl import WeylOperator, compose


def minor_expansion_det(m: ExactMatrix):
    """Determinant by Laplace expansion on the first row."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.entries[0][0]
    total = None
    for j in range(n):
        c = m.entries[0][j]
        if c == 0:
            continue
        sub = ExactMatrix([row[:j] + row[j + 1 :] for row in m.entries[1:]])
        term = c * minor_expansion_det(sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return m.entries[0][0] * 0
    return total


def minor_expansion_rank(m: ExactMatrix):
    """Rank as the largest k with a nonzero k x k minor."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        if not any(
            minor_expansion_det(ExactMatrix([[m.entries[i][j] for j in cols] for i in rows])) != 0
            for rows in combinations(range(m.rows), k)
            for cols in combinations(range(m.cols), k)
        ):
            break
        best = k
    return best


def bareiss_det(m: ExactMatrix):
    """Fraction-free determinant; entries in any integral domain with
    exact division (``/`` for fields, ``divexact`` for polynomials)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.entries]
    sign = 1
    prev = None
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return a[k][k] * 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                if prev is not None:
                    val = _exact_div(val, prev)
                a[i][j] = val
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _exact_div(val, d):
    if isinstance(val, MultiPoly):
        return divexact(val, d)
    return val / d


def bareiss_rank(m: ExactMatrix):
    """Fraction-free rank over an integral domain (no field division)."""
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    r = 0
    prev = None
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                val = a[i][j] * a[r][c] - a[i][c] * a[r][j]
                if prev is not None:
                    val = _exact_div(val, prev)
                a[i][j] = val
            a[i][c] = a[r][c] * 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def is_special_orthogonal(x: ExactMatrix) -> bool:
    if x.rows != x.cols:
        return False
    if x.transpose() @ x != ExactMatrix.identity(x.rows):
        return False
    return bareiss_det(x) == 1


def exact_rhs_reference(p_exact, spec: MomentSpec):
    """The Euler right-hand side dP/dt in exact rational arithmetic."""
    n = spec.n
    lam = spec.lambdas
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for k in range(n):
                acc += p_exact[i][k] * p_exact[k][j] / ((lam[i] + lam[k]) * (lam[k] + lam[j]))
            out[i][j] = -(lam[i] - lam[j]) * acc
    return out


def hamiltonian_operator(spec: MomentSpec) -> PBWElement:
    """H-hat = 1/2 sum (P-hat_ij)^2 / (l_i + l_j), as one PBW element."""
    one = spec.coeff_one()
    terms = {}
    for k, (i, j) in enumerate(pair_list(spec.n)):
        terms[(k, k)] = one / (2 * (spec.lambdas[i - 1] + spec.lambdas[j - 1]))
    return PBWElement(spec.n, terms)


def manakov_coefficient_enumerated(idx, indices, spec: MomentSpec):
    """a^{i1..i_{2l}}_{k,k-2l} by enumerating every exponent vector
    b_1..b_{2l} >= 0 with total k-2l and summing the products
    l_{i1}^{2b_1} ... l_{i_{2l}}^{2b_{2l}}."""
    if len(indices) != 2 * idx.l:
        raise ValueError("index tuple length must be 2l")
    lam2 = [spec.lambdas[i - 1] ** 2 for i in indices]
    one = spec.coeff_one()
    if idx.j == 0:
        return one
    acc = [one * 0]

    def rec(pos, remaining, prod):
        if pos == len(lam2) - 1:
            acc[0] = acc[0] + prod * lam2[pos] ** remaining
            return
        for b in range(remaining + 1):
            rec(pos + 1, remaining - b, prod * lam2[pos] ** b)

    rec(0, idx.j, one)
    return acc[0]


def _rerank(fs, chart):
    """Jacobian rank from scratch: every gradient row, one fraction-free
    elimination apart from the package's echelon."""
    return bareiss_rank(ExactMatrix([chart.gradient_row(f) for f in fs]))


def _complete_by_reranking(n, chosen, rank, candidates, target, chart):
    """Scan (side, pair) momentum candidates until ``target`` functions are
    chosen, keeping one iff re-ranking chosen + [it] raises the rank."""
    kept = []
    for side, p in candidates:
        if len(chosen) == target:
            break
        cand = LiePoissonPoly.gen(n, p, side=side)
        new_rank = _rerank(chosen + [cand], chart)
        if new_rank > rank:
            chosen.append(cand)
            kept.append((side, p))
            rank = new_rank
    return kept, rank


def assemble_by_reranking(spec: MomentSpec, chart):
    """The greedy integrable set with a full re-rank per candidate:
    (central integral labels, noncentral pairs, final rank)."""
    n = spec.n
    _, _, r, kbar = centrality_defect(spec)
    chosen = list(z_lambda(spec)[0])
    rank = _rerank(chosen, chart)
    labels = []
    for idx in manakov_indices(n):
        if len(labels) == r // 2:
            break
        if idx.j == 0:
            continue
        cand = manakov_integral(idx, n, spec)
        new_rank = _rerank(chosen + [cand], chart)
        if new_rank > rank:
            chosen.append(cand)
            labels.append(idx.label())
            rank = new_rank
    candidates = [("L", p) for p in spec.equal_moment_pairs()] + [("R", p) for p in pair_list(n)]
    pairs, rank = _complete_by_reranking(n, chosen, rank, candidates, 2 * dim_so(n) - kbar, chart)
    return labels, tuple(pairs), rank


def momentum_derivatives_by_inverse(chart: GroupChart):
    """d(PR coords)/d(chart coords) of a group chart by dense matrix
    products, with (I + S)^-1 formed by elimination: dX = -(I + X) dS
    (I + S)^-1 and dPR = dX PL X~ + X PL dX~."""
    n = chart.n
    pairs = pair_list(n)
    eye = ExactMatrix.identity(n)
    m = invert(eye + chart.s.to_dense())
    x, xt, pld = chart.x, chart.x.transpose(), chart.pl.to_dense()
    dpr_s, dpr_pl = [], []
    for (a, b) in pairs:
        dab = basis_element(n, a, b).to_dense()
        dx = ((eye + x) @ dab @ m).scale(Fraction(-1))
        dmat = dx @ pld @ xt + x @ pld @ dx.transpose()
        dpr_s.append([dmat.entries[i - 1][j - 1] for (i, j) in pairs])
        dmat2 = x @ dab @ xt
        dpr_pl.append([dmat2.entries[i - 1][j - 1] for (i, j) in pairs])
    return dpr_s, dpr_pl


def flat_case_completion_witnesses(n, rng, chart_bound=30):
    """Witnesses of the two quasi-independent completions of the quantum
    flat cases, one chart drawn per case, with a full re-rank per candidate."""
    witnesses = []
    for q, mus in [((n,), (Fraction(2),)), ((1, n - 1), (Fraction(1), Fraction(2)))]:
        spec = MomentSpec.from_partition_values(q, mus)
        target = 2 * dim_so(n) - centrality_defect(spec)[3]
        chart = GroupChart.random(n, rng, bound=chart_bound)
        chosen = list(z_lambda(spec)[0])
        candidates = [("L", p) for p in spec.equal_moment_pairs()] + [("R", p) for p in pair_list(n)]
        _, rank = _complete_by_reranking(n, chosen, _rerank(chosen, chart), candidates, target, chart)
        witnesses.append(f"rank {rank} with {len(chosen)} of {target} functions")
    return witnesses


def sym_word(n, letters):
    """k! times the average over all orderings of the generator multiset
    ``letters`` of size k, in canonical form with integer coefficients: the
    sum over the first letter g of (copies of g) * e_g times the rest, one
    generator product at a time."""
    return _sorted_sym_word(n, tuple(sorted(letters)))


@lru_cache(maxsize=None)
def _sorted_sym_word(n, letters):
    if not letters:
        return {(): 1}
    acc = {}
    for g in sorted(set(letters)):
        rest = list(letters)
        rest.remove(g)
        sub = pbw_mul(PBWElement(n, {(g,): 1}), PBWElement(n, _sorted_sym_word(n, tuple(rest))))
        mult = letters.count(g)
        add_terms(acc, ((w, c * mult) for w, c in sub.terms.items()))
    return acc


def manakov_operator_by_walks(idx, n, spec: MomentSpec) -> PBWElement:
    """c-hat_{k,k-2l} as the sum over closed walks of the walk coefficient
    times the symmetrized product of the walk's momentum cycle.  The
    symmetrized word depends only on the cycle's letter multiset and the
    coefficient only on the walk's index multiset, so the walk signs are
    summed per (letters, indices) first and each group is added once, its
    coefficient divided once by the (2l)! of its k!-scaled word."""
    scale = Fraction(1, 4 * idx.l * factorial(2 * idx.l))
    signs = {}
    for walk, sign, letters in closed_walks(n, 2 * idx.l):
        key = (tuple(sorted(letters)), tuple(sorted(walk)))
        signs[key] = signs.get(key, 0) + sign
    acc = {}
    for (letters, indices), sign in signs.items():
        if sign:
            coef = manakov_coefficient(idx, indices, spec) * (scale * sign)
            add_terms(acc, ((w, coef * c) for w, c in sym_word(n, letters).items()))
    return PBWElement(n, acc)


def correction_commutator_expansion(spec: MomentSpec, base: PBWElement) -> PBWElement:
    """(5/12) sum_{i<j} l_i^2 l_j^2 [base, (P-hat_ij)^2]."""
    return -weighted_square_commutators(spec.n, [correction_weights(spec)], base)[0]


def sym_k(n, generators) -> PBWElement:
    """Sym_k of a list of generator elements given as pairs (i, j).

    Each factor P_ij with i > j contributes a sign; a factor with i = j
    makes the product vanish.
    """
    sign = 1
    letters = []
    for (i, j) in generators:
        sp = signed_pair(n, i, j)
        if sp is None:
            return PBWElement.zero(n)
        letters.append(sp[0])
        sign *= sp[1]
    scale = Fraction(sign, factorial(len(letters)))
    return PBWElement(n, {w: c * scale for w, c in sym_word(n, tuple(letters)).items()})


def sym3_cycle(n, i, j, k) -> PBWElement:
    """Sym_3(P-hat_ij, P-hat_jk, P-hat_ki)."""
    return sym_k(n, [(i, j), (j, k), (k, i)])


def sym3_expansion_by_cycles(n, coeff_fn) -> PBWElement:
    """sum over ordered triples i<j<k of coeff_fn(i,j,k) * Sym_3 cycle, one
    scaled cycle at a time."""
    acc = {}
    for i, j, k in combinations(range(1, n + 1), 3):
        add_terms(acc, sym3_cycle(n, i, j, k).scale(coeff_fn(i, j, k)).terms.items())
    return PBWElement(n, acc)


def sym35_expansion_by_cycles(spec: MomentSpec) -> PBWElement:
    """-(5/6) sum_{h,l,m} l_l^4 l_m^2 [ ((n-1)/3) Sym_3(P_hl,P_lm,P_mh)
    + sum_{i,j} Sym_5(P_ij,P_jh,P_hl,P_lm,P_mi) ], one Sym_k per index tuple."""
    n = spec.n
    acc = {}
    for h in range(1, n + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                w = (spec.lambdas[l - 1] ** 4) * (spec.lambdas[m - 1] ** 2) * Fraction(-5, 6)
                s3 = sym_k(n, [(h, l), (l, m), (m, h)])
                add_terms(acc, s3.scale(w * Fraction(n - 1, 3)).terms.items())
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        s5 = sym_k(n, [(i, j), (j, h), (h, l), (l, m), (m, i)])
                        add_terms(acc, s5.scale(w).terms.items())
    return PBWElement(n, acc)


# -- PBW kernels on tuple words ----------------------------------------------
# The package's products, commutators and symmetrized words as they were
# before words were packed into ints: a word is a sorted tuple of generator
# indices, and every insertion of a generator, sorted or not, goes through
# one memo.


@lru_cache(maxsize=None)
def _tuple_insert(n, g, w):
    """Normal ordering of e_g * (sorted word w) as {word: integer coefficient}."""
    if not w or g <= w[0]:
        return {(g,) + w: 1}
    # e_g w = e_{w0} (e_g w') + [e_g, e_{w0}] w'
    a, rest = w[0], w[1:]
    result = _tuple_extend(_tuple_insert, n, a, _tuple_insert(n, g, rest))
    br = gen_bracket(n, g, a)
    if br is not None:
        h, s = br
        add_terms(result, ((word, s * c) for word, c in _tuple_insert(n, h, rest).items()))
    return result


@lru_cache(maxsize=None)
def _tuple_ad_word(n, u, w):
    """[e_u, (sorted word w)] as {word: integer coefficient}, by the
    derivation rule [e_u, e_a w'] = [e_u, e_a] w' + e_a [e_u, w']."""
    if not w:
        return {}
    a, rest = w[0], w[1:]
    result = _tuple_extend(_tuple_insert, n, a, _tuple_ad_word(n, u, rest))
    br = gen_bracket(n, u, a)
    if br is not None:
        h, s = br
        add_terms(result, ((word, s * c) for word, c in _tuple_insert(n, h, rest).items()))
    return result


def _tuple_extend(word_map, n, g, terms):
    """``word_map(n, g, w)`` extended linearly to the {word: coef} map ``terms``."""
    out = {}
    for w, c in terms.items():
        add_terms(out, ((word, c * k) for word, k in word_map(n, g, w).items()))
    return out


def tuple_pbw_mul(a: PBWElement, b: PBWElement) -> PBWElement:
    """a * b by left-multiplying b with the letters of each word of a, last
    letter first."""
    acc = {}
    for w, c in a.terms.items():
        terms = b.terms
        for g in reversed(w):
            terms = _tuple_extend(_tuple_insert, a.n, g, terms)
        add_terms(acc, ((v, c * k) for v, k in terms.items()))
    return PBWElement(a.n, acc)


def tuple_ad(u, x: PBWElement) -> PBWElement:
    """[e_u, x] applied word by word."""
    return PBWElement(x.n, _tuple_extend(_tuple_ad_word, x.n, u, x.terms))


def tuple_square_commutator(k, x: PBWElement) -> PBWElement:
    """[(e_k)^2, x] = 2 e_k y - [e_k, y] with y = [e_k, x]."""
    y = _tuple_extend(_tuple_ad_word, x.n, k, x.terms)
    out = {w: 2 * c for w, c in _tuple_extend(_tuple_insert, x.n, k, y).items()}
    add_terms(out, ((w, -c) for w, c in _tuple_extend(_tuple_ad_word, x.n, k, y).items()))
    return PBWElement(x.n, out)


@lru_cache(maxsize=None)
def tuple_sym_word(n, letters):
    """k! times the symmetrization of the sorted generator tuple ``letters``:
    the sum over the first letter g of (copies of g) * e_g times the rest."""
    result = {} if letters else {(): 1}
    for idx, g in enumerate(letters):
        if idx and letters[idx - 1] == g:
            continue
        sub = _tuple_extend(_tuple_insert, n, g, tuple_sym_word(n, letters[:idx] + letters[idx + 1 :]))
        add_terms(result, ((w, c * letters.count(g)) for w, c in sub.items()))
    return result


def pbw_normalize(n, word_sum) -> PBWElement:
    """Canonical form of a sum of (word, coefficient) pairs, each word a
    tuple of generator indices in any order, by left-multiplying one
    generator at a time."""
    acc = PBWElement.zero(n)
    for w, c in word_sum:
        term = PBWElement.const(n, c)
        for g in reversed(w):
            term = pbw_mul(PBWElement(n, {(g,): Fraction(1)}), term)
        acc = acc + term
    return acc


def standard_quantize(f: PhasePoly) -> WeylOperator:
    """v0(x) + sum v_k(x) phat_k from a phase polynomial of degree <= 1 in p.

    This map is a Lie algebra isomorphism: commutators of images equal
    images of Poisson brackets.
    """
    if f.p_degree() > 1:
        raise ValueError("standard quantization needs degree <= 1 in p")
    return WeylOperator(f.n, f.terms)


def top_p_part(f: PhasePoly) -> PhasePoly:
    """The terms of ``f`` of highest total degree in p."""
    d = f.p_degree()
    return f._new({m: c for m, c in f.terms.items() if sum(m) == d})


def hamiltonian_obstruction_b(spec: MomentSpec, i, j, k):
    """b^{ijk} for [H-hat, c-hat_{6,2}] = sum b^{ijk} Sym_3, written out:
    -5/6 [l_i (l_j^2 - l_k^2) + cyclic]."""
    li, lj, lk = (spec.lambdas[t - 1] for t in (i, j, k))
    body = li * (lj**2 - lk**2) + lj * (lk**2 - li**2) + lk * (li**2 - lj**2)
    return body * Fraction(-5, 6)


# -- hand-built quantum central-force operators ---------------------------------


def gen_bracket(n, u, v):
    """[e_u, e_v] as (w, sign) with the bracket equal to sign * e_w, or
    None, read off ``structure_table`` directly."""
    table = structure_table(n)
    if u <= v:
        return table.get((u, v))
    hit = table.get((v, u))
    return None if hit is None else (hit[0], -hit[1])


def item_phase(n, item) -> PhasePoly:
    """A splitting-tree item as a phase polynomial, pair by pair from the
    coordinates and momenta: P_ij = x_i p_j - x_j p_i for ("pair", (i, j)),
    and the sum of P_ij * P_ij over the pairs inside the subset for
    ("square", subset)."""

    def pij(i, j):
        x, p = PhasePoly.coordinate, PhasePoly.momentum
        return x(n, i) * p(n, j) - x(n, j) * p(n, i)

    kind, data = item
    if kind == "pair":
        return pij(*data)
    return sum((pij(a, b) * pij(a, b) for a, b in combinations(sorted(data), 2)), PhasePoly.zero(n))


def x_dot_p(n) -> PhasePoly:
    """The classical x.p = sum_i x_i p_i."""
    return sum(
        (PhasePoly.coordinate(n, i) * PhasePoly.momentum(n, i) for i in range(1, n + 1)),
        PhasePoly.zero(n),
    )


@lru_cache(maxsize=None)
def sym_monomial_by_recursion(n, xmono, pmono) -> WeylOperator:
    """Average over all orderings of the factors of x^xmono p^pmono: each
    factor in turn taken first and composed with the average of the rest,
    weighted by its multiplicity."""
    total = sum(xmono) + sum(pmono)
    if total == 0:
        return WeylOperator.const(n, 1)
    acc = WeylOperator.zero(n)
    monos = (xmono, pmono)
    for side, gen in enumerate((WeylOperator.coordinate, WeylOperator.momentum)):
        for i, e in enumerate(monos[side]):
            if e:
                rest = list(monos)
                rest[side] = monos[side][:i] + (e - 1,) + monos[side][i + 1 :]
                acc = acc + compose(gen(n, i + 1), sym_monomial_by_recursion(n, *rest)).scale(e)
    return acc.scale(Fraction(1, total))


def symmetrize_by_recursion(f: PhasePoly) -> WeylOperator:
    """Weyl quantization with every monomial averaged by the recursion: the
    polynomial rational part of each coefficient is split into x-monomials
    and the rest multiplies the averaged p-monomial from the left."""
    n = f.n
    acc = WeylOperator.zero(n)
    for pmono, coef in f.terms.items():
        rational = RadicalElement(n, coef.a, e=coef.e)
        if rational.e == 0:
            for xmono, q in rational.a.terms.items():
                acc = acc + sym_monomial_by_recursion(n, xmono, pmono).scale(q)
            coef = coef - rational
        if coef:
            acc = acc + compose(WeylOperator.const(n, coef), sym_monomial_by_recursion(n, (0,) * n, pmono))
    return acc


def momentum_operator(n, i, j) -> WeylOperator:
    """P-hat_ij = x_i phat_j - x_j phat_i, composed."""
    xi = WeylOperator.coordinate(n, i)
    xj = WeylOperator.coordinate(n, j)
    return compose(xi, WeylOperator.momentum(n, j)) - compose(xj, WeylOperator.momentum(n, i))


def laplace_operator(n) -> WeylOperator:
    return sum(
        (compose(WeylOperator.momentum(n, i), WeylOperator.momentum(n, i)) for i in range(1, n + 1)),
        WeylOperator.zero(n),
    )


def multiplication_by_r_squared(n) -> WeylOperator:
    return WeylOperator.const(n, RadicalElement(n, x_square_poly(n)))


def kepler_operator(n, alpha) -> WeylOperator:
    pot = RadicalElement.radius(n).inverse() * Fraction(alpha)
    return laplace_operator(n).scale(Fraction(1, 2)) - WeylOperator.const(n, pot)


def diamond(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Symmetrized product (ab + ba)/2."""
    return (compose(a, b) + compose(b, a)).scale(Fraction(1, 2))


def conserved_vector_operators(n, alpha):
    """A_i-hat = sum_j Phat_ij <> phat_j - alpha x_i / r."""
    alpha = Fraction(alpha)
    rinv = RadicalElement.radius(n).inverse()
    out = []
    for i in range(1, n + 1):
        acc = WeylOperator.zero(n)
        for j in range(1, n + 1):
            if j != i:
                acc = acc + diamond(momentum_operator(n, i, j), WeylOperator.momentum(n, j))
        out.append(acc - WeylOperator.const(n, rinv * alpha * RadicalElement.coordinate(n, i)))
    return out


def lie_poisson_bracket_by_table(f: LiePoissonPoly, g: LiePoissonPoly) -> LiePoissonPoly:
    """{f, g} = sum over the structure table of (df/dP_u dg/dP_v -
    df/dP_v dg/dP_u) * s P_w: up to two tuple-monomial products per table
    entry."""
    if f.side != g.side:
        return LiePoissonPoly.zero(f.n, f.side)
    vars = momentum_vars(f.n)
    df = {u: f.diff(u) for u in range(len(vars))}
    dg = {u: g.diff(u) for u in range(len(vars))}
    acc = MultiPoly.zero(vars)
    for (u, v), (w, s) in structure_table(f.n).items():
        term = df[u] * dg[v] - df[v] * dg[u]
        acc = acc + term * (MultiPoly.gen(vars, w) * s)
    return LiePoissonPoly(f.n, acc if f.side == "L" else -acc, f.side)



def lie_poisson_bracket_per_term(f: LiePoissonPoly, g: LiePoissonPoly) -> LiePoissonPoly:
    """The packed-monomial bracket kernel with one coefficient product and
    one sum per pair of terms, in the coefficients' own arithmetic, so that
    symbolic coefficients do one rational-function product and sum each:
    the loop that splitting by denominator class replaced."""
    n = f.n
    deg_f, deg_g = f.total_degree(), g.total_degree()
    if f.side != g.side or deg_f < 1 or deg_g < 1:
        return f._new({})
    width = (deg_f + deg_g).bit_length()
    f_poly, f_scale = integer_scaled(f)
    g_poly, g_scale = integer_scaled(g)

    def packed_partials(poly):
        out = {}
        for mono, c in poly.terms.items():
            packed = sum(e << (width * v) for v, e in enumerate(mono))
            for v, e in enumerate(mono):
                if e:
                    out.setdefault(v, []).append((packed - (1 << (width * v)), c * e))
        return out

    df, dg = packed_partials(f_poly), packed_partials(g_poly)
    acc = {}
    for u, row in enumerate(structure_rows(n)):
        if u not in df:
            continue
        xu = {}
        for v, w, s in row:
            add_terms(xu, ((m + (1 << (width * w)), c * s) for m, c in dg.get(v, ())))
        for m1, c1 in df[u]:
            add_terms(acc, ((m1 + m2, c1 * c2) for m2, c2 in xu.items()))
    scale = Fraction(1 if f.side == "L" else -1, f_scale * g_scale)
    mask = (1 << width) - 1
    shifts = range(0, width * len(f.vars), width)
    return f._new({tuple((m >> k) & mask for k in shifts): c * scale for m, c in acc.items()})


def weighted_square_commutators_per_term(n, weight_sets, x: PBWElement):
    """[sum_k w_k (P-hat_k)^2, x] for each weight list, adding c * w_k for
    every term c of every [(P-hat_k)^2, x] in the coefficients' own
    arithmetic: the loop that splitting by denominator class replaced."""
    x, d = integer_scaled(x)
    accs = [{} for _ in weight_sets]
    for k in range(dim_so(n)):
        comm = square_commutator(k, x).terms
        for acc, weights in zip(accs, weight_sets):
            w = weights[k] if d == 1 else weights[k] * Fraction(1, d)
            if w:
                add_terms(acc, ((word, c * w) for word, c in comm.items()))
    return [PBWElement(n, acc) for acc in accs]

# -- the general quotient ring -------------------------------------------------


def divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient ``f / g``; raises ValueError if not divisible."""
    q = f._try_div(g)
    if q is None:
        raise ValueError("inexact polynomial division")
    return q


class GeneralQuotient:
    """Quotient num/den of arbitrary polynomials over the same variables,
    divided by their ``general_gcd`` and with a monic (graded-lex)
    denominator: the differential oracle for ``ratfunc.RationalFunction``,
    whose pairs it must equal wherever the declared factors are the only
    ones."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("quotient with zero denominator")
        if num.vars != den.vars:
            raise ValueError("numerator and denominator over different variables")
        if num.is_zero():
            den = MultiPoly.const(num.vars, 1)
        elif not den.is_constant():
            g = general_gcd(num, den)
            num, den = divexact(num, g), divexact(den, g)
        inv = 1 / den.leading()[1]
        self.num, self.den = num * inv, den * inv

    @classmethod
    def const(cls, vars, c):
        return cls(MultiPoly.const(vars, c))

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.num.vars, other)
        if isinstance(other, MultiPoly):
            other = GeneralQuotient(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return GeneralQuotient(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return GeneralQuotient(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return GeneralQuotient(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by a zero quotient")
        return GeneralQuotient(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        if k < 0:
            return GeneralQuotient(self.den ** -k, self.num ** -k)
        return GeneralQuotient(self.num**k, self.den**k)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


class FractionRationalFunction:
    """Quotient num / prod p_k^e_k over the declared factors, stored as
    (num, e) with ``Fraction`` numerator coefficients: the coefficient ring
    ``ratfunc.RationalFunction`` replaced by (content, int primitive
    numerator, e), kept as its differential oracle.  Sums lift both
    numerators to the larger exponents and cancel by trial division."""

    __slots__ = ("num", "e")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            self.num, self.e = num, (0,) * len(_DECLARED_FACTORS.get(num.vars, ()))
            return
        if num.vars != den.vars:
            raise ValueError("numerator and denominator over different variables")
        c, e = factor_declared(den)
        self.num, self.e = _cancel(num * (1 / Fraction(c)), e, e)

    @classmethod
    def _of(cls, num, e):
        out = cls.__new__(cls)
        out.num, out.e = num, e
        return out

    @property
    def vars(self):
        return self.num.vars

    @property
    def den(self):
        return _power_product(self.num.vars, self.e)

    def __bool__(self):
        return bool(self.num.terms)

    def _coerce(self, other):
        if isinstance(other, FractionRationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return FractionRationalFunction(other)

    def __add__(self, other):
        other = self._coerce(other)
        e1, e2 = self.e, other.e
        if e1 == e2:
            num, e, limits = self.num + other.num, e1, e1
        else:
            e = tuple(map(max, e1, e2))
            num = (self.num * _power_product(self.vars, tuple(a - b for a, b in zip(e, e1)))
                   + other.num * _power_product(self.vars, tuple(a - b for a, b in zip(e, e2))))
            limits = [a if a == b else 0 for a, b in zip(e1, e2)]
        if not num:
            return FractionRationalFunction(num)
        return FractionRationalFunction._of(*_cancel(num, e, limits))

    __radd__ = __add__

    def __neg__(self):
        return FractionRationalFunction._of(-self.num, self.e)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.num or not other.num:
            return FractionRationalFunction(self.num * 0)
        e = tuple(a + b for a, b in zip(self.e, other.e))
        limits = [a if not (x and y) else 0 for a, x, y in zip(e, self.e, other.e)]
        return FractionRationalFunction._of(*_cancel(self.num * other.num, e, limits))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other) ** -1

    def __pow__(self, k):
        if k >= 0:
            return FractionRationalFunction._of(self.num**k, tuple(k * a for a in self.e))
        c, e = factor_declared(self.num)
        return FractionRationalFunction._of(self.den * (1 / Fraction(c)), e) ** -k

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num == other.num and self.e == other.e

    def __str__(self):
        if not any(self.e):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def rf_diff(f: GeneralQuotient, i) -> GeneralQuotient:
    """d f/d v_i (0-based) by the quotient rule."""
    return GeneralQuotient(f.num.diff(i) * f.den - f.num * f.den.diff(i), f.den * f.den)


def rf_eval(f: GeneralQuotient, values):
    den = f.den.eval(values)
    if den == 0:
        raise ZeroDivisionError("evaluation at a pole")
    return f.num.eval(values) / den


class PairRadical:
    """a + b*r with a, b ``GeneralQuotient``s over x1..xn and r^2 = |x|^2,
    reduced r^2 -> |x|^2 on every product: the field of ``RadicalElement``
    with each part reduced by its own gcd instead of both sharing one power
    of |x|^2."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n, a: GeneralQuotient, b: GeneralQuotient | None = None):
        self.n = n
        self.a = a
        self.b = b if b is not None else GeneralQuotient.const(x_vars(n), 0)

    @classmethod
    def of(cls, u: RadicalElement):
        den = x_square_poly(u.n) ** u.e
        return cls(u.n, GeneralQuotient(u.a, den), GeneralQuotient(u.b, den))

    @classmethod
    def radius(cls, n):
        return cls(n, GeneralQuotient.const(x_vars(n), 0), GeneralQuotient.const(x_vars(n), 1))

    def __add__(self, other):
        return PairRadical(self.n, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return PairRadical(self.n, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        x2 = x_square_poly(self.n)
        return PairRadical(self.n, self.a * other.a + self.b * other.b * x2, self.a * other.b + self.b * other.a)

    def inverse(self):
        """(a + b r)^-1 = (a - b r) / (a^2 - b^2 x^2)."""
        norm = self.a * self.a - self.b * self.b * x_square_poly(self.n)
        return PairRadical(self.n, self.a / norm, -self.b / norm)

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def diff(self, i):
        """d/dx_i (1-based), using dr/dx_i = x_i * r / x^2."""
        x_i_over_x2 = GeneralQuotient(MultiPoly.gen(x_vars(self.n), i - 1), x_square_poly(self.n))
        return PairRadical(self.n, rf_diff(self.a, i - 1), rf_diff(self.b, i - 1) + self.b * x_i_over_x2)

    def eval(self, x_values, r_value):
        return rf_eval(self.a, x_values) + rf_eval(self.b, x_values) * r_value

    def __repr__(self):
        return f"{self.a} + ({self.b})*r"


# -- the general multivariate gcd -------------------------------------------
#
# The package cancels only the denominator factors declared for a variable
# tuple (``ratfunc.divide_out``).  This is the general gcd it replaced: an
# evaluation-point heuristic verified by exact division, with a primitive
# polynomial-remainder-sequence fallback.  It reduces any quotient, so the
# tests use it as a differential oracle for the declared-factor ring.


def content(f: MultiPoly) -> Fraction:
    """Positive rational c with ``f / c`` integer-primitive.

    Sign is taken from the graded-lex leading coefficient, so the
    primitive part has positive leading coefficient.
    """
    if not f.terms:
        return Fraction(0)
    num = 0
    den = 1
    for c in f.terms.values():
        num = int_gcd(num, c.numerator)
        den = den * c.denominator // int_gcd(den, c.denominator)
    c = Fraction(num, den)
    _, lead = f.leading()
    return -c if lead < 0 else c


def primitive(f: MultiPoly) -> MultiPoly:
    if not f.terms:
        return f
    inv = 1 / content(f)
    return MultiPoly(f.vars, {m: c * inv for m, c in f.terms.items()})


def degree_in(f: MultiPoly, i):
    return max((m[i] for m in f.terms), default=-1)


def divides(f: MultiPoly, g: MultiPoly) -> bool:
    return g._try_div(f) is not None


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


def general_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive gcd over Q[vars], positive leading coefficient.

    Cheap paths handle constants, monomials and exact divisibility; the
    general case runs the evaluation-point heuristic (candidate verified by
    exact division, hence sound) and falls back to the primitive
    polynomial-remainder-sequence when the heuristic abstains.
    """
    if f.vars != g.vars:
        raise ValueError("gcd of polynomials over different variables")
    if f.is_zero():
        return primitive(g) if not g.is_zero() else g
    if g.is_zero():
        return primitive(f)
    f = primitive(f)
    g = primitive(g)
    if f.is_constant() or g.is_constant():
        return MultiPoly.const(f.vars, 1)
    if f == g:
        return f
    if len(f.terms) == 1 or len(g.terms) == 1:
        return _monomial_gcd(f, g)
    # trial division settles the common fully-reducible case quickly
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    if divides(small, large):
        return small
    h = _heuristic_gcd(f, g)
    if h is not None:
        return primitive(h)
    return _prs_gcd(f, g)


def _prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    # main variable: smallest combined degree among variables present in both
    cand = [
        (degree_in(f, i) + degree_in(g, i), i)
        for i in range(len(f.vars))
        if degree_in(f, i) > 0 and degree_in(g, i) > 0
    ]
    if not cand:
        return MultiPoly.const(f.vars, 1)
    _, mv = min(cand)
    fu = _to_univariate(f, mv)
    gu = _to_univariate(g, mv)
    f_cont = _list_gcd(list(fu.values()))
    g_cont = _list_gcd(list(gu.values()))
    cont = general_gcd(f_cont, g_cont)
    fu = {e: divexact(p, f_cont) for e, p in fu.items()}
    gu = {e: divexact(p, g_cont) for e, p in gu.items()}
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
        fu, gu = gu, {e: divexact(p, rc) for e, p in r.items()}
    h = primitive(h) * cont
    return primitive(h)


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
    """Evaluation-point gcd of integer polynomials, integer content
    included: reconstruct a candidate from the gcd of images at a large
    integer and verify it by exact division.  Returns None when six point
    choices fail; any returned polynomial exactly divides both inputs and
    equals their gcd by the usual magnitude argument for points beyond
    twice the coefficient norms.
    """
    mv = None
    best = None
    for i in range(len(f.vars)):
        df, dg = degree_in(f, i), degree_in(g, i)
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
        while not rest.is_zero() and power <= degree_in(f, mv) + degree_in(g, mv):
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
        h = primitive(h)
        if divides(h, f) and divides(h, g):
            # the integer content of an image gcd is the value of a factor
            # in the variable substituted one level up, so it must be kept
            return h * int_gcd(_int_content(f), _int_content(g))
        xi = xi * 73794 // 27011 + 5
    return None


def _list_gcd(polys):
    acc = polys[0]
    for p in polys[1:]:
        if acc.is_constant():
            break
        acc = general_gcd(acc, p)
    return primitive(acc) if not acc.is_constant() else MultiPoly.const(acc.vars, 1)
