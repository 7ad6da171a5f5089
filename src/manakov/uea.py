"""PBW-ordered enveloping algebra of so(n) over the moment field.

Elements are sums of non-decreasing generator words (generators are the
momentum components in lexicographic pair order) with coefficients that are
rationals or rational functions of the moments.  Normal ordering rewrites
e_b e_a -> e_a e_b + [e_b, e_a] using the momentum structure constants; the
rewriting is confluent, so the stored form is canonical and zero tests are
structural.

Inside the kernels a sorted word is one int that holds the count of
generator g in its byte g: the first letter is the lowest nonzero byte, and
dropping it is one subtraction.  Elements keep tuple words; the kernels
pack on entry and unpack on exit.  An insertion e_g w that keeps w sorted
(no letter below g) is w plus one count of g, added inline; only the
insertions that reorder are memoized, one dict per (n, g), and a word that
could reach 256 letters raises.  A sum sum_w w R_w over sorted words w is
folded by Horner's rule over the prefix trie of the words: each node p
forms X_p = R_p + sum_g e_g X_{pg}, so each letter is applied once, to the
sum of everything below it.  The product ab puts R_w = a_w b at the words
of a; the commutator [a, b] puts R_w = a_w b - b_w a at the words of both,
so it is one fold, not two products.  Commutators with a generator apply
the derivation ad_u = [e_u, .] word by word (``ad``), and
[e_k^2, x] = 2 e_k [e_k, x] - [e_k, [e_k, x]] (``square_commutator``), so
the top-degree terms that cancel in ab - ba are never formed.

Every quantum rigid-body operator is the symmetrization beta(f) of its
classical function (``symmetrize_momentum_poly``, over the k!-scaled integer
words of ``_sym``); the only modification is the (5/12) squared-generator
correction of the n = 6 degree-4 operator.  Symmetrization is an so(n)-module
isomorphism, so beta({P_u, f}) = [P-hat_u, beta(f)].  The Sym_3 and Sym_5
expansions are symmetrizations too: Sym_k of a cycle depends only on its
letter multiset, so each expansion is one classical cycle sum whose
coinciding monomials collapse before any PBW work.

The commutator battery builds each operator once (C-hat_{6,2} is the
h = 6 degree-4 operator plus its correction) and forms each
[(P-hat_ij)^2, x] once per right operand x (over symbolic moments, once
per integer slice of x): every quadratic left operand (c-hat_{l,l-2},
H-hat, the correction) is a weighting of those, so the only
product is [c-hat_{5,1}, C-hat_{6,2}].  Each antisymmetrized obstruction
coefficient is tabulated once per triple from memoized coefficients.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial
from operator import add

from .brackets import LiePoissonPoly, momentum_vars
from .charts import GroupChart, generic_full_rank
from .ratfunc import MultiPoly, RationalFunction, TermMap, add_terms, integer_scaled, join_packed, moment_degree
from .ratfunc import moment_vars, split_by_denominator
from .report import VerificationReport
from .rigid_body import (
    ManakovIndex,
    assemble_integrable_set,
    centrality_defect,
    cycle_letters,
    manakov_coefficient,
    manakov_integral,
    z_lambda,
)
from .son import DegenerateSampleError, MomentSpec, bracket_matrix, pair_list, retry_generic, signed_pair

# the reordering insertions e_g w and the commutators [e_g, w], one dict of
# packed words w per (n, g)
_INSERT_CACHE = defaultdict(dict)
_AD_CACHE = defaultdict(dict)
_SYM_CACHE = {}
_WORD_CACHE = {}
_MAX_DEGREE = 255  # a packed word holds each letter count in one byte


def _counts(w):
    """The letter counts of the packed word w, one byte per generator."""
    return w.to_bytes((w.bit_length() + 7) >> 3, "little")


def _check_degree(d):
    if d > _MAX_DEGREE:
        raise ValueError(f"PBW words of degree above {_MAX_DEGREE} overflow the packed letter counts")


def _packed(x, grow=0):
    """x's terms keyed by packed words, for a result up to ``grow`` letters longer."""
    _check_degree(x.degree() + grow)
    return {sum(1 << (g << 3) for g in w): c for w, c in x.terms.items()}


def _unpacked(terms):
    """{sorted tuple word: coef} from {packed word: coef}."""
    out = {}
    for p, c in terms.items():
        w = _WORD_CACHE.get(p)
        if w is None:
            letters = []
            for g, k in enumerate(_counts(p)):
                letters += [g] * k
            w = _WORD_CACHE[p] = tuple(letters)
        out[w] = c
    return out


def _extend(n, g, terms, out, scale=1, ad=False):
    """Add scale * e_g t, or scale * [e_g, t] when ``ad``, into ``out`` for
    each term t of the packed {word: coef} map ``terms``; returns ``out``.
    A product that stays sorted (no letter of t below g) adds one count of g
    inline; only the insertions that reorder, and the commutators, go
    through their memo, one dict per (n, g)."""
    table = (_AD_CACHE if ad else _INSERT_CACHE)[n, g]
    unit = 1 << (g << 3)
    below = unit - 1
    for w, c in terms.items():
        if scale != 1:
            c = c * scale
        if ad or w & below:
            words = table.get(w)
            if words is None:
                words = table[w] = _expand(n, g, w, ad)
            words = words.items()
        else:
            words = ((w + unit, 1),)
        for v, k in words:
            t = c if k == 1 else c * k
            s = out.get(v)
            if s is None:
                out[v] = t
            elif s := s + t:
                out[v] = s
            else:
                del out[v]
    return out


def _expand(n, g, w, ad):
    """e_g w, or [e_g, w] when ``ad``, for a packed sorted word w, as {packed
    word: integer coefficient}.  With a the first letter of w = e_a w',
    e_g w = e_a (e_g w') + [e_g, e_a] w' re-normalizes e_g w', whose bracket
    corrections may start below a, and [e_g, w] = e_a [e_g, w'] + [e_g, e_a] w'
    is the derivation rule, which forms no degree-(deg w + 1) term."""
    if not w:
        return {}
    a = ((w & -w).bit_length() - 1) >> 3  # the lowest nonzero byte
    rest = w - (1 << (a << 3))
    unit = 1 << (g << 3)
    if ad or rest & (unit - 1):
        table = (_AD_CACHE if ad else _INSERT_CACHE)[n, g]
        inner = table.get(rest)
        if inner is None:
            inner = table[rest] = _expand(n, g, rest, ad)
    else:
        inner = {rest + unit: 1}
    result = _extend(n, a, inner, {})
    br = bracket_matrix(n)[g][a]
    if br is not None:
        _extend(n, br[0], {rest: br[1]}, result)
    return result


class PBWElement(TermMap):
    """Canonical-form element: {sorted generator word: nonzero coefficient}."""

    __slots__ = ()
    _scalars = (int, Fraction, RationalFunction)

    @classmethod
    def const(cls, n, c):
        return cls(n, {(): c})

    def degree(self):
        return max((len(w) for w in self.terms), default=-1)

    def _product(self, other):
        return pbw_mul(self, other)

    def principal_symbol(self) -> LiePoissonPoly:
        """Top-degree part read as a commutative momentum polynomial."""
        d = self.degree()
        vars = momentum_vars(self.n)
        terms = {}
        for w, c in self.terms.items():
            if len(w) != d:
                continue
            mono = [0] * len(vars)
            for g in w:
                mono[g] += 1
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + c
        return LiePoissonPoly(self.n, MultiPoly(vars, terms))

    def __str__(self):
        if not self.terms:
            return "0"
        names = momentum_vars(self.n)
        parts = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            word = "*".join(names[g] for g in w) or "1"
            parts.append(f"({self.terms[w]})*{word}")
        return " + ".join(parts)

    __repr__ = __str__


def _fold(n, words, left, right):
    """sum_w w (a_w right - b_w left) over the {tuple word w: (a_w, b_w)}
    map ``words``, with ``left`` and ``right`` packed {word: coef} maps, by
    Horner's rule over the prefix trie of the words: X_p = R_p +
    sum_g e_g X_{pg} with R_p the node's own term, packed."""
    root = {}
    for w, coefs in words.items():
        node = root
        for g in w:
            node = node.setdefault(g, {})
        node[None] = coefs

    def horner(node):
        a_w, b_w = node.pop(None, (0, 0))
        x = {v: a_w * c for v, c in right.items()} if a_w else {}
        if b_w:
            add_terms(x, ((v, -b_w * c) for v, c in left.items()))
        for g, sub in node.items():
            _extend(n, g, horner(sub), x)
        return x

    return horner(root)


def pbw_mul(a: PBWElement, b: PBWElement) -> PBWElement:
    """Product in canonical form: sum_w w (a_w b), one Horner fold over the
    words of a."""
    if a.n != b.n:
        raise ValueError("mixed dimensions")
    words = {w: (c, 0) for w, c in a.terms.items()}
    return a._new(_unpacked(_fold(a.n, words, None, _packed(b, a.degree()))))


def uea_commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    """[a, b] = ab - ba = sum_w w (a_w b - b_w a), one Horner fold over the
    words of a and b, so no second product is formed.

    Operands with rational coefficients are multiplied by their least common
    denominators first, so the fold runs on integers; the commutator is
    bilinear, so one division by both multipliers at the end restores it.
    """
    if a.n != b.n:
        raise ValueError("mixed dimensions")
    a, da = integer_scaled(a)
    b, db = integer_scaled(b)
    words = {w: (a.terms.get(w, 0), b.terms.get(w, 0)) for w in {**a.terms, **b.terms}}
    c = a._new(_unpacked(_fold(a.n, words, _packed(a, b.degree()), _packed(b, a.degree()))))
    return c if da * db == 1 else c.scale(Fraction(1, da * db))


def ad(u, x: PBWElement) -> PBWElement:
    """[e_u, x] for the generator of index u, applied word by word."""
    return x._new(_unpacked(_extend(x.n, u, _packed(x), {}, ad=True)))


def square_commutator(k, x: PBWElement) -> PBWElement:
    """[(e_k)^2, x] = e_k y + y e_k = 2 e_k y - [e_k, y] with y = [e_k, x]:
    no degree-(deg x + 2) product is formed."""
    return x._new(_unpacked(_square_packed(x.n, k, _packed(x, 1))))


def _square_packed(n, k, terms):
    """[(e_k)^2, t] for the packed {word: coef} map ``terms``, packed too."""
    y = _extend(n, k, terms, {}, ad=True)
    return _extend(n, k, y, _extend(n, k, y, {}, 2), -1, ad=True)


def square_weights(x: PBWElement):
    """The weights w_k of x = sum_k w_k (e_k)^2, in pair order; a word that
    is not a squared generator raises ValueError."""
    for w in x.terms:
        if len(w) != 2 or w[0] != w[1]:
            raise ValueError(f"word {w} is not a squared generator")
    return [x.terms.get((k, k), 0) for k in range(len(pair_list(x.n)))]


# -- symmetrization ------------------------------------------------------------


def _sym(n, m):
    """k! times the symmetrization of the packed letter multiset m of size
    k (the sum of its products in all k! orders), on packed words, with
    integer coefficients."""
    result = _SYM_CACHE.get((n, m))
    if result is None:
        result = {} if m else {0: 1}
        # the orders that start with g: one per copy of g
        for g, mult in enumerate(_counts(m)):
            if mult:
                _extend(n, g, _sym(n, m - (1 << (g << 3))), result, mult)
        _SYM_CACHE[n, m] = result
    return result


def symmetrize_momentum_poly(f: LiePoissonPoly) -> PBWElement:
    """Weyl symmetrization with respect to the momentum generators: the
    k!-scaled words of the integer-scaled f, summed per degree k and each
    sum divided once by k! and the scale."""
    n = f.n
    _check_degree(f.total_degree())
    poly, d = integer_scaled(f)
    by_degree = {}
    for mono, coef in poly.terms.items():
        # the bytes of an exponent vector are its packed letter multiset
        acc = by_degree.setdefault(sum(mono), {})
        add_terms(acc, ((w, coef * c) for w, c in _sym(n, int.from_bytes(bytes(mono), "little")).items()))
    out = {}
    for k, acc in by_degree.items():
        q = Fraction(1, factorial(k) * d)
        add_terms(out, ((w, c * q) for w, c in _unpacked(acc).items()))
    return PBWElement(n, out)


def cycle_sum(n, weighted_cycles) -> LiePoissonPoly:
    """The classical momentum polynomial sum of w * P_{c1 c2} P_{c2 c3} ...
    P_{cm c1} over the (w, cycle) pairs; cycles that name the same monomial
    collapse into one term, and a cycle with a repeated neighbour is zero."""
    vars = momentum_vars(n)
    acc = {}
    for w, cycle in weighted_cycles:
        cyc = cycle_letters(n, cycle)
        if cyc is None:
            continue
        sign, letters = cyc
        mono = [0] * len(vars)
        for g in letters:
            mono[g] += 1
        add_terms(acc, ((tuple(mono), w if sign == 1 else -w),))
    return LiePoissonPoly(n, MultiPoly(vars, acc))


# -- the quantized integrals -----------------------------------------------------


def manakov_operator(idx, n, spec: MomentSpec) -> PBWElement:
    """c-hat_{k,k-2l}: the symmetrization of the classical integral."""
    return symmetrize_momentum_poly(manakov_integral(idx, n, spec))


def correction_weights(spec: MomentSpec):
    """(5/12) l_i^2 l_j^2 for each pair i < j, in pair order: the weights of
    the squared generators added to c-hat_{6,2}."""
    lam = spec.lambdas
    return [(lam[i - 1] ** 2) * (lam[j - 1] ** 2) * Fraction(5, 12) for (i, j) in pair_list(spec.n)]


def c62_correction(spec: MomentSpec) -> PBWElement:
    """C-hat_{6,2} - c-hat_{6,2}: the squared generators with their
    correction weights."""
    return PBWElement(spec.n, {(k, k): w for k, w in enumerate(correction_weights(spec))})


# -- obstruction coefficients ----------------------------------------------------


def quadratic_coefficient(spec: MomentSpec, l, i, j):
    """a^{ij}_{l,l-2} = (l_i^{2(l-1)} - l_j^{2(l-1)})/(l_i^2 - l_j^2); the
    formal value at l = 3/2 is 1/(l_i + l_j), so the Hamiltonian operator is
    minus the l = 3/2 instance of the quadratic integrals."""
    if l == Fraction(3, 2):
        one = spec.coeff_one()
        return one / (spec.lambdas[i - 1] + spec.lambdas[j - 1])
    return manakov_coefficient(ManakovIndex(l, 1), (i, j), spec)


def obstruction_b_raw(l, h, spec: MomentSpec, i, j, k):
    """b^{ijk}_{l,h} for [c-hat_{l,l-2}, c-hat_{h,h-4}] (h in {5, 6});
    l = 3/2 gives the Hamiltonian case."""
    if h not in (5, 6):
        raise ValueError("obstruction coefficients are defined for h in {5, 6}")
    n = spec.n
    idx4 = ManakovIndex(h, 2)

    def a4(a, b, c, d):
        return manakov_coefficient(idx4, (a, b, c, d), spec)

    def a2(a, b):
        return quadratic_coefficient(spec, l, a, b)

    others = [p for p in range(1, n + 1) if p not in (i, j, k)]
    term = a2(i, j) * (2 * a4(i, i, j, k) - 3 * a4(i, i, k, k) - sum(a4(i, i, k, p) for p in others))
    term = term + sum(a2(k, p) * (a4(i, i, j, k) - a4(i, i, j, p)) for p in others)
    return term


def obstruction_b(l, h, spec: MomentSpec, i, j, k):
    """Complete antisymmetrization b^{[ijk]}_{l,h} (normalized so that the
    commutator equals sum over ordered triples i<j<k of b^{[ijk]} Sym_3)."""
    # the even permutations, each minus its odd partner with a and b swapped
    cyclic = ((i, j, k), (j, k, i), (k, i, j))
    total = sum(
        obstruction_b_raw(l, h, spec, a, b, c) - obstruction_b_raw(l, h, spec, b, a, c) for a, b, c in cyclic
    )
    return total * Fraction(1, 6)


def obstruction_b_closed_h6(l, spec: MomentSpec, i, j, k):
    """Closed form: b^{[ijk]}_{l,6} = 5/6 [l_i^{2(l-1)}(l_j^2 - l_k^2) + cyclic].

    H-hat is minus the l = 3/2 quadratic integral (``quadratic_coefficient``),
    so minus the l = 3/2 value is the coefficient of [H-hat, c-hat_{6,2}]."""
    li, lj, lk = (spec.lambdas[t - 1] for t in (i, j, k))
    e = int(2 * (l - 1))
    body = li**e * (lj**2 - lk**2) + lj**e * (lk**2 - li**2) + lk**e * (li**2 - lj**2)
    return body * Fraction(5, 6)


def sym3_expansion(n, coeff_fn) -> PBWElement:
    """sum over ordered triples i<j<k of coeff_fn(i,j,k) * Sym_3(P-hat_ij,
    P-hat_jk, P-hat_ki): the symmetrization of the classical sum of the
    cycles coeff_fn(i,j,k) * P_ij P_jk P_ki."""
    cycles = ((coeff_fn(*t), t) for t in combinations(range(1, n + 1), 3))
    return symmetrize_momentum_poly(cycle_sum(n, cycles))


def weighted_square_commutators(n, weight_sets, x: PBWElement):
    """[sum_{i<j} w_ij (P-hat_ij)^2, x] for each weight list in
    ``weight_sets`` (weights in pair order), forming each [(P-hat_ij)^2, x]
    once, on integers.  Rational x is scaled to integers, and the weights
    (over that scale) enter only the accumulation.  Over symbolic moments x
    and the weights split into denominator classes with integer numerators
    (``ratfunc.split_by_denominator``), and x further into one slice of
    packed words per moment monomial: each [(P-hat_ij)^2, slice] is formed
    once, its integers times the weights' are summed keyed by word and
    moment monomial per pair of classes, and each coefficient is joined into
    a quotient once per pair (``ratfunc.join_packed``)."""
    vars = moment_vars(chain(x.terms.values(), *weight_sets))
    if vars is None:
        x, d = integer_scaled(x)
        accs = [{} for _ in weight_sets]
        for k in range(len(pair_list(n))):
            comm = square_commutator(k, x).terms
            for acc, weights in zip(accs, weight_sets):
                w = weights[k] if d == 1 else weights[k] * Fraction(1, d)
                if w:
                    add_terms(acc, ((word, c * w) for word, c in comm.items()))
        return [PBWElement(n, acc) for acc in accs]
    _check_degree(x.degree() + 1)
    x_classes = split_by_denominator(x.terms, vars)
    w_classes = [split_by_denominator(dict(enumerate(weights)), vars) for weights in weight_sets]
    # the moment exponents are fields above the letter counts, wide enough
    # for the degree of an x numerator times a weight numerator
    high = len(pair_list(n)) << 3
    width = max(1, moment_degree(x_classes) + max(map(moment_degree, w_classes), default=0)).bit_length()

    def moment_key(m):
        return sum(a << (high + width * i) for i, a in enumerate(m))

    by_moment = {}
    for e, (_, triples) in x_classes.items():
        for w, m, a in triples:
            by_moment.setdefault((e, m), {})[sum(1 << (g << 3) for g in w)] = a
    # equal slices (under two moment monomials or classes) are commuted once
    slices = {}
    for (e, m), terms in by_moment.items():
        slices.setdefault(frozenset(terms.items()), (terms, []))[1].append((e, moment_key(m)))
    accs = [{} for _ in weight_sets]
    for k in range(len(pair_list(n))):
        weights = [[(f, moment_key(m), a) for f, (_, t) in cl.items() for j, m, a in t if j == k] for cl in w_classes]
        if not any(weights):
            continue
        for terms, targets in slices.values():
            comm = _square_packed(n, k, terms)
            for (e, shift), (acc, ws) in product(targets if comm else (), zip(accs, weights)):
                for f, key, a in ws:
                    key += shift
                    add_terms(acc.setdefault((e, f), {}), ((w + key, c * a) for w, c in comm.items()))
    out = []
    for acc, classes in zip(accs, w_classes):
        parts = ((tuple(map(add, e, f)), Fraction(1, x_classes[e][0] * classes[f][0]), a) for (e, f), a in acc.items())
        out.append(PBWElement(n, _unpacked(join_packed(vars, parts, high, width))))
    return out


def hamiltonian_weights(spec: MomentSpec):
    """1/(2(l_i + l_j)) for each pair i < j, in pair order: H-hat as a
    weighted sum of squared generators."""
    one = spec.coeff_one()
    lam = spec.lambdas
    return [one / (2 * (lam[i - 1] + lam[j - 1])) for (i, j) in pair_list(spec.n)]


def hamiltonian_commutator(spec: MomentSpec, x: PBWElement) -> PBWElement:
    """[H-hat, x] with H-hat = 1/2 sum_{i<j} (P-hat_ij)^2/(l_i + l_j): the
    Hamiltonian weighting of the squared-generator commutators of x, so no
    product with H-hat is formed."""
    return weighted_square_commutators(spec.n, [hamiltonian_weights(spec)], x)[0]


def sym35_expansion(spec: MomentSpec) -> PBWElement:
    """The triple-sum Sym_3/Sym_5 side of the degree-4 correction identity:
    -(5/6) sum_{h,l,m} l_l^4 l_m^2 [ ((n-1)/3) Sym_3(P_hl,P_lm,P_mh)
                                     + sum_{i,j} Sym_5(P_ij,P_jh,P_hl,P_lm,P_mi) ],
    the symmetrization of the same sum of classical cycles."""
    n = spec.n
    lam = spec.lambdas
    idx = range(1, n + 1)

    def cycles():
        for l in idx:
            for m in idx:
                w = (lam[l - 1] ** 4) * (lam[m - 1] ** 2) * Fraction(-5, 6)
                w3 = w * Fraction(n - 1, 3)
                for h in idx:
                    yield w3, (h, l, m)
                    for i in idx:
                        for j in idx:
                            yield w, (i, j, h, l, m)

    return symmetrize_momentum_poly(cycle_sum(n, cycles()))


# -- verification suite -----------------------------------------------------------

# Orientation note, pinned by test_obstruction_sign_orientation: with the
# bracket conventions used throughout (canonical {p_i, x_j} = delta_ij and
# the momentum structure constants it induces), every commutator expansion
# below equals MINUS the Sym_3/Sym_5 combination built from the closed-form
# b coefficients.  The opposite-orientation reading is excluded by an
# independent cross-check in the concrete differential-operator algebra
# (test_weyl_representation_cross_check); all vanishing statements are
# orientation-free.
EXPANSION_SIGN = -1


def verify_quantum_rigid(n, spec: MomentSpec) -> VerificationReport:
    """The full commutator battery for the quantum free rigid body.

    Exact zeros of PBW canonical forms throughout.  Sampled-moment specs
    make every coefficient a plain rational; symbolic specs verify
    identities in the moment field.
    """
    report = VerificationReport()
    anchor = "rigid-quantum"
    mode = "symbolic" if spec.is_symbolic else "sampled"
    report.config.update({"n": n, "mode": mode, "lambdas": [str(v) for v in spec.lambdas]})
    quad = {l: manakov_operator(ManakovIndex(l, 1), n, spec) for l in range(2, n + 1)}
    ls = sorted(quad)
    weights = {l: square_weights(quad[l]) for l in ls}
    # the quadratic left operands besides the c-hat_{l,l-2}: H-hat and, at
    # n >= 6, the C-hat_{6,2} correction (5/12) sum l_i^2 l_j^2 (P-hat_ij)^2
    extra = [hamiltonian_weights(spec)] + ([correction_weights(spec)] if n >= 6 else [])

    # quadratic family and the Hamiltonian
    pair_comms, h_comms, corrections = {}, {}, {}
    for i, b in enumerate(ls):
        lower = ls[:i]
        comms = weighted_square_commutators(n, [weights[a] for a in lower] + extra, quad[b])
        pair_comms.update(((a, b), c) for a, c in zip(lower, comms))
        h_comms[b] = comms[len(lower)]
        corrections[b] = comms[len(lower) + 1 :]
    for a, b in combinations(ls, 2):
        report.add_zero(f"[c{a},{a-2} , c{b},{b-2}]", anchor, pair_comms[a, b])
    for l in ls:
        report.add_zero(f"[H , c{l},{l-2}]", anchor, h_comms[l])

    # degree-2 against degree-4: obstruction expansions, each b^{[ijk]}_{l,h}
    # once per triple into a table that also feeds the coefficient checks
    triples = list(combinations(range(1, n + 1), 3))
    for h in (5, 6):
        if h > n:
            continue
        c4 = manakov_operator(ManakovIndex(h, 2), n, spec)
        sets = [weights[l] for l in ls] + (extra if h == 5 else extra[:1])
        found = weighted_square_commutators(n, sets, c4)
        comms, h_comm = dict(zip(ls, found)), found[len(ls)]
        tables = {}
        for l in ls:
            table = tables[l] = {t: obstruction_b(l, h, spec, *t) for t in triples}
            rhs = sym3_expansion(n, lambda *t: table[t])
            ok = (comms[l] - rhs.scale(EXPANSION_SIGN)).is_zero()
            witness = "matches (commutator = minus the closed-form combination)" if ok else "expansion mismatch"
            report.add(f"[c{l},{l-2} , c{h},{h-4}] == Sym3 expansion", anchor, ok, witness=witness)
        if h == 5:
            ok = not any(b for l in ls for b in tables[l].values())
            witness = "antisymmetrized coefficients vanish" if ok else "nonzero obstruction"
            report.add("b[ijk]_{l,5} == 0", anchor, ok, witness=witness)
            for l in ls:
                report.add_zero(f"[c{l},{l-2} , c5,1]", anchor, comms[l])
            report.add_zero("[H , c5,1]", anchor, h_comm)
            # the correction identity of the degree-4 by degree-4 block is the
            # correction weighting of the same squared-generator commutators
            c51, c51_correction = c4, found[len(ls) + 1 :]
        if h == 6:
            ok = all(b == obstruction_b_closed_h6(l, spec, *t) for l in ls for t, b in tables[l].items())
            witness = "raw antisymmetrization equals closed form" if ok else "mismatch"
            report.add("b[ijk]_{l,6} closed form", anchor, ok, witness=witness)
            nonzero = not h_comm.is_zero()
            witness = f"{len(h_comm.terms)} canonical terms" if nonzero else "unexpected zero"
            report.add("[H , c6,2] != 0", anchor, nonzero, witness=witness)
            # H-hat is minus the l = 3/2 quadratic integral
            rhs = sym3_expansion(n, lambda *t: -obstruction_b_closed_h6(Fraction(3, 2), spec, *t))
            ok = (h_comm - rhs.scale(EXPANSION_SIGN)).is_zero()
            spot = -obstruction_b_closed_h6(Fraction(3, 2), spec, 1, 2, 3)
            witness = f"b^123 = {spot}" if ok else "expansion mismatch"
            report.add("[H , c6,2] == Sym3 expansion", anchor, ok, witness=witness)
            # C-hat_{6,2} = c-hat_{6,2} + the weighted squared generators, so
            # each commutator with it is the one with c-hat_{6,2}, formed
            # above, plus a degree-2 by degree-2 correction
            correction_op = c62_correction(spec)
            report.add_zero("[H , C6,2]", anchor, h_comm + hamiltonian_commutator(spec, correction_op))
            for l in ls:
                report.add_zero(f"[c{l},{l-2} , C6,2]", anchor, comms[l] - corrections[l][0])
            report.add_zero("[c5,1 , C6,2]", anchor, uea_commutator(c51, c4 + correction_op))
            lhs = -c51_correction[0]
            rhs = sym35_expansion(spec)
            ok = (lhs - rhs.scale(EXPANSION_SIGN)).is_zero()
            witness = "matches (same orientation as the Sym3 expansions)" if ok else "expansion mismatch"
            report.add("correction commutator == Sym3/Sym5 expansion", anchor, ok, witness=witness)
    return report


def _first_noncommuting(op: PBWElement, pairs):
    """(pair, commutator) for the first P-hat_pair that does not commute with
    ``op``, or None; [op, P-hat_pair] is minus ad of the signed generator,
    applied to ``op`` scaled to integer coefficients."""
    x, d = integer_scaled(op)
    for p in pairs:
        k, sign = signed_pair(op.n, *p)
        c = ad(k, x)
        if not c.is_zero():
            return p, c.scale(Fraction(-sign, d))
    return None


def verify_quantum_central_set(spec: MomentSpec, rng, rank_points=2, chart_bound=30) -> VerificationReport:
    """Quantized central sets: symmetrized Casimirs (full and per equal-moment
    block) commute with the equal-moment momenta exactly; independence is
    certified through the principal symbols at sampled chart points."""
    n = spec.n
    report = VerificationReport()
    anchor = "rigid-quantum/central-set"
    funcs, labels = z_lambda(spec)
    ops = [symmetrize_momentum_poly(f) for f in funcs]
    lam_pairs = spec.equal_moment_pairs()
    for op, lb in zip(ops, labels):
        bad = _first_noncommuting(op, lam_pairs)
        report.add(
            f"[{lb}-hat , P-hat(equal-moment pairs)]",
            anchor,
            bad is None,
            witness="0" if bad is None else f"nonzero at {bad[0]}: {bad[1]}",
        )
    report.add(
        "[Z-hat , right momenta]",
        anchor,
        True,
        witness="structural: left and right momentum algebras commute",
    )
    for op, f, lb in zip(ops, funcs, labels):
        ok = op.principal_symbol() == f
        report.add(
            f"symbol({lb}-hat) == {lb}",
            anchor,
            ok,
            witness="principal symbol equals the classical function" if ok else "symbol mismatch",
        )
    if rng is not None:
        for s in range(rank_points):
            ok, witness = generic_full_rank(funcs, lambda r: GroupChart.random(n, r, bound=chart_bound), rng)
            report.add(f"symbol-rank Z-hat / sample{s}", anchor, ok, witness=witness, generic=True)
    return report


def verify_quantum_flat_cases(n, rng, chart_bound=30) -> VerificationReport:
    """The two all-n families: one equal-moment class, and one singleton plus
    an (n-1)-class.  The operator set is the classical set with momenta
    replaced by generators; its central part must commute with everything."""
    report = VerificationReport()
    anchor = "rigid-quantum/flat-cases"
    cases = [((n,), (Fraction(2),)), ((1, n - 1), (Fraction(1), Fraction(2)))]
    for q, mus in cases:
        spec = MomentSpec.from_partition_values(q, mus)
        _, k, r, kbar = centrality_defect(spec)
        if r != 0:
            report.add(f"q={q} defect", anchor, False, witness=f"expected zero defect, got {r}")
            continue
        funcs, labels = z_lambda(spec)
        ops = [symmetrize_momentum_poly(f) for f in funcs]
        lam_pairs = spec.equal_moment_pairs()
        target = 2 * (n * (n - 1) // 2) - kbar
        witness = "0"
        for op, lb in zip(ops, labels):
            bad = _first_noncommuting(op, lam_pairs)
            if bad is not None:
                witness = f"[{lb}-hat, P{bad[0]}] != 0"
                break
        report.add(f"q={q}: [Z-hat , F-hat] == 0", anchor, witness == "0", witness=witness)
        if rng is not None:
            # r = 0, so the completion is the assembled set with no
            # defect-filling integral, redrawn while the point is degenerate
            def assemble(g):
                return assemble_integrable_set(spec, GroupChart.random(n, g, bound=chart_bound))

            try:
                size = retry_generic(assemble, rng).size
                ok, witness = size == target, f"rank {target} with {size} of {target} functions"
            except DegenerateSampleError as exc:
                ok, witness = False, str(exc)
            report.add(f"q={q}: quasi-independent completion", anchor, ok, witness=witness, generic=True)
    return report
