"""PBW-ordered enveloping algebra of so(n) over the moment field.

Elements are sums of non-decreasing generator words (generators are the
momentum components in lexicographic pair order) with coefficients that are
rationals or rational functions of the moments.  Normal ordering rewrites
e_b e_a -> e_a e_b + [e_b, e_a] using the momentum structure constants; the
rewriting is confluent, so the stored form is canonical and zero tests are
structural.

Products are computed by folding single-generator left-multiplications over
a suffix trie of the left factor, with the generator-into-sorted-word
insertion memoized; this keeps the degree-4 by degree-4 commutators at
n = 6 tractable.

Every quantum rigid-body operator is the symmetrization beta(f) of its
classical function (``symmetrize_momentum_poly``); the only modification is
the (5/12) squared-generator correction of the n = 6 degree-4 operator.
Symmetrization is an so(n)-module isomorphism, so beta({P_u, f}) =
[P-hat_u, beta(f)].  Every commutator goes through ``uea_commutator``.
The Sym_3 and Sym_5 expansions are symmetrizations too: Sym_k of a cycle
depends only on its letter multiset, so each expansion is one classical
cycle sum whose coinciding monomials collapse before any PBW work.

The commutator battery builds each operator once (C-hat_{6,2} is the
h = 6 degree-4 operator plus its correction), forms each commutator once
(the h = 5 commutators serve both the expansion and the zero checks, and
one pass over the squared generators serves both [H-hat, c-hat_{5,1}] and
the correction identity), and tabulates each antisymmetrized obstruction
coefficient once per triple from memoized Manakov coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .brackets import LiePoissonPoly, momentum_vars
from .charts import GroupChart, generic_full_rank
from .ratfunc import MultiPoly, TermMap, add_terms, integer_scaled
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
from .son import DegenerateSampleError, MomentSpec, gen_bracket, pair_list, retry_generic, signed_pair

_INSERT_CACHE = {}
_SYM_CACHE = {}
_MEMO_WORD_LIMIT = 6


def clear_caches():
    _INSERT_CACHE.clear()
    _SYM_CACHE.clear()


def _insert(n, g, w):
    """Normal ordering of e_g * (sorted word w) as {word: integer coefficient}."""
    key = (n, g, w)
    cached = _INSERT_CACHE.get(key)
    if cached is not None:
        return cached
    if not w or g <= w[0]:
        result = {(g,) + w: 1}
    else:
        # e_g w = e_{w0} (e_g w') + [e_g, e_{w0}] w'; the first product must
        # re-normalize because bracket corrections inside e_g w' may start
        # with a generator below w0 (the recursion terminates: either the
        # degree dropped or the subword is the plain sorted merge)
        a = w[0]
        rest = w[1:]
        result = _gen_mul_terms(n, a, _insert(n, g, rest))
        br = gen_bracket(n, g, a)
        if br is not None:
            h, s = br
            add_terms(result, ((word, s * c) for word, c in _insert(n, h, rest).items()))
    if len(w) <= _MEMO_WORD_LIMIT:
        _INSERT_CACHE[key] = result
    return result


def _gen_mul_terms(n, g, terms):
    """e_g * element, elementwise on a {word: coef} map."""
    out = {}
    for w, c in terms.items():
        add_terms(out, ((word, c if k == 1 else c * k) for word, k in _insert(n, g, w).items()))
    return out


class PBWElement(TermMap):
    """Canonical-form element: {sorted generator word: nonzero coefficient}."""

    __slots__ = ()

    @classmethod
    def const(cls, n, c):
        return cls(n, {(): c})

    @classmethod
    def generator(cls, n, pair):
        sp = signed_pair(n, *pair)
        if sp is None:
            return cls.zero(n)
        k, sign = sp
        return cls(n, {(k,): Fraction(sign)})

    def degree(self):
        return max((len(w) for w in self.terms), default=-1)

    def _coerce(self, other):
        if isinstance(other, PBWElement):
            if other.n != self.n:
                raise ValueError("mixed dimensions")
            return other
        if isinstance(other, (int, Fraction)):
            return PBWElement.const(self.n, Fraction(other))
        return None

    def scale(self, c):
        if not c:
            return PBWElement.zero(self.n)
        return self._new({w: v * c for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return pbw_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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

    def map_coeffs(self, fn):
        return self._new({w: v for w, c in self.terms.items() if (v := fn(c))})

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


def pbw_mul(a: PBWElement, b: PBWElement) -> PBWElement:
    """Product in canonical form via a suffix trie over the left factor."""
    if a.n != b.n:
        raise ValueError("mixed dimensions")
    n = a.n
    root = {}
    for w, c in a.terms.items():
        node = root
        for g in reversed(w):
            node = node.setdefault(g, {})
        node.setdefault(None, []).append(c)
    result = {}

    def dfs(node, terms):
        for key, sub in node.items():
            if key is None:
                for c in sub:
                    add_terms(result, ((w, c * v) for w, v in terms.items()))
            else:
                dfs(sub, _gen_mul_terms(n, key, terms))

    dfs(root, b.terms)
    return a._new(result)


def uea_commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    """[a, b] = ab - ba.

    Operands with rational coefficients are multiplied by their least common
    denominators first, so the products run on integers; the commutator is
    bilinear, so one division by both multipliers at the end restores it.
    """
    a, da = integer_scaled(a)
    b, db = integer_scaled(b)
    c = pbw_mul(a, b) - pbw_mul(b, a)
    return c if da * db == 1 else c.scale(Fraction(1, da * db))


# -- symmetrization ------------------------------------------------------------


def sym_word(n, letters):
    """Average over all orderings of the generator multiset, canonical form.

    Returned map has Fraction coefficients; it only depends on the multiset,
    so the cache key is the sorted letter tuple.
    """
    letters = tuple(sorted(letters))
    key = (n, letters)
    cached = _SYM_CACHE.get(key)
    if cached is not None:
        return cached
    if not letters:
        result = {(): Fraction(1)}
    else:
        k = len(letters)
        acc = {}
        seen = set()
        for idx, g in enumerate(letters):
            if g in seen:
                continue
            seen.add(g)
            mult = letters.count(g)
            rest = letters[:idx] + letters[idx + 1 :]
            sub = sym_word(n, rest)
            w_mult = Fraction(mult, k)
            add_terms(acc, ((w, c * w_mult) for w, c in _gen_mul_terms(n, g, sub).items()))
        result = acc
    _SYM_CACHE[key] = result
    return result


def symmetrize_momentum_poly(f: LiePoissonPoly) -> PBWElement:
    """Weyl symmetrization with respect to the momentum generators."""
    n = f.n
    acc = {}
    for mono, coef in f.poly.terms.items():
        letters = []
        for g, e in enumerate(mono):
            letters.extend([g] * e)
        add_terms(acc, ((w, coef * c) for w, c in sym_word(n, tuple(letters)).items()))
    return PBWElement(n, acc)


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


def corrected_c62(spec: MomentSpec, base: PBWElement) -> PBWElement:
    """C-hat_{6,2} from base = c-hat_{6,2}."""
    return base + c62_correction(spec)


def modified_c62(n, spec: MomentSpec) -> PBWElement:
    """The corrected degree-4 operator:
    C-hat_{6,2} = c-hat_{6,2} + (5/12) sum_{i<j} l_i^2 l_j^2 (P-hat_ij)^2.

    Defined for n >= 4 (the correction needs k = 6 <= n only for the base
    operator; the quantum claims fixed here are stated at n = 6).
    """
    return corrected_c62(spec, manakov_operator(ManakovIndex(6, 2), n, spec))


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
    perms = [
        ((i, j, k), 1),
        ((j, k, i), 1),
        ((k, i, j), 1),
        ((j, i, k), -1),
        ((i, k, j), -1),
        ((k, j, i), -1),
    ]
    total = None
    for (a, b, c), s in perms:
        val = obstruction_b_raw(l, h, spec, a, b, c) * s
        total = val if total is None else total + val
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
    once.  The weights enter only the accumulation, so with symbolic moments
    the commutators stay in the polynomial coefficient subring (no gcd
    work)."""
    accs = [{} for _ in weight_sets]
    for k in range(len(pair_list(n))):
        comm = uea_commutator(PBWElement(n, {(k, k): Fraction(1)}), x)
        for acc, weights in zip(accs, weight_sets):
            add_terms(acc, comm.scale(weights[k]).terms.items())
    return [PBWElement(n, acc) for acc in accs]


def hamiltonian_weights(spec: MomentSpec):
    """1/(2(l_i + l_j)) for each pair i < j, in pair order: H-hat as a
    weighted sum of squared generators."""
    one = spec.coeff_one()
    lam = spec.lambdas
    return [one / (2 * (lam[i - 1] + lam[j - 1])) for (i, j) in pair_list(spec.n)]


def hamiltonian_commutator(spec: MomentSpec, x: PBWElement) -> PBWElement:
    """[H-hat, x] with H-hat = 1/2 sum_{i<j} (P-hat_ij)^2/(l_i + l_j).

    Equivalent to uea_commutator(H-hat, x) but much faster for symbolic
    moments.
    """
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

    # quadratic family and the Hamiltonian
    ls = sorted(quad)
    for ai in range(len(ls)):
        for bi in range(ai + 1, len(ls)):
            a, b = ls[ai], ls[bi]
            report.add_zero(f"[c{a},{a-2} , c{b},{b-2}]", anchor, uea_commutator(quad[a], quad[b]))
    # each [(P-hat_ij)^2, x] serves two weightings: H-hat and, at n >= 6, the
    # C-hat_{6,2} correction (5/12) sum l_i^2 l_j^2 (P-hat_ij)^2
    weight_sets = [hamiltonian_weights(spec)]
    if n >= 6:
        weight_sets.append(correction_weights(spec))
    corrections = {}
    for l in ls:
        h_comm, *correction = weighted_square_commutators(n, weight_sets, quad[l])
        corrections[l] = correction
        report.add_zero(f"[H , c{l},{l-2}]", anchor, h_comm)

    # degree-2 against degree-4: obstruction expansions, each b^{[ijk]}_{l,h}
    # once per triple into a table that also feeds the coefficient checks
    triples = list(combinations(range(1, n + 1), 3))
    for h in (5, 6):
        if h > n:
            continue
        c4 = manakov_operator(ManakovIndex(h, 2), n, spec)
        tables = {}
        comms = {}
        for l in ls:
            table = tables[l] = {t: obstruction_b(l, h, spec, *t) for t in triples}
            comm = comms[l] = uea_commutator(quad[l], c4)
            rhs = sym3_expansion(n, lambda *t: table[t])
            ok = (comm - rhs.scale(EXPANSION_SIGN)).is_zero()
            report.add(
                f"[c{l},{l-2} , c{h},{h-4}] == Sym3 expansion",
                anchor,
                ok,
                witness="matches (commutator = minus the closed-form combination)"
                if ok
                else "expansion mismatch",
            )
        if h == 5:
            ok = not any(b for l in ls for b in tables[l].values())
            report.add(
                "b[ijk]_{l,5} == 0",
                anchor,
                ok,
                witness="antisymmetrized coefficients vanish" if ok else "nonzero obstruction",
            )
            for l in ls:
                report.add_zero(f"[c{l},{l-2} , c5,1]", anchor, comms[l])
            # the correction identity of the degree-4 by degree-4 block is the
            # correction weighting of the same squared-generator commutators
            c51 = c4
            h_comm, *correction = weighted_square_commutators(n, weight_sets, c51)
            report.add_zero("[H , c5,1]", anchor, h_comm)
        if h == 6:
            ok = all(
                b == obstruction_b_closed_h6(l, spec, *t) for l in ls for t, b in tables[l].items()
            )
            report.add(
                "b[ijk]_{l,6} closed form",
                anchor,
                ok,
                witness="raw antisymmetrization equals closed form" if ok else "mismatch",
            )
            comm = hamiltonian_commutator(spec, c4)
            nonzero = not comm.is_zero()
            report.add(
                "[H , c6,2] != 0",
                anchor,
                nonzero,
                witness=f"{len(comm.terms)} canonical terms" if nonzero else "unexpected zero",
            )
            # H-hat is minus the l = 3/2 quadratic integral
            rhs = sym3_expansion(n, lambda *t: -obstruction_b_closed_h6(Fraction(3, 2), spec, *t))
            ok = (comm - rhs.scale(EXPANSION_SIGN)).is_zero()
            spot = -obstruction_b_closed_h6(Fraction(3, 2), spec, 1, 2, 3)
            report.add(
                "[H , c6,2] == Sym3 expansion",
                anchor,
                ok,
                witness=f"b^123 = {spot}" if ok else "expansion mismatch",
            )
            # C-hat_{6,2} = c-hat_{6,2} + the weighted squared generators, so
            # each commutator with it is the one with c-hat_{6,2}, formed
            # above, plus a degree-2 by degree-2 correction
            report.add_zero("[H , C6,2]", anchor, comm + hamiltonian_commutator(spec, c62_correction(spec)))
            for l in ls:
                report.add_zero(f"[c{l},{l-2} , C6,2]", anchor, comms[l] - corrections[l][0])
            report.add_zero("[c5,1 , C6,2]", anchor, uea_commutator(c51, corrected_c62(spec, c4)))
            lhs = -correction[0]
            rhs = sym35_expansion(spec)
            ok = (lhs - rhs.scale(EXPANSION_SIGN)).is_zero()
            report.add(
                "correction commutator == Sym3/Sym5 expansion",
                anchor,
                ok,
                witness="matches (same orientation as the Sym3 expansions)" if ok else "expansion mismatch",
            )
    return report


def _first_noncommuting(op: PBWElement, pairs):
    """(pair, commutator) for the first P-hat_pair that does not commute with
    ``op``, or None."""
    for p in pairs:
        c = uea_commutator(op, PBWElement.generator(op.n, p))
        if not c.is_zero():
            return p, c
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
