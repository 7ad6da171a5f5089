import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from manakov.brackets import LiePoissonPoly, lie_poisson_bracket, momentum_vars
from manakov.ratfunc import MultiPoly, RationalFunction, add_terms
from manakov.charts import GroupChart
from manakov.linalg import ExactMatrix, exact_rank, solve
from manakov.rigid_body import ManakovIndex, centrality_defect, manakov_indices, manakov_integral, verify_z_lambda
from manakov.son import MomentSpec, SkewMatrix, dim_so, pair_index, pair_list, signed_pair
from manakov.uea import (
    _AD_CACHE,
    _INSERT_CACHE,
    _SYM_CACHE,
    _WORD_CACHE,
    _check_degree,
    _sym,
    _unpacked,
    EXPANSION_SIGN,
    PBWElement,
    ad,
    c62_correction,
    correction_weights,
    hamiltonian_commutator,
    hamiltonian_weights,
    manakov_operator,
    obstruction_b,
    obstruction_b_closed_h6,
    obstruction_b_raw,
    pbw_mul,
    quadratic_coefficient,
    square_weights,
    sym3_expansion,
    sym35_expansion,
    symmetrize_momentum_poly,
    uea_commutator,
    verify_quantum_central_set,
    verify_quantum_flat_cases,
    verify_quantum_rigid,
    weighted_square_commutators,
)
from oracles import (
    correction_commutator_expansion,
    flat_case_completion_witnesses,
    gen_bracket,
    hamiltonian_obstruction_b,
    hamiltonian_operator,
    manakov_operator_by_walks,
    momentum_operator,
    pbw_normalize,
    sym3_cycle,
    sym3_expansion_by_cycles,
    sym35_expansion_by_cycles,
    square_commutator,
    sym_k,
    tuple_ad,
    tuple_pbw_mul,
    tuple_square_commutator,
    tuple_sym_word,
    weighted_square_commutators_per_term,
)
from oracles import sym_word as scaled_sym_word_by_products


def clear_caches():
    """Empty the PBW kernels' memos, so that a test counts or times real work."""
    for memo in (_INSERT_CACHE, _AD_CACHE, _SYM_CACHE, _WORD_CACHE):
        memo.clear()


def sym_word(n, letters):
    """k! times the symmetrization of the generator multiset ``letters``,
    in canonical tuple words: the packed kernel ``_sym`` read back."""
    _check_degree(len(letters))
    return _unpacked(_sym(n, sum(1 << (g << 3) for g in letters)))


def gen(n, pair):
    """P-hat_pair: the signed generator of the pair, zero when i = j."""
    sp = signed_pair(n, *pair)
    return PBWElement.zero(n) if sp is None else PBWElement(n, {(sp[0],): Fraction(sp[1])})


def modified_c62(n, spec):
    """C-hat_{6,2} = c-hat_{6,2} + (5/12) sum_{i<j} l_i^2 l_j^2 (P-hat_ij)^2."""
    return manakov_operator(ManakovIndex(6, 2), n, spec) + c62_correction(spec)


def test_pbw_normalize_examples():
    n = 3
    pidx = pair_index(n)
    e12, e13, e23 = pidx[(1, 2)], pidx[(1, 3)], pidx[(2, 3)]
    # P13 P12 -> P12 P13 + P23
    got = pbw_normalize(n, [((e13, e12), Fraction(1))])
    expected = pbw_mul(gen(n, (1, 2)), gen(n, (1, 3))) + gen(n, (2, 3))
    assert got == expected
    # already sorted words are unchanged
    sorted_word = pbw_normalize(n, [((e12, e13), Fraction(1))])
    assert sorted_word.terms == {(e12, e13): Fraction(1)}
    # disjoint generators commute with no correction
    n4 = 4
    p4 = pair_index(n4)
    a, b = p4[(1, 2)], p4[(3, 4)]
    assert pbw_normalize(n4, [((b, a), Fraction(1))]).terms == {(a, b): Fraction(1)}


def test_all_words_sorted_invariant():
    rng = random.Random(3)
    n = 4
    for _ in range(50):
        word = tuple(rng.randrange(6) for _ in range(rng.randint(1, 4)))
        elem = pbw_normalize(n, [(word, Fraction(1))])
        for w in elem.terms:
            assert tuple(sorted(w)) == w


def test_pbw_confluence_randomized():
    # the canonical form must not depend on rewrite order: compare the
    # engine against an order-agnostic worklist rewriter
    rng = random.Random(7)
    n = 4
    plist = pair_list(n)

    def bubble_normalize(word, coef):
        out = {}
        work = [(tuple(word), coef)]
        while work:
            w, c = work.pop(rng.randrange(len(work)))
            desc = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
            if desc is None:
                cur = out.get(w, 0) + c
                if cur:
                    out[w] = cur
                else:
                    out.pop(w, None)
                continue
            swapped = w[:desc] + (w[desc + 1], w[desc]) + w[desc + 2 :]
            work.append((swapped, c))
            br = gen_bracket(n, w[desc], w[desc + 1])
            if br is not None:
                h, s = br
                work.append((w[:desc] + (h,) + w[desc + 2 :], c * s))
        return out

    for _ in range(100):
        word = tuple(rng.randrange(len(plist)) for _ in range(rng.randint(1, 4)))
        coef = Fraction(rng.randint(1, 5))
        via_engine = pbw_normalize(n, [(word, coef)])
        via_bubble = bubble_normalize(word, coef)
        assert via_engine.terms == via_bubble


def test_uea_commutator_basics():
    n = 4
    assert uea_commutator(gen(n, (1, 2)), gen(n, (1, 3))) == -gen(n, (2, 3))
    c1 = sum((pbw_mul(gen(n, p), gen(n, p)) for p in pair_list(n)), PBWElement.zero(n))
    for p in pair_list(n):
        assert uea_commutator(c1, gen(n, p)).is_zero()
    a = pbw_mul(gen(n, (1, 2)), gen(n, (2, 3)))
    assert uea_commutator(a, a).is_zero()


def test_uea_jacobi_randomized():
    rng = random.Random(11)
    n = 4
    plist = pair_list(n)

    def rand_elem():
        acc = PBWElement.zero(n)
        for _ in range(rng.randint(1, 2)):
            word = tuple(sorted(rng.randrange(len(plist)) for _ in range(rng.randint(1, 2))))
            acc = acc + PBWElement(n, {word: Fraction(rng.randint(-3, 3))})
        return acc

    for _ in range(40):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        jac = (
            uea_commutator(uea_commutator(a, b), c)
            + uea_commutator(uea_commutator(b, c), a)
            + uea_commutator(uea_commutator(c, a), b)
        )
        assert jac.is_zero()


def test_uea_commutator_matches_products():
    # the one Horner fold of [a, b] = sum_w w (a_w b - b_w a) against the
    # difference of two products by the tuple kernel, term for term, and
    # pbw_mul against the tuple product: n = 3..6, int and Fraction
    # coefficients (rational functions of the moments at n = 4), supports
    # that overlap, coincide or are disjoint, the empty word in both, and
    # zero operands
    rng = random.Random(23)
    for case in range(100):
        n = 3 + case % 4
        kind = ("int", "fraction", "ratfunc")[case % 3] if n == 4 else ("int", "fraction")[case % 2]
        a, b = _random_operand(rng, n, kind), _random_operand(rng, n, kind)
        shape = (case // 4) % 5
        if shape == 1:
            b = PBWElement(n, {w: c for w, c in b.terms.items() if w not in a.terms})
        elif shape == 2:
            b = PBWElement(n, {w: c * c + 1 for w, c in a.terms.items()})
        elif shape == 3:
            a = PBWElement(n, {**a.terms, (): 3})
            b = PBWElement(n, {**b.terms, (): Fraction(-2, 3)})
        elif shape == 4:
            a = PBWElement.zero(n)
        for x, y in ((a, b), (b, a)):
            assert pbw_mul(x, y).terms == tuple_pbw_mul(x, y).terms, (n, kind, x, y)
            expected = tuple_pbw_mul(x, y) - tuple_pbw_mul(y, x)
            assert uea_commutator(x, y).terms == expected.terms, (n, kind, x, y)
        zero = PBWElement.zero(n)
        assert uea_commutator(a, zero).is_zero() and uea_commutator(zero, b).is_zero()
        assert uea_commutator(a, a).is_zero()


def _random_operand(rng, n, kind, spec=None):
    """A PBW element over words of degree at most 4 with ``kind``
    coefficients (int, non-integer Fraction, rational functions of the
    moments of ``spec``, symbolic by default, or a mix of Fraction and
    rational functions); one draw in eight is zero and one in eight a
    constant."""
    lam = (spec or MomentSpec.symbolic(n)).lambdas

    def coef():
        if kind == "int":
            return rng.choice((-3, -2, -1, 1, 2, 5))
        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
            return Fraction(rng.choice((-7, -1, 1, 5, 11)), rng.choice((2, 3, 6, 9)))
        i, j, k = rng.sample(range(n), 3)
        return lam[i] * rng.randint(1, 3) / (lam[j] + lam[k]) + rng.randint(-2, 2)

    shape = rng.randrange(8)
    if shape == 0:
        return PBWElement.zero(n)
    if shape == 1:
        return PBWElement.const(n, coef())
    words = len(pair_list(n))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[tuple(sorted(rng.randrange(words) for _ in range(rng.randint(0, 4))))] = coef()
    return PBWElement(n, terms)


def test_derivation_kernels_match_products():
    # ad_u and the squared-generator kernel never form the top-degree terms
    # that cancel in the difference of the two products; they must equal it
    rng = random.Random(97)
    for case in range(100):
        n = 3 + case % 4
        kind = ("int", "fraction", "ratfunc")[case % 3]
        x = _random_operand(rng, n, kind)
        u = rng.randrange(len(pair_list(n)))
        e = PBWElement(n, {(u,): 1})
        sq = PBWElement(n, {(u, u): 1})
        assert ad(u, x) == pbw_mul(e, x) - pbw_mul(x, e), (n, kind, x)
        assert square_commutator(u, x) == pbw_mul(sq, x) - pbw_mul(x, sq), (n, kind, x)
        if case % 5 == 0:
            # the weighting runs on x scaled to integers and divides once
            weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in pair_list(n)]
            quad = PBWElement(n, {(k, k): w for k, w in enumerate(weights)})
            got = weighted_square_commutators(n, [weights], x)[0]
            assert got == pbw_mul(quad, x) - pbw_mul(x, quad), (n, kind, x)
    # the memos hold one dict per (n, generator), keyed by packed words:
    # every commuted word, however long, and only the insertions that
    # reorder (a word with a letter below the generator); a sorted insertion
    # is added inline
    clear_caches()
    long_word = PBWElement(4, {(1,) * 5: 1})
    assert ad(0, long_word) == pbw_mul(gen(4, (1, 2)), long_word) - pbw_mul(long_word, gen(4, (1, 2)))
    assert 5 << 8 in _AD_CACHE[4, 0]
    sorted_product = pbw_mul(PBWElement(4, {(0,): 1}), PBWElement(4, {(1, 2): 1}))
    assert sorted_product.terms == {(0, 1, 2): 1} and not _INSERT_CACHE.get((4, 0))
    assert _INSERT_CACHE and all(type(w) is int for table in _INSERT_CACHE.values() for w in table)
    for (n, g), table in _INSERT_CACHE.items():
        assert all(w & ((1 << 8 * g) - 1) for w in table), (n, g)


def _coefficient_triples(x, vars):
    """{word: (c, p, e)} of x's coefficients read over ``vars``."""
    out = {}
    for w, c in x.terms.items():
        c = c if isinstance(c, RationalFunction) else RationalFunction.const(vars, c)
        out[w] = (c.c, c.p.terms, c.e)
    return out


def test_symbolic_weightings_match_the_per_term_loop(monkeypatch):
    # the denominator-class split of x and of the weights against one
    # rational-function product and sum per term, triple for triple:
    # n = 3..6, moments over lambda and over the class symbols mu of a
    # partition, x and weights with many classes (H-hat, c * H-hat), mixed
    # Fraction and rational-function coefficients, zero and constant
    # operands, and rational operands against symbolic weights; no call
    # does more rational-function sums and products than the loop it
    # replaces
    arithmetic = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        real = getattr(RationalFunction, name)
        monkeypatch.setattr(RationalFunction, name, lambda a, b, real=real: arithmetic.append(1) or real(a, b))
    rng = random.Random(59)
    partitions = {3: (1, 2), 4: (2, 2), 5: (2, 3), 6: (1, 2, 3)}
    nonzero = 0
    for case in range(100):
        n = 3 + case % 4
        spec = MomentSpec.from_partition(partitions[n]) if case % 3 == 2 else MomentSpec.symbolic(n)
        vars, lam = spec.coeff_one().vars, spec.lambdas
        # H-hat and c * H-hat on a few pairs, one denominator class each,
        # so that the per-term loop stays quick at n = 6
        h = hamiltonian_weights(spec)
        c = lam[0] ** 2 / (lam[0] + lam[-1]) + Fraction(1, 3)
        few = [set(rng.sample(range(len(h)), 3)) for _ in range(3)]
        shape = case // 4 % 4
        if shape < 2:
            x = PBWElement(n, {(k, k): h[k] * (c if shape else 1) for k in few[0]})
        else:
            x = _random_operand(rng, n, ("fraction", "ratfunc", "mixed")[case % 3], spec)
        mixed = [rng.choice((0, Fraction(rng.randint(-5, 5), 3), lam[rng.randrange(n)] * 2)) for _ in h]
        weight_sets = [
            [w if k in few[1] else 0 for k, w in enumerate(h)],
            [w * c if k in few[2] else 0 for k, w in enumerate(h)],
            mixed,
            correction_weights(spec),
            [Fraction(k, 2) for k in range(len(h))],
        ]
        arithmetic.clear()
        got = weighted_square_commutators(n, weight_sets, x)
        ours = len(arithmetic)
        expected = weighted_square_commutators_per_term(n, weight_sets, x)
        assert ours <= len(arithmetic) - ours
        for a, b in zip(got, expected, strict=True):
            assert _coefficient_triples(a, vars) == _coefficient_triples(b, vars), (case, x)
            nonzero += not a.is_zero()
    assert nonzero > 200


def test_symbolic_weightings_high_moment_exponents():
    # moment degrees whose sum passes 255: the moment fields above the
    # letter counts widen with them
    n = 4
    lam = MomentSpec.symbolic(n).lambdas
    x = PBWElement(n, {(0, 1): lam[0] ** 200 * 3 / (lam[0] + lam[1]) + lam[1], (2,): Fraction(1, 3)})
    weights = [lam[0] ** 100 * lam[1] ** 7 - 2, 0, lam[2] ** 60 / lam[3], 1, lam[0], Fraction(1, 2)]
    got = weighted_square_commutators(n, [weights], x)[0]
    assert max(max(m) for c in got.terms.values() for m in c.p.terms) >= 300
    vars = lam[0].vars
    assert _coefficient_triples(got, vars) == _coefficient_triples(weighted_square_commutators_per_term(n, [weights], x)[0], vars)


def test_rational_weightings_match_the_per_term_loop():
    # the weighting on integer-scaled x and weight sets against one Fraction
    # product and sum per term, term for term: n = 3..6, weight sets with
    # different denominators, int weights, zero weights (in some sets only)
    # and one all-zero set, x with int or Fraction coefficients and x = 0
    rng = random.Random(67)
    nonzero = 0
    for case in range(100):
        n = 3 + case % 4
        dim = dim_so(n)
        x = PBWElement.zero(n) if case % 10 == 0 else _random_operand(rng, n, ("int", "fraction")[case % 2])

        def rational_weights():
            den = rng.randint(1, 12)
            return [Fraction(rng.randint(-9, 9), den) if rng.random() < 0.8 else 0 for _ in range(dim)]

        weight_sets = [rational_weights(), rational_weights(), [rng.randint(-3, 3) for _ in range(dim)], [0] * dim]
        rng.shuffle(weight_sets)
        got = weighted_square_commutators(n, weight_sets, x)
        expected = weighted_square_commutators_per_term(n, weight_sets, x)
        for a, b in zip(got, expected, strict=True):
            assert a.terms == b.terms, (case, x, weight_sets)
            nonzero += not a.is_zero()
    assert nonzero > 150


def test_rational_weightings_divide_once_per_coefficient(monkeypatch):
    # at sampled moments the battery's weightings of [(P-hat_ij)^2, c-hat_{6,2}]
    # run on integers: no more Fraction products and sums than output
    # coefficients
    n = 6
    spec = MomentSpec.from_lambdas([Fraction(k, 2) for k in (1, 3, 4, 7, 9, 11)])
    x = manakov_operator(ManakovIndex(6, 2), n, spec)
    weight_sets = [square_weights(manakov_operator(ManakovIndex(l, 1), n, spec)) for l in range(2, n + 1)]
    weight_sets += [hamiltonian_weights(spec), correction_weights(spec)]
    arithmetic = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, real=real: arithmetic.append(1) or real(a, b))
    got = weighted_square_commutators(n, weight_sets, x)
    monkeypatch.undo()
    coefficients = sum(len(c.terms) for c in got)
    assert coefficients > 0 and len(arithmetic) <= coefficients


def test_packed_kernels_match_the_tuple_kernels():
    # the kernels on packed words against the tuple-word kernels they
    # replaced, term for term: n = 3..7, int, Fraction and rational-function
    # coefficients, zero and constant operands included
    rng = random.Random(211)
    for case in range(100):
        n = 3 + case % 5
        kind = ("int", "fraction", "ratfunc")[case % 3]
        a, b = _random_operand(rng, n, kind), _random_operand(rng, n, kind)
        u = rng.randrange(dim_so(n))
        assert pbw_mul(a, b).terms == tuple_pbw_mul(a, b).terms, (n, kind, a, b)
        assert uea_commutator(a, b).terms == (tuple_pbw_mul(a, b) - tuple_pbw_mul(b, a)).terms, (n, kind, a, b)
        assert ad(u, a).terms == tuple_ad(u, a).terms, (n, kind, a)
        assert square_commutator(u, b).terms == tuple_square_commutator(u, b).terms, (n, kind, b)
        letters = tuple(rng.randrange(dim_so(n)) for _ in range(rng.randint(0, 5)))
        assert sym_word(n, letters) == tuple_sym_word(n, tuple(sorted(letters))), (n, letters)


def test_packed_words_refuse_to_overflow_a_letter_count():
    # a count field holds at most 255 copies of a generator; a word that
    # could reach degree 256 raises instead of carrying into the next field
    n = 3
    top = pbw_mul(PBWElement(n, {(0,) * 200: 1}), PBWElement(n, {(0,) * 55: 2}))
    assert top.terms == {(0,) * 255: 2}
    with pytest.raises(ValueError, match="overflow"):
        pbw_mul(PBWElement(n, {(0,) * 200: 1}), PBWElement(n, {(0,) * 56: 1}))
    # a commutator's fold reaches deg a + deg b letters, in either order
    long = PBWElement(n, {(0,) * 200: 1, (1,): 1})
    short = PBWElement(n, {(0,) * 55: 2})
    for x, y in ((long, short), (short, long)):
        assert uea_commutator(x, y).terms == (tuple_pbw_mul(x, y) - tuple_pbw_mul(y, x)).terms
    longer = PBWElement(n, {(0,) * 56: 1})
    for x, y in ((long, longer), (longer, long)):
        with pytest.raises(ValueError, match="overflow"):
            uea_commutator(x, y)
    with pytest.raises(ValueError, match="overflow"):
        ad(1, PBWElement(n, {(0,) * 256: 1}))
    with pytest.raises(ValueError, match="overflow"):
        weighted_square_commutators(n, [[1] * dim_so(n)], PBWElement(n, {(0,) * 255: 1}))
    with pytest.raises(ValueError, match="overflow"):
        sym_word(n, (2,) * 256)
    f = LiePoissonPoly(n, MultiPoly(momentum_vars(n), {(256, 0, 0): 1}))
    with pytest.raises(ValueError, match="overflow"):
        symmetrize_momentum_poly(f)


def test_square_weights_reads_squares_and_rejects_other_words():
    n = 4
    assert square_weights(PBWElement(n, {(2, 2): Fraction(3, 4), (5, 5): 7})) == [0, 0, Fraction(3, 4), 0, 0, 7]
    for word in ((), (1,), (1, 2), (1, 1, 1)):
        with pytest.raises(ValueError, match="not a squared generator"):
            square_weights(PBWElement(n, {(0, 0): 1, word: 1}))


def test_integer_sym_word_is_k_factorial_times_the_average():
    # every multiset up to degree 4 at n = 4 against the sum of its k!
    # normalized orderings, and seeded degree-5 and -6 multisets at n = 6
    # against the oracle's sum over first letters, one generator product at
    # a time
    rng = random.Random(53)
    for k in range(5):
        for letters in itertools.combinations_with_replacement(range(dim_so(4)), k):
            got = sym_word(4, letters)
            assert all(type(c) is int for c in got.values())
            orders = pbw_normalize(4, [(order, 1) for order in itertools.permutations(letters)])
            assert got == orders.terms, letters
    for k in (5, 6):
        for _ in range(3):
            letters = tuple(rng.randrange(dim_so(6)) for _ in range(k))
            got = sym_word(6, letters)
            assert all(type(c) is int for c in got.values())
            assert got == scaled_sym_word_by_products(6, tuple(sorted(letters))), letters


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetrize_momentum_poly_matches_averaged_words(n):
    # each monomial's k!-scaled word, summed per degree and divided once,
    # against the oracle's words divided by k! one monomial at a time
    rng = random.Random(60 + n)
    lam = MomentSpec.symbolic(n).lambdas
    for symbolic in (False, True):
        f = _random_momentum_poly(rng, n)
        if symbolic:
            f = f.map_coeffs(lambda c: c * (lam[0] + lam[1]) / lam[2])
        want = {}
        for mono, coef in f.terms.items():
            letters = tuple(g for g, e in enumerate(mono) for _ in range(e))
            scale = Fraction(1, factorial(len(letters)))
            add_terms(want, ((w, coef * c * scale) for w, c in scaled_sym_word_by_products(n, letters).items()))
        assert symmetrize_momentum_poly(f) == PBWElement(n, want)


def _random_momentum_poly(rng, n):
    nvars = len(pair_list(n))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, 4)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return LiePoissonPoly(n, MultiPoly(momentum_vars(n), terms))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetrization_is_equivariant(n):
    # symmetrization S(so(n)) -> U(so(n)) is a module isomorphism (Dixmier,
    # Enveloping Algebras, 2.4.10): [P-hat_u, beta(f)] = beta({P_u, f}) ties
    # pbw_mul and sym_word to the Lie-Poisson bracket
    rng = random.Random(40 + n)
    fs = [_random_momentum_poly(rng, n) for _ in range(20)]
    spec = MomentSpec.from_lambdas(tuple(Fraction(v, 2) for v in (1, 3, 4, 7, 9)[:n]))
    fs += [manakov_integral(idx, n, spec) for idx in manakov_indices(n, max_degree=4)]
    for f in fs:
        op = symmetrize_momentum_poly(f)
        for p in rng.sample(pair_list(n), 2):
            lhs = uea_commutator(gen(n, p), op)
            assert lhs == symmetrize_momentum_poly(lie_poisson_bracket(LiePoissonPoly.gen(n, p), f))


def test_sym_k_basics():
    n = 3
    a, b = gen(n, (1, 2)), gen(n, (1, 3))
    assert sym_k(n, [(1, 2), (1, 3)]) == (pbw_mul(a, b) + pbw_mul(b, a)).scale(Fraction(1, 2))
    assert sym_k(n, [(1, 2), (1, 2)]) == pbw_mul(a, a)
    assert sym_k(n, [(1, 1), (1, 2), (1, 3)]).is_zero()


def test_sym3_antisymmetry():
    n = 3
    base = sym3_cycle(n, 1, 2, 3)
    assert not base.is_zero()
    for perm in itertools.permutations((1, 2, 3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        assert sym3_cycle(n, *perm) == base.scale(sign)


def test_principal_symbol_homomorphism():
    rng = random.Random(13)
    n = 4
    plist = pair_list(n)
    for _ in range(40):
        wa = tuple(sorted(rng.randrange(len(plist)) for _ in range(rng.randint(1, 2))))
        wb = tuple(sorted(rng.randrange(len(plist)) for _ in range(rng.randint(1, 2))))
        a = PBWElement(n, {wa: Fraction(1)})
        b = PBWElement(n, {wb: Fraction(1)})
        comm = uea_commutator(a, b)
        expected = lie_poisson_bracket(a.principal_symbol(), b.principal_symbol())
        d = len(wa) + len(wb) - 1
        top = PBWElement(n, {w: c for w, c in comm.terms.items() if len(w) == d})
        assert top.principal_symbol() == expected


def test_symmetrize_momentum_poly_symbol():
    n = 4
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4)))
    c = manakov_integral(ManakovIndex(4, 2), n, spec)
    op = symmetrize_momentum_poly(c)
    assert op.principal_symbol() == c


def test_symmetrization_commutes_like_classical():
    # quantized central-set generators commute with exactly the momenta
    # their classical counterparts Poisson-commute with
    n = 4
    spec = MomentSpec.from_partition_values((2, 2), (Fraction(1), Fraction(2)))
    from manakov.rigid_body import z_lambda

    funcs, _ = z_lambda(spec)
    ops = [symmetrize_momentum_poly(f) for f in funcs]
    for f, op in zip(funcs, ops):
        for p in pair_list(n):
            classical_zero = lie_poisson_bracket(f, LiePoissonPoly.gen(n, p)).is_zero()
            quantum_zero = uea_commutator(op, gen(n, p)).is_zero()
            assert classical_zero == quantum_zero


def test_hamiltonian_operator_formal_index():
    # the quadratic-coefficient formula at the formal half-integer index
    # reproduces the Hamiltonian weights: H-hat = -c-hat_{3/2,-1/2}
    n = 3
    spec = MomentSpec.symbolic(n)
    ham = hamiltonian_operator(spec)
    acc = PBWElement.zero(n)
    for (i, j) in pair_list(n):
        w = quadratic_coefficient(spec, Fraction(3, 2), i, j)
        sq = pbw_mul(gen(n, (i, j)), gen(n, (i, j)))
        # Sym_2(P_ij, P_ji) = -P_ij^2 and each unordered pair appears twice
        acc = acc + sq.map_coeffs(lambda v: v * (w * Fraction(-1, 2)))
    assert (-acc) == ham.scale(-1) or acc == ham.scale(-1)
    assert acc == -ham


def test_hamiltonian_commutator_matches_direct():
    n = 4
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 5)))
    x = manakov_operator(ManakovIndex(4, 2), n, spec)
    direct = uea_commutator(hamiltonian_operator(spec), x)
    assert hamiltonian_commutator(spec, x) == direct


def test_manakov_operator_symbols():
    n = 5
    spec = MomentSpec.symbolic(n)
    for idx in manakov_indices(n):
        op = manakov_operator(idx, n, spec)
        assert op.principal_symbol() == manakov_integral(idx, n, spec)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("symbolic", [True, False], ids=["symbolic", "sampled"])
def test_manakov_operator_matches_walk_oracle(n, symbolic):
    # symmetrizing the classical integral monomial by monomial equals adding
    # the symmetrized cycle of every closed walk, because sym_word depends
    # only on the multiset of letters
    if symbolic:
        spec = MomentSpec.symbolic(n)
    else:
        spec = MomentSpec.from_lambdas(tuple(Fraction(v, 3) for v in (2, 3, 5, 7, 11, 13)[:n]))
    for idx in manakov_indices(n):
        assert manakov_operator(idx, n, spec) == manakov_operator_by_walks(idx, n, spec)


def test_quantum_involution_n4_symbolic():
    clear_caches()
    n = 4
    spec = MomentSpec.symbolic(n)
    ops = [manakov_operator(idx, n, spec) for idx in manakov_indices(n)]
    ops.append(hamiltonian_operator(spec))
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            assert uea_commutator(ops[a], ops[b]).is_zero()


def test_obstruction_b_h5_vanishes():
    spec = MomentSpec.symbolic(5)
    for l in (2, 3, 4, 5):
        for (i, j, k) in [(1, 2, 3), (1, 4, 5), (2, 3, 5)]:
            assert not obstruction_b(l, 5, spec, i, j, k)


def test_obstruction_b_h6_closed_form_symbolic():
    spec = MomentSpec.symbolic(6)
    for l in (2, 3, 4, 5, 6):
        for (i, j, k) in [(1, 2, 3), (2, 4, 6)]:
            assert obstruction_b(l, 6, spec, i, j, k) == obstruction_b_closed_h6(l, spec, i, j, k)
    # l = 2 is the Casimir: the closed form cancels identically
    assert not obstruction_b_closed_h6(2, spec, 1, 2, 3)


@pytest.mark.parametrize(
    "spec",
    [
        MomentSpec.symbolic(6),
        MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6))),
        MomentSpec.from_lambdas(tuple(Fraction(v, 7) for v in (3, 11, 2, 19, 5, 8))),
    ],
    ids=["symbolic", "1..6", "sevenths"],
)
def test_hamiltonian_obstruction_is_minus_the_three_halves_closed_form(spec):
    # H-hat is minus the l = 3/2 quadratic integral, so the battery reads the
    # [H-hat, c-hat_{6,2}] coefficients off the h = 6 closed form; its
    # witness prints one of them, so the strings must agree too
    for t in itertools.combinations(range(1, 7), 3):
        got = -obstruction_b_closed_h6(Fraction(3, 2), spec, *t)
        want = hamiltonian_obstruction_b(spec, *t)
        assert got == want and str(got) == str(want), t


def test_hamiltonian_spot_value():
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6)))
    assert hamiltonian_obstruction_b(spec, 1, 2, 3) == Fraction(-5, 3)


def test_obstruction_raw_vs_invalid_h():
    spec = MomentSpec.symbolic(6)
    with pytest.raises(ValueError):
        obstruction_b_raw(2, 4, spec, 1, 2, 3)


def test_obstruction_sign_orientation():
    """The commutators equal MINUS the closed-form Sym_3 combinations.

    This pins the global orientation of the displayed expansions relative to
    the bracket conventions used here; the vanishing results are unaffected
    by it, and the orientation itself is independently confirmed in the
    concrete differential-operator algebra below.
    """
    n = 6
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6)))
    assert EXPANSION_SIGN == -1
    c62 = manakov_operator(ManakovIndex(6, 2), n, spec)
    comm = hamiltonian_commutator(spec, c62)
    rhs = sym3_expansion(n, lambda i, j, k: hamiltonian_obstruction_b(spec, i, j, k))
    assert (comm - rhs.scale(EXPANSION_SIGN)).is_zero()
    assert not (comm - rhs).is_zero()
    # degree-2 integrals against the degree-4 one, same orientation
    for l in (3, 4):
        cl = manakov_operator(ManakovIndex(l, 1), n, spec)
        comm2 = uea_commutator(cl, c62)
        rhs2 = sym3_expansion(n, lambda i, j, k: obstruction_b_closed_h6(l, spec, i, j, k))
        assert (comm2 - rhs2.scale(EXPANSION_SIGN)).is_zero()


def test_weyl_representation_cross_check():
    """Independent oracle for the PBW engine and the expansion orientation.

    The map sending each momentum generator to the concrete first-order
    operator x_i d_j - x_j d_i preserves commutators, so computing in the
    differential-operator algebra cross-validates normal ordering, Sym_3 and
    the orientation of the obstruction expansion at n = 3.
    """
    from manakov.weyl import WeylOperator, commutator, compose

    n = 3
    lam = (Fraction(1), Fraction(2), Fraction(3))
    spec = MomentSpec.from_lambdas(lam)

    def rep(pbw):
        names = pair_list(n)
        acc = WeylOperator.zero(n)
        for w, c in pbw.terms.items():
            t = WeylOperator.const(n, c)
            for g in w:
                t = compose(t, momentum_operator(n, *names[g]))
            acc = acc + t
        return acc

    # representation is a homomorphism on a sample of products
    a = pbw_mul(gen(n, (1, 2)), gen(n, (2, 3)))
    b = gen(n, (1, 3))
    assert rep(uea_commutator(a, b)) == commutator(rep(a), rep(b))
    # orientation: (1/2)[H, P12^2] = -(1/(l1+l3) - 1/(l2+l3)) Sym3 in both algebras
    h_pbw = hamiltonian_operator(spec)
    lhs_pbw = uea_commutator(h_pbw, pbw_mul(gen(n, (1, 2)), gen(n, (1, 2)))).scale(Fraction(1, 2))
    coef = Fraction(1, lam[0] + lam[2]) - Fraction(1, lam[1] + lam[2])
    rhs_pbw = sym3_cycle(n, 1, 2, 3).scale(coef)
    assert (lhs_pbw + rhs_pbw).is_zero()
    assert rep(lhs_pbw) == -rep(rhs_pbw)
    assert not rep(rhs_pbw).is_zero()


def test_modified_operator_structure():
    n = 6
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6)))
    base = manakov_operator(ManakovIndex(6, 2), n, spec)
    mod = modified_c62(n, spec)
    corr = mod - base
    # correction: one squared-generator term per momentum pair
    assert len(corr.terms) == 15
    for (w, c) in corr.terms.items():
        assert len(w) == 2 and w[0] == w[1]
    # equal moments: the correction is proportional to the quadratic Casimir
    mu = Fraction(2)
    spec_eq = MomentSpec.from_lambdas((mu,) * 6)
    corr_eq = modified_c62(6, spec_eq) - manakov_operator(ManakovIndex(6, 2), 6, spec_eq)
    c1 = sum((pbw_mul(gen(6, p), gen(6, p)) for p in pair_list(6)), PBWElement.zero(6))
    assert corr_eq == c1.scale(Fraction(5, 12) * mu**4)
    # principal symbol is still the classical integral
    assert mod.principal_symbol() == manakov_integral(ManakovIndex(6, 2), n, spec)


def test_correction_identity_n6():
    # the Sym3/Sym5 triple-sum identity is a dimension-6 statement; check it
    # at a second moment sample
    clear_caches()
    n = 6
    spec = MomentSpec.from_lambdas(
        tuple(Fraction(v) for v in (2, 3, 5, 7, 11, 13))
    )
    c51 = manakov_operator(ManakovIndex(5, 2), n, spec)
    lhs = correction_commutator_expansion(spec, c51)
    rhs = sym35_expansion(spec)
    assert (lhs - rhs.scale(EXPANSION_SIGN)).is_zero()


@pytest.mark.parametrize("n", [5, 6, 7])
def test_correction_identity_holds_with_the_n_dependent_sym3_weight(n):
    # the Sym_3 weight of the expansion is (n - 1)/3, which is 5/3 only at
    # n = 6: the identity holds at every n once it follows n
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 5, 7, 11, 13)[:n]))
    c51 = manakov_operator(ManakovIndex(5, 2), n, spec)
    lhs = -weighted_square_commutators(n, [correction_weights(spec)], c51)[0]
    assert lhs == sym35_expansion(spec).scale(EXPANSION_SIGN)


def test_corrected_commutators_reuse_the_uncorrected_ones():
    # the battery forms [c-hat_l, C-hat_{6,2}] as [c-hat_l, c-hat_{6,2}] minus
    # the weighted [(P-hat_ij)^2, c-hat_l], and [H-hat, C-hat_{6,2}] as
    # [H-hat, c-hat_{6,2}] plus [H-hat, correction]; each equals the direct
    # commutator, and the uncorrected one it starts from is nonzero (except
    # for the Casimir c-hat_{2,1})
    clear_caches()
    n = 6
    rng = random.Random(61)
    for _ in range(2):
        spec = MomentSpec.from_lambdas(tuple(Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(n)))
        c62 = manakov_operator(ManakovIndex(6, 2), n, spec)
        c62mod = c62 + c62_correction(spec)
        h_comm = hamiltonian_commutator(spec, c62)
        assert not h_comm.is_zero()
        reused = h_comm + hamiltonian_commutator(spec, c62_correction(spec))
        assert reused == uea_commutator(hamiltonian_operator(spec), c62mod)
        for l in range(2, n + 1):
            quad = manakov_operator(ManakovIndex(l, 1), n, spec)
            comm = uea_commutator(quad, c62)
            assert comm.is_zero() == (l == 2)
            reused = comm - weighted_square_commutators(n, [correction_weights(spec)], quad)[0]
            assert reused == uea_commutator(quad, c62mod)


def test_modified_operator_commutes_symbolically_n6():
    # the headline zero holds as an identity in the full moment field
    clear_caches()
    spec = MomentSpec.symbolic(6)
    c62mod = modified_c62(6, spec)
    assert hamiltonian_commutator(spec, c62mod).is_zero()
    c31 = manakov_operator(ManakovIndex(3, 1), 6, spec)
    assert uea_commutator(c31, c62mod).is_zero()


def test_hamiltonian_spot_value_n3():
    spec = MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3)))
    assert hamiltonian_obstruction_b(spec, 1, 2, 3) == Fraction(-5, 3)


def test_quantum_central_set_and_flat_cases():
    rng = random.Random(5)
    spec = MomentSpec.from_partition_values((1, 2), (Fraction(1), Fraction(2)))
    rep = verify_quantum_central_set(spec, rng, rank_points=1, chart_bound=25)
    assert rep.ok, [c.id for c in rep.failures]
    rep2 = verify_quantum_flat_cases(3, rng, chart_bound=25)
    assert rep2.ok, [c.id for c in rep2.failures]


@pytest.mark.parametrize("n", [4, 5])
def test_flat_case_completion_matches_reranking_oracle(n):
    # the completion adds each candidate's row once to one echelon; its
    # witnesses must be those of re-ranking the chosen set per candidate
    for seed in (0, 1):
        report = verify_quantum_flat_cases(n, random.Random(seed))
        got = [c.witness for c in report.checks if c.id.endswith("quasi-independent completion")]
        assert len(got) == 2
        assert got == flat_case_completion_witnesses(n, random.Random(seed))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_expansions_match_cycle_by_cycle_sums(n):
    # one symmetrization of the classical cycle sum against the Sym_k of
    # every index tuple scaled and added one at a time
    rng = random.Random(31 + n)
    spec = MomentSpec.from_lambdas(tuple(Fraction(v, 2) for v in rng.sample(range(1, 25), n)))
    coeffs = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for t in itertools.combinations(range(1, n + 1), 3)}
    for fn in (
        lambda i, j, k: coeffs[(i, j, k)],
        lambda i, j, k: hamiltonian_obstruction_b(spec, i, j, k),
        lambda i, j, k: obstruction_b_closed_h6(4, spec, i, j, k),
    ):
        assert sym3_expansion(n, fn) == sym3_expansion_by_cycles(n, fn)
    assert sym35_expansion(spec) == sym35_expansion_by_cycles(spec)


def test_expansions_match_cycle_by_cycle_sums_symbolic():
    spec = MomentSpec.symbolic(4)
    fn = lambda i, j, k: obstruction_b(3, 5, spec, i, j, k) + hamiltonian_obstruction_b(spec, i, j, k)
    assert sym3_expansion(4, fn) == sym3_expansion_by_cycles(4, fn)
    assert sym35_expansion(spec) == sym35_expansion_by_cycles(spec)


def _element_key(x):
    return frozenset(x.terms.items())


@pytest.mark.parametrize(
    "n, lambdas",
    [(6, (Fraction(5, 2), Fraction(19, 2), Fraction(3, 2), Fraction(9, 2), Fraction(2), Fraction(8))), (5, None)],
)
def test_battery_builds_and_commutes_each_once(monkeypatch, n, lambdas):
    # every integral is built once; each [(P-hat_k)^2, x] is formed once per
    # (k, right operand x) and every quadratic left operand is a weighting of
    # those; only [c-hat_{5,1}, C-hat_{6,2}] commutes two degree-4
    # operators, once, and only at n = 6, in one fold that forms neither
    # product, so pbw_mul is never called.  Over symbolic moments x is formed
    # as its slices, one per denominator class and moment monomial, each once
    import manakov.uea as uea

    spec = MomentSpec.from_lambdas(lambdas) if lambdas else MomentSpec.symbolic(n)
    built = []
    pairs = []
    operands = []
    squares = []
    real_weighted, real_square = uea.weighted_square_commutators, uea._square_packed

    def integral(idx, n_, spec_):
        built.append(idx)
        return manakov_integral(idx, n_, spec_)

    def commutator(a, b):
        pairs.append(frozenset((_element_key(a), _element_key(b))))
        return uea_commutator(a, b)

    def weighted(n_, weight_sets, x):
        operands.append(_element_key(x))
        return real_weighted(n_, weight_sets, x)

    def square(n_, k, terms):
        squares.append((k, operands[-1], frozenset(terms.items())))
        return real_square(n_, k, terms)

    def product(a, b):
        raise AssertionError("the battery formed a product")

    monkeypatch.setattr(uea, "manakov_integral", integral)
    monkeypatch.setattr(uea, "uea_commutator", commutator)
    monkeypatch.setattr(uea, "weighted_square_commutators", weighted)
    monkeypatch.setattr(uea, "_square_packed", square)
    monkeypatch.setattr(uea, "pbw_mul", product)
    report = verify_quantum_rigid(n, spec)
    assert report.ok, [c.id for c in report.failures]
    assert len(built) == len(set(built))
    assert set(built) == {ManakovIndex(l, 1) for l in range(2, n + 1)} | {ManakovIndex(h, 2) for h in (5, 6) if h <= n}
    assert len(pairs) == (1 if n == 6 else 0)
    assert len(squares) == len(set(squares))
    # right operands: the n - 1 quadratic integrals, c-hat_{5,1} and, at
    # n = 6, c-hat_{6,2} and the correction of C-hat_{6,2}; each is
    # weighted once and commuted with every squared generator
    assert len(operands) == len(set(operands)) == {5: 5, 6: 8}[n]
    assert {(k, x) for k, x, _ in squares} == {(k, x) for k in range(dim_so(n)) for x in operands}
    if lambdas:
        assert len(squares) == dim_so(n) * len(operands)
    else:
        assert len(squares) > dim_so(n) * len(operands)
        assert all(type(c) is int for *_, terms in squares for _, c in terms)


def _first_chart_has_zero_left_momenta(monkeypatch):
    """Make the first GroupChart draw consume its random numbers as usual
    but return a point with zero left momenta, where every Casimir gradient
    vanishes; later draws are untouched.  Returns the list of draws."""
    real = GroupChart.random.__func__
    draws = []

    def random_chart(cls, n, rng, bound=10**6):
        chart = real(cls, n, rng, bound)
        draws.append(chart)
        return cls(n, chart.s, SkewMatrix(n)) if len(draws) == 1 else chart

    monkeypatch.setattr(GroupChart, "random", classmethod(random_chart))
    return draws


@pytest.mark.parametrize("check", ["rigid/z-rank/sample0", "symbol-rank Z-hat / sample0", "completion"])
def test_deficient_group_chart_point_is_redrawn(monkeypatch, check):
    # a rank-deficient point on T*SO(n) certifies nothing, so it is redrawn
    # as on T*R^n instead of being recorded as a failure
    draws = _first_chart_has_zero_left_momenta(monkeypatch)
    spec = MomentSpec.from_partition_values((2, 2), (Fraction(1), Fraction(3)))
    if check == "completion":
        report = verify_quantum_flat_cases(4, random.Random(5))
        got = report.checks[1]
        flat = MomentSpec.from_partition_values((4,), (Fraction(2),))
        target = 2 * dim_so(4) - centrality_defect(flat)[3]
        assert got.id == "q=(4,): quasi-independent completion"
        assert got.witness == f"rank {target} with {target} of {target} functions"
    else:
        if check.startswith("rigid/"):
            report = verify_z_lambda(spec, random.Random(5), points=1)
        else:
            report = verify_quantum_central_set(spec, random.Random(5), rank_points=1)
        (got,) = [c for c in report.checks if c.id == check]
        assert got.witness == "rank 4 of 4"
    assert got.status == "generic-point-certificate"
    assert len(draws) >= 2


def test_correction_weight_derived_by_solve():
    # 5/12 is derived, not assumed: with [H-hat, X] stacked as PBW
    # coefficient columns, [H-hat, c-hat_{6,2}] + t [H-hat, X_22] = 0 has the
    # one solution t = 5/12.  In the widened span (X_40, X_31, X_22) the
    # solution is unique modulo the commutant X_40 + X_22, which carries
    # c-hat_{4,2}'s weights l_i^4 + l_i^2 l_j^2 + l_j^4
    n = 6
    spec = MomentSpec.from_lambdas(tuple(Fraction(v) for v in (1, 2, 3, 5, 7, 11)))
    lam = spec.lambdas

    def squares(weight):
        return PBWElement(n, {(k, k): weight(lam[i - 1], lam[j - 1]) for k, (i, j) in enumerate(pair_list(n))})

    x40 = squares(lambda a, b: a**4 + b**4)
    x31 = squares(lambda a, b: a**3 * b + a * b**3)
    x22 = squares(lambda a, b: a**2 * b**2)
    base = hamiltonian_commutator(spec, manakov_operator(ManakovIndex(6, 2), n, spec))
    cols = [hamiltonian_commutator(spec, x) for x in (x40, x31, x22)]
    words = sorted(set(base.terms).union(*(c.terms for c in cols)))
    rhs = [-base.terms.get(w, Fraction(0)) for w in words]

    def system(columns):
        return ExactMatrix([[c.terms.get(w, Fraction(0)) for c in columns] for w in words])

    assert solve(system(cols[2:]), rhs) == [Fraction(5, 12)]
    assert solve(system(cols), rhs) == [Fraction(-5, 12), 0, 0]
    assert exact_rank(system(cols)) == (2, [[1, 0, 1]])
