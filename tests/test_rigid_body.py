import random
from fractions import Fraction

import pytest

from manakov import rigid_body
from manakov.brackets import LiePoissonPoly, lie_poisson_bracket
from manakov.charts import GroupChart, jacobian_rank
from manakov.rigid_body import (
    ManakovIndex,
    assemble_integrable_set,
    casimir_polynomials,
    centrality_defect,
    centrality_defect_sampled,
    euler_bracket_closed_form,
    hamiltonian,
    hamiltonian_as_integral_combination,
    manakov_coefficient,
    manakov_indices,
    manakov_integral,
    partitions,
    table3,
    verify_euler_closed_form,
    verify_involution_family,
    verify_z_lambda,
    z_lambda,
    z_lambda_count,
)
from manakov.son import MomentSpec, pair_list
from oracles import assemble_by_reranking, manakov_coefficient_enumerated


def test_manakov_index_validation():
    idx = ManakovIndex(5, 2)
    assert idx.j == 1 and idx.label() == "c5,1"
    with pytest.raises(ValueError):
        ManakovIndex(3, 2)
    assert [i.label() for i in manakov_indices(4)] == ["c2,0", "c3,1", "c4,2", "c4,0"]


def test_hamiltonian_symbolic_and_equal_moments():
    spec = MomentSpec.symbolic(3)
    h = hamiltonian(spec)
    assert h.total_degree() == 2
    assert len(h.terms) == 3
    # all moments equal mu: H = P^2 / (4 mu)
    mu = Fraction(3)
    spec_eq = MomentSpec.from_lambdas((mu, mu, mu))
    h_eq = hamiltonian(spec_eq)
    p2 = sum((LiePoissonPoly.gen(3, p) ** 2 for p in pair_list(3)), LiePoissonPoly.zero(3))
    assert h_eq == p2 * Fraction(1, 4 * 3)


def test_euler_closed_form_symbolic():
    for n in (3, 4):
        rep = verify_euler_closed_form(MomentSpec.symbolic(n))
        assert rep.ok


def test_euler_bracket_vanishes_for_equal_moments():
    spec = MomentSpec.from_lambdas((Fraction(2), Fraction(2), Fraction(5)))
    br = lie_poisson_bracket(hamiltonian(spec), LiePoissonPoly.gen(3, (1, 2)))
    assert br.is_zero()
    assert euler_bracket_closed_form(spec, 1, 2).is_zero()


def test_manakov_coefficient_closed_forms():
    spec = MomentSpec.symbolic(6)
    lam = spec.lambdas
    # a^{ij}_{3,1} = l_i^2 + l_j^2
    assert manakov_coefficient(ManakovIndex(3, 1), (1, 2), spec) == lam[0] ** 2 + lam[1] ** 2
    # a^{ijkp}_{5,1} = sum of four squares
    got = manakov_coefficient(ManakovIndex(5, 2), (1, 2, 3, 4), spec)
    assert got == lam[0] ** 2 + lam[1] ** 2 + lam[2] ** 2 + lam[3] ** 2
    # empty exponent sum
    assert manakov_coefficient(ManakovIndex(2, 1), (1, 2), spec) == spec.coeff_one()
    # geometric-sum closed form for quadratic coefficients
    l_, i, j = 4, 1, 2
    got = manakov_coefficient(ManakovIndex(l_, 1), (i, j), spec)
    li, lj = lam[i - 1], lam[j - 1]
    assert got * (li**2 - lj**2) == li ** (2 * (l_ - 1)) - lj ** (2 * (l_ - 1))


def test_c20_is_half_sum_of_squares():
    spec = MomentSpec.symbolic(4)
    c20 = manakov_integral(ManakovIndex(2, 1), 4, spec)
    p2 = sum((LiePoissonPoly.gen(4, p) ** 2 for p in pair_list(4)), LiePoissonPoly.zero(4))
    one = spec.coeff_one()
    assert c20 == p2 * (one * Fraction(-1, 2))


def test_c2m0_matches_trace_powers():
    # c_{2m,0} = (1/4m) Tr(P^{2m}) as momentum polynomials
    from manakov.ratfunc import MultiPoly
    from manakov.brackets import momentum_vars
    from manakov.son import SkewMatrix

    n = 4
    spec = MomentSpec.from_lambdas(tuple(Fraction(i) for i in (1, 2, 3, 4)))
    vars = momentum_vars(n)
    m = SkewMatrix(n, {p: MultiPoly.gen(vars, k) for k, p in enumerate(pair_list(n))})
    m = m.to_dense(zero=MultiPoly.zero(vars))
    for mm in (1, 2):
        power = m
        for _ in range(2 * mm - 1):
            power = power @ m
        tr = power.trace()
        c = manakov_integral(ManakovIndex(2 * mm, mm), n, spec)
        assert c == tr * Fraction(1, 4 * mm)


def test_involution_small_symbolic():
    for n in (3, 4):
        rep = verify_involution_family(n, MomentSpec.symbolic(n))
        assert rep.ok, [c.id for c in rep.failures]


def test_involution_with_repeated_moments():
    spec = MomentSpec.from_partition_values((2, 2), (Fraction(1), Fraction(3)))
    rep = verify_involution_family(4, spec)
    assert rep.ok


def test_hamiltonian_combination_example():
    spec = MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3)))
    combo = hamiltonian_as_integral_combination(spec)
    assert combo == {2: Fraction(-5, 12), 3: Fraction(1, 60)}
    total = sum(
        (manakov_integral(ManakovIndex(k, 1), 3, spec) * b for k, b in combo.items()),
        LiePoissonPoly.zero(3),
    )
    assert total == hamiltonian(spec)


def test_hamiltonian_combination_various_n():
    rng = random.Random(3)
    for n in (4, 5):
        vals = []
        while len(vals) < n:
            v = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            if v not in vals:
                vals.append(v)
        spec = MomentSpec.from_lambdas(tuple(vals))
        combo = hamiltonian_as_integral_combination(spec)
        assert combo is not None
        total = sum(
            (manakov_integral(ManakovIndex(k, 1), n, spec) * b for k, b in combo.items()),
            LiePoissonPoly.zero(n),
        )
        assert total == hamiltonian(spec)


def test_counting_examples():
    def counts(q, mus):
        return centrality_defect(MomentSpec.from_partition_values(q, mus))

    assert counts((1, 2, 3), (1, 2, 3))[1:] == (5, 6, 8)
    assert counts((2, 2), (1, 2))[1:] == (4, 0, 4)
    assert counts((1, 1, 1), (1, 2, 3))[1:] == (1, 2, 2)
    assert counts((6,), (2,))[1:] == (3, 0, 3)


def test_defect_always_even():
    for n in range(2, 13):
        for q in partitions(n):
            spec = MomentSpec.from_partition(q)
            _, k, r, kbar = centrality_defect(spec)
            assert r % 2 == 0
            assert kbar == k + r // 2


def test_table3_shape_and_reference_rows():
    rows = table3(6)
    assert len(rows) == 25
    as_map = {(n, q): (k, r, kbar) for (n, q, k, r, kbar) in rows}
    assert as_map[(6, (1, 2, 3))] == (5, 6, 8)
    assert as_map[(5, (1, 2, 2))] == (4, 4, 6)
    assert as_map[(6, (1, 1, 1, 1, 1, 1))] == (3, 12, 9)
    assert (6, (2, 2, 2)) not in as_map
    rows_full = table3(6, all_partitions=True)
    assert len(rows_full) == 26
    full_map = {(n, q): (k, r, kbar) for (n, q, k, r, kbar) in rows_full}
    assert full_map[(6, (2, 2, 2))] == (6, 6, 9)


def test_counting_closed_vs_sampled():
    rng = random.Random(9)
    for q in [(3,), (1, 2), (2, 2), (1, 1, 2), (2, 3)]:
        n = sum(q)
        mus = []
        while len(mus) < len(q):
            v = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            if v not in mus:
                mus.append(v)
        spec = MomentSpec.from_partition_values(q, mus)
        assert centrality_defect(spec) == centrality_defect_sampled(spec, rng, points=2)


def test_z_lambda_structure():
    # one class: full Casimirs only
    spec = MomentSpec.from_lambdas((Fraction(2),) * 4)
    funcs, labels = z_lambda(spec)
    assert labels == ["C1", "C2"]
    assert z_lambda_count(spec) == 2
    # (2,3): two Casimirs plus one block Casimir per class
    spec2 = MomentSpec.from_partition_values((2, 3), (Fraction(1), Fraction(2)))
    funcs2, labels2 = z_lambda(spec2)
    assert len(funcs2) == z_lambda_count(spec2) == 4
    # singleton classes contribute nothing
    spec3 = MomentSpec.from_partition_values((1, 2), (Fraction(1), Fraction(2)))
    funcs3, labels3 = z_lambda(spec3)
    assert len(funcs3) == 1 + 1


def test_z_lambda_verification():
    rng = random.Random(15)
    spec = MomentSpec.from_partition_values((1, 2), (Fraction(1), Fraction(2)))
    rep = verify_z_lambda(spec, rng, points=2, chart_bound=10)
    assert rep.ok, [c.id for c in rep.failures]


def test_casimir_polynomials_block():
    funcs = casimir_polynomials(4, [1, 2, 3])
    assert len(funcs) == 1
    sub = sum(
        (LiePoissonPoly.gen(4, p) ** 2 for p in [(1, 2), (1, 3), (2, 3)]), LiePoissonPoly.zero(4)
    )
    assert funcs[0] == sub


def test_assemble_n3_distinct():
    rng = random.Random(17)
    spec = MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3)))
    chart = GroupChart.random(3, rng, bound=25)
    rb = assemble_integrable_set(spec, chart)
    # counts (rank, k, r, kbar) = (3, 1, 2, 2): one Casimir + one integral
    assert rb.counts == (3, 1, 2, 2)
    assert len(rb.z) == 1
    assert len(rb.central_integrals) == 1
    assert [side for side, _ in rb.noncentral_pairs].count("R") == 2
    assert rb.size == 2 * 3 - 2  # 2N - kbar


def test_assemble_single_class_has_no_integrals():
    rng = random.Random(19)
    spec = MomentSpec.from_lambdas((Fraction(2),) * 4)
    chart = GroupChart.random(4, rng, bound=15)
    rb = assemble_integrable_set(spec, chart)
    assert rb.central_integrals == []
    assert len(rb.z) == 2
    assert rb.size == 2 * 6 - 2


def test_assemble_n4_distinct():
    rng = random.Random(21)
    spec = MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    chart = GroupChart.random(4, rng, bound=15)
    rb = assemble_integrable_set(spec, chart)
    assert rb.counts == (6, 2, 4, 4)
    assert len(rb.central_integrals) == 2
    assert jacobian_rank(rb.functions, chart) == rb.size


def test_z_lambda_rank_n6_partition_123():
    # the (1,2,3)-partition central set has exactly five independent members
    rng = random.Random(29)
    spec = MomentSpec.from_partition_values((1, 2, 3), (Fraction(1), Fraction(2), Fraction(3)))
    funcs, _ = z_lambda(spec)
    assert len(funcs) == z_lambda_count(spec) == 5
    chart = GroupChart.random(6, rng, bound=10)
    assert jacobian_rank(funcs, chart) == 5


@pytest.mark.parametrize("q", [(1, 1, 1, 1), (1, 1, 2), (1, 1, 1, 1, 1), (1, 2, 2)])
def test_assembly_matches_reranking_oracle(q):
    # adding each candidate's row once to one echelon keeps exactly the
    # candidates that re-ranking the whole chosen set would keep
    n = sum(q)
    spec = MomentSpec.from_partition_values(q, tuple(Fraction(i + 2, 2) for i in range(len(q))))
    rng = random.Random(10 * n + len(q))
    for _ in range(2):
        chart = GroupChart.random(n, rng, bound=30)
        rb = assemble_integrable_set(spec, chart)
        labels, pairs, rank = assemble_by_reranking(spec, chart)
        assert (rb.central_integral_labels, rb.noncentral_pairs) == (labels, pairs)
        assert rank == rb.size


def test_assemble_rejects_symbolic():
    rng = random.Random(23)
    with pytest.raises(ValueError):
        assemble_integrable_set(MomentSpec.symbolic(3), GroupChart.random(3, rng, bound=5))


def test_hamiltonian_combination_rejects_symbolic():
    # the solve runs on the integer echelon, which takes rationals only
    with pytest.raises(ValueError, match="explicit rational moments"):
        hamiltonian_as_integral_combination(MomentSpec.symbolic(4))


def test_manakov_coefficient_recurrence_matches_enumeration():
    # the complete-homogeneous recurrence against the exhaustive sum over
    # exponent vectors, for every index up to n = 6 on rational moments
    # (repeated values included) and up to n = 5 on symbolic moments
    rng = random.Random(17)
    for n in range(2, 7):
        values = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))
        spec = MomentSpec.from_lambdas(values)
        for idx in manakov_indices(n):
            for _ in range(6):
                indices = tuple(rng.randint(1, n) for _ in range(2 * idx.l))
                got = manakov_coefficient(idx, indices, spec)
                assert got == manakov_coefficient_enumerated(idx, indices, spec)
    spec = MomentSpec.symbolic(5)
    for idx in manakov_indices(5):
        for _ in range(3):
            indices = tuple(rng.randint(1, 5) for _ in range(2 * idx.l))
            got = manakov_coefficient(idx, indices, spec)
            assert got == manakov_coefficient_enumerated(idx, indices, spec)


def test_memoized_coefficient_is_symmetric_and_per_spec():
    # the memo keys on the index multiset: every permutation of a tuple,
    # whether it computes the value or reads it back, equals the exhaustive
    # sum for its own spec, and equal index tuples under other moments do
    # not share an entry
    rng = random.Random(29)
    specs = [MomentSpec.symbolic(5)]
    for n in (5, 6, 6):
        specs.append(MomentSpec.from_lambdas(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))))
    rigid_body._COEFFICIENT_CACHE.clear()
    for spec in specs:
        n = spec.n
        for idx in manakov_indices(n):
            for _ in range(3):
                indices = [rng.randint(1, 5) for _ in range(2 * idx.l)]
                expected = manakov_coefficient_enumerated(idx, tuple(indices), spec)
                for _ in range(4):
                    rng.shuffle(indices)
                    assert manakov_coefficient(idx, tuple(indices), spec) == expected


def test_casimir_polynomials_memoized_on_indices():
    assert casimir_polynomials(4, [1, 2, 3]) is casimir_polynomials(4, (1, 2, 3))
    assert casimir_polynomials(4) is casimir_polynomials(4, range(1, 5))
    # z_lambda extends a copy, never the memoized tuple
    funcs, _ = z_lambda(MomentSpec.from_partition((1, 3)))
    assert len(funcs) == 3 and len(casimir_polynomials(4)) == 2
