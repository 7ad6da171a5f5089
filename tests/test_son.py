import random
from fractions import Fraction

import pytest

from manakov.linalg import ExactMatrix, exact_rank
from manakov.son import (
    DegenerateSampleError,
    MomentSpec,
    SkewMatrix,
    ad_kernel_dim,
    ad_matrix,
    basis_element,
    bracket,
    casimir_set,
    cayley_orthogonal,
    dim_so,
    pair_index,
    pair_list,
    random_skew,
    right_from_left,
    sigma_triple,
)
from manakov.rigid_body import partitions
from oracles import is_special_orthogonal


def test_basis_element_entries():
    d = basis_element(3, 1, 2)
    assert d.get(1, 2) == 1 and d.get(2, 1) == -1
    assert basis_element(3, 2, 1) == d.scale(-1)
    d5 = basis_element(5, 2, 4)
    assert d5.upper == {(2, 4): Fraction(1)}
    with pytest.raises(ValueError):
        basis_element(4, 2, 2)


def _matrix_product_bracket(a, b):
    """Independent oracle: plain dense multiplication, no skew shortcuts."""
    n = a.n
    da = [[a.get(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    db = [[b.get(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(da[i][k] * db[k][j] - db[i][k] * da[k][j] for k in range(n))
    return out


def test_bracket_examples():
    assert bracket(basis_element(3, 1, 2), basis_element(3, 2, 3)) == basis_element(3, 1, 3)
    assert bracket(basis_element(4, 1, 2), basis_element(4, 3, 4)).is_zero()
    got = bracket(basis_element(3, 1, 3), basis_element(3, 2, 3))
    oracle = _matrix_product_bracket(basis_element(3, 1, 3), basis_element(3, 2, 3))
    assert got.to_dense().entries == oracle


def test_bracket_matches_structure_constants():
    # the bracket against the four-delta closed formula, written out here
    n = 4
    for (i, j) in pair_list(n):
        for (h, k) in pair_list(n):
            got = bracket(basis_element(n, i, j), basis_element(n, h, k))
            expected = SkewMatrix(n)
            terms = []
            if i == h:
                terms.append((-1, j, k))
            if j == k:
                terms.append((-1, i, h))
            if i == k:
                terms.append((1, j, h))
            if j == h:
                terms.append((1, i, k))
            for sign, a, b in terms:
                if a != b:
                    expected = expected + basis_element(n, a, b).scale(sign)
            assert got == expected


def _sparse_skew(n, rng):
    dense = random_skew(n, rng, 20)
    return SkewMatrix(n, {p: v for p, v in dense.upper.items() if rng.random() < 0.6})


def test_bracket_and_ad_matrix_match_dense_products_random():
    # the structure-constant bracket and the ad columns built from it,
    # against plain dense matrix products, on seeded random (and sparse)
    # pairs and random domain/image subsets of the basis
    rng = random.Random(41)
    for n in range(3, 7):
        plist = pair_list(n)
        for _ in range(25):
            a = random_skew(n, rng, 20) if rng.random() < 0.5 else _sparse_skew(n, rng)
            b = _sparse_skew(n, rng)
            assert bracket(a, b).to_dense().entries == _matrix_product_bracket(a, b)
            domain = rng.sample(plist, rng.randint(1, len(plist)))
            image = rng.sample(plist, rng.randint(1, len(plist)))
            m = ad_matrix(a, domain_pairs=domain, image_pairs=image)
            assert (m.rows, m.cols) == (len(image), len(domain))
            for c, (h, k) in enumerate(domain):
                dense = _matrix_product_bracket(a, basis_element(n, h, k))
                for r, (i, j) in enumerate(image):
                    assert m.entries[r][c] == dense[i - 1][j - 1]


def test_jacobi_identity_randomized():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 5)
        a, b, c = (random_skew(n, rng, 20) for _ in range(3))
        acc = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)
        assert acc.is_zero()


def test_ad_kernel_dimension_generic():
    rng = random.Random(2)
    for n in range(2, 8):
        a = random_skew(n, rng)
        assert ad_kernel_dim(a) == n // 2


def test_ad_kernel_zero_matrix():
    assert ad_kernel_dim(SkewMatrix(4)) == 6


def test_ad_kernel_block_example():
    a = SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Fraction(2)})
    assert ad_kernel_dim(a) == 2


def test_ad_restriction_kernel_example():
    # the commutant of a single plane rotation inside so(3)
    a = basis_element(3, 1, 2)
    m = ad_matrix(a)
    rank, kernel = exact_rank(m)
    assert rank == 2
    assert len(kernel) == 1
    idx = pair_index(3)[(1, 2)]
    assert kernel[0][idx] == 1 and all(v == 0 for k, v in enumerate(kernel[0]) if k != idx)


def test_conjugation_invariance_of_kernel_dim():
    rng = random.Random(17)
    for n in (3, 4, 5):
        a = random_skew(n, rng, 50)
        x = cayley_orthogonal(random_skew(n, rng, 10))
        assert ad_kernel_dim(right_from_left(x, a)) == ad_kernel_dim(a)


def test_casimir_examples():
    a = SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Fraction(2)})
    assert casimir_set(a) == [Fraction(5), Fraction(4)]
    b = SkewMatrix(3, {(1, 2): Fraction(1)})
    assert casimir_set(b) == [Fraction(1)]


def test_casimir_c1_is_sum_of_squares():
    rng = random.Random(23)
    a = random_skew(5, rng, 30)
    c = casimir_set(a)
    assert c[0] == sum(v * v for v in a.upper.values())


def test_casimir_gradient_independence():
    # the s x N Jacobian of the Casimir set has full rank at generic points
    rng = random.Random(29)
    for n in (3, 4, 5, 6):
        a = random_skew(n, rng, 60)
        s = n // 2
        pairs = pair_list(n)
        from manakov.rigid_body import casimir_polynomials

        casimirs = casimir_polynomials(n)
        vals = a.coords()
        rows = []
        for cp in casimirs:
            rows.append([cp.diff(k).eval(vals) for k in range(len(pairs))])
        rank, _ = exact_rank(ExactMatrix(rows))
        assert rank == s


def test_cayley_orthogonal():
    assert cayley_orthogonal(SkewMatrix(3)) == ExactMatrix.identity(3)
    x = cayley_orthogonal(SkewMatrix(2, {(1, 2): Fraction(1)}))
    # (I-S)(I+S)^{-1} for S_12 = 1 is the clockwise quarter turn
    assert x.entries == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    assert is_special_orthogonal(x)
    rng = random.Random(31)
    y = cayley_orthogonal(random_skew(4, rng, 40))
    assert is_special_orthogonal(y)


def test_right_from_left():
    rng = random.Random(37)
    pl = random_skew(4, rng, 25)
    assert right_from_left(ExactMatrix.identity(4), pl) == pl
    x = cayley_orthogonal(random_skew(4, rng, 25))
    pr = right_from_left(x, pl)
    assert casimir_set(pr) == casimir_set(pl)
    # so(2) is abelian: conjugation is trivial
    x2 = cayley_orthogonal(SkewMatrix(2, {(1, 2): Fraction(3, 7)}))
    pl2 = SkewMatrix(2, {(1, 2): Fraction(1)})
    assert right_from_left(x2, pl2) == pl2
    with pytest.raises(ValueError):
        right_from_left(ExactMatrix([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]), pl2)


def test_moment_spec_grouping():
    spec = MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(1)))
    assert spec.q == (1, 2)
    assert spec.u == 2
    assert spec.d == 1
    assert spec.equal_moment_pairs() == ((1, 3),)
    with pytest.raises(ValueError):
        MomentSpec.from_lambdas((Fraction(-1), Fraction(2)))


def test_moment_spec_partition_mode():
    spec = MomentSpec.from_partition((1, 2, 3))
    assert spec.n == 6
    assert spec.is_symbolic
    assert spec.q == (1, 2, 3)
    assert len(spec.equal_moment_pairs()) == 1 + 3


def test_moment_spec_hashes_its_moments_once(monkeypatch):
    from manakov.ratfunc import RationalFunction

    a, b = MomentSpec.symbolic(4), MomentSpec.symbolic(4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(MomentSpec.from_partition((1, 3))) == hash(MomentSpec.from_partition((1, 3)))
    c = MomentSpec.symbolic(5)
    hashed = []
    real_hash = RationalFunction.__hash__
    monkeypatch.setattr(RationalFunction, "__hash__", lambda self: hashed.append(self) or real_hash(self))
    first = hash(c)
    assert len(hashed) == 5
    assert hash(c) == first
    assert len(hashed) == 5
    with pytest.raises(AttributeError):
        c._hash = 0


def test_sigma_triple_closed_forms():
    rng = random.Random(41)
    target_by_partition = {}
    for n in range(2, 8):
        for q in partitions(n):
            mus = []
            while len(mus) < len(q):
                v = Fraction(rng.randint(1, 40), rng.randint(1, 40))
                if v not in mus:
                    mus.append(v)
            spec = MomentSpec.from_partition_values(q, mus)
            d = spec.d
            if spec.u == 1:
                expected = (n // 2, n // 2, n // 2)
            else:
                s1 = sum(q[i] * q[j] for i in range(len(q)) for j in range(i + 1, len(q)))
                s2 = (n - d) // 2
                expected = (s1, s2, 0)
            for _ in range(3):
                a = random_skew(n, rng, 10**4)
                got = sigma_triple(a, spec)
                assert got == expected, (n, q, got, expected)
                sigma = ad_kernel_dim(a)
                assert got[0] >= sigma + got[1] - got[2]


def test_retry_generic_gives_up():
    from manakov.son import retry_generic

    def always_fail(rng):
        raise DegenerateSampleError("no luck")

    with pytest.raises(DegenerateSampleError):
        retry_generic(always_fail, random.Random(0), attempts=3)
