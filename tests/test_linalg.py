import random
from fractions import Fraction
from itertools import product

import pytest

from manakov.linalg import (
    ExactMatrix,
    IntegerEchelon,
    exact_rank,
    invert,
    rank_of,
    solve,
)
from manakov.ratfunc import MultiPoly
from oracles import bareiss_det, bareiss_rank, char_poly, minor_expansion_det, minor_expansion_rank


def F(v):
    return Fraction(v)


def mat(rows):
    return ExactMatrix([[F(v) for v in row] for row in rows])


def test_rank_proportional_rows():
    rank, kernel = exact_rank(mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert len(kernel) == 1
    assert kernel[0] == [F(-2), F(1)]


def test_rank_identity():
    rank, kernel = exact_rank(ExactMatrix.identity(5))
    assert rank == 5
    assert kernel == []


def test_kernel_annihilates():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        rank, kernel = exact_rank(m)
        assert rank + len(kernel) == cols
        for vec in kernel:
            for row in m.entries:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rank_matches_minor_expansion_exhaustive_2x2():
    vals = [F(v) for v in range(-2, 3)]
    for a, b, c, d in product(vals, repeat=4):
        m = ExactMatrix([[a, b], [c, d]])
        assert exact_rank(m)[0] == minor_expansion_rank(m)


def test_rank_matches_minor_expansion_sampled():
    # up to 4x4 with entries in {-2..2}: exhaustive enumeration is infeasible,
    # so 2x2 is exhaustive (above) and larger shapes are sampled
    rng = random.Random(11)
    for _ in range(120):
        rows = rng.randint(2, 4)
        cols = rng.randint(2, 4)
        m = mat([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        assert exact_rank(m)[0] == minor_expansion_rank(m) == bareiss_rank(m)


def test_char_poly_skew_3x3():
    m = mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert char_poly(m) == [F(1), F(0), F(1), F(0)]


def test_char_poly_skew_4x4():
    m = mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])
    assert char_poly(m) == [F(1), F(0), F(5), F(0), F(4)]


def test_char_poly_zero_matrix():
    m = ExactMatrix.zeros(4, 4)
    assert char_poly(m) == [F(1), F(0), F(0), F(0), F(0)]


def test_char_poly_nonsquare_rejected():
    with pytest.raises(ValueError):
        char_poly(ExactMatrix.zeros(2, 3))


def test_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        coeffs = char_poly(m)
        acc = ExactMatrix.zeros(n, n)
        power = ExactMatrix.identity(n)
        for c in reversed(coeffs):
            acc = acc + power.scale(c)
            power = power @ m
        assert acc == ExactMatrix.zeros(n, n)


def test_char_poly_conjugation_invariance():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 4)
        a = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        while True:
            x = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if bareiss_det(x) != 0:
                break
        conj = x @ a @ invert(x)
        assert char_poly(conj) == char_poly(a)


def test_char_poly_over_polynomial_domain():
    vars = ("u", "v")
    u = MultiPoly.gen(vars, 0)
    v = MultiPoly.gen(vars, 1)
    zero = MultiPoly.zero(vars)
    one = MultiPoly.const(vars, 1)
    m = ExactMatrix([[zero, u], [-u, zero]])
    coeffs = char_poly(m, one=one)
    assert coeffs == [one, zero, u * u]
    m2 = ExactMatrix([[u, v], [v, u]])
    assert char_poly(m2, one=one) == [one, -2 * u, u * u - v * v]


def test_bareiss_det_matches_minor_expansion():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert bareiss_det(m) == minor_expansion_det(m)


def test_invert_and_solve():
    m = mat([[2, 1], [1, 1]])
    assert invert(m) @ m == ExactMatrix.identity(2)
    x = solve(mat([[1, 2], [3, 4]]), [F(5), F(6)])
    assert x == [Fraction(-4), Fraction(9, 2)]
    assert solve(mat([[1, 1], [1, 1]]), [F(0), F(1)]) is None
    assert solve(mat([[1, 1], [2, 2]]), [F(3), F(6)]) is not None


def test_empty_matrix_rank():
    # 0 x 0, 3 x 0 and an all-zero matrix through rank, inverse and solve
    empty = ExactMatrix([])
    assert exact_rank(empty) == (0, [])
    assert invert(empty) == empty
    assert solve(empty, []) == []
    no_cols = ExactMatrix([[], [], []])
    assert (no_cols.rows, no_cols.cols) == (3, 0)
    assert exact_rank(no_cols) == (0, [])
    assert solve(no_cols, [F(0)] * 3) == []
    assert solve(no_cols, [F(0), F(1), F(0)]) is None
    zero = ExactMatrix.zeros(2, 3)
    rank, kernel = exact_rank(zero)
    assert rank == 0
    assert kernel == [[F(int(i == j)) for i in range(3)] for j in range(3)]


def _random_rational_matrix(rng, rows, cols, rank):
    """rows x cols with rank at most ``rank``: a product of random factors."""

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    left = ExactMatrix([[entry() for _ in range(rank)] for _ in range(rows)])
    right = ExactMatrix([[entry() for _ in range(cols)] for _ in range(rank)])
    if rank == 0:
        return ExactMatrix.zeros(rows, cols)
    return left @ right


def test_elimination_differential_random():
    # exact_rank, invert and solve share one elimination; each is checked
    # against an oracle that does not use it, on full-rank and deficient
    # rational matrices
    rng = random.Random(41)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_rational_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        rank, kernel = exact_rank(m)
        assert rank == minor_expansion_rank(m)
        assert rank + len(kernel) == cols
        if kernel:
            assert minor_expansion_rank(ExactMatrix(kernel)) == len(kernel)
        for vec in kernel:
            assert all(sum((a * b for a, b in zip(row, vec)), F(0)) == 0 for row in m.entries)
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        rhs = [sum((a * b for a, b in zip(row, x0)), F(0)) for row in m.entries]
        x = solve(m, rhs)
        assert x is not None
        assert [sum((a * b for a, b in zip(row, x)), F(0)) for row in m.entries] == rhs
        if rank < rows:
            # a right-hand side outside the column space
            for e in range(rows):
                bad = [F(int(i == e)) for i in range(rows)]
                aug = ExactMatrix([row + [b] for row, b in zip(m.entries, bad)])
                if minor_expansion_rank(aug) > rank:
                    assert solve(m, bad) is None
                    break
        if rows == cols:
            if minor_expansion_det(m) != 0:
                inv = invert(m)
                assert inv @ m == ExactMatrix.identity(rows)
                assert m @ inv == ExactMatrix.identity(rows)
            else:
                with pytest.raises(ValueError):
                    invert(m)


def test_integer_echelon_differential_random():
    # the echelon answers every rank in the package; it must agree with the
    # Gauss-Jordan rank and the fraction-free oracle on products of thin
    # random factors (mostly rank-deficient), with zero rows, on k x 0 and
    # 0 x k shapes, and on integer rows
    rng = random.Random(43)
    assert rank_of([]) == 0 and rank_of([[]] * 3) == 0
    for case in range(100):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _random_rational_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        entries = [list(row) for row in m.entries]
        for _ in range(rng.randint(0, 2) if rows else 0):
            entries[rng.randrange(rows)] = [F(0)] * cols
        m = ExactMatrix(entries)
        expected = exact_rank(m)[0]
        assert expected == bareiss_rank(m)
        assert rank_of(entries) == expected
        echelon = IntegerEchelon()
        for i, row in enumerate(entries):
            before = echelon.rank
            assert echelon.add(row) == (exact_rank(ExactMatrix(entries[: i + 1]))[0] > before)
        assert echelon.rank == expected
        denom = 144  # a multiple of every product of two denominators 1..4
        assert rank_of([[int(e * denom) for e in row] for row in entries]) == expected


def test_integer_echelon_rejects_non_rational_entries():
    with pytest.raises(TypeError):
        rank_of([[F(1), 0.5]])
    with pytest.raises(TypeError):
        IntegerEchelon().add([MultiPoly.gen(("u",), 0), F(1)])
    with pytest.raises(ValueError):
        rank_of([[1, 2], [1, 2, 3]])


def _exact_types(values):
    return all(type(v) in (int, Fraction) for v in values)


def test_integer_entries_stay_exact():
    # int entries go through the same integer echelon as Fraction ones:
    # no float division, and ranks beyond 53-bit precision are exact
    big = ExactMatrix([[10**17 + 1, 10**17], [10**17, 10**17 - 1]])
    assert exact_rank(big) == (2, [])
    inv = invert(big)
    assert inv.entries == [[-(10**17 - 1), 10**17], [10**17, -(10**17 + 1)]]
    inv = invert(ExactMatrix([[1, 2], [3, 4]]))
    assert inv.entries == [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
    assert _exact_types(e for row in inv.entries for e in row)
    x = solve(ExactMatrix([[1, 2], [3, 4]]), [5, 6])
    assert x == [-4, Fraction(9, 2)] and _exact_types(x)
    rank, kernel = exact_rank(ExactMatrix([[1, 2, 3], [2, 4, 7]]))
    assert (rank, kernel) == (2, [[-2, 1, 0]]) and _exact_types(kernel[0])
    for call in (exact_rank, invert, lambda m: solve(m, [1, 2])):
        with pytest.raises(TypeError):
            call(ExactMatrix([[1.0, 2], [3, 4]]))


def _height_matrix(rng, rows, cols, rank, kind, height=10**6):
    """rows x cols of rank ``rank`` (full or planted-deficient): ``rank``
    random rows of the given height, the others small integer combinations
    of them, shuffled in."""

    def entry():
        num = rng.randint(-height, height)
        return num if kind is int else Fraction(num, rng.randint(1, height))

    base = [[entry() for _ in range(cols)] for _ in range(rank)]
    out = list(base)
    while len(out) < rows:
        coeffs = [rng.randint(-3, 3) for _ in base]
        out.append([sum((c * row[j] for c, row in zip(coeffs, base)), kind(0)) for j in range(cols)])
    rng.shuffle(out)
    return ExactMatrix(out)


def test_elimination_matches_sympy_at_cayley_size():
    # differential test against sympy's rank, RREF nullspace, inverse and
    # Gauss-Jordan solve on the shapes the Cayley chart inverts (6 x 6 and
    # its 6 x 12 augmentation) with entries of height 10^6
    sympy = pytest.importorskip("sympy")

    def from_sympy(v):
        return Fraction(int(v.p), int(v.q))

    rng = random.Random(47)
    for rows, cols in ((6, 6), (6, 12)):
        for kind in (int, Fraction):
            for planted in (6, 4, 4):
                m = _height_matrix(rng, rows, cols, planted, kind)
                sm = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in m.entries])
                rank, kernel = exact_rank(m)
                assert rank == sm.rank() == planted
                assert kernel == [[from_sympy(v) for v in vec] for vec in sm.nullspace()]
                x0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
                rhs = [sum((a * b for a, b in zip(row, x0)), Fraction(0)) for row in m.entries]
                sol, params = sm.gauss_jordan_solve(sympy.Matrix([sympy.Rational(b.numerator, b.denominator) for b in rhs]))
                particular = sol.subs({t: 0 for t in params})
                assert solve(m, rhs) == [from_sympy(v) for v in particular]
                if planted < rows:
                    bad = [Fraction(rng.randint(1, 9)) for _ in range(rows)]
                    with pytest.raises(ValueError):
                        sm.gauss_jordan_solve(sympy.Matrix(bad))
                    assert solve(m, bad) is None
                if rows == cols:
                    if planted == rows:
                        assert invert(m).entries == [[from_sympy(v) for v in sm.inv().row(i)] for i in range(rows)]
                    else:
                        with pytest.raises(ValueError):
                            invert(m)
