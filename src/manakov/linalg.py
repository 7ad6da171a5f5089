"""Exact dense linear algebra over rationals, rational functions or any
commutative Q-algebra.

Every elimination over Q is one echelon of integer rows (``IntegerEchelon``),
grown one row at a time so that a greedy search for independent functions adds
each candidate row once.  Ranks (``rank_of``) read its size; kernels
(``exact_rank``), inverses and solutions read the reduced form that back
substitution gives from it.  Their entries must be ``int`` or ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ExactMatrix:
    """Rectangular matrix with entries in one shared exact domain."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        zero = one * 0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols, zero=Fraction(0)):
        return cls([[zero] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def __add__(self, other):
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c):
        return ExactMatrix([[e * c for e in row] for row in self.entries])

    def transpose(self):
        return ExactMatrix([list(col) for col in zip(*self.entries)]) if self.rows else self

    def trace(self):
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)

    __repr__ = __str__


class IntegerEchelon:
    """Echelon basis over Q of the rows added so far.

    Each kept row is a primitive integer vector (its entries have gcd 1),
    paired with its pivot: its first nonzero column, where every row kept
    after it is zero.  ``add`` clears an incoming row's denominators, reduces
    it against the kept rows in the order they were kept, by
    cross-multiplication, and keeps it when something is left.  Entries must
    be ``int`` or ``Fraction``.
    """

    __slots__ = ("rows", "width")

    def __init__(self):
        self.rows = []
        self.width = None

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row) -> bool:
        """Add one row; True when it is independent of the kept rows,
        that is, when the rank rose."""
        v = _integer_row(row)
        if self.width is None:
            self.width = len(v)
        elif len(v) != self.width:
            raise ValueError("ragged matrix")
        for c, p in self.rows:
            a = v[c]
            if a:
                b = p[c]
                g = gcd(a, b)
                a, b = a // g, b // g
                v = [b * x - a * y for x, y in zip(v, p)]
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        g = gcd(*v)
        self.rows.append((c, [x // g for x in v]))
        return True


def _integer_row(row):
    """The row times the least common denominator of its entries."""
    row = list(row)
    for e in row:
        if not isinstance(e, (int, Fraction)):
            raise TypeError(f"integer echelon needs int or Fraction entries, got {type(e).__name__}")
    denom = lcm(*(e.denominator for e in row))
    return [e.numerator * (denom // e.denominator) for e in row]


def rank_of(rows) -> int:
    """Exact rank over Q of a matrix given as rows of ``int``/``Fraction``."""
    echelon = IntegerEchelon()
    for row in rows:
        echelon.add(row)
    return echelon.rank


def _reduced_rows(rows):
    """The reduced row echelon form over Q of ``int``/``Fraction`` rows, as
    {pivot column: row}.

    The rows go through one ``IntegerEchelon``; back substitution in reverse
    keep order then clears every other pivot column, because a kept row is
    zero at the pivots of the rows kept before it.  Every row echelon form
    of a matrix has the same pivot columns, so this is the reduced form.
    """
    echelon = IntegerEchelon()
    for row in rows:
        echelon.add(row)
    reduced = {}
    for c, p in reversed(echelon.rows):
        row = [Fraction(x, p[c]) for x in p]
        for d, later in reduced.items():
            f = row[d]
            if f:
                row = [a - f * b for a, b in zip(row, later)]
        reduced[c] = row
    return reduced


def exact_rank(m: ExactMatrix):
    """Rank and an exact kernel basis over Q; entries must be ``int`` or
    ``Fraction``.

    Returns ``(rank, kernel)`` where ``kernel`` is a list of column vectors
    (plain lists), one per non-pivot column: 1 there, 0 at the other
    non-pivot columns.  rank + len(kernel) is the number of columns.
    """
    reduced = _reduced_rows(m.entries)
    kernel = []
    for free in range(m.cols):
        if free in reduced:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for c, row in reduced.items():
            vec[c] = -row[free]
        kernel.append(vec)
    return len(reduced), kernel


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse over Q from the reduced form of [m | I]; raises
    ValueError if singular, that is, if a pivot lands in the I block."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    reduced = _reduced_rows(row + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries))
    if any(c >= n for c in reduced):
        raise ValueError("singular matrix")
    return ExactMatrix([reduced[c][n:] for c in range(n)])


def solve(m: ExactMatrix, rhs):
    """One exact solution of m @ x = rhs over Q, 0 at every non-pivot column,
    from the reduced form of [m | rhs]; None if inconsistent, that is, if a
    pivot lands in the rhs column."""
    cols = m.cols
    reduced = _reduced_rows(row + [b] for row, b in zip(m.entries, rhs, strict=True))
    if cols in reduced:
        return None
    x = [Fraction(0)] * cols
    for c, row in reduced.items():
        x[c] = row[cols]
    return x
