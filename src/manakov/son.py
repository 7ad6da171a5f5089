"""The Lie algebra so(n): basis matrices, brackets, adjoint kernels,
Casimir sets, and exact rational points on SO(n) via the Cayley map.

This module holds the so(n) conventions for the whole package.  Index pairs
(i, j) are 1-based with i < j throughout, ordered lexicographically:
(1,2) < (1,3) < ... < (n-1,n); the position of (i, j) in that order is its
pair index.  An ordered pair with i > j names minus the basis element of
(j, i) (``signed_pair``), and ``structure_table`` holds the bracket of every
two basis elements; the matrix bracket, the Lie-Poisson bracket of the
momenta (through its rows, ``structure_rows``) and the PBW normal ordering
all read their constants from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .linalg import ExactMatrix, char_poly, invert, rank_of
from .ratfunc import MultiPoly, RationalFunction, add_terms, declare_factors


class DegenerateSampleError(ValueError):
    """A genericity precondition failed for the sampled data; resample."""


@lru_cache(maxsize=None)
def pair_list(n):
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def pair_index(n):
    return {p: k for k, p in enumerate(pair_list(n))}


@lru_cache(maxsize=None)
def signed_pair(n, i, j):
    """(pair index, sign) of the ordered pair (i, j): the basis element
    D^{ij}, or the momentum P_ij, is sign times the one at that index.
    None when i = j, where both vanish."""
    if i == j:
        return None
    if i < j:
        return pair_index(n)[(i, j)], 1
    return pair_index(n)[(j, i)], -1


def dim_so(n):
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def structure_table(n):
    """{(u, v): (w, sign)} with u < v pair indices and [e_u, e_v] = sign * e_w.

    Encodes [D^ij, D^hk] = -d_ih D^jk - d_jk D^ih + d_ik D^jh + d_jh D^ik,
    which is also {P_ij, P_hk} for the left momenta; at most one delta fires
    for distinct ordered pairs.  Pairs whose bracket vanishes are absent.
    """
    plist = pair_list(n)
    table = {}
    for u in range(len(plist)):
        i, j = plist[u]
        for v in range(u + 1, len(plist)):
            h, k = plist[v]
            deltas = ((i == h, -1, j, k), (j == k, -1, i, h), (i == k, 1, j, h), (j == h, 1, i, k))
            acc = {}
            for fires, sgn, a, b in deltas:
                sp = signed_pair(n, a, b) if fires else None
                if sp is not None:
                    w, s = sp
                    add_terms(acc, ((w, sgn * s),))
            if acc:
                ((w, s),) = acc.items()
                table[(u, v)] = (w, s)
    return table


@lru_cache(maxsize=None)
def structure_rows(n):
    """``structure_table`` by first index: entry u is the tuple of
    (v, w, sign) over every v with [e_u, e_v] = sign * e_w, v < u included."""
    rows = [[] for _ in pair_list(n)]
    for (u, v), (w, s) in structure_table(n).items():
        rows[u].append((v, w, s))
        rows[v].append((u, w, -s))
    return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=None)
def bracket_matrix(n):
    """``structure_table`` over all ordered pairs, for lookups in the PBW
    kernels: entry [u][v] is (w, sign) with [e_u, e_v] = sign * e_w, or None."""
    rows = [[None] * dim_so(n) for _ in range(dim_so(n))]
    for (u, v), (w, s) in structure_table(n).items():
        rows[u][v], rows[v][u] = (w, s), (w, -s)
    return tuple(map(tuple, rows))


class SkewMatrix:
    """Skew-symmetric n x n matrix storing only the strictly upper triangle."""

    __slots__ = ("n", "upper")

    def __init__(self, n, upper=None):
        self.n = n
        self.upper = {}
        if upper:
            for (i, j), c in upper.items():
                if not 1 <= i < j <= n:
                    raise ValueError(f"bad index pair {(i, j)} for n={n}")
                if c != 0:
                    self.upper[(i, j)] = c

    def get(self, i, j):
        sp = signed_pair(self.n, i, j)
        if sp is None:
            return Fraction(0)
        k, s = sp
        c = self.upper.get(pair_list(self.n)[k])
        return Fraction(0) if c is None else s * c

    def coords(self, n_pairs=None):
        """Coordinates in the D^{ij} basis, ordered by pair_list."""
        return [self.upper.get(p, Fraction(0)) for p in (n_pairs or pair_list(self.n))]

    def to_dense(self, zero=Fraction(0)):
        n = self.n
        out = [[zero] * n for _ in range(n)]
        for (i, j), c in self.upper.items():
            out[i - 1][j - 1] = c
            out[j - 1][i - 1] = -c
        return ExactMatrix(out)

    @classmethod
    def from_dense(cls, m: ExactMatrix):
        """The skew matrix read off the upper triangle of ``m``, which the
        caller guarantees is skew-symmetric (a conjugate of one)."""
        n = m.rows
        upper = {}
        for i in range(n):
            for j in range(i + 1, n):
                upper[(i + 1, j + 1)] = m.entries[i][j]
        return cls(n, upper)

    def __add__(self, other):
        self._check(other)
        return SkewMatrix(self.n, add_terms(dict(self.upper), other.upper.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SkewMatrix(self.n, {p: v * c for p, v in self.upper.items()})

    __neg__ = lambda self: self.scale(-1)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch between skew matrices")

    def __eq__(self, other):
        return isinstance(other, SkewMatrix) and self.n == other.n and self.upper == other.upper

    def is_zero(self):
        return not self.upper

    def __str__(self):
        return str(self.to_dense())

    __repr__ = __str__


def basis_element(n, i, j) -> SkewMatrix:
    """D^{ij} with entries (i,j) = +1, (j,i) = -1; D^{ji} = -D^{ij}."""
    if i == j:
        raise ValueError("basis element needs distinct indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices {(i, j)} out of range 1..{n}")
    k, s = signed_pair(n, i, j)
    return SkewMatrix(n, {pair_list(n)[k]: Fraction(s)})


def bracket(a: SkewMatrix, b: SkewMatrix) -> SkewMatrix:
    """Matrix commutator ab - ba, expanded bilinearly over the structure
    table; the result's pairs are in lexicographic order."""
    a._check(b)
    n = a.n
    plist = pair_list(n)
    pidx = pair_index(n)
    table = bracket_matrix(n)
    acc = {}
    for p, x in a.upper.items():
        row = table[pidx[p]]
        for q, y in b.upper.items():
            hit = row[pidx[q]]
            if hit is not None:
                w, s = hit
                add_terms(acc, ((w, x * y * s),))
    return SkewMatrix(n, {plist[w]: acc[w] for w in sorted(acc)})


def ad_matrix(a: SkewMatrix, domain_pairs=None, image_pairs=None) -> ExactMatrix:
    """Matrix of B -> [a, B] in the D^{ij} basis.

    Columns range over ``domain_pairs`` and rows over ``image_pairs``
    (defaults: all of so(n) for both).
    """
    n = a.n
    domain_pairs = tuple(domain_pairs) if domain_pairs is not None else pair_list(n)
    image_pairs = tuple(image_pairs) if image_pairs is not None else pair_list(n)
    cols = []
    for (h, k) in domain_pairs:
        br = bracket(a, basis_element(n, h, k))
        cols.append([br.upper.get(p, Fraction(0)) for p in image_pairs])
    return ExactMatrix([[cols[c][r] for c in range(len(domain_pairs))] for r in range(len(image_pairs))])


def ad_kernel_dim(a: SkewMatrix) -> int:
    """dim of the commutant {B in so(n) : [a, B] = 0}."""
    return dim_so(a.n) - rank_of(ad_matrix(a).entries)


def casimir_set(a: SkewMatrix, one=Fraction(1)):
    """Coefficients (C_1, ..., C_s) of det(tE - a) at t^{n-2}, t^{n-4}, ...

    The odd-shift coefficients of a skew matrix vanish identically; a nonzero
    one means the input was not skew and raises ValueError.
    """
    n = a.n
    zero = one * 0
    coeffs = char_poly(a.to_dense(zero=zero), one=one)
    out = []
    for shift in range(1, n + 1):
        c = coeffs[shift]
        if shift % 2 == 1:
            if c != 0:
                raise ValueError("odd characteristic coefficient nonzero: input not skew")
        else:
            out.append(c)
    return out


def cayley_orthogonal(s: SkewMatrix) -> ExactMatrix:
    """X = (I - S)(I + S)^{-1}, an exact special-orthogonal matrix."""
    n = s.n
    dense = s.to_dense()
    eye = ExactMatrix.identity(n)
    try:
        inv = invert(eye + dense)
    except ValueError:
        raise DegenerateSampleError("I + S singular in the Cayley map; resample S")
    return (eye - dense) @ inv


def right_from_left(x: ExactMatrix, pl: SkewMatrix) -> SkewMatrix:
    """Conjugate a left-momentum value to the right one: X PL X~."""
    if x.transpose() @ x != ExactMatrix.identity(x.rows):
        raise ValueError("conjugating matrix is not orthogonal")
    return SkewMatrix.from_dense(x @ pl.to_dense() @ x.transpose())


# -- moments of inertia -------------------------------------------------------


def _moment_vars(names):
    """Declare the moment denominators over ``names``: v_i + v_j (i < j), from
    the Hamiltonian and its flow, and v_i, from 2 v_i in equal-moment classes."""
    singles = [MultiPoly.gen(names, i) for i in range(len(names))]
    declare_factors(names, [a + b for a, b in combinations(singles, 2)] + singles)
    return names


@lru_cache(maxsize=None)
def lambda_vars(n):
    return _moment_vars(tuple(f"l{i}" for i in range(1, n + 1)))


@lru_cache(maxsize=None)
def mu_vars(u):
    return _moment_vars(tuple(f"mu{i}" for i in range(1, u + 1)))


@dataclass(frozen=True)
class MomentSpec:
    """Generalized moments of inertia and the derived multiplicity data.

    ``lambdas`` holds the n moment values, either exact rationals or symbols
    (rational functions over a generator tuple).  ``classes`` groups the
    1-based indices carrying equal values; ``q`` is the sorted multiset of
    class sizes, ``u`` the number of classes and ``d`` the number of odd
    multiplicities.
    """

    n: int
    lambdas: tuple
    classes: tuple
    q: tuple
    u: int
    d: int

    @classmethod
    def from_lambdas(cls, values):
        values = tuple(values)
        n = len(values)
        classes = []
        reps = []
        for i, v in enumerate(values, start=1):
            for k, rep in enumerate(reps):
                if v == rep:
                    classes[k].append(i)
                    break
            else:
                reps.append(v)
                classes.append([i])
        for v in values:
            if isinstance(v, (int, Fraction)) and v <= 0:
                raise ValueError("moments of inertia must be positive")
        classes = tuple(tuple(c) for c in classes)
        q = tuple(sorted(len(c) for c in classes))
        d = sum(1 for s in q if s % 2 == 1)
        return cls(n=n, lambdas=values, classes=classes, q=q, u=len(classes), d=d)

    @classmethod
    def symbolic(cls, n):
        """All moments distinct symbols l1..ln."""
        vars = lambda_vars(n)
        return cls.from_lambdas(tuple(RationalFunction.gen(vars, i) for i in range(n)))

    @classmethod
    def from_partition(cls, q):
        """Symbolic moments with the given multiplicities (one symbol per class)."""
        q = tuple(q)
        vars = mu_vars(len(q))
        values = []
        for k, size in enumerate(q):
            values.extend([RationalFunction.gen(vars, k)] * size)
        return cls.from_lambdas(tuple(values))

    @classmethod
    def from_partition_values(cls, q, mus):
        q = tuple(q)
        if len(set(mus)) != len(mus):
            raise ValueError("class values must be pairwise distinct")
        values = []
        for size, mu in zip(q, mus):
            values.extend([Fraction(mu)] * size)
        return cls.from_lambdas(tuple(values))

    # every manakov_coefficient memo lookup hashes its spec, and the moments
    # (symbolic ones above all) are dear to hash, so hash them once; the
    # other fields follow from the moments
    @cached_property
    def _hash(self):
        return hash(self.lambdas)

    def __hash__(self):
        return self._hash

    @property
    def is_symbolic(self):
        return any(not isinstance(v, (int, Fraction)) for v in self.lambdas)

    def coeff_one(self):
        for v in self.lambdas:
            if isinstance(v, RationalFunction):
                return RationalFunction.const(v.vars, 1)
        return Fraction(1)

    def equal_moment_pairs(self):
        """I^lambda: pairs (i, j), i < j, with equal moments."""
        out = []
        for c in self.classes:
            for a in range(len(c)):
                for b in range(a + 1, len(c)):
                    out.append((c[a], c[b]))
        return tuple(sorted(out))


def sigma_triple(a: SkewMatrix, spec: MomentSpec):
    """Kernel dimensions of the three projected adjoint operators.

    With g = so(n), g^lambda the block subalgebra of equal-moment pairs and
    pi the orthogonal projection onto it, returns
    (dim ker(pi o ad_a), dim ker(pi o ad_a restricted to g^lambda),
     dim ker(ad_a restricted to g^lambda)).
    """
    if a.n != spec.n:
        raise ValueError("dimension mismatch between matrix and moment spec")
    n = a.n
    all_pairs = pair_list(n)
    lam_pairs = spec.equal_moment_pairs()
    r1 = rank_of(ad_matrix(a, domain_pairs=all_pairs, image_pairs=lam_pairs).entries)
    sigma1 = dim_so(n) - r1
    if lam_pairs:
        r2 = rank_of(ad_matrix(a, domain_pairs=lam_pairs, image_pairs=lam_pairs).entries)
        r3 = rank_of(ad_matrix(a, domain_pairs=lam_pairs, image_pairs=all_pairs).entries)
    else:
        r2 = r3 = 0
    sigma2 = len(lam_pairs) - r2
    sigma3 = len(lam_pairs) - r3
    return sigma1, sigma2, sigma3


# -- randomized sampling -----------------------------------------------------


def random_rational(rng, bound=10**6) -> Fraction:
    # nonzero numerator: a zero entry is exactly the kind of degeneracy
    # "typical point" sampling is meant to avoid
    num = rng.randint(1, bound) * (1 if rng.random() < 0.5 else -1)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_skew(n, rng, bound=10**6) -> SkewMatrix:
    return SkewMatrix(n, {p: random_rational(rng, bound) for p in pair_list(n)})


def retry_generic(fn, rng, attempts=8):
    """Run ``fn(rng)`` until it stops raising DegenerateSampleError.

    Genericity failures have probability zero at random rational data, so
    more than ``attempts`` consecutive failures signal a bug rather than bad
    luck and are re-raised.
    """
    for _ in range(attempts):
        try:
            return fn(rng)
        except DegenerateSampleError:
            continue
    raise DegenerateSampleError(f"genericity failure persisted across {attempts} samples")
