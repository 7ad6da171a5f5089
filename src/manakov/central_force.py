"""Classical integrable sets for rotation-invariant systems on T*R^n.

Covers the angular-momentum family (H, P^2; L), the Runge-Lenz extension of
the 1/r potential, the isotropic-oscillator and f(P^2) sets, and the
recursive coordinate-splitting construction that realizes every central
count k = 2..n, with the catalog rows for n = 4 and n = 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .brackets import LiePoissonPoly, PhasePoly, canonical_bracket
from .charts import CotangentChart, MomentumPullback, generic_full_rank, involution_report, momentum_table
from .radical import RadicalElement, check_axis
from .report import VerificationReport
from .son import pair_list


def momentum(n, i, j) -> PhasePoly:
    """P_ij = x_i p_j - x_j p_i, shared (``charts.momentum_table``): callers
    must not mutate it."""
    check_axis(n, i)
    check_axis(n, j)
    return momentum_table(n)[i, j]


def momenta(n):
    """All N = n(n-1)/2 momenta in lexicographic pair order."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [momentum_table(n)[pair] for pair in pair_list(n)]


def p_squared(n, subset=None) -> PhasePoly:
    """Sum of P_ij^2 over pairs inside ``subset`` (default: all
    coordinates): the phase of that square item, shared."""
    subset = tuple(sorted(subset)) if subset is not None else tuple(range(1, n + 1))
    if any(not 1 <= i <= n for i in subset):
        raise ValueError("subset index out of range")
    return item_function(n, ("square", subset)).phase


def kinetic(n) -> PhasePoly:
    return sum((PhasePoly.momentum(n, i) ** 2 for i in range(1, n + 1)), PhasePoly.zero(n))


def r_squared(n) -> PhasePoly:
    return sum((PhasePoly.coordinate(n, i) ** 2 for i in range(1, n + 1)), PhasePoly.zero(n))


def inverse_radius(n) -> PhasePoly:
    return PhasePoly.const(n, RadicalElement.radius(n).inverse())


def runge_lenz_vector(n, alpha):
    """A_i = sum_j P_ij p_j - alpha x_i / r, for i = 1..n."""
    alpha = Fraction(alpha)
    rinv = RadicalElement.radius(n).inverse()
    out = []
    for i in range(1, n + 1):
        a = sum(
            (momentum(n, i, j) * PhasePoly.momentum(n, j) for j in range(1, n + 1) if j != i),
            PhasePoly.zero(n),
        )
        a = a - PhasePoly.const(n, rinv * alpha) * PhasePoly.coordinate(n, i)
        out.append(a)
    return out


def kepler_hamiltonian(n, alpha) -> PhasePoly:
    return Fraction(1, 2) * kinetic(n) - Fraction(alpha) * inverse_radius(n)


def oscillator_hamiltonian(n) -> PhasePoly:
    return Fraction(1, 2) * (kinetic(n) + r_squared(n))


@lru_cache(maxsize=None)
def generic_hamiltonian(n) -> PhasePoly:
    """A concrete f(p^2, r, P^2) instance with all three slots active,
    built once per n and shared: callers must not mutate it."""
    return Fraction(1, 2) * kinetic(n) + r_squared(n) + p_squared(n)


@dataclass
class IntegrableSetSpec:
    """A candidate integrable set: the central elements first, then the rest.

    Each function is a PhasePoly or, for an angular-momentum item, its
    ``MomentumPullback`` (see ``item_function``).  ``labels`` name the
    functions in display order (central then noncentral).  Verification
    status lives only in reports produced by ``verify_integrable_set``.
    """

    n: int
    central: list
    noncentral: list
    labels: list
    label: str
    k: int = field(init=False)

    def __post_init__(self):
        self.k = len(self.central)
        if len(self.labels) != len(self.central) + len(self.noncentral):
            raise ValueError("one label per function required")

    @property
    def functions(self):
        return list(self.central) + list(self.noncentral)

    @property
    def size(self):
        return len(self.central) + len(self.noncentral)


def pair_label(i, j):
    return f"P{i}{j}" if max(i, j) < 10 else f"P{i}_{j}"


def subset_label(subset):
    return "P2_(" + "".join(str(i) for i in sorted(subset)) + ")"


# -- recursive splitting construction ----------------------------------------


@dataclass(frozen=True)
class SplitTree:
    """Binary splitting of a coordinate subset; a node without children is a
    stopped subset contributing its total square and a default momentum list."""

    indices: tuple
    children: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))
        if self.children is not None:
            left, right = self.children
            if set(left.indices) & set(right.indices):
                raise ValueError("children overlap")
            if set(left.indices) | set(right.indices) != set(self.indices):
                raise ValueError("children do not partition the node")

    @classmethod
    def leaf(cls, indices):
        return cls(tuple(indices))

    @classmethod
    def split(cls, left, right):
        lt = left if isinstance(left, SplitTree) else cls.leaf(left)
        rt = right if isinstance(right, SplitTree) else cls.leaf(right)
        return cls(tuple(lt.indices + rt.indices), (lt, rt))

    def depth(self):
        if self.children is None:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def describe(self):
        if self.children is None:
            return "{" + ",".join(map(str, self.indices)) + "}"
        return "(" + "|".join(c.describe() for c in self.children) + ")"


def default_momentum_choice(subset):
    """2m-4 momenta of an m-element subset: pairs (s1, sj) and (s2, sj), j >= 3."""
    s = sorted(subset)
    out = [(s[0], j) for j in s[2:]]
    out += [(s[1], j) for j in s[2:]]
    return out


def recursive_set_structure(n, tree: SplitTree):
    """Structural description of the central set Z and momentum list L.

    Returns (z_items, l_items) where each item is ("square", subset) or
    ("pair", (i, j)).  A stopped subset of size >= 3 contributes its total
    momentum square plus 2m-4 momenta; a pair subset contributes the single
    momentum P_ij (splitting a pair is ineffective and treated as stopping);
    singletons contribute nothing.
    """
    if set(tree.indices) != set(range(1, n + 1)):
        raise ValueError("tree must partition {1..n}")

    def walk(node):
        idx = node.indices
        m = len(idx)
        if m == 1:
            return [], []
        if m == 2 or node.children is None:
            if m == 2:
                return [("pair", idx)], []
            lpairs = default_momentum_choice(idx)
            return [("square", idx)], [("pair", p) for p in lpairs]
        left, right = node.children
        z1, l1 = walk(left)
        z2, l2 = walk(right)
        return [("square", idx)] + z1 + z2, l1 + l2

    z_items, l_items = walk(tree)
    expected_l = 2 * (n - len(z_items) - 1)
    if len(l_items) != expected_l:
        raise AssertionError(f"momentum list size {len(l_items)} != {expected_l}")
    return z_items, l_items


def item_label(n, item):
    kind, data = item
    if kind == "pair":
        return pair_label(*data)
    return "P2" if len(data) == n else subset_label(data)


@lru_cache(maxsize=None)
def item_function(n, item) -> MomentumPullback:
    """The item as a polynomial on so(n)* pulled back by the momentum map:
    P_ij for ("pair", (i, j)) and the sum of the P_ij^2 inside the subset
    for ("square", subset).  Built once per (n, item) and shared by every
    set and tree the item is in."""
    kind, data = item
    if kind == "pair":
        return MomentumPullback(LiePoissonPoly.gen(n, data))
    s = sorted(data)
    squares = (LiePoissonPoly.gen(n, (a, b)) ** 2 for k, a in enumerate(s) for b in s[k + 1 :])
    return MomentumPullback(sum(squares, LiePoissonPoly.zero(n)))


def item_set_spec(n, central_items, noncentral_items, label) -> IntegrableSetSpec:
    """The generic Hamiltonian followed by the central items, then the
    noncentral items, each a ("pair", (i, j)) or ("square", subset)."""
    return IntegrableSetSpec(
        n=n,
        central=[generic_hamiltonian(n)] + [item_function(n, it) for it in central_items],
        noncentral=[item_function(n, it) for it in noncentral_items],
        labels=["H"] + [item_label(n, it) for it in central_items + noncentral_items],
        label=label,
    )


def recursive_set_spec(n, tree) -> IntegrableSetSpec:
    """The set of a splitting of {1..n}; see recursive_set_structure."""
    return item_set_spec(n, *recursive_set_structure(n, tree), f"split {tree.describe()}")


def all_split_trees(indices, max_depth):
    """Every splitting tree on the given index set up to the given depth.

    Pair subsets are not split (ineffective); deduplication is by structure.
    """
    indices = tuple(sorted(indices))
    out = [SplitTree.leaf(indices)]
    if max_depth == 0 or len(indices) <= 2:
        return out
    rest = indices[1:]
    first = indices[0]
    for mask in range(2 ** len(rest) - 1):
        left = [first] + [v for k, v in enumerate(rest) if mask >> k & 1]
        right = [v for k, v in enumerate(rest) if not mask >> k & 1]
        for lt in all_split_trees(left, max_depth - 1):
            for rt in all_split_trees(right, max_depth - 1):
                out.append(SplitTree(indices, (lt, rt)))
    return out


# -- the four closed-form families -------------------------------------------


def catalog(n, family, alpha=None) -> IntegrableSetSpec:
    """The integrable sets attached to the four closed-form Hamiltonian
    families: generic f(p^2, r, P^2), the 1/r potential, the isotropic
    oscillator, and f(P^2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    whole = ("square", tuple(range(1, n + 1)))
    l_items = [("pair", p) for p in default_momentum_choice(range(1, n + 1))]
    l_funcs = [item_function(n, it) for it in l_items]
    l_labels = [item_label(n, it) for it in l_items]
    if family == "generic_f":
        return item_set_spec(n, [whole], l_items, f"n={n} generic rotation-invariant family")
    if family == "kepler":
        if alpha is None:
            raise ValueError("the 1/r family needs a rational coupling alpha")
        h = kepler_hamiltonian(n, alpha)
        a1 = runge_lenz_vector(n, alpha)[0]
        return IntegrableSetSpec(
            n=n,
            central=[h],
            noncentral=[item_function(n, whole)] + l_funcs + [a1],
            labels=["H", "P2"] + l_labels + ["A1"],
            label=f"n={n} 1/r potential, alpha={alpha}",
        )
    if family == "oscillator":
        h = oscillator_hamiltonian(n)
        his = [
            Fraction(1, 2)
            * (PhasePoly.momentum(n, i) ** 2 + PhasePoly.coordinate(n, i) ** 2)
            for i in range(1, n)
        ]
        p1js = [item_function(n, ("pair", (1, j))) for j in range(2, n + 1)]
        return IntegrableSetSpec(
            n=n,
            central=[h],
            noncentral=his + p1js,
            labels=["H"]
            + [f"H{i}" for i in range(1, n)]
            + [pair_label(1, j) for j in range(2, n + 1)],
            label=f"n={n} isotropic oscillator",
        )
    if family == "f_of_P2":
        return IntegrableSetSpec(
            n=n,
            central=[item_function(n, whole)],
            noncentral=[kinetic(n), PhasePoly.radius(n)] + l_funcs,
            labels=["P2", "p2", "r"] + l_labels,
            label=f"n={n} f(P^2) family",
        )
    raise ValueError(f"unknown family {family!r}")


# -- verification -------------------------------------------------------------


def verify_integrable_set(spec: IntegrableSetSpec, rng, points=3) -> VerificationReport:
    """Exact involution of the central subset against the whole set, plus
    Jacobian rank = set size at randomly sampled chart points."""
    report = involution_report(
        spec.central,
        spec.functions,
        labels_a=spec.labels[: spec.k],
        labels_b=spec.labels,
        anchor="central-force/involution",
        id_prefix=f"{spec.label}/involution",
    )
    for s in range(points):
        ok, witness = generic_full_rank(spec.functions, lambda r: CotangentChart.random(spec.n, r), rng)
        report.add(
            f"{spec.label}/rank/sample{s}",
            "central-force/independence",
            ok,
            witness=witness,
            generic=True,
        )
    return report


def runge_lenz_check(n, alpha) -> VerificationReport:
    """{H, A_i} = 0 for every component and A^2 = 2 P^2 H + alpha^2, exactly."""
    alpha = Fraction(alpha)
    h = kepler_hamiltonian(n, alpha)
    a = runge_lenz_vector(n, alpha)
    report = VerificationReport()
    anchor = "central-force/conserved-vector"
    for i, ai in enumerate(a, start=1):
        report.add_zero(f"runge-lenz/{{H,A{i}}}", anchor, canonical_bracket(h, ai))
    a2 = sum((ai * ai for ai in a), PhasePoly.zero(n))
    report.add_zero("runge-lenz/square-identity", anchor, a2 - (2 * p_squared(n) * h + alpha * alpha))
    return report


# -- catalog tables for n = 4 and n = 5 ---------------------------------------


def table_rows(n):
    """The verified catalog rows for n = 4 (4 rows) and n = 5 (7 rows)."""
    whole = ("square", tuple(range(1, n + 1)))
    s123, s1234 = ("square", (1, 2, 3)), ("square", (1, 2, 3, 4))

    def pairs(*ps):
        return [("pair", p) for p in ps]

    if n == 4:
        rows = [
            ([whole], pairs((1, 3), (1, 4), (2, 3), (2, 4))),
            ([whole, s123], pairs((1, 2), (1, 3))),
            ([whole, s123, *pairs((1, 2))], []),
            ([whole, *pairs((1, 2), (3, 4))], []),
        ]
    elif n == 5:
        rows = [
            ([whole], pairs((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
            ([whole, s1234], pairs((1, 3), (1, 4), (2, 3), (2, 4))),
            ([whole, s1234, s123], pairs((1, 3), (2, 3))),
            ([whole, s1234, s123, *pairs((1, 2))], []),
            ([whole, s1234, *pairs((1, 2), (3, 4))], []),
            ([whole, s123, *pairs((4, 5))], pairs((1, 2), (1, 3))),
            ([whole, s123, *pairs((4, 5), (1, 2))], []),
        ]
    else:
        raise ValueError("catalog tables cover n = 4 and n = 5")
    return [item_set_spec(n, z, l, f"n={n} row {k}") for k, (z, l) in enumerate(rows, start=1)]


def emit_tables(n, rng, points=3):
    """Catalog rows together with a verification report for each row."""
    rows = []
    for spec in table_rows(n):
        report = verify_integrable_set(spec, rng, points=points)
        rows.append((spec, report))
    return rows
