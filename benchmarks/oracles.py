"""Correctness oracles for the benchmark, computed apart from the manakov package.

Each oracle reads one output of the command line (a JSON report, a table, a
trajectory) and re-derives the claims it makes with arithmetic of its own:

- central force: sympy sparse polynomials in (x, p, R = |x|, S = 1/|x|),
  evaluated at seeded rational phase-space points with rational |x|; the
  bracket is {f, g} = sum_i df/dp_i dg/dx_i - df/dx_i dg/dp_i, so that
  {p_i, x_j} = delta_ij.  Weyl operators act on a seeded polynomial test
  function with p-hat = d/dx.
- classical rigid body: the integrals c_{k,k-2l} = 1/(4l) [z^(k-2l)] tr((M D(z))^(2l)),
  D(z) = diag(1/(1 - z l_i^2)), with gradients from truncated power series, and
  Lie-Poisson brackets from structure constants built from matrix commutators.
- quantum rigid body: exact images of the symmetrized operators in a
  representation of so(n).  The defining representation and the adjoint are
  blind here: every operator of the battery commutes with the sign flips
  diag(+-1), so its image is diagonal in those two.  The symmetric square
  Sym^2 V is not: there [H, c6,2] has a nonzero image while [H, C6,2] has none.
- counting tables: sympy ranks of adjoint maps at seeded rational a in so(n).
- trajectories: numpy, from the columns of trajectory.csv.

Every oracle returns a Verdict with the number of claims it checked and the
problems it found; a verdict that checked nothing is itself a problem.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass
class Verdict:
    name: str
    checked: int = 0
    unchecked: int = 0
    problems: list = field(default_factory=list)

    def expect(self, ok, problem):
        self.checked += 1
        if not ok:
            self.problems.append(problem)

    def finish(self):
        if self.checked == 0:
            self.problems.append(f"{self.name}: no claim was checked")
        return self


def pairs(n):
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def random_rational(rng, bound=9, nonzero=False):
    while True:
        v = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if v or not nonzero:
            return v


def distinct_moments(n, rng, bound=9):
    out = []
    while len(out) < n:
        v = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        if v not in out:
            out.append(v)
    return out


# -- report contract -------------------------------------------------------------

# every battery a scope must report on; a missing anchor is an empty battery
SCOPE_ANCHORS = {
    "classical-central": (
        "central-force/involution",
        "central-force/independence",
        "central-force/conserved-vector",
    ),
    "quantum-central": ("quantum-central-force",),
    "classical-rigid": (
        "rigid-classical/euler-equations",
        "rigid-classical/involution",
        "rigid-classical/counting",
        "rigid-classical/central-set",
        "rigid-classical/hamiltonian-span",
        "rigid-classical/full-set",
    ),
    "quantum-rigid": ("rigid-quantum", "rigid-quantum/flat-cases"),
}


def check_report_contract(text, scope, n, schema):
    """Schema, no failed check, no empty battery, and the config asked for."""
    import jsonschema

    v = Verdict(f"contract {scope} n={n}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        v.expect(False, f"report is not JSON: {exc}")
        return v, None
    errors = sorted(jsonschema.Draft7Validator(schema).iter_errors(report), key=str)
    v.expect(not errors, f"schema: {errors[0].message}" if errors else "")
    if errors:
        return v, None
    v.expect(report["ok"] is True, "report says ok = false")
    failed = [c["id"] for c in report["checks"] if c["status"] == "fail"]
    v.expect(not failed, f"failed checks: {failed[:3]}")
    v.expect(bool(report["checks"]), "report has no checks")
    anchors = {c["anchor"] for c in report["checks"]}
    for anchor in SCOPE_ANCHORS[scope]:
        v.expect(anchor in anchors, f"empty battery: no check under {anchor}")
    cfg = report["config"]
    v.expect(cfg.get("scope") == scope and cfg.get("n") == n, f"config {cfg} is not {scope} n={n}")
    return v, report


def _claims(report, anchor):
    """(id, check) of the pass claims under one anchor."""
    return [(c["id"], c) for c in report["checks"] if c["anchor"] == anchor and c["status"] == "pass"]


# -- central force: classical ------------------------------------------------------


def rational_phase_point(n, rng):
    """(x, |x|, p) with rational entries and rational radius: a rational point
    of the unit sphere (inverse stereographic projection) times a rational."""
    while True:
        t = [random_rational(rng) for _ in range(n - 1)]
        s = sum(v * v for v in t)
        u = [2 * v / (s + 1) for v in t] + [(s - 1) / (s + 1)]
        if all(u):
            break
    radius = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    x = [radius * c for c in u]
    p = [random_rational(rng, nonzero=True) for _ in range(n)]
    return x, radius, p


class PhaseSpace:
    """Functions on T*R^n as sympy polynomials in x, p, R = |x| and S = 1/|x|."""

    def __init__(self, n):
        from sympy import QQ
        from sympy.polys.rings import ring

        names = [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)] + ["R", "S"]
        self.ring, *gens = ring(",".join(names), QQ)
        self.QQ = QQ
        self.n = n
        self.x = gens[:n]
        self.p = gens[n : 2 * n]
        self.R = gens[2 * n]
        self.S = gens[2 * n + 1]

    def const(self, c):
        return self.ring(self.QQ(c.numerator, c.denominator))

    def dx(self, f, i):
        """d/dx_i with dR/dx_i = x_i S and dS/dx_i = -x_i S^3 (0-based i)."""
        x, S = self.x[i], self.S
        return f.diff(x) + f.diff(self.R) * x * S - f.diff(S) * x * S**3

    def dp(self, f, i):
        return f.diff(self.p[i])

    def momentum(self, i, j):
        return self.x[i - 1] * self.p[j - 1] - self.x[j - 1] * self.p[i - 1]

    def p_squared(self, subset=None):
        subset = sorted(subset) if subset else list(range(1, self.n + 1))
        return sum((self.momentum(a, b) ** 2 for a, b in itertools.combinations(subset, 2)), self.ring.zero)

    def kinetic(self):
        return sum((v * v for v in self.p), self.ring.zero)

    def r_squared(self):
        return sum((v * v for v in self.x), self.ring.zero)

    def runge_lenz(self, i, alpha):
        """A_i = sum_j P_ij p_j - alpha x_i / r."""
        acc = sum((self.momentum(i, j) * self.p[j - 1] for j in range(1, self.n + 1) if j != i), self.ring.zero)
        return acc - self.const(alpha) * self.x[i - 1] * self.S

    def hamiltonian(self, family, alpha):
        half = self.const(Fraction(1, 2))
        if family == "kepler":
            return half * self.kinetic() - self.const(alpha) * self.S
        if family == "oscillator":
            return half * (self.kinetic() + self.r_squared())
        if family == "generic":
            return half * self.kinetic() + self.r_squared() + self.p_squared()
        raise KeyError(f"no Hamiltonian named H in the {family} family")

    def function(self, label, family, alpha):
        if label == "H":
            return self.hamiltonian(family, alpha)
        if label == "P2":
            return self.p_squared()
        if label == "p2":
            return self.kinetic()
        if label == "r":
            return self.R
        m = re.fullmatch(r"P2_\((\d+)\)", label)
        if m:
            return self.p_squared([int(c) for c in m.group(1)])
        m = re.fullmatch(r"P(\d)(\d)", label) or re.fullmatch(r"P(\d+)_(\d+)", label)
        if m:
            return self.momentum(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"H(\d+)", label)
        if m:
            i = int(m.group(1)) - 1
            return self.const(Fraction(1, 2)) * (self.p[i] ** 2 + self.x[i] ** 2)
        m = re.fullmatch(r"A(\d+)", label)
        if m:
            return self.runge_lenz(int(m.group(1)), alpha)
        raise KeyError(f"unknown function label {label!r}")

    def values(self, point):
        x, radius, p = point
        qq = [self.QQ(v.numerator, v.denominator) for v in list(x) + list(p) + [radius, 1 / radius]]
        return qq

    def gradients(self, f, points):
        """(df/dx, df/dp) at each point, exact."""
        return [
            ([self.dx(f, i)(*vals) for i in range(self.n)], [self.dp(f, i)(*vals) for i in range(self.n)])
            for vals in points
        ]


def canonical_bracket_vanishes(grads_f, grads_g):
    """{f, g} = sum_i df/dp_i dg/dx_i - df/dx_i dg/dp_i is zero at every point."""
    return all(
        sum(a * b for a, b in zip(fp, gx)) == sum(a * b for a, b in zip(fx, gp))
        for (fx, fp), (gx, gp) in zip(grads_f, grads_g)
    )


def central_family(set_label):
    if "1/r potential" in set_label:
        return "kepler"
    if "isotropic oscillator" in set_label:
        return "oscillator"
    if "f(P^2) family" in set_label:
        return "f_of_P2"
    return "generic"


CATALOG_FAMILIES = ("generic", "kepler", "oscillator", "f_of_P2")


def check_central_classical(report, rng, points=2):
    """Every claimed vanishing canonical bracket of classical-central."""
    n = report["config"]["n"]
    alpha = Fraction(report["config"]["alpha"])
    v = Verdict(f"classical-central n={n}")
    space = PhaseSpace(n)
    vals = [space.values(rational_phase_point(n, rng)) for _ in range(points)]
    grads = {}

    def grad(family, label):
        key = (family if label == "H" else "", label)
        if key not in grads:
            grads[key] = space.gradients(space.function(label, family, alpha), vals)
        return grads[key]

    def bracket_vanishes(family, a, b):
        return canonical_bracket_vanishes(grad(family, a), grad(family, b))

    seen = set()
    involution = re.compile(r"(?P<set>.*)/involution/\{(?P<a>[^,{}]+),(?P<b>[^,{}]+)\}")
    for cid, _ in _claims(report, "central-force/involution"):
        m = involution.fullmatch(cid)
        if not m:
            v.unchecked += 1
            continue
        family = central_family(m.group("set"))
        if m.group("set").startswith(f"n={n} "):
            seen.add(family)
        try:
            ok = bracket_vanishes(family, m.group("a"), m.group("b"))
        except KeyError as exc:
            v.expect(False, f"{cid}: {exc}")
            continue
        v.expect(ok, f"{cid}: bracket is not zero")
    for family in CATALOG_FAMILIES:
        v.expect(family in seen, f"no involution claim for the {family} family")
    components = 0
    for cid, _ in _claims(report, "central-force/conserved-vector"):
        m = re.fullmatch(r"runge-lenz/\{(\w+),(\w+)\}", cid)
        if m:
            components += 1
            v.expect(bracket_vanishes("kepler", m.group(1), m.group(2)), f"{cid}: bracket is not zero")
        elif cid == "runge-lenz/square-identity":
            a2 = sum((space.runge_lenz(i, alpha) ** 2 for i in range(1, n + 1)), space.ring.zero)
            rhs = 2 * space.p_squared() * space.hamiltonian("kepler", alpha) + space.const(alpha * alpha)
            v.expect(all((a2 - rhs)(*pt) == 0 for pt in vals), f"{cid}: A^2 != 2 P^2 H + alpha^2")
        else:
            v.unchecked += 1
    v.expect(components == n, f"{components} conserved-vector components claimed, expected {n}")
    return v.finish()


def check_central_tables(rows, n, rng, points=2):
    """Catalog rows of ``tables central-force``: every central entry of a row
    (before the ';') has a vanishing canonical bracket with every entry of the
    row, H being the generic Hamiltonian 1/2 p^2 + r^2 + P^2."""
    v = Verdict(f"central-force table n={n}")
    space = PhaseSpace(n)
    vals = [space.values(rational_phase_point(n, rng)) for _ in range(points)]
    grads = {}

    def grad(label):
        if label not in grads:
            grads[label] = space.gradients(space.function(label, "generic", Fraction(0)), vals)
        return grads[label]

    v.expect(len(rows) > 0, "table is empty")
    for row in rows:
        central, _, rest = row["set"][1:-1].partition(";")
        central = [s.strip() for s in central.split(",")]
        labels = central + [s.strip() for s in rest.split(",") if s.strip()]
        v.expect(row["verified"] is True, f"row {row['set']} is not verified")
        v.expect(row["k"] == len(central), f"row {row['set']}: k = {row['k']}, {len(central)} central entries")
        for a in central:
            for b in labels:
                try:
                    ok = canonical_bracket_vanishes(grad(a), grad(b))
                except KeyError as exc:
                    v.expect(False, f"row {row['set']}: {exc}")
                    continue
                v.expect(ok, f"row {row['set']}: {{{a},{b}}} is not zero")
    return v.finish()


# -- central force: quantum --------------------------------------------------------


class WeylAlgebra:
    """Differential operators on functions of x (sympy polynomials in x, R, S)."""

    def __init__(self, n, alpha):
        self.space = PhaseSpace(n)
        self.n = n
        self.alpha = alpha
        sp = self.space
        self.half = sp.const(Fraction(1, 2))
        self.alpha_over_r = sp.const(alpha) * sp.S

    def d(self, f, i):
        return self.space.dx(f, i - 1)

    def x(self, i):
        return self.space.x[i - 1]

    def P(self, i, j, f):
        return self.x(i) * self.d(f, j) - self.x(j) * self.d(f, i)

    def laplace(self, f):
        return sum((self.d(self.d(f, i), i) for i in range(1, self.n + 1)), self.space.ring.zero)

    def H(self, f):
        return self.half * self.laplace(f) - self.alpha_over_r * f

    def A(self, i, f):
        """A_i-hat = sum_j (P_ij p_j + p_j P_ij)/2 - alpha x_i / r."""
        acc = self.space.ring.zero
        for j in range(1, self.n + 1):
            if j != i:
                acc += self.half * (self.P(i, j, self.d(f, j)) + self.d(self.P(i, j, f), j))
        return acc - self.alpha_over_r * self.x(i) * f

    def r2(self, f):
        return self.space.r_squared() * f

    def xp(self, f):
        return sum((self.x(i) * self.d(f, i) for i in range(1, self.n + 1)), self.space.ring.zero)

    def p2hat(self, f, subset=None):
        subset = sorted(subset) if subset else list(range(1, self.n + 1))
        return sum((self.P(a, b, self.P(a, b, f)) for a, b in itertools.combinations(subset, 2)), self.space.ring.zero)

    def p2sym(self, f):
        """Weyl symmetrization of P^2: x_i^2 p_j^2 -> x_i^2 d_j^2 and
        x_i x_j p_i p_j -> (x_i d_i + 1/2)(x_j d_j + 1/2) for i != j."""
        acc = self.space.ring.zero
        for i, j in itertools.combinations(range(1, self.n + 1), 2):
            acc += self.x(i) ** 2 * self.d(self.d(f, j), j) + self.x(j) ** 2 * self.d(self.d(f, i), i)
            inner = self.x(j) * self.d(f, j) + self.half * f
            acc -= 2 * (self.x(i) * self.d(inner, i) + self.half * inner)
        return acc

    def named(self, name):
        """The operator of a claim label as a function of f."""
        if name == "H":
            return self.H
        m = re.fullmatch(r"P(\d)(\d)", name)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            return lambda f: self.P(i, j, f)
        m = re.fullmatch(r"A(\d+)", name)
        if m:
            i = int(m.group(1))
            return lambda f: self.A(i, f)
        raise KeyError(f"unknown operator {name!r}")


def random_test_function(space, rng, degree=3):
    """Dense polynomial in x of the given degree with seeded nonzero rational
    coefficients.  A nonzero operator of order <= degree with polynomial
    coefficients cannot annihilate every such polynomial, so a commutator of
    two second-order operators (order <= 3) shows up on it."""
    acc = space.ring.zero
    for d in range(degree + 1):
        for mono in itertools.combinations_with_replacement(space.x, d):
            term = space.const(random_rational(rng, nonzero=True))
            for x in mono:
                term *= x
            acc += term
    return acc


def parse_split_tree(text):
    """'({1}|({2,3}|{4}))' -> nested tuples; a leaf is a tuple of ints."""
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "{":
            end = text.index("}", pos)
            leaf = tuple(int(v) for v in text[pos + 1 : end].split(","))
            pos = end + 1
            return leaf
        if text[pos] != "(":
            raise ValueError(f"bad split tree {text!r}")
        pos += 1
        left = node()
        if text[pos] != "|":
            raise ValueError(f"bad split tree {text!r}")
        pos += 1
        right = node()
        if text[pos] != ")":
            raise ValueError(f"bad split tree {text!r}")
        pos += 1
        return (left, right)

    tree = node()
    if pos != len(text):
        raise ValueError(f"bad split tree {text!r}")
    return tree


def _tree_indices(tree):
    if isinstance(tree[0], int):
        return tuple(sorted(tree))
    return tuple(sorted(_tree_indices(tree[0]) + _tree_indices(tree[1])))


def split_tree_items(tree):
    """Central entries Z and momentum list L of the splitting construction:
    a pair contributes P_ij; a stopped subset of size >= 3 its total square
    and the pairs (s1, sj), (s2, sj), j >= 3; a split node its total square."""
    idx = _tree_indices(tree)
    if len(idx) == 1:
        return [], []
    if len(idx) == 2:
        return [("pair", idx)], []
    if isinstance(tree[0], int):
        s = idx
        lpairs = [(s[0], j) for j in s[2:]] + [(s[1], j) for j in s[2:]]
        return [("square", idx)], [("pair", p) for p in lpairs]
    z1, l1 = split_tree_items(tree[0])
    z2, l2 = split_tree_items(tree[1])
    return [("square", idx)] + z1 + z2, l1 + l2


def check_central_quantum(report, rng, points=2):
    """Every claimed vanishing commutator and operator identity of quantum-central,
    applied to a seeded polynomial test function."""
    n = report["config"]["n"]
    alpha = Fraction(report["config"]["alpha"])
    v = Verdict(f"quantum-central n={n}")
    w = WeylAlgebra(n, alpha)
    sp = w.space
    f = random_test_function(sp, rng)
    vals = [sp.values(rational_phase_point(n, rng)) for _ in range(points)]

    def vanishes(expr):
        return all(expr(*pt) == 0 for pt in vals)

    def c(value):
        return sp.const(Fraction(value))

    identities = {
        "[p^2,r^2]=4x.p+2n": lambda: w.laplace(w.r2(f)) - w.r2(w.laplace(f)) - 4 * w.xp(f) - c(2 * n) * f,
        "P2hat=r2 p2-(x.p)^2-(n-2)x.p": lambda: w.p2hat(f) - w.r2(w.laplace(f)) + w.xp(w.xp(f)) + c(n - 2) * w.xp(f),
        "x.p=(p2 r2-r2 p2)/4-n/2": lambda: w.xp(f)
        - c(Fraction(1, 4)) * (w.laplace(w.r2(f)) - w.r2(w.laplace(f)))
        + c(Fraction(n, 2)) * f,
        "P2hat-(P2)^sym=n(n-1)/4": lambda: w.p2hat(f) - w.p2sym(f) - c(Fraction(n * (n - 1), 4)) * f,
        "A^2=2H[P2-((n-1)/2)^2]+a^2": lambda: sum((w.A(i, w.A(i, f)) for i in range(1, n + 1)), sp.ring.zero)
        - 2 * w.H(w.p2hat(f) - c(Fraction((n - 1) ** 2, 4)) * f)
        - c(alpha * alpha) * f,
    }
    item_cache = {}

    def item(entry, g):
        kind, data = entry
        if kind == "pair":
            return w.P(data[0], data[1], g)
        return w.p2hat(g, data)

    def items_commute(a, b):
        key = tuple(sorted((a, b)))
        if key not in item_cache:
            item_cache[key] = vanishes(item(a, item(b, f)) - item(b, item(a, f)))
        return item_cache[key]

    trees = 0
    for cid, _ in _claims(report, "quantum-central-force"):
        m = re.fullmatch(r"\[(\w+),(\w+)\]", cid)
        if m:
            try:
                a, b = w.named(m.group(1)), w.named(m.group(2))
            except KeyError as exc:
                v.expect(False, f"{cid}: {exc}")
                continue
            v.expect(vanishes(a(b(f)) - b(a(f))), f"{cid}: commutator is not zero")
            continue
        if cid in identities:
            v.expect(vanishes(identities[cid]()), f"{cid}: identity fails")
            continue
        m = re.fullmatch(r"recursive/(.+)/commute", cid)
        if m:
            trees += 1
            z, l = split_tree_items(parse_split_tree(m.group(1)))
            ok = all(items_commute(a, b) for a in z for b in z + l)
            v.expect(ok, f"{cid}: a commutator is not zero")
            continue
        v.unchecked += 1
    v.expect(trees > 0, "no splitting-tree claim")
    return v.finish()


# -- classical rigid body ------------------------------------------------------------


def _series_matmul(a, b, order):
    """Product of matrices whose entries are power series truncated at z^order."""
    n = len(a)
    out = [[[Fraction(0)] * (order + 1) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for m in range(n):
            am = a[i][m]
            if not any(am):
                continue
            for k in range(n):
                bm = b[m][k]
                cell = out[i][k]
                for s, av in enumerate(am):
                    if av:
                        for t in range(order + 1 - s):
                            if bm[t]:
                                cell[s + t] += av * bm[t]
    return out


class RigidBodyPoint:
    """Manakov integrals and their gradients at one point M of so(n)* for
    fixed rational moments."""

    def __init__(self, lambdas, momenta):
        self.lam = [Fraction(v) for v in lambdas]
        self.n = len(self.lam)
        self.P = dict(momenta)
        n = self.n
        self.M = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), val in self.P.items():
            self.M[i - 1][j - 1] = val
            self.M[j - 1][i - 1] = -val

    def _d(self, order):
        n = self.n
        return [
            [[self.lam[i] ** (2 * t) for t in range(order + 1)] if i == k else [Fraction(0)] * (order + 1) for k in range(n)]
            for i in range(n)
        ]

    def _md_power(self, k, l, extra_d):
        """D^extra (M D)^(2l - extra) as series matrices truncated at z^(k - 2l)."""
        order = k - 2 * l
        n = self.n
        d = self._d(order)
        md = [[[self.M[i][m] * self.lam[m] ** (2 * t) for t in range(order + 1)] for m in range(n)] for i in range(n)]
        out = d if extra_d else md
        for _ in range(2 * l - 1):
            out = _series_matmul(out, md, order)
        return out

    def integral(self, k, l):
        x = self._md_power(k, l, extra_d=False)
        return sum(x[i][i][k - 2 * l] for i in range(self.n)) / (4 * l)

    def integral_gradient(self, k, l):
        """d c_{k,k-2l} / d P_ab = 1/2 [z^(k-2l)] (X_ba - X_ab), X = D (M D)^(2l-1)."""
        x = self._md_power(k, l, extra_d=True)
        j = k - 2 * l
        return {(a, b): (x[b - 1][a - 1][j] - x[a - 1][b - 1][j]) / 2 for (a, b) in pairs(self.n)}

    def hamiltonian(self):
        return sum(v * v / (2 * (self.lam[a - 1] + self.lam[b - 1])) for (a, b), v in self.P.items())

    def hamiltonian_gradient(self):
        return {(a, b): self.P[(a, b)] / (self.lam[a - 1] + self.lam[b - 1]) for (a, b) in pairs(self.n)}

    def gradient(self, label):
        if label == "H":
            return self.hamiltonian_gradient()
        m = re.fullmatch(r"c(\d+),(\d+)", label)
        if m:
            k, j = int(m.group(1)), int(m.group(2))
            return self.integral_gradient(k, (k - j) // 2)
        m = re.fullmatch(r"P(\d)(\d)", label)
        if m:
            target = (int(m.group(1)), int(m.group(2)))
            return {p: Fraction(int(p == target)) for p in pairs(self.n)}
        raise KeyError(f"unknown function label {label!r}")


def structure_constants(n):
    """{P_a, P_b} = sum_c C[a, b][c] P_c from the matrix commutators of the
    basis e_ij = E_ij - E_ji (so that {P_12, P_23} = P_13)."""
    basis = {}
    for (i, j) in pairs(n):
        m = np.zeros((n, n), dtype=np.int64)
        m[i - 1, j - 1], m[j - 1, i - 1] = 1, -1
        basis[(i, j)] = m
    table = {}
    for a in pairs(n):
        for b in pairs(n):
            c = basis[a] @ basis[b] - basis[b] @ basis[a]
            table[(a, b)] = {(i, j): int(c[i - 1, j - 1]) for (i, j) in pairs(n) if c[i - 1, j - 1]}
    return table


def lie_poisson_at(point, table, ga, gb):
    acc = Fraction(0)
    for a, fa in ga.items():
        if not fa:
            continue
        for b, fb in gb.items():
            if fb:
                for c, s in table[(a, b)].items():
                    acc += fa * fb * s * point.P[c]
    return acc


def random_momenta(n, rng):
    return {p: random_rational(rng, nonzero=True) for p in pairs(n)}


def check_rigid_classical(report, rng, points=2):
    """Involution of the integrals and H, the Euler closed form, and H as a
    combination of the quadratic integrals, at seeded rational points."""
    cfg = report["config"]
    n = cfg["n"]
    v = Verdict(f"classical-rigid n={n} {cfg['mode']}")
    given = [Fraction(s) for s in cfg["lambdas"]] if cfg.get("lambdas") else None
    lam = given or distinct_moments(n, rng)
    table = structure_constants(n)
    pts = [RigidBodyPoint(lam, random_momenta(n, rng)) for _ in range(points)]
    grads = [{} for _ in pts]

    def grad(s, label):
        if label not in grads[s]:
            grads[s][label] = pts[s].gradient(label)
        return grads[s][label]

    involutions = 0
    for cid, _ in _claims(report, "rigid-classical/involution"):
        m = re.fullmatch(r"rigid/\{(H|c\d+,\d+|P\d\d),(H|c\d+,\d+|P\d\d)\}", cid)
        if not m:
            v.unchecked += 1
            continue
        involutions += 1
        ok = all(lie_poisson_at(pt, table, grad(s, m.group(1)), grad(s, m.group(2))) == 0 for s, pt in enumerate(pts))
        v.expect(ok, f"{cid}: bracket is not zero")
    v.expect(involutions > 0, "no involution claim")
    for cid, _ in _claims(report, "rigid-classical/euler-equations"):
        m = re.fullmatch(r"rigid/euler-form/P(\d)(\d)", cid)
        if not m:
            v.unchecked += 1
            continue
        i, j = int(m.group(1)), int(m.group(2))
        ok = True
        for s, pt in enumerate(pts):
            unit = {p: Fraction(int(p == (i, j))) for p in pairs(n)}
            lhs = lie_poisson_at(pt, table, grad(s, "H"), unit)
            lm, mm = pt.lam, pt.M
            rhs = (lm[i - 1] - lm[j - 1]) * sum(
                mm[i - 1][k - 1] * mm[k - 1][j - 1] / ((lm[i - 1] + lm[k - 1]) * (lm[k - 1] + lm[j - 1]))
                for k in range(1, n + 1)
                if k not in (i, j)
            )
            ok = ok and lhs == rhs
        v.expect(ok, f"{cid}: {{H, P{i}{j}}} differs from the closed form")
    for cid, check in _claims(report, "rigid-classical/hamiltonian-span"):
        if given is None:
            # the moments behind this claim are drawn inside the program
            v.unchecked += 1
            continue
        betas = {int(k): Fraction(val) for k, val in re.findall(r"b(\d+)=([-\d/]+)", check["witness"])}
        ok = bool(betas) and all(
            pt.hamiltonian() == sum(b * pt.integral(k, 1) for k, b in betas.items()) for pt in pts
        )
        v.expect(ok, f"{cid}: H != sum b_k c_(k,k-2)")
    return v.finish()


# -- quantum rigid body ------------------------------------------------------------


def defining_rep(n):
    out = {}
    for (i, j) in pairs(n):
        m = np.zeros((n, n), dtype=np.int64)
        m[i - 1, j - 1], m[j - 1, i - 1] = 1, -1
        out[(i, j)] = m
    return out


def symmetric_square_rep(n):
    """so(n) acting on Sym^2 V, basis e_a e_b with a <= b."""
    basis = [(a, b) for a in range(n) for b in range(a, n)]
    index = {ab: k for k, ab in enumerate(basis)}
    out = {}
    for p, x in defining_rep(n).items():
        m = np.zeros((len(basis), len(basis)), dtype=np.int64)
        for col, (c, d) in enumerate(basis):
            for a in range(n):
                if x[a, c]:
                    m[index[tuple(sorted((a, d)))], col] += x[a, c]
                if x[a, d]:
                    m[index[tuple(sorted((c, a)))], col] += x[a, d]
        out[p] = m
    return out


def complete_homogeneous(degree, values):
    acc = [Fraction(1)] + [Fraction(0)] * degree
    for x in values:
        for t in range(1, degree + 1):
            acc[t] += x * acc[t - 1]
    return acc[degree]


class OperatorImages:
    """Exact images rho(op) of the quantum rigid-body operators, each held as
    an integer matrix (Python ints) over one positive denominator."""

    def __init__(self, rep, lambdas):
        self.rep = rep
        self.lam = [Fraction(v) for v in lambdas]
        self.n = len(self.lam)
        self.dim = next(iter(rep.values())).shape[0]
        self.cache = {}

    def _gen(self, a, b):
        return self.rep[(a, b)] if a < b else -self.rep[(b, a)]

    def _sym(self, letters):
        """k! * Sym(rho(letters)) by polarization:
        sum over nonempty S of (-1)^(k-|S|) (sum_{i in S} A_i)^k."""
        mats = [self.rep[p] for p in letters]
        k = len(mats)
        acc = np.zeros((self.dim, self.dim), dtype=np.int64)
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                s = sum(mats[i] for i in subset)
                power = s
                for _ in range(k - 1):
                    power = power @ s
                acc += power if (k - size) % 2 == 0 else -power
        return acc

    def _exact(self, weighted):
        """[(Fraction, int matrix)] -> (object int matrix, denominator)."""
        den = 1
        for c, _ in weighted:
            den = den * c.denominator // math.gcd(den, c.denominator)
        out = np.zeros((self.dim, self.dim), dtype=object)
        out[:] = 0
        for c, m in weighted:
            out = out + m.astype(object) * int(c * den)
        return out, den

    def manakov(self, k, l):
        """c-hat_{k,k-2l}: the closed-walk sum with each cycle symmetrized."""
        length = 2 * l
        coef = {}
        for w in itertools.product(range(1, self.n + 1), repeat=length):
            if any(w[t] == w[(t + 1) % length] for t in range(length)):
                continue
            sign = 1
            letters = []
            for t in range(length):
                a, b = w[t], w[(t + 1) % length]
                letters.append((min(a, b), max(a, b)))
                if a > b:
                    sign = -sign
            key = tuple(sorted(letters))
            c = complete_homogeneous(k - length, [self.lam[v - 1] ** 2 for v in w]) * sign
            coef[key] = coef.get(key, 0) + c
        scale = Fraction(1, 4 * l * math.factorial(length))
        return self._exact([(c * scale, self._sym(key)) for key, c in coef.items() if c])

    def squares(self, weight):
        terms = []
        for (i, j) in pairs(self.n):
            g = self.rep[(i, j)]
            terms.append((weight(self.lam[i - 1], self.lam[j - 1]), g @ g))
        return self._exact(terms)

    def image(self, label):
        if label in self.cache:
            return self.cache[label]
        m = re.fullmatch(r"c(\d+),(\d+)", label)
        if label == "H":
            out = self.squares(lambda a, b: 1 / (2 * (a + b)))
        elif label == "C6,2":
            base, bden = self.image("c6,2")
            corr, cden = self.squares(lambda a, b: Fraction(5, 12) * a * a * b * b)
            out = (base * cden + corr * bden, bden * cden)
        elif m:
            k, j = int(m.group(1)), int(m.group(2))
            out = self.manakov(k, (k - j) // 2)
        else:
            m = re.fullmatch(r"P(\d)(\d)", label)
            if not m:
                raise KeyError(f"unknown operator {label!r}")
            out = (self.rep[(int(m.group(1)), int(m.group(2)))].astype(object), 1)
        self.cache[label] = out
        return out

    def commutator_is_zero(self, a, b):
        (x, _), (y, _) = self.image(a), self.image(b)
        return not (x.dot(y) - y.dot(x)).any()


def check_rigid_quantum(report, rng):
    """Every claimed vanishing commutator, and the claimed nonvanishing
    [H, c6,2], through the exact image in Sym^2 V."""
    cfg = report["config"]
    n = cfg["n"]
    v = Verdict(f"quantum-rigid n={n} {cfg['mode']}")
    given = [Fraction(s) for s in cfg["lambdas"]] if cfg.get("lambdas") else None
    lam = given or distinct_moments(n, rng)
    images = OperatorImages(symmetric_square_rep(n), lam)
    label = r"(H|c\d+,\d+|C6,2|P\d\d)"
    zeros = 0
    for cid, _ in _claims(report, "rigid-quantum"):
        body = cid.split("/", 1)[1] if "/" in cid else cid
        m = re.fullmatch(rf"\[{label} , {label}\]", body)
        if m:
            zeros += 1
            v.expect(images.commutator_is_zero(m.group(1), m.group(2)), f"{cid}: image of the commutator is not zero")
            continue
        m = re.fullmatch(rf"\[{label} , {label}\] != 0", body)
        if m:
            v.expect(not images.commutator_is_zero(m.group(1), m.group(2)), f"{cid}: image of the commutator is zero")
            continue
        v.unchecked += 1
    v.expect(zeros > 0, "no vanishing-commutator claim")
    return v.finish()


def pbw_image(rep, element, dim):
    """rho of a PBW element: words map to ordered products of generator images."""
    plist = pairs(element.n)
    out = np.zeros((dim, dim), dtype=object)
    out[:] = Fraction(0)
    for word, c in element.terms.items():
        m = np.eye(dim, dtype=np.int64)
        for g in word:
            m = m @ rep[plist[g]]
        out = out + m.astype(object) * Fraction(c)
    return out


def check_pbw_mul(rng, ns=(4, 5, 6), trials=6, mul=None):
    """rho(pbw_mul(a, b)) == rho(a) rho(b) for seeded random PBW elements, in
    the defining representation and in Sym^2 V."""
    from manakov.uea import PBWElement, pbw_mul

    mul = mul or pbw_mul
    v = Verdict("pbw_mul homomorphism")
    for n in ns:
        reps = [defining_rep(n), symmetric_square_rep(n)]
        gens = len(pairs(n))
        for _ in range(trials):
            elems = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    word = tuple(sorted(rng.randrange(gens) for _ in range(rng.randint(0, 3))))
                    terms[word] = random_rational(rng, nonzero=True)
                elems.append(PBWElement(n, terms))
            a, b = elems
            c = mul(a, b)
            for rep in reps:
                dim = next(iter(rep.values())).shape[0]
                lhs = pbw_image(rep, c, dim)
                rhs = pbw_image(rep, a, dim).dot(pbw_image(rep, b, dim))
                v.expect(not (lhs - rhs).any(), f"n={n}: rho(a*b) != rho(a) rho(b) for a={a}, b={b}")
    return v.finish()


# -- counting tables -------------------------------------------------------------------


def _rank(rows):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows or not rows[0]:
        return 0
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows], (len(rows), len(rows[0])), QQ).rank()


def ad_matrix(a, n, domain, image):
    """Matrix of B -> [a, B] from the pairs in ``domain`` to the coordinates in ``image``."""
    cols = []
    for (h, k) in domain:
        e = np.zeros((n, n), dtype=object)
        e[:] = Fraction(0)
        e[h - 1, k - 1], e[k - 1, h - 1] = Fraction(1), Fraction(-1)
        c = a.dot(e) - e.dot(a)
        cols.append([c[i - 1, j - 1] for (i, j) in image])
    return [[cols[col][row] for col in range(len(domain))] for row in range(len(image))]


def check_tables(rows, rng):
    """Each row (n, q, k, r, kbar) against kernel dimensions computed with sympy
    at a seeded rational a in so(n): dim ker ad_a = [n/2], and
    k = s + s2 - s3, r = s1 - k, kbar = k + r/2 with s1, s2, s3 the kernel
    dimensions of the adjoint map projected onto and restricted to the
    equal-moment block algebra."""
    v = Verdict("rigid-body tables")
    v.expect(bool(rows), "table is empty")
    for row in rows:
        n, q = row["n"], tuple(row["q"])
        v.expect(row["verified"] is True, f"row n={n} q={q} is not verified")
        v.expect(sum(q) == n, f"row n={n}: q={q} is not a partition of n")
        a = np.zeros((n, n), dtype=object)
        a[:] = Fraction(0)
        for (i, j) in pairs(n):
            val = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            a[i - 1, j - 1], a[j - 1, i - 1] = val, -val
        classes, start = [], 1
        for size in q:
            classes.append(range(start, start + size))
            start += size
        block = [p for p in pairs(n) if any(p[0] in c and p[1] in c for c in classes)]
        full = pairs(n)
        sigma = len(full) - _rank(ad_matrix(a, n, full, full))
        s1 = len(full) - _rank(ad_matrix(a, n, full, block)) if block else len(full)
        s2 = len(block) - _rank(ad_matrix(a, n, block, block)) if block else 0
        s3 = len(block) - _rank(ad_matrix(a, n, block, full)) if block else 0
        k = sigma + s2 - s3
        r = s1 - k
        expected = (k, r, k + r // 2)
        v.expect(sigma == n // 2, f"n={n}: dim ker ad_a = {sigma}, not {n // 2}")
        v.expect(
            (row["k"], row["r"], row["kbar"]) == expected,
            f"row n={n} q={q}: (k, r, kbar) = {(row['k'], row['r'], row['kbar'])}, kernel dimensions give {expected}",
        )
    return v.finish()


# -- trajectories ------------------------------------------------------------------------


def invariants_numpy(lambdas, m, max_degree=4):
    """H and c_{k,k-2l} (2l <= max_degree, ordered by (k, l)) at one skew matrix."""
    lam = np.array([float(x) for x in lambdas])
    n = len(lam)
    out = [0.5 * sum(m[i, j] ** 2 / (lam[i] + lam[j]) for i in range(n) for j in range(i + 1, n))]
    for k in range(2, n + 1):
        for l in range(1, k // 2 + 1):
            if 2 * l > max_degree:
                continue
            j = k - 2 * l
            total = 0.0
            for comp in itertools.product(range(j + 1), repeat=2 * l):
                if sum(comp) != j:
                    continue
                prod = np.eye(n)
                for t in comp:
                    prod = prod @ m @ np.diag(lam ** (2 * t))
                total += np.trace(prod)
            out.append(total / (4 * l))
    return out


def check_simulation(csv_text, drift_text, lambdas, min_motion=1e-3):
    """Recompute H and the degree <= 4 invariants from the trajectory, compare
    with the exported columns, and bound their drift by the run's tolerance."""
    v = Verdict("simulate")
    drift = json.loads(drift_text)
    tol = drift["config"]["tolerance"]
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, data = rows[0], np.array([[float(x) for x in r] for r in rows[1:]])
    n = len(lambdas)
    plist = pairs(n)
    cols = [header.index(f"P_{i}_{j}") for (i, j) in plist]
    first_inv = cols[-1] + 1
    recomputed = []
    for row in data:
        m = np.zeros((n, n))
        for (i, j), c in zip(plist, cols):
            m[i - 1, j - 1], m[j - 1, i - 1] = row[c], -row[c]
        recomputed.append(invariants_numpy(lambdas, m))
    recomputed = np.array(recomputed)
    exported = data[:, first_inv:]
    v.expect(exported.shape == recomputed.shape, f"{exported.shape[1]} invariant columns, expected {recomputed.shape[1]}")
    if exported.shape == recomputed.shape:
        scale = np.maximum(1.0, np.abs(recomputed))
        worst = float(np.max(np.abs(exported - recomputed) / scale))
        v.expect(worst <= 1e-9, f"exported invariants differ from the recomputed ones by {worst:.3e}")
    base = recomputed[0]
    drifts = np.max(np.abs(recomputed - base), axis=0) / np.maximum(1.0, np.abs(base))
    v.expect(float(drifts.max()) <= tol, f"recomputed drift {drifts.max():.3e} exceeds tolerance {tol}")
    v.expect(max(drift["drift"].values()) <= tol, "reported drift exceeds the tolerance")
    motion = float(np.max(np.abs(data[:, cols] - data[0, cols])))
    v.expect(motion >= min_motion, f"the trajectory barely moves ({motion:.3e})")
    return v.finish()
