import random
from fractions import Fraction

import pytest

from manakov import weyl
from manakov.brackets import PhasePoly, canonical_bracket, lie_poisson_bracket
from manakov.central_force import (
    SplitTree,
    all_split_trees,
    catalog,
    generic_hamiltonian,
    inverse_radius,
    item_function,
    item_label,
    kepler_hamiltonian,
    kinetic,
    momentum,
    oscillator_hamiltonian,
    p_squared,
    r_squared,
    recursive_set_spec,
    recursive_set_structure,
    runge_lenz_vector,
)
from manakov.charts import MomentumPullback, involution_report, vanishes_by_structure
from manakov.radical import RadicalElement
from manakov.uea import symmetrize_momentum_poly, uea_commutator
from manakov.weyl import (
    WeylOperator,
    _sym_monomial,
    commutator,
    compose,
    items_commute,
    momentum_square_operator,
    quantum_central_force_suite,
    symmetrize,
    x_dot_p_operator,
)
from oracles import (
    conserved_vector_operators,
    kepler_operator,
    laplace_operator,
    momentum_operator,
    multiplication_by_r_squared,
    standard_quantize,
    sym_monomial_by_recursion,
    symmetrize_by_recursion,
    top_p_part,
    x_dot_p,
)


def pij_op(n, i, j):
    return symmetrize(momentum(n, i, j))


def test_canonical_commutation():
    n = 3
    p1 = WeylOperator.momentum(n, 1)
    x1 = WeylOperator.coordinate(n, 1)
    x2 = WeylOperator.coordinate(n, 2)
    assert commutator(p1, x1) == WeylOperator.const(n, 1)
    assert commutator(p1, x2).is_zero()
    assert compose(p1, x1) == compose(x1, p1) + WeylOperator.const(n, 1)


def test_compose_examples():
    n = 3
    # p1 o (1/r) = (1/r) p1 - x1 r / (x^2)^2
    rinv = WeylOperator.const(n, RadicalElement.radius(n).inverse())
    got = compose(WeylOperator.momentum(n, 1), rinv)
    d = RadicalElement.radius(n).inverse().diff(1)
    expected = compose(rinv, WeylOperator.momentum(n, 1)) + WeylOperator.const(n, d)
    assert got == expected
    # (x1 p2) o (x2 p1) = x1 x2 p1 p2 + x1 p1
    lhs = compose(
        compose(WeylOperator.coordinate(n, 1), WeylOperator.momentum(n, 2)),
        compose(WeylOperator.coordinate(n, 2), WeylOperator.momentum(n, 1)),
    )
    rhs = (
        compose(
            compose(WeylOperator.coordinate(n, 1), WeylOperator.coordinate(n, 2)),
            compose(WeylOperator.momentum(n, 1), WeylOperator.momentum(n, 2)),
        )
        + compose(WeylOperator.coordinate(n, 1), WeylOperator.momentum(n, 1))
    )
    assert lhs == rhs


def test_compose_associative_randomized():
    rng = random.Random(3)
    n = 2

    def rand_op():
        acc = WeylOperator.zero(n)
        for _ in range(rng.randint(1, 2)):
            t = WeylOperator.const(n, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5:
                    t = compose(t, WeylOperator.coordinate(n, rng.randint(1, n)))
                else:
                    t = compose(t, WeylOperator.momentum(n, rng.randint(1, n)))
            acc = acc + t
        return acc

    for _ in range(25):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_momentum_operator_brackets_match_classical():
    n = 3
    assert commutator(pij_op(n, 1, 2), pij_op(n, 1, 3)) == -pij_op(n, 2, 3)


def test_laplace_r2_commutator():
    for n in (2, 3, 4, 5, 6):
        c = commutator(symmetrize(kinetic(n)), symmetrize(r_squared(n)))
        assert c == x_dot_p_operator(n).scale(4) + WeylOperator.const(n, 2 * n)


@pytest.mark.parametrize("alpha", [1, Fraction(3, 2), -2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symmetrized_operators_match_hand_built(n, alpha):
    # the suite quantizes each classical function by symmetrization; the
    # oracles compose the same operators factor by factor
    assert symmetrize(kepler_hamiltonian(n, alpha)) == kepler_operator(n, alpha)
    assert symmetrize(kinetic(n)) == laplace_operator(n)
    assert symmetrize(r_squared(n)) == multiplication_by_r_squared(n)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            assert pij_op(n, i, j) == momentum_operator(n, i, j)
    a_ops = [symmetrize(a) for a in runge_lenz_vector(n, alpha)]
    assert a_ops == conserved_vector_operators(n, alpha)
    assert x_dot_p_operator(n) == symmetrize(x_dot_p(n)) - WeylOperator.const(n, Fraction(n, 2))


def test_closed_form_symmetrization_matches_the_recursion():
    # McCoy's formula, axis by axis, against the average built one factor
    # at a time by composition; the total degree is capped at 10 to keep
    # the recursion fast
    rng = random.Random(17)
    cases = []
    while len(cases) < 100:
        n = rng.randint(1, 4)
        xmono = tuple(rng.randint(0, 3) for _ in range(n))
        pmono = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(xmono) + sum(pmono) <= 10:
            cases.append((n, xmono, pmono))
    assert any(min(a, b) == 3 for _, xm, pm in cases for a, b in zip(xm, pm))
    for n, xmono, pmono in cases:
        assert _sym_monomial(n, xmono, pmono) == sym_monomial_by_recursion(n, xmono, pmono), (xmono, pmono)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetrize_matches_the_recursion_on_central_force_functions(n):
    alpha = Fraction(3, 2)
    functions = [
        kepler_hamiltonian(n, alpha),
        oscillator_hamiltonian(n),
        kinetic(n),
        r_squared(n),
        inverse_radius(n),
        x_dot_p(n),
        *runge_lenz_vector(n, alpha),
    ]
    for family in ("generic_f", "kepler", "oscillator", "f_of_P2"):
        functions += catalog(n, family, alpha=alpha).functions
    for tree in all_split_trees(range(1, n + 1), 2):
        functions += recursive_set_spec(n, tree).functions
    for f in functions:
        # an angular-momentum item is symmetrized as its phase polynomial
        f = f.phase if isinstance(f, MomentumPullback) else f
        assert symmetrize(f) == symmetrize_by_recursion(f)


def test_symmetrize_examples():
    n = 3
    f = PhasePoly.coordinate(n, 1) * PhasePoly.momentum(n, 1)
    assert symmetrize(f) == compose(
        WeylOperator.coordinate(n, 1), WeylOperator.momentum(n, 1)
    ) + WeylOperator.const(n, Fraction(1, 2))
    # linear-in-p functions are fixed by symmetrization
    pij = momentum(n, 1, 2)
    assert symmetrize(pij) == momentum_operator(n, 1, 2)


def test_symmetrization_shift_all_n():
    for n in range(2, 7):
        shift = momentum_square_operator(n) - symmetrize(p_squared(n))
        assert shift == WeylOperator.const(n, Fraction(n * (n - 1), 4))


def _random_x_poly(rng, n):
    from manakov.radical import x_vars
    from manakov.ratfunc import MultiPoly

    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[tuple(rng.randint(0, 2) for _ in range(n))] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(x_vars(n), terms)


def test_symmetrize_is_additive():
    # the polynomial rational part of a coefficient is Weyl-ordered jointly
    # with the p-factors even when a radical part rides along, so sums of
    # symbols with polynomial rational parts symmetrize term by term
    n = 3
    x1, r, p1 = PhasePoly.coordinate(n, 1), PhasePoly.radius(n), PhasePoly.momentum(n, 1)
    assert symmetrize(x1 * p1 + r * p1) == symmetrize(x1 * p1) + symmetrize(r * p1)
    rng = random.Random(17)

    def random_symbol(radical):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            pmono = tuple(rng.randint(0, 2) for _ in range(n))
            if radical:
                terms[pmono] = RadicalElement(n, _random_x_poly(rng, n)) * RadicalElement.radius(n)
            else:
                terms[pmono] = RadicalElement(n, _random_x_poly(rng, n))
        return PhasePoly(n, terms)

    for _ in range(30):
        f = random_symbol(radical=False)
        g = random_symbol(radical=rng.random() < 0.7)
        h = PhasePoly(n, {m: c * RadicalElement.radius(n) for m, c in f.terms.items()})
        for a, b in ((f, g), (f, h), (g, h)):
            assert symmetrize(a + b) == symmetrize(a) + symmetrize(b)


def test_one_based_indices_are_range_checked():
    n = 3
    makers = (
        RadicalElement.coordinate,
        PhasePoly.coordinate,
        PhasePoly.momentum,
        WeylOperator.coordinate,
        WeylOperator.momentum,
    )
    for make in makers:
        assert make(n, 1) != make(n, n)
        for i in (0, -1, n + 1):
            with pytest.raises(ValueError):
                make(n, i)


def test_standard_quantize_isomorphism():
    n = 3
    f = momentum(n, 1, 2)
    g = momentum(n, 2, 3)
    lhs = commutator(standard_quantize(f), standard_quantize(g))
    rhs = standard_quantize(canonical_bracket(f, g))
    assert lhs == rhs
    assert standard_quantize(PhasePoly.const(n, 1)) == WeylOperator.const(n, 1)
    with pytest.raises(ValueError):
        standard_quantize(p_squared(n))


def test_standard_quantize_isomorphism_randomized():
    rng = random.Random(7)
    n = 3

    def rand_linear():
        acc = PhasePoly.zero(n)
        for _ in range(rng.randint(1, 3)):
            coef = PhasePoly.const(n, Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 2)):
                coef = coef * PhasePoly.coordinate(n, rng.randint(1, n))
            if rng.random() < 0.7:
                coef = coef * PhasePoly.momentum(n, rng.randint(1, n))
            acc = acc + coef
        return acc

    for _ in range(25):
        f, g = rand_linear(), rand_linear()
        if f.p_degree() > 1 or g.p_degree() > 1:
            continue
        br = canonical_bracket(f, g)
        assert br.p_degree() <= 1
        assert commutator(standard_quantize(f), standard_quantize(g)) == standard_quantize(br)


def test_principal_symbol_homomorphism():
    n = 3
    a = momentum_square_operator(n)
    b = compose(pij_op(n, 1, 2), pij_op(n, 1, 3))
    prod = compose(a, b)
    sym = prod.principal_symbol()
    expected = top_p_part(a.principal_symbol() * b.principal_symbol())
    assert sym == expected
    # symbol of a symmetrized polynomial is its top-degree part
    f = p_squared(n) + 3 * momentum(n, 1, 2)
    assert symmetrize(f).principal_symbol() == top_p_part(f)


def test_momentum_square_identity():
    for n in (2, 3, 4):
        lhs = momentum_square_operator(n)
        r2 = symmetrize(r_squared(n))
        xp = x_dot_p_operator(n)
        rhs = compose(r2, symmetrize(kinetic(n))) - compose(xp, xp) - xp.scale(n - 2)
        assert lhs == rhs


def test_quantum_kepler_vector():
    n = 3
    alpha = Fraction(2)
    h = symmetrize(kepler_hamiltonian(n, alpha))
    a_ops = [symmetrize(a) for a in runge_lenz_vector(n, alpha)]
    for ai in a_ops:
        assert commutator(h, ai).is_zero()
    a2 = sum((compose(ai, ai) for ai in a_ops), WeylOperator.zero(n))
    rhs = compose(
        h, momentum_square_operator(n) - WeylOperator.const(n, Fraction((n - 1) ** 2, 4))
    ).scale(2) + WeylOperator.const(n, alpha * alpha)
    assert a2 == rhs


def test_quantum_recursive_sets_small():
    # the item operators quantize the classical items: each principal symbol
    # is the item, and every Z item commutes with the whole set
    for n, tree in ((4, SplitTree.split(SplitTree.leaf([1, 2, 3]), [4])), (2, SplitTree.leaf([1, 2]))):
        z_items, l_items = recursive_set_structure(n, tree)
        for it in z_items + l_items:
            assert symmetrize(item_function(n, it).phase).principal_symbol() == item_function(n, it).phase
        for zi in z_items:
            assert all(items_commute(n, zi, it) for it in z_items + l_items)
    # degenerate n=2 case: a single momentum operator
    assert recursive_set_structure(2, SplitTree.leaf([1, 2])) == ([("pair", (1, 2))], [])
    assert item_label(2, ("pair", (1, 2))) == "P12"


def _random_item(rng, n):
    if rng.random() < 0.5:
        return ("pair", tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return ("square", tuple(sorted(rng.sample(range(1, n + 1), rng.randint(3, n)))))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_item_shortcuts_agree_with_the_brackets_they_replace(monkeypatch, n):
    # the item pairs are decided by one rule (antisymmetry and the chain
    # rule through the momentum map), classically and as operators; the
    # rule only finds zeros, so it is checked against the commutator in
    # U(so(n)) of the symmetrized images, against the Weyl commutator and
    # against the canonical bracket, on seeded pairs plus pairs that do not
    # commute: two squares on overlapping, non-nested subsets, and a pair
    # sharing one index with a square.  The generic H joins both batches,
    # so {H, item} and {item, H}, decided by the chain rule for the
    # pullbacks, meet the kernel for the phases
    rng = random.Random(2100 + n)
    h = generic_hamiltonian(n)
    pairs = {tuple(sorted((_random_item(rng, n), _random_item(rng, n)))) for _ in range(8)}
    if n >= 4:
        pairs |= {(("square", (1, 2, 3)), ("square", (2, 3, 4))), (("pair", (3, 4)), ("square", (1, 2, 3)))}
    real_commutator = weyl.commutator
    weyl_calls = []
    monkeypatch.setattr(weyl, "commutator", lambda a, b: weyl_calls.append((a, b)) or real_commutator(a, b))
    nonzero_in_u = 0
    for a, b in sorted(pairs):
        f, g = item_function(n, a), item_function(n, b)
        in_u = uea_commutator(symmetrize_momentum_poly(f.image), symmetrize_momentum_poly(g.image)).is_zero()
        as_operators = real_commutator(symmetrize(f.phase), symmetrize(g.phase)).is_zero()
        assert in_u == as_operators, (a, b)
        ruled = vanishes_by_structure(f, g)
        assert ruled == vanishes_by_structure(g, f) == in_u, (a, b)
        on_so = lie_poisson_bracket(f.image, g.image).is_zero()
        assert on_so == canonical_bracket(f.phase, g.phase).is_zero(), (a, b)
        # the report reads the same for the pullbacks as for their phase polynomials
        shortcut = involution_report([f, h], [g, h])
        assert shortcut.to_json() == involution_report([f.phase, h], [g.phase, h]).to_json()
        # a pair the rule leaves open reaches the Weyl commutator once
        calls = len(weyl_calls)
        assert items_commute(n, a, b) == as_operators
        assert len(weyl_calls) - calls == (0 if ruled else 1)
        nonzero_in_u += not in_u
    assert nonzero_in_u >= (1 if n == 3 else 2)


def test_items_commute_shares_one_cache_entry_between_orders():
    # both orders agree, and read the same (item, P_ij) entries of the memo,
    # each filled once
    from manakov import charts

    memo = charts._commutes_with_momentum
    memo.cache_clear()
    a, b = ("square", (1, 2, 3)), ("pair", (1, 4))
    assert items_commute(4, a, b) is False
    filled = memo.cache_info().currsize
    assert items_commute(4, b, a) is False
    assert memo.cache_info().currsize == memo.cache_info().misses == filled > 0
    c = ("pair", (1, 2))
    assert items_commute(4, a, c) is items_commute(4, c, a) is True
    info = memo.cache_info()
    assert info.currsize == info.misses > filled
    assert items_commute(4, c, a) is items_commute(4, a, c) is True
    assert memo.cache_info().currsize == info.currsize


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_central_scopes_decide_every_item_pair_by_the_rule(monkeypatch, capsys, n):
    # the rule serves all the item traffic of the central scopes: verify
    # quantum-central forms no Weyl commutator for a tree item pair, and
    # verify classical-central no canonical bracket for a pair of pullbacks
    from manakov import charts, cli

    seed = str(2400 + n)
    real_commutator, real_items_commute, real_rule = weyl.commutator, weyl.items_commute, charts.vanishes_by_structure
    weyl_calls, per_item_pair, pullback_pairs = [], [], []

    def counting_items_commute(n, a, b):
        before = len(weyl_calls)
        result = real_items_commute(n, a, b)
        per_item_pair.append(len(weyl_calls) - before)
        return result

    def recording_rule(f, g):
        decided = real_rule(f, g)
        if isinstance(f, MomentumPullback) and isinstance(g, MomentumPullback):
            pullback_pairs.append(decided)
        return decided

    monkeypatch.setattr(weyl, "commutator", lambda a, b: weyl_calls.append((a, b)) or real_commutator(a, b))
    monkeypatch.setattr(weyl, "items_commute", counting_items_commute)
    monkeypatch.setattr(charts, "vanishes_by_structure", recording_rule)
    assert cli.main(["verify", "quantum-central", "--n", str(n), "--seed", seed]) == 0
    assert cli.main(["verify", "classical-central", "--n", str(n), "--seed", seed]) == 0
    capsys.readouterr()
    assert per_item_pair and not any(per_item_pair)
    assert pullback_pairs and all(pullback_pairs)


def test_quantum_suite_n2_degenerates():
    rep = quantum_central_force_suite(2, 1)
    assert rep.ok
    # P-hat^2 equals the square of the single momentum operator
    assert momentum_square_operator(2) == compose(pij_op(2, 1, 2), pij_op(2, 1, 2))


def test_quantum_suite_n3():
    rng = random.Random(5)
    rep = quantum_central_force_suite(3, 1, rng=rng, trees=[SplitTree.split([1, 2], [3])])
    assert rep.ok, [c.id for c in rep.failures]


@pytest.mark.parametrize("seed, tree", [(111, "({1,2,4}|{3})"), (151, "({1}|{2,3,4})")])
def test_quantum_central_resamples_deficient_points(monkeypatch, seed, tree):
    # at these seeds `verify quantum-central --n 4` draws a rank-deficient
    # point for the symbols of a true recursive set; the point is redrawn,
    # not failed.  The cached commutator sweep draws no random numbers, so
    # stubbing it keeps the suite's chart draws unchanged and the test fast.
    from manakov import charts, weyl
    from manakov.suites import suite_quantum_central

    seen = []
    real = charts.jacobian_rank

    def recording(fs, at):
        rank = real(fs, at)
        seen.append((len(fs), rank))
        return rank

    monkeypatch.setattr(charts, "jacobian_rank", recording)
    monkeypatch.setattr(weyl, "items_commute", lambda n, a, b: True)
    report = suite_quantum_central(4, seed=seed)
    assert any(rank < size for size, rank in seen)
    assert report.ok, [(c.id, c.witness) for c in report.failures]
    (check,) = [c for c in report.checks if c.id == f"recursive/{tree}/symbol-rank/sample0"]
    assert check.witness == "rank 4 of 4"
