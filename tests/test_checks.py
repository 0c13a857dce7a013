import collections
import dataclasses
import random
import types
from fractions import Fraction as F

import pytest

from polydiag import checks, graph, invariance, linalg
from polydiag.partitions import contains, orthogonal, typical_element


def test_suites_registry_names():
    assert {
        "conjecture53",
        "column-sums",
        "main-lemma",
        "input-output",
        "frobenius-perron",
        "strong-connectivity",
        "dynamics-vdp",
        "dynamics-lorenz",
        "dynamics-attractors",
    } == set(checks.SUITES)


def test_conjecture53_quick():
    rep = checks.suite_conjecture53(trials=25, n_max=6, seed=7)
    assert rep.passed and rep.trials == 25


def test_column_sums_quick():
    rep = checks.suite_column_sums(trials=30, seed=11)
    assert rep.passed


def test_main_lemma_quick():
    rep = checks.suite_main_lemma(trials=20, seed=3)
    assert rep.passed


def test_input_output_quick():
    rep = checks.suite_input_output(trials=25, seed=5)
    assert rep.passed


def _simple_zero_eigenvalue(g):
    """The exact test: the Laplacian's kernel is one-dimensional."""
    return len(linalg.nullspace(graph.laplacian_matrix(g))) == 1


def test_weak_connectivity_decides_the_simple_zero_eigenvalue():
    """On the input-output suite's own kind of draw, weak connectivity and
    the exact kernel dimension agree."""
    rng = random.Random(21)
    seen = collections.Counter()
    for _ in range(1000):
        n = rng.randint(2, 6)
        weight = graph.random_balanced_weights(n, rng)
        g = graph.from_weight_map(n, weight)
        connected = graph.weakly_connected(*graph.arrow_masks(n, weight))
        assert connected == _simple_zero_eigenvalue(g), graph.to_json(g)
        seen[connected] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
def test_input_output_report_unchanged_by_the_connectivity_test(monkeypatch, seed):
    """Every scanned Laplacian has a simple eigenvalue 0, and the report is
    the one the exact kernel test gives."""
    scanned = []
    scan = checks._uneven_anti_synchrony
    monkeypatch.setattr(checks, "_uneven_anti_synchrony", lambda lap: scanned.append(lap) or scan(lap))
    fast = checks.suite_input_output(trials=20, seed=seed)
    assert len(scanned) == 20 and all(len(linalg.nullspace(lap)) == 1 for lap in scanned)
    drawn = []
    balanced = graph.random_balanced_weights

    def recorded(n, rng):
        drawn.append((n, balanced(n, rng)))
        return drawn[-1][1]

    # the exact kernel test on the digraph just drawn
    monkeypatch.setattr(graph, "random_balanced_weights", recorded)
    monkeypatch.setattr(graph, "weakly_connected", lambda *masks: _simple_zero_eigenvalue(graph.from_weight_map(*drawn[-1])))
    assert checks.suite_input_output(trials=20, seed=seed) == fast


def test_frobenius_perron_quick():
    rep = checks.suite_frobenius_perron(trials=15, seed=13)
    assert rep.passed


def test_strong_connectivity_quick():
    rep = checks.suite_strong_connectivity(trials=40, seed=17)
    assert rep.passed


def test_reports_carry_witnesses_on_failure():
    # a deliberately broken "suite": reuse the summary formatting
    rep = checks.SuiteReport("demo", 1, ["it broke"])
    text = rep.summary()
    assert not rep.passed and "FAIL" in text and "it broke" in text


# the acceptance test of each sampled suite, replaced by one that rejects every draw
REJECT_EVERY_DRAW = {
    "column-sums": (checks, "check_constant_column_sums_theorem", lambda m: types.SimpleNamespace(hypotheses_met=False)),
    "input-output": (graph, "weakly_connected", lambda *masks: False),
    "frobenius-perron": (graph, "is_strongly_connected", lambda g: False),
    "strong-connectivity": (graph, "weakly_connected", lambda *masks: False),
}


@pytest.mark.parametrize("name", sorted(REJECT_EVERY_DRAW))
def test_sampled_suites_say_why_they_came_up_short(monkeypatch, name):
    monkeypatch.setattr(*REJECT_EVERY_DRAW[name])
    rep = checks.SUITES[name](trials=5)
    assert not rep.passed and rep.trials == 0 and not rep.failures
    assert rep.summary() == "%s: FAIL (0 trials)\n  note: only 0 of 5 instances found" % name


class _NoDraw:
    def __getattr__(self, name):
        raise AssertionError("drew from the rng")


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("name", ["conjecture53", *sorted(REJECT_EVERY_DRAW), "main-lemma"])
def test_sampled_suites_refuse_fewer_than_one_trial(monkeypatch, name, trials):
    # a suite of no instances would pass with nothing checked; the refusal
    # comes before any draw
    monkeypatch.setattr(checks, "random", types.SimpleNamespace(Random=lambda seed: _NoDraw()))
    with pytest.raises(ValueError, match="trials must be >= 1, got %d" % trials):
        checks.SUITES[name](trials=trials)


# ---------------------------------------------------------------------------
# the suites leave every hypothesis and conclusion to the theorem reports


def test_uneven_anti_synchrony_witnesses():
    # the disconnected-graph counterexample to Conjecture 5.3 without connectivity
    lap = graph.laplacian_matrix(graph.digraph_of_graph(3, [(2, 3)]))
    got = [typical_element(p) for p in checks._uneven_anti_synchrony(lap)]
    assert got == ["(a,0,0)", "(0,a,a)", "(a,-a,-a)", "(a,b,-b)", "(0,a,b)"]


def _count_calls(monkeypatch, module, name, counter):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "suite, draw",
    [(checks.suite_column_sums, "_random_constant_column_sum_matrix"), (checks.suite_main_lemma, "_random_unimodular")],
)
def test_one_eigendata_call_per_draw(monkeypatch, suite, draw):
    counter = collections.Counter()
    for module in (invariance, checks):
        _count_calls(monkeypatch, module, "eigendata", counter)
    _count_calls(monkeypatch, checks, draw, counter)
    rep = suite(trials=12, seed=4)
    assert rep.passed
    assert counter[draw] >= rep.trials
    assert counter["eigendata"] == counter[draw]


def _old_column_sums(trials, seed, n_max=5):
    """The column-sums instances as the suite drew them with its own copy
    of the hypotheses, each followed by the theorem report."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < trials and attempts < trials * 60:
        attempts += 1
        n = rng.randint(2, n_max)
        m = checks._random_constant_column_sum_matrix(rng, n)
        eig = invariance.eigendata(m, sum(row[0] for row in m))
        if len(eig.right_basis) != 1:
            continue
        v = eig.right_basis[0]
        if any(v[i] + v[j] == 0 for i in range(n) for j in range(i, n)):
            continue
        out.append((m, invariance.check_constant_column_sums_theorem(m)))
    return out


def _old_random_unimodular(rng, n):
    """The Fraction unimodular draw: a product of 12 integer elementary row
    operations."""
    m = [[F(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def _old_inverse(m):
    """Inverse by reducing [m | I]."""
    n = len(m)
    aug = tuple(tuple(m[i]) + tuple(F(i == j) for j in range(n)) for i in range(n))
    rows, pivots = linalg._rref_pivots(aug)
    if len(pivots) != n:
        raise ValueError("matrix not invertible")
    return tuple(tuple(F(x, row[c]) for x in row[n:]) for row, c in zip(rows, pivots))


def _mat_mul(a, b):
    """The Fraction product of two matrices by the triple loop."""
    return tuple(tuple(sum((F(row[k]) * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0])))
                 for row in a)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_unimodular_pair_is_the_fraction_draw_and_its_inverse(seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(40):
        n = new.randint(2, 6)
        assert n == old.randint(2, 6)
        s, inv = checks._random_unimodular(new, n)
        want = _old_random_unimodular(old, n)
        assert all(type(x) is int for row in s + inv for x in row)
        assert tuple(map(tuple, s)) == want
        assert _mat_mul(s, inv) == tuple(tuple(F(i == j) for j in range(n)) for i in range(n)) == _mat_mul(inv, s)
        assert tuple(map(tuple, inv)) == _old_inverse(want)


def _old_main_lemma(trials, seed, n_max=5):
    """The main-lemma instances as the suite drew them, rejecting a
    non-simple eigenvalue itself, each followed by the lemma report."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < trials and attempts < trials * 40:
        attempts += 1
        n = rng.randint(2, n_max)
        lam = rng.randint(-2, 2)
        block = [[F(0)] * n for _ in range(n)]
        block[0][0] = F(lam)
        c = rng.choice([3, 5, 7])
        for i in range(1, n - 1):
            block[i + 1][i] = F(1)
        block[1][n - 1] = F(c)
        s = _old_random_unimodular(rng, n)
        m = _mat_mul(_mat_mul(s, block), _old_inverse(s))
        if len(invariance.eigendata(m, lam).right_basis) == 1:
            out.append((m, lam, invariance.check_main_lemma(m, lam)))
    return out


def _record(monkeypatch, name, keep):
    """Record the reports the suite gets from checks.<name>."""
    fn = getattr(checks, name)
    seen = []

    def recorded(*args):
        report = fn(*args)
        if keep(report):
            seen.append(args + (report,))
        return report

    monkeypatch.setattr(checks, name, recorded)
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2, 11, 29])
def test_column_sums_reports_match_old_filter(monkeypatch, seed):
    seen = _record(monkeypatch, "check_constant_column_sums_theorem", lambda r: r.hypotheses_met)
    rep = checks.suite_column_sums(trials=15, seed=seed)
    want = _old_column_sums(15, seed)
    assert seen == want and rep.trials == len(want)


@pytest.mark.parametrize("seed", [0, 3, 8, 21])
def test_main_lemma_reports_match_old_filter(monkeypatch, seed):
    seen = _record(monkeypatch, "check_main_lemma", lambda r: True)
    rep = checks.suite_main_lemma(trials=12, seed=seed)
    want = _old_main_lemma(12, seed)
    assert seen == want and rep.trials == len(want)


def test_main_lemma_keeps_the_scan_cap_error():
    # seed 9 draws a 9-cell matrix first; it must not be taken for a rejected draw
    with pytest.raises(ValueError, match="exceeds cap"):
        checks.suite_main_lemma(trials=1, n_max=9, seed=9)


def _old_frobenius_perron(trials, seed, n_max=6, flip=False):
    """The Frobenius-Perron suite as it decided each instance itself, with
    contains and orthogonal on every invariant subspace.  flip negates both
    decisions, so that every instance gives witnesses."""
    rng = random.Random(seed)

    def draw():
        n = rng.randint(2, n_max)
        d = rng.randint(1, max(1, n - 1))
        g = graph.random_in_regular_digraph(n, d, rng)
        if not graph.is_strongly_connected(g):
            return None
        a = graph.adjacency_matrix(g)
        eig = invariance.eigendata(a, d)
        return (g, a, eig) if len(eig.right_basis) == 1 else None

    found = []
    attempts = 0
    while len(found) < trials and attempts < trials * 40:
        attempts += 1
        inst = draw()
        if inst is not None:
            found.append(inst)
    failures = []
    for g, a, eig in found:
        v_r, v_l = eig.right_basis[0], eig.left_basis[0]
        for p, cls in invariance.invariant_polydiagonals(a).subspaces:
            if cls.synchrony and contains(p, v_r) == flip:
                failures.append("digraph %s: synchrony %s misses v_R" % (graph.to_json(g), typical_element(p)))
            if cls.anti_synchrony and orthogonal(p, v_l) == flip:
                failures.append("digraph %s: anti-synchrony %s not perp v_L" % (graph.to_json(g), typical_element(p)))
    return checks.SuiteReport("frobenius-perron", len(found), failures)


@pytest.mark.parametrize("seed", [0, 4, 13, 27])
def test_frobenius_perron_matches_old_inline_decision(monkeypatch, seed):
    """The suite reads the dichotomy rows and reports what its own contains
    and orthogonal calls reported, witnesses included."""
    assert checks.suite_frobenius_perron(trials=10, seed=seed) == _old_frobenius_perron(10, seed)
    rows = checks.dichotomy_rows

    def flipped(m, eig):
        return tuple(dataclasses.replace(r, right_in_subspace=not r.right_in_subspace, left_in_perp=not r.left_in_perp)
                     for r in rows(m, eig))

    monkeypatch.setattr(checks, "dichotomy_rows", flipped)
    rep = checks.suite_frobenius_perron(trials=10, seed=seed)
    assert rep.failures and rep == _old_frobenius_perron(10, seed, flip=True)


def _old_strong_connectivity_draws(trials, seed, n_max=7):
    """The strong-connectivity instances as the suite drew them: digraphs
    of random_balanced_weights, kept when weakly connected by a search
    over neighbour lists."""
    rng = random.Random(seed)

    def weakly_connected(g):
        both = {i: [] for i in range(1, g.n + 1)}
        for t, h, _ in g.arrows:
            both[t].append(h)
            both[h].append(t)
        seen, stack = {1}, [1]
        while stack:
            for u in both[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == g.n

    found = []
    attempts = 0
    while len(found) < trials and attempts < trials * 40:
        attempts += 1
        n = rng.randint(2, n_max)
        g = graph.from_weight_map(n, graph.random_balanced_weights(n, rng))
        if weakly_connected(g):
            found.append(g)
    return found


@pytest.mark.parametrize("seed", [0, 1, 17, 40, 123])
def test_strong_connectivity_draws_the_old_instances(monkeypatch, seed):
    old = _old_strong_connectivity_draws(150, seed)
    rep = checks.suite_strong_connectivity(trials=150, seed=seed)
    assert rep.passed and rep.trials == len(old) == 150
    # with the strong check failing, every instance is a witness
    monkeypatch.setattr(checks.graph, "strongly_connected", lambda succ, pred: False)
    rep = checks.suite_strong_connectivity(trials=150, seed=seed)
    assert not rep.passed and rep.trials == 150
    assert rep.failures == ["digraph %s weakly but not strongly connected" % graph.to_json(g) for g in old]

