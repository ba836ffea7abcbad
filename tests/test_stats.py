import itertools
import json
import math
import shutil

import numpy as np
import pytest
from scipy import integrate
from stats_oracles import (
    oracle_anova_oneway,
    oracle_kruskal_wallis,
    oracle_kruskal_wallis_exact,
)
from test_golden import GOLDEN_DIR, MODES, golden_config

from galstream import (
    anova_oneway,
    chi2_survival,
    f_survival,
    kruskal_wallis,
    recompute_reports,
    regularized_incomplete_beta,
    regularized_incomplete_gamma,
    stats,
)
from galstream.config import config_to_dict


# ---------------------------------------------------------------------------
# Quadrature oracles: integrate the defining densities directly
# ---------------------------------------------------------------------------


_QUAD = dict(limit=500, epsabs=1e-13, epsrel=1e-13)


def quad_gamma_lower(a, x):
    val, _ = integrate.quad(lambda t: t ** (a - 1) * math.exp(-t), 0.0, x, **_QUAD)
    return val / math.gamma(a)


def quad_beta(a, b, x):
    val, _ = integrate.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x, **_QUAD)
    return val * math.gamma(a + b) / (math.gamma(a) * math.gamma(b))


def quad_chi2_upper(x, df):
    val, _ = integrate.quad(
        lambda t: t ** (df / 2 - 1) * math.exp(-t / 2), x, np.inf, limit=200
    )
    return val / (2 ** (df / 2) * math.gamma(df / 2))


def quad_f_upper(f, d1, d2):
    c = math.gamma((d1 + d2) / 2) / (math.gamma(d1 / 2) * math.gamma(d2 / 2))
    c *= (d1 / d2) ** (d1 / 2)

    def density(t):
        return c * t ** (d1 / 2 - 1) * (1 + d1 * t / d2) ** (-(d1 + d2) / 2)

    val, _ = integrate.quad(density, f, np.inf, limit=200)
    return val


class TestIncompleteGamma:
    def test_a_one_closed_form(self):
        for x in (0.1, 0.5, 1.0, 2.5, 7.0):
            assert abs(regularized_incomplete_gamma(1.0, x) - (1 - math.exp(-x))) < 1e-12

    def test_zero_is_zero(self):
        assert regularized_incomplete_gamma(3.0, 0.0) == 0.0

    def test_matches_quadrature_on_grid(self):
        for a in (0.5, 1.5, 2.0, 5.0, 10.0):
            for x in (0.2, 1.0, 3.0, 8.0, 20.0):
                got = regularized_incomplete_gamma(a, x)
                assert abs(got - quad_gamma_lower(a, x)) < 1e-9, (a, x)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            regularized_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_gamma(1.0, -0.5)


class TestIncompleteBeta:
    def test_uniform_identity(self):
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert abs(regularized_incomplete_beta(1.0, 1.0, x) - x) < 1e-12

    def test_matches_quadrature_on_grid(self):
        for a in (0.5, 1.0, 2.5, 6.0):
            for b in (0.5, 1.0, 3.5, 8.0):
                for x in (0.05, 0.3, 0.5, 0.8, 0.99):
                    got = regularized_incomplete_beta(a, b, x)
                    assert abs(got - quad_beta(a, b, x)) < 1e-9, (a, b, x)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestTails:
    def test_chi2_matches_quadrature(self):
        for df in (1, 2, 4, 9):
            for x in (0.5, 2.4, 5.0, 15.0):
                assert abs(chi2_survival(x, df) - quad_chi2_upper(x, df)) < 1e-9

    def test_f_matches_quadrature(self):
        for d1, d2 in ((1, 4), (2, 10), (5, 3), (12, 12)):
            for f in (0.5, 1.0, 2.0, 6.0):
                assert abs(f_survival(f, d1, d2) - quad_f_upper(f, d1, d2)) < 1e-9

    def test_edge_values(self):
        assert f_survival(0.0, 2, 5) == 1.0
        assert chi2_survival(-1.0, 3) == 1.0


class TestAnova:
    def test_identical_groups_give_f_zero_p_one(self):
        f, p = anova_oneway([(1.0, 2.0, 3.0), (1.0, 2.0, 3.0)])
        assert f == 0.0
        assert abs(p - 1.0) < 1e-12

    def test_hand_computed_sums_of_squares(self):
        f, p = anova_oneway([(1, 2, 3), (2, 3, 4)])
        assert abs(f - 1.5) < 1e-12
        assert abs(p - quad_f_upper(1.5, 1, 4)) < 1e-9

    def test_degenerate_zero_within_variance(self):
        f, p = anova_oneway([(1.0, 1.0), (2.0, 2.0)])
        assert math.isinf(f)
        assert p == 0.0

    def test_all_identical_rejected(self):
        with pytest.raises(ValueError):
            anova_oneway([(3.0, 3.0), (3.0, 3.0)])

    def test_group_validation(self):
        with pytest.raises(ValueError):
            anova_oneway([(1.0, 2.0)])
        with pytest.raises(ValueError):
            anova_oneway([(1.0,), ()])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        groups = [rng.normal(size=6), rng.normal(size=5), rng.normal(size=7)]
        f1, p1 = anova_oneway(groups)
        f2, p2 = anova_oneway([g + 100.0 for g in groups])
        assert abs(f1 - f2) < 1e-8
        assert abs(p1 - p2) < 1e-8

    def test_accepts_named_groups(self):
        f, _ = anova_oneway({"a": (1, 2, 3), "b": (2, 3, 4)})
        assert abs(f - 1.5) < 1e-12


def kw_oracle_h(groups):
    """Independent H computation: rank-sum form, no tie handling needed."""
    pooled = [x for g in groups for x in g]
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for idx in order[i : j + 1]:
            ranks[idx] = (i + j) / 2 + 1
        i = j + 1
    n = len(pooled)
    pos = 0
    h = 0.0
    for g in groups:
        r = sum(ranks[pos : pos + len(g)])
        h += r * r / len(g)
        pos += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    ties = {}
    for x in pooled:
        ties[x] = ties.get(x, 0) + 1
    correction = 1.0 - sum(t**3 - t for t in ties.values()) / (n**3 - n)
    return h / correction


class TestKruskalWallis:
    def test_identical_multisets_give_h_zero(self):
        h, p = kruskal_wallis([(1, 2, 5), (5, 1, 2)])
        assert abs(h) < 1e-12
        assert abs(p - 1.0) < 1e-12

    def test_hand_ranked_example(self):
        h, p = kruskal_wallis([(1, 2), (3, 4)])
        assert h == 2.4
        assert abs(p - quad_chi2_upper(2.4, 1)) < 1e-9

    def test_matches_independent_h_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            groups = [
                rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
                for _ in range(int(rng.integers(2, 4)))
            ]
            if len(set(x for g in groups for x in g)) == 1:
                continue
            h, _ = kruskal_wallis(groups)
            assert abs(h - kw_oracle_h(groups)) < 1e-10

    def test_all_identical_rejected(self):
        with pytest.raises(ValueError):
            kruskal_wallis([(2.0, 2.0), (2.0, 2.0)])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        groups = [rng.normal(size=5), rng.normal(size=6)]
        h1, p1 = kruskal_wallis(groups)
        h2, p2 = kruskal_wallis([np.exp(g) for g in groups])
        assert abs(h1 - h2) < 1e-12
        assert abs(p1 - p2) < 1e-12

    def test_exact_p_matches_full_enumeration(self):
        groups = [(1.0, 4.0, 2.0), (3.0, 5.0)]
        _, p_exact = oracle_kruskal_wallis_exact(groups)
        # oracle: enumerate every permutation of the pooled values
        pooled = [x for g in groups for x in g]
        h_obs = kw_oracle_h(groups)
        sizes = [len(g) for g in groups]
        at_least = total = 0
        for perm in itertools.permutations(pooled):
            regrouped = [perm[:sizes[0]], perm[sizes[0]:]]
            total += 1
            if kw_oracle_h(regrouped) >= h_obs - 1e-12:
                at_least += 1
        assert abs(p_exact - at_least / total) < 1e-12

    def test_exact_p_with_ties_matches_enumeration(self):
        groups = [(1.0, 2.0, 2.0), (3.0, 1.0)]
        _, p_exact = oracle_kruskal_wallis_exact(groups)
        pooled = [x for g in groups for x in g]
        h_obs = kw_oracle_h(groups)
        at_least = total = 0
        for perm in itertools.permutations(pooled):
            regrouped = [perm[:3], perm[3:]]
            total += 1
            if kw_oracle_h(regrouped) >= h_obs - 1e-12:
                at_least += 1
        assert abs(p_exact - at_least / total) < 1e-12

    def test_chi2_within_band_of_exact_for_ten_per_group(self):
        # soft sanity band, not a theorem
        rng = np.random.default_rng(3)
        groups = [rng.normal(0.0, 1.0, size=10), rng.normal(0.6, 1.0, size=10)]
        _, p_chi2 = kruskal_wallis(groups)
        _, p_exact = oracle_kruskal_wallis_exact(groups)
        assert abs(p_chi2 - p_exact) < 0.05


@pytest.mark.parametrize("test", [anova_oneway, kruskal_wallis])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_rejected_naming_its_group(test, bad):
    with pytest.raises(ValueError, match="group 'b' holds a non-finite"):
        test({"a": [0.1, 0.4, 0.3], "b": [bad, 0.2, 0.5]})
    with pytest.raises(ValueError, match="group 0 holds a non-finite"):
        test([[0.1, bad, 0.3], [bad, 0.2, 0.5]])


# ---------------------------------------------------------------------------
# The pooled tests against their group-at-a-time loop references
# ---------------------------------------------------------------------------

TESTS = [(anova_oneway, oracle_anova_oneway), (kruskal_wallis, oracle_kruskal_wallis)]


def _random_groups(rng):
    """Groups of equal or unequal sizes, long enough in places for pairwise summation to
    engage, holding continuous, tied, signed-zero or single values, as lists or arrays,
    named or by position."""
    count = int(rng.integers(2, 14))
    longest = int(rng.choice([3, 12, 300]))
    if rng.random() < 0.5:
        sizes = np.full(count, rng.integers(1, longest + 1))
    else:
        sizes = rng.integers(1, longest + 1, size=count)
    kind = rng.integers(4)
    groups = []
    for size in sizes:
        if kind == 0:
            group = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
        elif kind == 1:
            group = rng.integers(0, 4, size=size) / 4.0
        elif kind == 2:
            group = rng.choice([0.0, -0.0, 0.5, -0.5], size=size)
        else:
            group = np.full(size, rng.choice([0.25, 0.5, -0.0]))
        groups.append(group.tolist() if rng.random() < 0.5 else group)
    if rng.random() < 0.3:
        return {f"g{i}": g for i, g in enumerate(groups)}
    return groups


def _same_result(test, oracle, groups):
    try:
        want = oracle(groups)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            test(groups)
        assert str(raised.value) == str(exc)
        return False
    got = test(groups)
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)
    return True


@pytest.mark.parametrize("test, oracle", TESTS)
def test_pooled_tests_match_group_at_a_time_loop(test, oracle):
    rng = np.random.default_rng(2718)
    defined = sum(_same_result(test, oracle, _random_groups(rng)) for _ in range(600))
    assert defined > 400


BAD_GROUPS = [
    [],
    [[1.0, 2.0]],
    {"a": [1.0, 2.0], "b": [[1.0, 2.0], [3.0, 4.0]], "c": []},
    [[1.0, 2.0], []],
    {"a": [], "b": [math.nan]},
    [[1.0, math.inf], [math.nan, 2.0]],
    {"a": [0.5, 0.25], "b": [0.1], "c": [-math.inf]},
    {"a": [0.5], "b": [math.nan]},
    [[1.0], [2.0]],
    [[0.0, -0.0], [0.0]],
    [[3.0, 3.0], [3.0, 3.0]],
]


@pytest.mark.parametrize("test, oracle", TESTS)
@pytest.mark.parametrize("groups", BAD_GROUPS)
def test_group_checks_keep_their_messages_and_order(test, oracle, groups):
    assert not _same_result(test, oracle, groups)


@pytest.mark.parametrize("test", [anova_oneway, kruskal_wallis])
def test_a_group_is_all_its_values(test):
    flat = test([[1.0, 2.0, 4.0, 3.0], [5.0, 6.0, 7.0, 9.0], [2.5]])
    nested = test([[[1.0, 2.0], [4.0, 3.0]], np.array([[5.0, 6.0], [7.0, 9.0]]), 2.5])
    assert np.array(nested).tobytes() == np.array(flat).tobytes()


def _neumaier_sum(values, start=0):
    """The compensated sum that Python 3.12 made the built-in ``sum`` of floats."""
    total, compensation = float(start), 0.0
    for x in map(float, values):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_significance_bytes_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # the tests sum over groups left to right; a compensated built-in sum, as in
    # Python 3.12 and later, must not reach them
    monkeypatch.setattr(stats, "sum", _neumaier_sum, raising=False)
    for prefix, mode in MODES.items():
        run = tmp_path / mode
        run.mkdir()
        for name in ("daily.csv", "queries.csv"):
            shutil.copy(GOLDEN_DIR / prefix / name, run / name)
        config = config_to_dict(golden_config(run, mode))
        (run / "run_manifest.json").write_text(json.dumps({"config": config, "failures": []}))
        paths = recompute_reports(run)
        golden = GOLDEN_DIR / prefix / "significance.csv"
        assert paths["significance.csv"].read_bytes() == golden.read_bytes(), mode
    rng = np.random.default_rng(3141)
    for _ in range(200):
        groups = _random_groups(rng)
        for test, oracle in TESTS:
            _same_result(test, oracle, groups)
