"""Gillespie paths and the Monte Carlo eigenvalue estimate."""

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    DimensionMismatch,
    estimate_lambda,
    log_mean_exp,
    occupation_measure,
    principal_eigen,
    sample_weighted_path,
    simulate_ctmc,
    stationary_distribution,
    validate_generator,
)


class TestSimulate:
    def test_single_state_never_moves(self):
        Q = validate_generator([[0.0]])
        path = simulate_ctmc(Q, 0, 5.0, seed=1)
        assert path.states.tolist() == [0]
        assert path.holding_times.tolist() == [5.0]

    def test_holding_times_sum_to_horizon(self, two_state):
        path = simulate_ctmc(two_state, 0, 17.3, seed=4)
        assert path.holding_times.sum() == pytest.approx(17.3, abs=1e-12)
        assert (path.holding_times > 0).all()

    def test_jumps_follow_support(self, two_state, rng):
        path = simulate_ctmc(two_state, 0, 50.0, seed=9)
        for a, b in zip(path.states, path.states[1:]):
            assert two_state.rates[a, b] > 0

    def test_same_seed_same_path(self, two_state):
        p1 = simulate_ctmc(two_state, 1, 25.0, seed=123)
        p2 = simulate_ctmc(two_state, 1, 25.0, seed=123)
        assert np.array_equal(p1.states, p2.states)
        assert np.array_equal(p1.holding_times, p2.holding_times)

    def test_occupation_converges_to_stationary(self, two_state):
        path = simulate_ctmc(two_state, 0, 10000.0, seed=7)
        occ = occupation_measure(path, 2)
        pi = stationary_distribution(two_state).weights
        assert oracles.tv(occ, pi) <= 0.01
        assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_weighted_path_exponent(self, two_state):
        V = np.array([1.0, -0.5])
        path = sample_weighted_path(two_state, V, 0, 8.0, seed=11)
        occ = occupation_measure(path, 2) * path.total_time
        assert path.weight_exponent == pytest.approx(float(occ @ V), abs=1e-12)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_horizon(self, two_state, t):
        with pytest.raises(ValueError):
            simulate_ctmc(two_state, 0, t, seed=0)
        with pytest.raises(ValueError):
            sample_weighted_path(two_state, [1.0, 0.0], 0, t, seed=0)

    @pytest.mark.parametrize("x0", [-1, 2])
    def test_rejects_bad_start(self, two_state, x0):
        with pytest.raises(DimensionMismatch):
            simulate_ctmc(two_state, x0, 1.0, seed=0)
        with pytest.raises(DimensionMismatch):
            sample_weighted_path(two_state, [1.0, 0.0], x0, 1.0, seed=0)


class TestEstimateLambda:
    def test_zero_potential_exact(self, two_state):
        est, se = estimate_lambda(two_state, [0.0, 0.0], 10.0, 50, seed=0)
        assert est == 0.0 and se == 0.0

    def test_constant_potential_exact(self, two_state):
        est, se = estimate_lambda(two_state, [0.3, 0.3], 50.0, 50, seed=0)
        assert est == 0.3 and se == 0.0

    def test_two_state_concordance(self, two_state):
        t, n = 20.0, 4000
        est, se = estimate_lambda(two_state, [1.0, 0.0], t, n, seed=2024)
        lam = principal_eigen(two_state, [1.0, 0.0]).lam
        assert abs(est - lam) <= 3.0 * (se + 0.05 / t)

    def test_shift_covariance(self, two_state):
        t, n, c = 10.0, 500, 0.8
        base, _ = estimate_lambda(two_state, [1.0, 0.0], t, n, seed=5)
        shifted, _ = estimate_lambda(two_state, [1.0 + c, 0.0 + c], t, n, seed=5)
        assert shifted - base == pytest.approx(c, abs=1e-12)

    def test_schedule_independence(self, two_state):
        # one stream per block: block 0 reproduces whether or not later
        # blocks are drawn
        from dvsemigroup.feynman_kac import _BLOCK, _weight_exponents
        V = np.array([1.0, 0.0])
        one = _weight_exponents(two_state, V, 5.0, _BLOCK, 77)
        three = _weight_exponents(two_state, V, 5.0, 3 * _BLOCK, 77)
        assert np.array_equal(three[:_BLOCK], one)
        assert not np.array_equal(three[_BLOCK:2 * _BLOCK], one)

    @pytest.mark.parametrize("raw_Q, V, t, n", [
        # unequal exit rates, state 0 absorbing
        ([[0.0, 0.0], [1.0, -1.0]], [0.3, 0.0], 20.0, 4000),
        # stiff: exit rates 1e6, 2 and 1e-6
        ([[-1e6, 1e6, 0.0], [1.0, -2.0, 1.0], [0.0, 1e-6, -1e-6]], [0.0, 1.0, 2.0],
         50.0, 2000),
    ])
    def test_matches_finite_horizon_value(self, raw_Q, V, t, n):
        # the estimator's target at finite t is (1/t) log mean_x (e^{t(Q+V)} 1)_x
        Q = validate_generator(raw_Q)
        est, se = estimate_lambda(Q, V, t, n, seed=31)
        exact = np.log(oracles.scipy_expm(t * (Q.rates + np.diag(V))).sum(axis=1).mean()) / t
        assert se > 0.0
        assert abs(est - exact) <= 4.0 * se

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_horizon(self, two_state, t):
        for V in ([1.0, 0.0], [0.3, 0.3]):
            with pytest.raises(ValueError):
                estimate_lambda(two_state, V, t, 10, seed=0)

    def test_needs_two_paths(self, two_state):
        with pytest.raises(ValueError):
            estimate_lambda(two_state, [1.0, 0.0], 1.0, 1, seed=0)


class TestLogMeanExp:
    def test_shift_invariance(self, rng):
        vals = rng.normal(0, 3, 200)
        base = log_mean_exp(vals)
        for c in (-700.0, -1.0, 1.0, 700.0):
            assert log_mean_exp(vals + c) - base == pytest.approx(c, abs=1e-12)

    def test_no_overflow(self):
        assert log_mean_exp(np.array([1e4, 1e4 - 1.0])) == pytest.approx(
            1e4 + np.log((1 + np.exp(-1.0)) / 2), abs=1e-10)
