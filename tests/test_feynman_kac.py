"""The Monte Carlo eigenvalue estimate."""

import tracemalloc

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    estimate_lambda,
    log_mean_exp,
    principal_eigen,
    validate_generator,
)
from dvsemigroup import feynman_kac


def _uniform_exit(rng, d, rate):
    """Dense chain that leaves every state at the same total rate."""
    off = rng.uniform(0.5, 1.5, (d, d))
    np.fill_diagonal(off, 0.0)
    off *= rate / off.sum(axis=1, keepdims=True)
    np.fill_diagonal(off, -off.sum(axis=1))
    return off


def _birth_death(rng, d):
    up, down = rng.uniform(0.1, 3.0, d - 1), rng.uniform(0.1, 3.0, d - 1)
    Q = np.diag(up, 1) + np.diag(down, -1)
    return Q - np.diag(Q.sum(axis=1))


def _sparse(rng, d):
    """A cycle plus random rates kept with probability 0.3: rows with zeros."""
    Q = rng.uniform(0.1, 2.0, (d, d)) * (rng.random((d, d)) < 0.3)
    Q[np.arange(d), (np.arange(d) + 1) % d] += 0.5
    np.fill_diagonal(Q, 0.0)
    return Q - np.diag(Q.sum(axis=1))


_RNG = np.random.default_rng(20)
_CHAINS = {
    "dense-2": oracles.rand_rate_matrix(2, _RNG),
    "dense-3": oracles.rand_rate_matrix(3, _RNG),
    "dense-8": oracles.rand_rate_matrix(8, _RNG),
    "dense-128": oracles.rand_rate_matrix(128, _RNG),
    "birth-death-40": _birth_death(_RNG, 40),
    "zeros-12": _sparse(_RNG, 12),
    # exit rates 1e6 + 1e-6 and 2e-6 mix jump probabilities 1e-12 and 1
    "stiff": [[-1e6 - 1e-6, 1e6, 1e-6], [1.0, -2.0, 1.0], [1e-6, 1e-6, -2e-6]],
    "absorbing": [[0.0, 0.0, 0.0], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]],
}


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

    def test_returns_plain_floats(self, two_state):
        # the sampled standard error was once an np.float64
        est, se = estimate_lambda(two_state, [1.0, 0.0], 20.0, 4000, seed=2024)
        assert type(est) is float and type(se) is float

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

    @pytest.mark.parametrize("name", list(_CHAINS))
    def test_alias_tables_rebuild_jump_probabilities(self, name):
        # bucket j of row x keeps j with probability prob[x, j] and sends
        # the rest to alias[x, j]; each of the d buckets has mass 1/d
        Q = validate_generator(_CHAINS[name])
        rates, prob, alias = feynman_kac._jump_chain(Q)
        d = Q.dim
        assert np.array_equal(rates, -np.diag(Q.rates))
        assert prob.min() >= 0.0 and prob.max() <= 1.0
        assert alias.min() >= 0 and alias.max() < d
        mass = prob.copy()
        np.add.at(mass, (np.arange(d)[:, None], alias), 1.0 - prob)
        jump = Q.rates.copy()
        np.fill_diagonal(jump, 0.0)
        live = rates > 0.0
        want = jump[live] / rates[live, None]
        assert np.abs(mass[live] / d - want).max() <= 1e-14

    def test_absorbing_row_never_read(self, monkeypatch):
        # poison the absorbing row: an alias of d would index past every
        # array on the next step, and a NaN prob always takes the alias
        Q = validate_generator(_CHAINS["absorbing"])
        V = np.array([0.5, 0.0, -0.3])
        clean = feynman_kac._weight_exponents(Q, V, 5.0, 3000, 9)
        rates, prob, alias = feynman_kac._jump_chain(Q)
        prob[0], alias[0] = np.nan, Q.dim
        monkeypatch.setattr(feynman_kac, "_jump_chain", lambda Q: (rates, prob, alias))
        poisoned = feynman_kac._weight_exponents(Q, V, 5.0, 3000, 9)
        assert np.array_equal(poisoned, clean)

    def test_memory_is_block_plus_tables(self):
        # one block's vectors plus the d x d tables; picking jumps through
        # a (paths x d) temporary would take 8 * _BLOCK * d = 268 MB here
        d = 512
        rng = np.random.default_rng(4)
        Q = validate_generator(oracles.rand_rate_matrix(d, rng, 0.0, 2.0 / d))
        V = rng.uniform(-1.0, 1.0, d)
        tracemalloc.start()
        try:
            feynman_kac._weight_exponents(Q, V, 1.0, feynman_kac._BLOCK + 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (8 * feynman_kac._BLOCK + 8 * d * d)

    def test_path_count_bounded_in_bytes(self, two_state, monkeypatch):
        # the per-path exponents and two temporaries of their length must
        # fit the byte budget, checked before sampling
        from dvsemigroup import StateSpaceTooLarge, multiparticle
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 24 * 1000)
        estimate_lambda(two_state, [1.0, 0.0], 1.0, 1000, seed=0)
        with pytest.raises(StateSpaceTooLarge) as exc:
            estimate_lambda(two_state, [1.0, 0.0], 1.0, 1001, seed=0)
        assert (exc.value.needed, exc.value.budget) == (24 * 1001, 24 * 1000)
        # a constant potential samples nothing
        assert estimate_lambda(two_state, [0.3, 0.3], 1.0, 10 ** 12, seed=0) == (0.3, 0.0)

    def test_peak_memory_is_three_exponent_copies(self, two_state):
        # what the byte check counts, plus one block's working vectors
        n = 16 * feynman_kac._BLOCK
        tracemalloc.start()
        try:
            estimate_lambda(two_state, [1.0, 0.0], 0.5, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= feynman_kac._PATHS_PEAK * 8 * n + 16 * 8 * feynman_kac._BLOCK

    @pytest.mark.parametrize("raw_Q, V, t, n", [
        # unequal exit rates, state 0 absorbing
        ([[0.0, 0.0], [1.0, -1.0]], [0.3, 0.0], 20.0, 4000),
        # stiff: exit rates 1e6, 2 and 1e-6
        ([[-1e6, 1e6, 0.0], [1.0, -2.0, 1.0], [0.0, 1e-6, -1e-6]], [0.0, 1.0, 2.0],
         50.0, 2000),
        # the mc-rate benchmark's shape: every state left at rate 4
        (_uniform_exit(np.random.default_rng(8), 8, 4.0),
         np.random.default_rng(9).uniform(-0.4, 0.4, 8), 50.0, 2000),
        # dense, 128 states, exit rates near 4 (with exit rates near 1 at
        # t = 20 a few heavy weights carry the mean, and the log-mean-exp
        # estimator itself is biased low)
        (oracles.rand_rate_matrix(128, np.random.default_rng(128), 0.0, 8.0 / 128),
         np.random.default_rng(129).uniform(-1.0, 1.0, 128), 10.0, 2000),
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
