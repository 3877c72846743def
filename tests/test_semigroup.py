"""Semigroup action, Duhamel defect, sandwich bounds, growth bound."""

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    NonFinite,
    check_condition_A,
    check_condition_B,
    evolve,
    expm,
    growth_bound,
    make_operator,
    validate_generator,
)


# The two checks below run on the library's own expm, so they are test
# helpers here rather than oracles (oracles.py avoids the library's
# numerical paths).

def duhamel_residual(Q, V, t, f, n_steps):
    """Sup-norm defect of u(t) = P_t f + int_0^t P_{t-s} V u(s) ds.

    The integral uses composite Simpson quadrature on n_steps panels
    (rounded up to an even count), so the residual decreases like
    n_steps^{-4} until it hits the floating-point floor.
    """
    n = n_steps + (n_steps % 2)
    V = np.asarray(V, dtype=float)
    M = make_operator(Q, V)
    P0 = expm(Q.rates, t) @ f
    u_t = evolve(M, t, f)

    h = t / n
    integral = np.zeros(Q.dim)
    for k in range(n + 1):
        s = k * h
        u_s = expm(M, s) @ f
        g = expm(Q.rates, t - s) @ (V * u_s)
        weight = 1.0 if k in (0, n) else (4.0 if k % 2 == 1 else 2.0)
        integral += weight * g
    integral *= h / 3.0

    return float(np.abs(u_t - P0 - integral).max())


def sandwich_check(Q, V, t, f, tol=1e-12):
    """Entrywise e^{t min V} P_t f <= P_t^V f <= e^{t max V} P_t f for f >= 0."""
    V = np.asarray(V, dtype=float)
    base = expm(Q.rates, t) @ f if t > 0 else f
    mid = evolve(make_operator(Q, V), t, f)
    lower = np.exp(t * float(V.min())) * base
    upper = np.exp(t * float(V.max())) * base
    band = tol * max(1.0, float(np.abs(upper).max()))
    return bool(np.all(mid >= lower - band) and np.all(mid <= upper + band))


class TestExpm:
    def test_matches_independent_oracles(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 10))
            A = rng.normal(0, 1.5, (d, d)) * rng.choice([0.05, 1.0, 8.0])
            ours = expm(A)
            ref = oracles.scipy_expm(A)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() <= 1e-11 * scale
            assert np.abs(ours - oracles.series_expm(A)).max() <= 1e-10 * scale

    @pytest.mark.parametrize("norm", [0.4, 2.0, 5.3, 5.4, 40.0])
    def test_either_side_of_theta13(self, norm, rng):
        # no squaring up to theta13 = 5.37, then as few as the norm needs
        for _ in range(10):
            d = int(rng.integers(2, 40))
            A = oracles.rand_rate_matrix(d, rng) + np.diag(rng.normal(0, 1, d))
            A *= norm / np.abs(A).sum(axis=1).max()
            ref = oracles.scipy_expm(A)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(expm(A) - ref).max() <= 1e-11 * scale

    def test_overflow_reports_nonfinite(self):
        with pytest.raises(NonFinite):
            expm(np.array([[2000.0, 0.0], [0.0, 2000.0]]))

    def test_time_factor_rounds_as_the_scaled_matrix(self, rng):
        # expm(A, t) scales A once, by t / 2^s, which rounds as (tA) / 2^s
        for _ in range(100):
            d = int(rng.integers(1, 10))
            A = rng.normal(0, 1.5, (d, d))
            t = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 2))
            assert np.array_equal(expm(A, t), expm(t * A))
        assert np.array_equal(expm(A, 0.0), expm(0.0 * A))

    def test_huge_norm_or_time_is_typed(self, two_state):
        # a row sum of |tA| past the float range once raised OverflowError
        # from log2(inf), after a RuntimeWarning; the result is NonFinite
        # where round-off overflows in the squarings, else finite
        Q = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        calls = (lambda: expm(np.array([[-1e308, 1e308], [1e308, -1e308]])),
                 lambda: expm(1e300 * Q.rates, 1e300),
                 lambda: evolve(make_operator(Q, [0.0, 0.0]), 1e308, np.ones(2)))
        for call in calls:
            try:
                out = call()
            except NonFinite:
                continue
            assert np.all(np.isfinite(out))
        for t in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFinite):
                expm(two_state.rates, t)


class TestEvolve:
    def test_time_zero_is_identity(self, two_state):
        op = make_operator(two_state, [1.0, 0.0])
        f = np.array([0.3, -2.0])
        assert np.array_equal(evolve(op, 0.0, f), f)

    def test_markov_conservation(self, two_state, rng):
        op = make_operator(two_state, [0.0, 0.0])
        for t in (0.1, 1.0, 10.0):
            assert np.abs(evolve(op, t, np.ones(2)) - 1.0).max() <= 1e-12

    def test_two_state_eigendecomposition_oracle(self, two_state):
        op = make_operator(two_state, [1.0, 0.0])
        f = np.array([1.0, 0.0])
        expected = oracles.eig_expm(1.0 * op) @ f
        got = evolve(op, 1.0, f)
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_overflowing_product_is_nonfinite(self, two_state):
        # exp(M) is finite, its product with f is not; numpy's overflow
        # warning once came out ahead of the typed error
        with pytest.raises(NonFinite):
            evolve(make_operator(two_state, [700.0, 700.0]), 1.0, [1e10, 1e10])

    def test_nonnegative_input_clamped(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            op = make_operator(Q, rng.uniform(-1, 1, d))
            out = evolve(op, float(rng.uniform(0.1, 3.0)), rng.uniform(0, 1, d))
            assert (out >= 0).all()

    def test_semigroup_law(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            op = make_operator(Q, rng.uniform(-1, 1, d))
            s, t = rng.uniform(0, 2, 2)
            f = rng.normal(0, 1, d)
            once = evolve(op, s + t, f)
            twice = evolve(op, s, evolve(op, t, f))
            scale = max(1.0, np.abs(op).max())
            assert np.abs(once - twice).max() <= 1e-10 * scale * max(1.0, np.abs(once).max())

    def test_positivity_improving(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 8))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            assert check_condition_B(Q)

    def test_condition_B_on_long_chain(self):
        # exp(Q) of the 256-state unit birth-death chain underflows to zero
        # corners (condition A's ratio reads 0.0), but the chain is
        # irreducible, so condition B holds for every T > 0
        n = 256
        Q = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        Q = validate_generator(Q - np.diag(Q.sum(axis=1)))
        assert check_condition_A(Q, 1.0) == 0.0
        assert check_condition_B(Q)

    def test_condition_B_fails_on_reducible_chain(self):
        # state 0 absorbs: undirected-connected, so validated, but exp(TQ)
        # keeps a zero in row 0
        Q = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        assert not check_condition_B(Q)


class TestDuhamel:
    def test_zero_potential_vanishes(self, two_state):
        assert duhamel_residual(two_state, [0.0, 0.0], 1.0, np.array([1.0, -0.5]), 8) <= 1e-12

    def test_two_state_converged_quadrature(self, two_state):
        # doubling study for this instance: 2.78e-7 (32), 1.74e-8 (64),
        # 1.09e-9 (128); clean fourth-order decay
        f = np.array([1.0, 0.0])
        assert duhamel_residual(two_state, [1.0, 0.0], 1.0, f, 64) <= 2e-8
        assert duhamel_residual(two_state, [1.0, 0.0], 1.0, f, 128) <= 1e-8

    def test_fourth_order_decay(self, two_state):
        f = np.array([1.0, 0.0])
        r64 = duhamel_residual(two_state, [1.0, 0.0], 1.0, f, 64)
        r128 = duhamel_residual(two_state, [1.0, 0.0], 1.0, f, 128)
        if r128 > 1e-13:  # above the floating-point floor
            assert r128 / r64 == pytest.approx(1.0 / 16.0, rel=4.0)


class TestSandwich:
    def test_constant_potential_equality(self, two_state):
        c = 0.8
        op = make_operator(two_state, [c, c])
        f = np.array([0.5, 1.5])
        for t in (0.1, 1.0):
            lhs = np.exp(c * t) * (expm(t * two_state.rates) @ f)
            assert np.abs(evolve(op, t, f) - lhs).max() <= 1e-12 * np.abs(lhs).max()
            assert sandwich_check(two_state, [c, c], t, f)

    def test_two_state_times(self, two_state):
        for t in (0.1, 1.0, 10.0):
            assert sandwich_check(two_state, [1.0, 0.0], t, np.array([1.0, 0.0]))

    def test_zero_function(self, two_state):
        assert sandwich_check(two_state, [1.0, 0.0], 1.0, np.zeros(2))

    def test_random_trials(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1.5, 1.5, d)
            t = float(rng.uniform(0, 3))
            f = rng.uniform(0, 2, d)
            assert sandwich_check(Q, V, t, f)


class TestGrowthBound:
    def test_zero_potential_is_one(self, two_state):
        op = make_operator(two_state, [0.0, 0.0])
        assert growth_bound(op, 0.0, [0.0, 0.5, 1.0, 5.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_potential_is_one(self, two_state):
        c = -0.4
        op = make_operator(two_state, [c, c])
        assert growth_bound(op, c, np.linspace(0, 10, 21)) == pytest.approx(1.0, abs=1e-11)

    def test_bounded_by_condition_A_constant(self, two_state):
        # eps' = eps * e^{2 T (min V - max V)} gives C <= 1 / eps'
        V = np.array([1.0, 0.0])
        op = make_operator(two_state, V)
        lam = oracles.eig_principal(op)[0]
        T = 1.0
        eps = check_condition_A(two_state, T)
        eps_prime = eps * np.exp(2 * T * (V.min() - V.max()))
        # the second grid changes gaps and is out of order; growth_bound
        # walks it sorted and rebuilds its step matrix
        # where the gap changes
        for t_grid in (np.linspace(0, 50, 201),
                       [3.0, 0.0, 0.5, 1.0, 1.5, 7.0, 2.0, 2.25, 2.5, 50.0, 12.5, 25.0]):
            C = growth_bound(op, lam, t_grid)
            assert C <= 1.0 / eps_prime + 1e-9
            assert C >= 1.0  # value at t = 0
            per_t = max(np.exp(-lam * t) * evolve(op, t, np.ones(2)).max() for t in t_grid)
            assert C == pytest.approx(per_t, rel=1e-12)

    @pytest.mark.parametrize("v", [[1.0, 0.0], [-1.0, -2.0]])
    def test_long_horizons_stay_finite(self, two_state, v):
        # P_t^V 1 times e^{-lam t} once overflowed past lam t ~ 710: for
        # v = (1, 0) NonFinite at t = 970, for v = (-1, -2) an infinite
        # bound.  exp(t(M - lam I)) 1 stays O(1) and tends to psi
        op = make_operator(two_state, v)
        lam, psi = oracles.eig_principal(op)[:2]
        A = op - lam * np.eye(2)
        for t_grid in (np.linspace(0, 2000, 201), [0.0, 2000.0]):
            want = max(oracles.eig_expm(t * A).sum(axis=1).max() for t in t_grid)
            assert growth_bound(op, lam, t_grid) == pytest.approx(want, rel=1e-10)
        # at t = 1e6 a lam one ulp off already moves e^{lam t} by ~1e-10
        C = growth_bound(op, lam, np.linspace(0, 1e6, 201))
        assert abs(C - psi.max()) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="expm's squarings drift at very long "
                       "horizons (the leftover of ROADMAP item 15): log C is off by "
                       "5.7e-6 relative at T = 1e9, and agrees to 1e-13 at T = 2e3")
    def test_tends_to_max_psi_at_a_very_long_horizon(self, two_state):
        op = make_operator(two_state, [0.2, 0.0])
        lam, psi = oracles.eig_principal(op)[:2]
        C = growth_bound(op, lam, np.linspace(0, 1e9, 201))
        assert np.log(C) == pytest.approx(np.log(psi.max()), rel=1e-9)

    def test_grid_checks(self, two_state):
        # the grid is walked sorted, where NaN comes last and t > t_prev is
        # false for it, so non-finite entries are refused before the walk
        op = make_operator(two_state, [1.0, 0.0])
        for t_grid, error in (([], ValueError), ([0.0, -1.0], ValueError),
                              ([0.0, np.nan], NonFinite), ([0.0, np.inf], NonFinite)):
            with pytest.raises(error):
                growth_bound(op, 0.0, t_grid)
