"""Semigroup action, Duhamel defect, sandwich bounds, growth bound."""

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    NegativeInput,
    NonFinite,
    check_condition_A,
    check_condition_B,
    duhamel_residual,
    evolve,
    expm,
    growth_bound,
    make_operator,
    sandwich_check,
    validate_generator,
)


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
        expected = oracles.eig_expm(1.0 * op.matrix) @ f
        got = evolve(op, 1.0, f)
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

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
            assert np.abs(once - twice).max() <= 1e-10 * op.scale * max(1.0, np.abs(once).max())

    def test_positivity_improving(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 8))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            assert check_condition_B(Q, float(rng.uniform(0.05, 2.0)))

    def test_condition_B_on_long_chain(self):
        # exp(Q) of the 256-state unit birth-death chain underflows to zero
        # corners (condition A's ratio reads 0.0), but the chain is
        # irreducible, so condition B holds for every T > 0
        n = 256
        Q = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        Q = validate_generator(Q - np.diag(Q.sum(axis=1)))
        assert check_condition_A(Q, 1.0) == 0.0
        assert check_condition_B(Q, 1.0) and check_condition_B(Q, 1e-3)

    def test_condition_B_fails_on_reducible_chain(self):
        # state 0 absorbs: undirected-connected, so validated, but exp(TQ)
        # keeps a zero in row 0
        Q = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        assert not check_condition_B(Q, 1.0)
        with pytest.raises(ValueError):
            check_condition_B(Q, 0.0)


class TestDuhamel:
    def test_zero_potential_vanishes(self, two_state):
        op = make_operator(two_state, [0.0, 0.0])
        assert duhamel_residual(op, 1.0, np.array([1.0, -0.5]), 8) <= 1e-12

    def test_two_state_converged_quadrature(self, two_state):
        # doubling study for this instance: 2.78e-7 (32), 1.74e-8 (64),
        # 1.09e-9 (128); clean fourth-order decay
        op = make_operator(two_state, [1.0, 0.0])
        f = np.array([1.0, 0.0])
        assert duhamel_residual(op, 1.0, f, 64) <= 2e-8
        assert duhamel_residual(op, 1.0, f, 128) <= 1e-8

    def test_fourth_order_decay(self, two_state):
        op = make_operator(two_state, [1.0, 0.0])
        f = np.array([1.0, 0.0])
        r64 = duhamel_residual(op, 1.0, f, 64)
        r128 = duhamel_residual(op, 1.0, f, 128)
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
            assert sandwich_check(op, t, f)

    def test_two_state_times(self, two_state):
        op = make_operator(two_state, [1.0, 0.0])
        for t in (0.1, 1.0, 10.0):
            assert sandwich_check(op, t, np.array([1.0, 0.0]))

    def test_zero_function(self, two_state):
        op = make_operator(two_state, [1.0, 0.0])
        assert sandwich_check(op, 1.0, np.zeros(2))

    def test_negative_input_rejected(self, two_state):
        op = make_operator(two_state, [1.0, 0.0])
        with pytest.raises(NegativeInput):
            sandwich_check(op, 1.0, np.array([1.0, -0.1]))

    def test_random_trials(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            op = make_operator(Q, rng.uniform(-1.5, 1.5, d))
            t = float(rng.uniform(0, 3))
            f = rng.uniform(0, 2, d)
            assert sandwich_check(op, t, f)


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
        lam = oracles.eig_principal(op.matrix)[0]
        T = 1.0
        eps = check_condition_A(two_state, T)
        eps_prime = eps * np.exp(2 * T * (V.min() - V.max()))
        # the second grid changes gaps and steps back in t, so growth_bound
        # rebuilds its step matrix and restarts from t = 0
        for t_grid in (np.linspace(0, 50, 201),
                       [3.0, 0.0, 0.5, 1.0, 1.5, 7.0, 2.0, 2.25, 2.5, 50.0, 12.5, 25.0]):
            C = growth_bound(op, lam, t_grid)
            assert C <= 1.0 / eps_prime + 1e-9
            assert C >= 1.0  # value at t = 0
            per_t = max(np.exp(-lam * t) * evolve(op, t, np.ones(2)).max() for t in t_grid)
            assert C == pytest.approx(per_t, rel=1e-12)
