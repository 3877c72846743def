"""Marginal uniqueness, inversion round trips, and the reduced functional."""

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    HKConclusion,
    equilibrium_marginal,
    gamma_overlap_check,
    hk_verify,
    i_hk,
    invert_potential,
    kronecker_sum,
    pairwise_potential,
    principal_eigen,
    rate_I,
    reduced_functional,
    reduced_variational,
    separable_potential,
    stationary_distribution,
    total_variation,
    validate_generator,
)


@pytest.fixture
def pair_system(two_state):
    sys = kronecker_sum(two_state, 2)
    V0 = pairwise_potential(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    return sys, V0


class TestHkVerify:
    def test_constant_shift(self, pair_system):
        sys, V0 = pair_system
        rep = hk_verify(sys, V0, [0.0, 1.0], [2.5, 3.5])
        assert rep.conclusion is HKConclusion.SAME_POTENTIAL_UP_TO_CONSTANT
        assert rep.marginal_distance <= 1e-10
        assert rep.potential_residual <= 1e-12
        assert rep.lambdas[1] - rep.lambdas[0] == pytest.approx(2.5, abs=1e-10)

    def test_identical_potentials(self, pair_system):
        sys, V0 = pair_system
        rep = hk_verify(sys, V0, [0.0, 1.0], [0.0, 1.0])
        assert rep.conclusion is HKConclusion.SAME_POTENTIAL_UP_TO_CONSTANT
        assert rep.marginal_distance == 0.0
        assert rep.potential_residual == 0.0

    def test_distinct_potentials(self, pair_system):
        sys, V0 = pair_system
        rep = hk_verify(sys, V0, [0.0, 1.0], [0.0, 2.0])
        assert rep.conclusion is HKConclusion.DISTINCT_MARGINALS
        assert rep.marginal_distance > 1e-4
        assert min(rep.inequality_margins) > 0.0
        assert rep.kappa > 0.0

    def test_random_instances_never_violate(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
            sys = kronecker_sum(Q1, 2)
            w = rng.uniform(0, 1, (d, d))
            V0 = pairwise_potential(0.5 * (w + w.T), 2)
            v1 = rng.uniform(-1, 1, d)
            v2 = rng.uniform(-1, 1, d)
            if np.abs((v1 - v2) - (v1 - v2).mean()).max() < 1e-3:
                v2 = v2 + np.linspace(0, 0.5, d)
            rep = hk_verify(sys, V0, v1, v2)
            assert rep.conclusion is HKConclusion.DISTINCT_MARGINALS
            assert rep.marginal_distance > 0.0
            assert min(rep.inequality_margins) > 0.0


class TestInvertPotential:
    def test_round_trip(self, pair_system):
        sys, V0 = pair_system
        v_star = np.array([0.0, 1.0])
        _, _, rho = equilibrium_marginal(sys, V0, v_star)
        res = invert_potential(sys, V0, rho)
        assert res.converged
        assert res.iterations <= 500
        centered = v_star - v_star.mean()
        assert np.abs(res.v_recovered.values - centered).max() <= 1e-4

    def test_zero_potential_recovers_zero(self, pair_system):
        sys, V0 = pair_system
        _, _, rho = equilibrium_marginal(sys, V0, np.zeros(2))
        res = invert_potential(sys, V0, rho)
        assert res.converged
        assert np.abs(res.v_recovered.values).max() <= 1e-6

    def test_round_trip_d3(self, rng):
        Q1 = validate_generator(oracles.rand_rate_matrix(3, rng))
        sys = kronecker_sum(Q1, 2)
        w = rng.uniform(0, 1, (3, 3))
        V0 = pairwise_potential(0.5 * (w + w.T), 2)
        v_star = rng.uniform(-2, 2, 3)
        _, _, rho = equilibrium_marginal(sys, V0, v_star)
        res = invert_potential(sys, V0, rho)
        assert res.converged and res.iterations <= 500
        centered = v_star - v_star.mean()
        assert np.abs(res.v_recovered.values - centered).max() <= 1e-4

    def test_strict_positivity_required(self, pair_system):
        sys, V0 = pair_system
        with pytest.raises(ValueError):
            invert_potential(sys, V0, np.array([1.0, 0.0]))

    def test_loop_stable_under_second_inversion(self, pair_system):
        sys, V0 = pair_system
        _, _, rho = equilibrium_marginal(sys, V0, np.array([0.5, -0.5]))
        first = invert_potential(sys, V0, rho)
        _, _, rho2 = equilibrium_marginal(sys, V0, first.v_recovered)
        second = invert_potential(sys, V0, rho2)
        assert total_variation(rho, rho2) <= 1e-8
        assert np.abs(first.v_recovered.values - second.v_recovered.values).max() <= 1e-4


class TestReducedFunctional:
    def test_single_particle_reduces_to_rate(self, two_state, rng):
        sys = kronecker_sum(two_state, 1)
        V0 = rng.normal(0, 1, 2)
        rho = oracles.rand_measure(2, rng)
        expected = rate_I(two_state, rho).value - float(rho @ V0)
        assert i_hk(sys, V0, rho) == pytest.approx(expected, abs=1e-12)

    def test_no_interaction_stationary_gives_zero(self, two_state):
        sys = kronecker_sum(two_state, 2)
        pi = stationary_distribution(two_state)
        val = i_hk(sys, np.zeros(4), pi)
        assert abs(val) <= 1e-10
        # the optimal coupling is the stationary product measure
        res = reduced_functional(sys, np.zeros(4), pi)
        prod = np.kron(pi.weights, pi.weights)
        assert np.abs(res.mu.weights - prod).max() <= 1e-6

    def test_product_start_is_feasible_upper_bound(self, pair_system, rng):
        sys, V0 = pair_system
        rho = oracles.rand_measure(2, rng)
        prod = np.kron(rho, rho)
        upper = rate_I(sys.QN, prod).value - float(prod @ V0.values)
        res = reduced_functional(sys, V0, rho)
        assert res.constraint_violation <= 1e-9
        assert res.value <= upper + 1e-9

    def test_constraint_and_symmetry_of_minimizer(self, pair_system, rng):
        from dvsemigroup import is_symmetric, marginal
        sys, V0 = pair_system
        rho = oracles.rand_measure(2, rng)
        res = reduced_functional(sys, V0, rho)
        assert total_variation(marginal(res.mu, sys), rho) <= 1e-8
        assert is_symmetric(res.mu, sys, tol=1e-9)

    def test_inner_solves_do_not_chase_round_off(self, pair_system, monkeypatch):
        # The projected gradient can stick at round-off above a gradient
        # threshold; a stage stopped that way runs every Newton step with
        # full backtracking on some last-bit changes of rho, over 1000
        # inner solves instead of about 40.
        from dvsemigroup import hohenberg_kohn, rate_function
        sys, V0 = pair_system
        _, _, rho = equilibrium_marginal(sys, V0, [0.0, 1.0])
        calls = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        monkeypatch.setattr(hohenberg_kohn, "_newton_min", counted)
        for k in range(-4, 5):
            calls.clear()
            nudged = rho.weights * (1.0 + k * 1.1e-16 * np.array([1.0, -1.0]))
            reduced_functional(sys, V0, nudged)
            assert len(calls) <= 100, k


class TestReducedVariational:
    def test_constant_external_no_interaction(self, two_state):
        sys = kronecker_sum(two_state, 2)
        c = 0.9
        lam_hat, _ = reduced_variational(sys, np.zeros(4), [c, c])
        assert lam_hat == pytest.approx(c, abs=1e-6)

    def test_matches_full_spectral_solve(self, pair_system):
        sys, V0 = pair_system
        v = np.array([0.0, 1.0])
        lam_hat, rho_star = reduced_variational(sys, V0, v)
        total = V0.values + separable_potential(v, 2).values
        gd = principal_eigen(sys.QN, total)
        assert abs(lam_hat - gd.lam) <= 1e-4
        _, _, rho_eq = equilibrium_marginal(sys, V0, v)
        assert total_variation(rho_star, rho_eq) <= 1e-3

    def test_iterates_lower_bound_lambda(self, pair_system, rng):
        # any symmetric coupling gives mu(V0 + V) - I(mu) <= lambda
        sys, V0 = pair_system
        v = rng.uniform(-1, 1, 2)
        total = V0.values + separable_potential(v, 2).values
        lam = principal_eigen(sys.QN, total).lam
        for _ in range(5):
            rho = oracles.rand_measure(2, rng)
            res = reduced_functional(sys, V0, rho)
            bound = float(res.mu.weights @ total) - rate_I(sys.QN, res.mu).value
            assert bound <= lam + 1e-9
        lam_hat, _ = reduced_variational(sys, V0, v)
        assert lam_hat <= lam + 1e-9


class TestGammaOverlap:
    def test_constant_shift_vanishes(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V1 = rng.uniform(-1, 1, d)
            val = gamma_overlap_check(Q, V1, V1 + 3.0)
            assert -1e-12 <= val <= 1e-10

    def test_nonconstant_difference_positive(self):
        Q = validate_generator(oracles.rand_rate_matrix(3, np.random.default_rng(3)))
        V1 = np.array([0.2, -0.1, 0.4])
        V2 = V1 + np.array([0.0, 0.1, 0.0])
        assert gamma_overlap_check(Q, V1, V2) > 0.0

    def test_floor(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            val = gamma_overlap_check(Q, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d))
            assert val >= -1e-12
