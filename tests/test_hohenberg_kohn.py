"""Marginal uniqueness, inversion round trips, and the reduced functional."""

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    DimensionMismatch,
    HKConclusion,
    UnsupportedSupport,
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
    total_variation,
    validate_generator,
)
from dvsemigroup import hohenberg_kohn, multiparticle


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

    def test_start_moves_values_at_round_off_only(self, rng):
        # v1's solve from the ground data of the orbit chain at v1 takes no
        # Noda solve; the report matches the one from the uniform start
        from dvsemigroup.hohenberg_kohn import _orbit_marginal
        sys, V0, _ = _d4_system(4)
        v1, v2 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        ground, _ = _orbit_marginal(sys, sys.on_orbits(V0), v1)
        cold = hk_verify(sys, V0, v1, v2)
        warm = hk_verify(sys, V0, v1, v2, start=ground)
        assert warm.conclusion is cold.conclusion
        assert np.allclose(warm.lambdas, cold.lambdas, rtol=1e-13, atol=0)
        assert warm.marginal_distance == pytest.approx(cold.marginal_distance, rel=1e-10)
        assert np.allclose(warm.inequality_margins, cold.inequality_margins, rtol=1e-9)

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
        assert res.iterations <= 10
        centered = v_star - v_star.mean()
        assert np.abs(res.v_recovered.values - centered).max() <= 1e-4

    def test_tol_and_max_iter_stop_the_ascent(self, rng):
        Q1 = validate_generator(oracles.rand_rate_matrix(3, rng))
        sys = kronecker_sum(Q1, 2)
        w = rng.uniform(0, 1, (3, 3))
        V0 = pairwise_potential(0.5 * (w + w.T), 2)
        _, _, rho = equilibrium_marginal(sys, V0, rng.uniform(-2, 2, 3))
        default = invert_potential(sys, V0, rho)
        loose = invert_potential(sys, V0, rho, tol=1e-4)
        assert default.converged and default.marginal_error <= 1e-8
        assert loose.converged and loose.marginal_error <= 1e-4
        assert loose.iterations <= default.iterations
        capped = invert_potential(sys, V0, rho, max_iter=1)
        assert capped.iterations == 1 and not capped.converged

    def test_seeded_sweep_converges(self):
        # rates over four decades, strong pair interactions, and targets
        # that are reachable marginals or Dirichlet draws floored at 1e-6
        rng = np.random.default_rng(1)
        for i in range(30):
            d, N = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            if d ** N > 700:
                N = 2
            Q1 = validate_generator(oracles.rand_rate_matrix(d, rng)
                                    * 10 ** rng.uniform(-2, 2))
            sys = kronecker_sum(Q1, N)
            w = rng.uniform(0, 3, (d, d))
            V0 = pairwise_potential(0.5 * (w + w.T), N)
            if i % 3 == 0:
                target = equilibrium_marginal(sys, V0, rng.uniform(-6, 6, d))[2].weights
            else:
                target = np.maximum(rng.dirichlet(np.full(d, 0.3 if i % 3 == 1 else 2.0)),
                                    1e-6)
                target /= target.sum()
            res = invert_potential(sys, V0, target)
            assert res.converged and res.marginal_error <= 1e-8, (i, d, N)

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
        pi = principal_eigen(two_state, np.zeros(two_state.dim)).pi
        val = i_hk(sys, np.zeros(4), pi)
        assert abs(val) <= 1e-10
        # the optimal coupling is the stationary product measure
        res = reduced_functional(sys, np.zeros(4), pi)
        prod = np.kron(pi.weights, pi.weights)
        assert np.abs(sys.orbits.spread(res.orbit_masses) - prod).max() <= 1e-6

    @pytest.mark.parametrize("start, error", [
        ([0.2, 0.3, 0.5, 0.0], DimensionMismatch),   # 3 orbits
        ([0.7, 0.7, 0.7], ValueError),
        ([0.5, 0.0, 0.5], UnsupportedSupport),
        ([0.6, 0.2, 0.2], ValueError),     # marginal (0.7, 0.3), not rho
    ])
    def test_start_checked_before_any_solve(self, pair_system, monkeypatch, start, error):
        from dvsemigroup import rate_function

        def no_solve(*args, **kwargs):
            raise AssertionError("a rate solve ran before the start was checked")

        monkeypatch.setattr(rate_function, "_newton_min", no_solve)
        sys, V0 = pair_system
        with pytest.raises(error):
            reduced_functional(sys, V0, [0.5, 0.5], start=start)

    def test_zero_marginal_entry_raises(self, pair_system):
        sys, V0 = pair_system
        with pytest.raises(ValueError, match="strictly positive"):
            reduced_functional(sys, V0, [1.0, 0.0])

    def test_product_start_is_feasible_upper_bound(self, pair_system, rng):
        sys, V0 = pair_system
        rho = oracles.rand_measure(2, rng)
        prod = np.kron(rho, rho)
        upper = rate_I(sys.QN, prod).value - float(prod @ V0.values)
        res = reduced_functional(sys, V0, rho)
        assert res.constraint_violation <= 1e-9
        assert res.value <= upper + 1e-9

    def test_constraint_and_symmetry_of_minimizer(self, pair_system, rng):
        from dvsemigroup import is_symmetric
        sys, V0 = pair_system
        rho = oracles.rand_measure(2, rng)
        mu = sys.orbits.spread(reduced_functional(sys, V0, rho).orbit_masses)
        assert oracles.tv(oracles.loop_marginal(mu, sys.d, sys.N), rho) <= 1e-8
        assert is_symmetric(mu, sys, tol=1e-9)

    def test_inner_solves_do_not_chase_round_off(self, pair_system, monkeypatch):
        # The projected gradient can stick at round-off above a gradient
        # threshold; a stage stopped that way runs every Newton step with
        # full backtracking on some last-bit changes of rho, over 1000
        # inner solves instead of at most 4.
        from dvsemigroup import rate_function
        sys, V0 = pair_system
        _, _, rho = equilibrium_marginal(sys, V0, [0.0, 1.0])
        calls = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        for k in range(-4, 5):
            calls.clear()
            nudged = rho.weights * (1.0 + k * 1.1e-16 * np.array([1.0, -1.0]))
            reduced_functional(sys, V0, nudged)
            assert len(calls) <= 50, k


def _d4_system(d):
    # off-diagonal rates U(0.5, 1.5), pair weights (a + a^T)/2 with
    # a ~ U(0, 1), external potential U(-1, 1)
    rng = np.random.default_rng(171109463 + d)
    R = rng.uniform(0.5, 1.5, (d, d))
    np.fill_diagonal(R, 0.0)
    a = rng.uniform(0, 1, (d, d))
    v = rng.uniform(-1, 1, d)
    Q1 = validate_generator(R - np.diag(R.sum(axis=1)))
    return kronecker_sum(Q1, 4), pairwise_potential(0.5 * (a + a.T), 4), v


def _tiny_mass_draw(k):
    """Draw k of a seeded (d, N) sweep; draws 60 and 73 are (4, 4) systems
    whose equilibrium puts ~1e-17 on some orbit."""
    rng = np.random.default_rng(7)
    for _ in range(k + 1):
        d, N = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        R = 10 ** rng.uniform(-1.5, 1.5, (d, d)) * (rng.random((d, d)) < 0.8)
        R[np.arange(d), (np.arange(d) + 1) % d] += 0.1
        np.fill_diagonal(R, 0.0)
        a = rng.uniform(0, 3, (d, d))
        v = rng.uniform(-3, 3, d)
    Q1 = validate_generator(R - np.diag(R.sum(axis=1)))
    return kronecker_sum(Q1, N), pairwise_potential(0.5 * (a + a.T), N), v


class TestFeasibleNewton:
    """One Newton run from the feasible product measure keeps C p = rho to
    round-off, and its KKT multiplier is the external potential, -v up to a
    constant, at the equilibrium marginal of v."""

    @pytest.mark.parametrize("d", [3, 4, 6, 7])
    def test_exact_at_equilibrium_marginal(self, d):
        sys, V0, v = _d4_system(d)
        lam, _, rho = equilibrium_marginal(sys, V0, v)
        res = reduced_functional(sys, V0, rho)
        assert res.constraint_violation <= 1e-12
        assert abs(lam - (float(rho.weights @ v) - res.value)) <= 1e-12
        assert np.ptp(res.multiplier + v) <= 1e-9

    def test_inner_solves_do_not_grow_with_orbits(self, monkeypatch):
        # (7, 4) once ran 1961 inner solves against 50 at (6, 4)
        from dvsemigroup import rate_function
        calls = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        counts = []
        for d in (6, 7):
            sys, V0, v = _d4_system(d)
            rho = equilibrium_marginal(sys, V0, v)[2]
            calls.clear()
            reduced_functional(sys, V0, rho)
            counts.append(len(calls))
        assert counts[1] <= counts[0] <= 10

    def test_one_rate_solve_per_point(self, monkeypatch):
        # the Newton run once solved every accepted point again at its next
        # step, and reduced_functional solved the final point once more: 8
        # inner solves on 4 points here
        from dvsemigroup import rate_function
        points = []
        inner = rate_function._newton_min

        def recorded(Q, mu, *args, **kwargs):
            points.append(mu.tobytes())
            return inner(Q, mu, *args, **kwargs)

        sys, V0, v = _d4_system(6)
        lam, _, rho = equilibrium_marginal(sys, V0, v)
        monkeypatch.setattr(rate_function, "_newton_min", recorded)
        res = reduced_functional(sys, V0, rho)
        assert abs(lam - (float(rho.weights @ v) - res.value)) <= 1e-12
        assert len(points) == len(set(points)) <= 5

    def test_ground_start_certifies_tiny_mass_draws(self):
        # started at the equilibrium measure whose marginal rho is, the run
        # certifies every draw, 60 and 73 included, to round-off; from the
        # product measure those two raise (below)
        for k in range(100):
            sys, V0, v = _tiny_mass_draw(k)
            counts = sys.orbits.counts
            gd = principal_eigen(sys.lumped_QN, sys.on_orbits(V0) + counts @ v / sys.N)
            rho = counts.T @ gd.mu.weights / sys.N
            res = reduced_functional(sys, V0, rho, start=gd.mu)
            assert abs(float(rho @ v) - res.value - gd.lam) <= 1e-12, k

    @pytest.mark.parametrize("k", [60, 73])
    def test_tiny_orbit_mass_raises(self, k):
        # Newton steps cut at the boundary cannot resolve orbit masses of
        # 1e-17; the primal value was off by 1e-2 and 4e-4 with no error.
        # The dual bound at u = -y exposes it.
        from dvsemigroup import NotConverged
        sys, V0, v = _tiny_mass_draw(k)
        assert (sys.d, sys.N) == (4, 4)
        rho = equilibrium_marginal(sys, V0, v)[2]
        with pytest.raises(NotConverged) as err:
            reduced_functional(sys, V0, rho)
        assert err.value.residual > 1e-4


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
            mu = sys.orbits.spread(reduced_functional(sys, V0, rho).orbit_masses)
            bound = float(mu @ total) - rate_I(sys.QN, mu).value
            assert bound <= lam + 1e-9
        lam_hat, _ = reduced_variational(sys, V0, v)
        assert lam_hat <= lam + 1e-9

    def test_seeded_sweep_is_exact(self):
        # the maximizer comes from dv_sup on the orbit chain, so it is the
        # equilibrium marginal to round-off; the ascent it replaced left
        # TV(rho*, rho_eq) up to 9.5e-6 on these draws
        rng = np.random.default_rng(7)
        for i in range(60):
            d, N = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            sys, V0 = _pair_system(d, N, rng)
            v = rng.uniform(-1, 1, d)
            lam_hat, rho_star = reduced_variational(sys, V0, v)
            lam, _, rho_eq = equilibrium_marginal(sys, V0, v)
            assert abs(lam_hat - lam) <= 1e-9, (i, d, N)
            assert total_variation(rho_star, rho_eq) <= 1e-8, (i, d, N)

    def test_inner_solves_at_126_orbits(self, monkeypatch):
        # one dv_sup run and one reduced_functional run; the ascent it
        # replaced made 161 inner solves here, and solving each point twice
        # made 28
        from dvsemigroup import rate_function
        calls = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        sys, V0, v = _d4_system(6)
        reduced_variational(sys, V0, v)
        assert len(calls) <= 20

    @pytest.mark.parametrize("shift, certified", [([0.0, 0.01], False), ([0.3, 0.3], True)])
    def test_gap_certifies_the_multiplier(self, pair_system, monkeypatch, shift, certified):
        # -y is the gradient of I_HK at rho*, defined up to a constant: a
        # constant shift keeps the Frank-Wolfe gap at zero, a non-constant
        # one opens it past tol
        from dataclasses import replace

        from dvsemigroup import NotConverged, hohenberg_kohn
        sys, V0 = pair_system
        inner = hohenberg_kohn.reduced_functional

        def shifted(*args, **kwargs):
            res = inner(*args, **kwargs)
            return replace(res, multiplier=res.multiplier + np.array(shift))

        monkeypatch.setattr(hohenberg_kohn, "reduced_functional", shifted)
        if certified:
            lam_hat, _ = reduced_variational(sys, V0, [0.0, 1.0])
            assert abs(lam_hat - equilibrium_marginal(sys, V0, [0.0, 1.0])[0]) <= 1e-9
        else:
            with pytest.raises(NotConverged) as err:
                reduced_variational(sys, V0, [0.0, 1.0])
            assert err.value.residual > 1e-4

    def test_reduced_functional_errors_pass_through(self, pair_system, monkeypatch):
        from dvsemigroup import NotConverged, hohenberg_kohn
        sys, V0 = pair_system
        failure = NotConverged(0.0, 1.0)

        def fails(*args, **kwargs):
            raise failure

        monkeypatch.setattr(hohenberg_kohn, "reduced_functional", fails)
        with pytest.raises(NotConverged) as err:
            reduced_variational(sys, V0, [0.0, 1.0])
        assert err.value is failure


def _pair_system(d, N, rng):
    Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
    w = rng.uniform(0, 1, (d, d))
    return kronecker_sum(Q1, N), pairwise_potential(0.5 * (w + w.T), N)


class TestOrbitChain:
    @pytest.mark.parametrize("d, N", [(3, 3), (2, 5)])
    def test_equilibrium_marginal_matches_dense(self, d, N, rng):
        for _ in range(3):
            sys, V0 = _pair_system(d, N, rng)
            v = rng.uniform(-1, 1, d)
            lam, mu, rho = equilibrium_marginal(sys, V0, v)
            gd = principal_eigen(sys.QN, V0.values + separable_potential(v, N).values)
            grid = gd.mu.weights.reshape((d,) * N)
            coords = [grid.sum(axis=tuple(j for j in range(N) if j != k)) for k in range(N)]
            assert abs(lam - gd.lam) <= 1e-12
            assert np.abs(rho.weights - np.mean(coords, axis=0)).max() <= 1e-12
            assert np.abs(mu.weights - gd.mu.weights).max() <= 1e-12

    def test_i_hk_beyond_256_states(self, rng):
        # 1296 states, 126 orbits: the reduced principle at the equilibrium
        # marginal, rho(v) - I_HK(rho) = lambda, within criterion 9's 1e-4
        sys, V0 = _pair_system(6, 4, rng)
        v = rng.uniform(-1, 1, 6)
        lam, _, rho = equilibrium_marginal(sys, V0, v)
        assert abs(float(rho.weights @ v) - i_hk(sys, V0, rho) - lam) <= 1e-4

    def test_i_hk_past_256_orbits(self, rng):
        # 715 orbits, which the former 256-orbit cap refused; i_hk returns
        # only a value its dual bracket certifies
        sys, V0 = _pair_system(10, 4, rng)
        assert sys.lumped_QN.dim == 715
        v = rng.uniform(-1, 1, 10)
        lam, _, rho = equilibrium_marginal(sys, V0, v)
        assert abs(float(rho.weights @ v) - i_hk(sys, V0, rho) - lam) <= 1e-4

    def test_byte_budget_bounds_orbits(self, rng, monkeypatch):
        # (4, 4) has 35 orbits: the orbit chain needs 10 x 35^2 x 8 bytes
        from dvsemigroup import StateSpaceTooLarge, multiparticle
        rho = np.full(4, 0.25)
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 98000)
        sys, V0 = _pair_system(4, 4, rng)
        reduced_functional(sys, V0, rho)
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 97999)
        sys = kronecker_sum(sys.Q1, 4)
        with pytest.raises(StateSpaceTooLarge):
            reduced_functional(sys, V0, rho)
        with pytest.raises(StateSpaceTooLarge):
            reduced_variational(sys, V0, np.zeros(4))

    def test_solves_run_at_orbit_size(self, rng, monkeypatch):
        from dvsemigroup import hohenberg_kohn, rate_function
        sys, V0 = _pair_system(4, 4, rng)
        dims = []
        eigen, newton = hohenberg_kohn.principal_eigen, rate_function._newton_min

        def seen_eigen(Q, V, *args):
            dims.append(("eigen", Q.dim))
            return eigen(Q, V, *args)

        def seen_newton(Q, mu, *args):
            dims.append(("newton", len(mu)))
            return newton(Q, mu, *args)

        monkeypatch.setattr(hohenberg_kohn, "principal_eigen", seen_eigen)
        monkeypatch.setattr(rate_function, "_newton_min", seen_newton)
        _, _, rho = equilibrium_marginal(sys, V0, rng.uniform(-1, 1, 4))
        assert dims == [("eigen", 35)]
        res = reduced_functional(sys, V0, rho)
        assert len(res.orbit_masses) == 35
        assert {dim for name, dim in dims if name == "newton"} == {35}

    def test_V0_on_the_orbits_is_taken_as_it_is(self, rng, monkeypatch):
        # each map gives the same values for V0 on the 10 orbits as for V0
        # on the 27 states, and checks no symmetry for the former
        from dvsemigroup import multiparticle
        sys, V0 = _pair_system(3, 3, rng)
        V0v = sys.on_orbits(V0)
        assert len(V0v) == 10
        v1, v2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        rho = equilibrium_marginal(sys, V0, v1)[2]

        def maps(V):
            report = hk_verify(sys, V, v1, v2)
            inverse = invert_potential(sys, V, rho)
            return (report.lambdas, report.marginal_distance, report.inequality_margins,
                    inverse.v_recovered.values.tolist(), inverse.iterations,
                    i_hk(sys, V, rho), equilibrium_marginal(sys, V, v2)[0],
                    reduced_variational(sys, V, v2)[0])

        dense = maps(V0)

        def unchecked(*args, **kwargs):
            raise AssertionError("a V0 on the orbits was checked for symmetry")

        monkeypatch.setattr(multiparticle, "is_symmetric", unchecked)
        assert maps(V0v) == dense
        with pytest.raises(DimensionMismatch):
            hk_verify(sys, V0v[:-1], v1, v2)

    def test_rejects_non_symmetric_V0(self, pair_system):
        sys, _ = pair_system
        V0 = np.zeros(4)
        V0[np.ravel_multi_index((0, 1), (2, 2))] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            equilibrium_marginal(sys, V0, [0.0, 1.0])
        with pytest.raises(ValueError, match="symmetric"):
            reduced_functional(sys, V0, [0.5, 0.5])


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


class TestPastTheGrid:
    """(2, 200): 201 orbits, and 2^200 states that no map reaches."""

    def test_hk_maps_read_the_counts_alone(self):
        # with V0 given per orbit, hk_verify, invert_potential and i_hk run
        # on the counts, and certify, with no map to the d^N states built
        sys = kronecker_sum(validate_generator([[-1.0, 1.0], [2.0, -2.0]]), 200)
        V0 = multiparticle._pair_sums([[0.0, 1.0], [1.0, 0.5]], sys.orbits, 200)
        v = np.array([1.0, 0.0])
        gd, rho = hohenberg_kohn._orbit_marginal(sys, V0, v)
        assert hk_verify(sys, V0, v, [0.0, 1.0]).conclusion is HKConclusion.DISTINCT_MARGINALS
        inv = invert_potential(sys, V0, rho)
        assert inv.converged and np.abs(inv.v_recovered.values - (v - v.mean())).max() <= 1e-6
        assert abs(float(rho.weights @ v) - i_hk(sys, V0, rho) - gd.lam) <= 1e-4
        assert "_maps" not in vars(sys.orbits)

    @pytest.mark.parametrize("rho1", [
        0.5, 0.9,
        # the Hessian's group-inverse solve is singular here, and a bare
        # LinAlgError escapes
        pytest.param(0.05, marks=pytest.mark.xfail(
            strict=True, raises=np.linalg.LinAlgError, reason="singular Hessian solve"))])
    def test_inverts_to_N_times_the_one_particle_potential(self, rho1):
        # no interaction: the product measure of mu_1(v / N) has marginal
        # mu_1(v / N), so the potential with marginal rho is N V_rho, V_rho
        # the one-particle potential whose equilibrium measure is rho
        a, b = 1.0, 2.0
        sys = kronecker_sum(validate_generator([[-a, a], [b, -b]]), 200)
        inv = invert_potential(sys, np.zeros(201), [rho1, 1.0 - rho1])
        want = 200 * oracles.two_state_potential(a, b, rho1)
        assert inv.converged
        err = np.abs(inv.v_recovered.values - (want - want.mean())).max()
        assert err <= 1e-8 * np.abs(want).max()
