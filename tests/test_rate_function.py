"""Rate function, tilted rate, dual problems, and relative entropy."""

import inspect
import itertools
import sys

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    ConvergenceFailure,
    DimensionMismatch,
    NotConverged,
    UnsupportedSupport,
    dv_sup,
    evolve,
    make_operator,
    principal_eigen,
    rate_I,
    rate_IV,
    relative_entropy,
    total_variation,
    validate_generator,
)


def _objective(Q, mu, w):
    E = np.exp(w[None, :] - w[:, None])
    return float((mu[:, None] * Q.rates * E).sum())


def _line_runs(func, marker, call):
    """Whether the first line of func's source that holds marker runs
    while call() does; the result of call() too."""
    lines, first = inspect.getsourcelines(func)
    line = first + next(i for i, text in enumerate(lines) if marker in text)
    hits = []

    def trace(frame, event, arg):
        if frame.f_code is not func.__code__:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                hits.append(line)
            return local
        return local

    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return bool(hits), result


class TestRateI:
    def test_stationary_gives_zero_and_flat_minimizer(self, two_state):
        pi = principal_eigen(two_state, np.zeros(two_state.dim)).pi
        res = rate_I(two_state, pi)
        assert res.value <= 1e-14
        assert res.converged
        assert np.abs(res.minimizer_logu).max() <= 1e-7  # u identically one

    def test_two_state_closed_form(self):
        a, b = 0.7, 1.3
        Q = validate_generator([[-a, a], [b, -b]])
        for m1 in (0.15, 0.5, 0.85):
            got = rate_I(Q, [m1, 1 - m1]).value
            assert got == pytest.approx(oracles.two_state_rate(a, b, m1), abs=1e-10)

    def test_nonnegative_everywhere(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            res = rate_I(Q, oracles.rand_measure(d, rng))
            assert res.value >= 0.0
            assert res.gradient_norm <= 1e-10

    def test_brute_force_oracle(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            mu = oracles.rand_measure(d, rng)
            got = rate_I(Q, mu).value
            assert got == pytest.approx(oracles.rate_brute(Q.rates, mu), abs=1e-6)

    def test_objective_convex_along_segments(self, two_state, rng):
        Q = two_state
        mu = np.array([0.4, 0.6])
        for _ in range(100):
            w1 = rng.normal(0, 2, 2)
            w2 = rng.normal(0, 2, 2)
            mid = _objective(Q, mu, 0.5 * (w1 + w2))
            avg = 0.5 * _objective(Q, mu, w1) + 0.5 * _objective(Q, mu, w2)
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))

    def test_gauge_invariance(self, two_state, rng):
        mu = np.array([0.3, 0.7])
        for _ in range(20):
            w = rng.normal(0, 1, 2)
            c = float(rng.uniform(-5, 5))
            a = _objective(two_state, mu, w)
            b = _objective(two_state, mu, w + c)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_boundary_reject(self, two_state):
        with pytest.raises(UnsupportedSupport):
            rate_I(two_state, [1.0, 0.0])

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e10, 1e12])
    def test_two_state_closed_form_at_any_rate_scale(self, s):
        # the gradient's round-off floor grows with the rates: stopped at an
        # absolute 1e-10, s = 1e6 ended unconverged (gradient 1.2e-10) and
        # s = 1e10 and 1e12 raised NotConverged (1.9e-6 and 1.2e-4)
        Q = validate_generator([[-s, s], [2.0 * s, -2.0 * s]])
        res = rate_I(Q, [0.3, 0.7])
        exact = oracles.two_state_rate(s, 2.0 * s, 0.3)
        assert res.converged
        assert abs(res.value - exact) <= 1e-12 * exact

    def test_armijo_backtracking(self):
        # seed 332 of a search over sparse chains of 2 to 8 states and
        # measures with weights e^z, z normal with standard deviation 2: a
        # full Newton step there does not halve the gradient, so the step
        # is taken on Armijo decrease
        from dvsemigroup import rate_function
        rng = np.random.default_rng(332)
        d = int(rng.integers(2, 9))
        M = oracles.rand_rate_matrix(d, rng) * (rng.uniform(size=(d, d)) < 0.4)
        np.fill_diagonal(M, 0.0)
        M[np.arange(d), (np.arange(d) + 1) % d] += 0.5
        np.fill_diagonal(M, -M.sum(axis=1))
        Q = validate_generator(M)
        mu = np.exp(rng.normal(0.0, 2.0, d))
        mu /= mu.sum()
        ran, res = _line_runs(rate_function._newton_min, "accepted = False",
                              lambda: rate_I(Q, mu))
        assert d == 4 and ran
        assert res.converged
        assert abs(res.value - oracles.legendre_I(Q, mu)) <= 1e-9 * max(1.0, res.value)


class TestRateIV:
    def test_zero_at_equilibrium(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 8))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            gd = principal_eigen(Q, V)
            assert abs(rate_IV(Q, V, gd.mu)) <= 1e-8

    def test_zero_potential_stationary(self, two_state):
        pi = principal_eigen(two_state, np.zeros(two_state.dim)).pi
        assert abs(rate_IV(two_state, [0.0, 0.0], pi)) <= 1e-12

    def test_positive_off_equilibrium(self, two_state):
        gd = principal_eigen(two_state, [1.0, 0.0])
        m = gd.mu.weights.copy()
        m[0] += 0.05
        m[1] -= 0.05
        assert rate_IV(two_state, [1.0, 0.0], m / m.sum()) > 1e-4

    def test_never_below_floor(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            assert rate_IV(Q, V, oracles.rand_measure(d, rng)) >= -1e-9


class TestDvSup:
    def test_constant_potential(self, two_state):
        c = 1.3
        lam_hat, mu_star = dv_sup(two_state, [c, c])
        assert lam_hat == pytest.approx(c, abs=1e-10)
        pi = principal_eigen(two_state, np.zeros(two_state.dim)).pi
        assert total_variation(mu_star, pi) <= 1e-6

    def test_two_state_closed_form(self, two_state):
        lam_hat, _ = dv_sup(two_state, [1.0, 0.0])
        assert lam_hat == pytest.approx(oracles.two_state_lambda(1, 2, 1, 0), abs=1e-10)

    def test_matches_spectral_d5(self, rng):
        for _ in range(20):
            Q = validate_generator(oracles.rand_rate_matrix(5, rng))
            V = rng.uniform(-1, 1, 5)
            gd = principal_eigen(Q, V)
            lam_hat, mu_star = dv_sup(Q, V)
            assert abs(lam_hat - gd.lam) <= 1e-8
            assert total_variation(mu_star, gd.mu) <= 1e-6

    @pytest.mark.parametrize("start, error", [
        ([0.2, 0.3, 0.5], DimensionMismatch),
        ([0.6, 0.6], ValueError),
        ([1.0, 0.0], UnsupportedSupport),
    ])
    def test_start_checked_before_any_solve(self, two_state, monkeypatch, start, error):
        from dvsemigroup import rate_function

        def no_solve(*args, **kwargs):
            raise AssertionError("a rate solve ran before the start was checked")

        monkeypatch.setattr(rate_function, "_newton_min", no_solve)
        with pytest.raises(error):
            dv_sup(two_state, [1.0, 0.0], start=start)


    @pytest.mark.parametrize("logu, error", [
        ([0.0, 0.0, 0.0], DimensionMismatch),
        ([0.0, np.nan], ValueError),
    ])
    def test_logu_checked_before_any_solve(self, two_state, monkeypatch, logu, error):
        from dvsemigroup import rate_function

        def no_solve(*args, **kwargs):
            raise AssertionError("a rate solve ran before logu was checked")

        monkeypatch.setattr(rate_function, "_newton_min", no_solve)
        with pytest.raises(error):
            dv_sup(two_state, [1.0, 0.0], start=[0.5, 0.5], logu=logu)

    def test_logu_starts_the_inner_solve(self, rng, monkeypatch):
        # rate_I's minimizer at the equilibrium measure, solved to 1e-10,
        # leaves dv_sup's solve there at most one Newton step to 1e-12
        from dvsemigroup import rate_function
        steps = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            steps.append(out[3])
            return out

        Q = validate_generator(oracles.rand_rate_matrix(64, rng))
        V = rng.uniform(-1, 1, 64)
        gd = principal_eigen(Q, V)
        rate = rate_I(Q, gd.mu)
        monkeypatch.setattr(rate_function, "_newton_min", counted)
        cold = dv_sup(Q, V, start=gd.mu)
        warm = dv_sup(Q, V, start=gd.mu, logu=rate.minimizer_logu)
        assert len(steps) == 2 and steps[0] >= 3 and steps[1] <= 1
        assert abs(warm[0] - cold[0]) <= 1e-13
        assert abs(warm[0] - gd.lam) <= 1e-8


def _stress_draws(n):
    """Seeded chains that rotate through birth-death, sparse and dense."""
    rng = np.random.default_rng(3)
    for k in range(n):
        d = int(rng.integers(3, 33))
        if k % 3 == 0:
            R = np.zeros((d, d))
            i = np.arange(d - 1)
            R[i, i + 1] = 10 ** rng.uniform(-1, 1, d - 1)
            R[i + 1, i] = 10 ** rng.uniform(-1, 1, d - 1)
        elif k % 3 == 1:
            # 30% density plus a 0.1 unit cycle keeps the chain irreducible
            R = rng.random((d, d)) * (rng.random((d, d)) < 0.3)
            R[np.arange(d), (np.arange(d) + 1) % d] += 0.1
        else:
            R = 10 ** rng.uniform(-2, 1, (d, d))
        np.fill_diagonal(R, 0.0)
        V = rng.uniform(-1, 1, d) * rng.choice([0.3, 1.0, 3.0])
        yield validate_generator(R - np.diag(R.sum(axis=1))), V


class TestDvSupStress:
    def test_certified_or_not_converged(self):
        # Every draw either matches the Perron eigenvalue or raises
        # NotConverged, from the uniform measure, from the equilibrium
        # measure and from a Dirichlet(1) draw: the start is never trusted,
        # only the gap.  A RuntimeWarning fails the test (pyproject).  Each
        # failure has an equilibrium mass below 3e-9 at some state.  The
        # ascent with an exponentiated-gradient fallback and Dirichlet
        # restarts warned on 6 of these 50 draws and certified 42.
        rng = np.random.default_rng(50)
        certified = {"uniform": set(), "ground": set(), "dirichlet": set()}
        for k, (Q, V) in enumerate(_stress_draws(50)):
            gd = principal_eigen(Q, V)
            starts = {"uniform": None, "ground": gd.mu,
                      "dirichlet": rng.dirichlet(np.ones(Q.dim))}
            for name, start in starts.items():
                try:
                    lam_hat, _ = dv_sup(Q, V, start=start)
                except NotConverged:
                    continue
                assert abs(lam_hat - gd.lam) <= 1e-8
                certified[name].add(k)
        assert len(certified["uniform"]) >= 44
        assert certified["uniform"] <= certified["ground"]
        assert certified["uniform"] <= certified["dirichlet"]

    @pytest.mark.parametrize("k", [96, 141])
    def test_stalled_ascent_ends(self, k, monkeypatch):
        # these birth-death draws put masses below 1e-18 on some states,
        # where the gap stops shrinking well above 1e-9; the ascent once
        # took all 200 steps, 201 inner rate solves, before NotConverged
        from dvsemigroup import rate_function
        calls = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        Q, V = next(itertools.islice(_stress_draws(k + 1), k, None))
        with pytest.raises(NotConverged):
            dv_sup(Q, V)
        assert len(calls) <= 40

    def test_one_rate_solve_per_point(self, monkeypatch):
        # the simplex Newton run once solved every accepted point again at
        # its next step, and dv_sup solved the final point once more: 18
        # inner solves on 9 points of this 32-state chain
        from dvsemigroup import rate_function
        points = []
        inner = rate_function._newton_min

        def recorded(Q, mu, *args, **kwargs):
            points.append(mu.tobytes())
            return inner(Q, mu, *args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", recorded)
        Q, V = next((Q, V) for Q, V in _stress_draws(50) if Q.dim == 32)
        lam_hat, _ = dv_sup(Q, V)
        assert abs(lam_hat - principal_eigen(Q, V).lam) <= 1e-8
        assert len(points) == len(set(points)) <= 10

    def test_peak_memory_within_chain_budget(self):
        # the byte budget admits a chain of n states when _CHAIN_PEAK n x n
        # float64 arrays fit; a step's Hess I held through its trial solves
        # took dv_sup to 10.2 copies here
        import tracemalloc
        from dvsemigroup import multiparticle
        n = 256
        rng = np.random.default_rng(256)
        Q = validate_generator(oracles.rand_rate_matrix(n, rng))
        V = rng.uniform(-1, 1, n)
        tracemalloc.start()
        try:
            dv_sup(Q, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multiparticle._CHAIN_PEAK * 8 * n * n


class TestLegendre:
    def test_stationary_gives_zero(self, two_state):
        pi = principal_eigen(two_state, np.zeros(two_state.dim)).pi
        assert abs(oracles.legendre_I(two_state, pi)) <= 1e-10

    def test_two_state_closed_form(self):
        a, b = 0.7, 1.3
        Q = validate_generator([[-a, a], [b, -b]])
        got = oracles.legendre_I(Q, [0.3, 0.7])
        assert got == pytest.approx(oracles.two_state_rate(a, b, 0.3), abs=1e-7)

    def test_failed_perron_solve_rejects_the_trial(self, rng, monkeypatch):
        # a trial point whose eigenproblem fails is rejected, and the ascent
        # goes on from a shorter step to the same rate
        from dvsemigroup import rate_function, spectral
        Q = validate_generator(oracles.rand_rate_matrix(4, rng))
        mu = oracles.rand_measure(4, rng)
        calls = []

        def first_trial_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ConvergenceFailure(0, float("inf"))
            return spectral.principal_eigen(*args, **kwargs)

        monkeypatch.setattr(rate_function, "principal_eigen", first_trial_fails)
        assert abs(oracles.legendre_I(Q, mu) - rate_I(Q, mu).value) <= 1e-7
        assert len(calls) > 2

    def test_cross_oracle_agreement_d4(self, rng):
        for _ in range(8):
            Q = validate_generator(oracles.rand_rate_matrix(4, rng))
            mu = oracles.rand_measure(4, rng)
            assert abs(oracles.legendre_I(Q, mu) - rate_I(Q, mu).value) <= 1e-7

    def test_few_perron_solves_d32(self, rng, monkeypatch):
        from dvsemigroup import rate_function, spectral
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return spectral.principal_eigen(*args, **kwargs)

        monkeypatch.setattr(rate_function, "principal_eigen", counted)
        Q = validate_generator(oracles.rand_rate_matrix(32, rng))
        mu = oracles.rand_measure(32, rng)
        assert abs(oracles.legendre_I(Q, mu) - rate_I(Q, mu).value) <= 1e-7
        assert len(calls) <= 20


class TestRelativeEntropy:
    def test_identical_measures(self, rng):
        mu = oracles.rand_measure(5, rng)
        assert relative_entropy(mu, mu) == 0.0

    def test_absolute_continuity_failure(self):
        assert relative_entropy([1.0, 0.0], [0.0, 1.0]) == float("inf")

    def test_zero_mass_convention(self):
        # 0 log(0/x) = 0: support shrinks without blowing up
        val = relative_entropy([0.5, 0.5, 0.0], [0.4, 0.4, 0.2])
        assert val == pytest.approx(2 * 0.5 * np.log(0.5 / 0.4), abs=1e-15)

    def test_direct_arithmetic_and_variational(self):
        mu = np.array([0.7, 0.3])
        pi = np.array([0.5, 0.5])
        direct = 0.7 * np.log(1.4) + 0.3 * np.log(0.6)
        assert direct == pytest.approx(0.08228, abs=5e-6)
        assert relative_entropy(mu, pi) == pytest.approx(direct, abs=1e-15)
        # variational cross-check on a grid of tilts V = (s, 0)
        best = max(float(mu @ np.array([s, 0.0]))
                   - np.log(float(pi @ np.exp(np.array([s, 0.0]))))
                   for s in np.linspace(-3, 3, 20001))
        assert best == pytest.approx(direct, abs=1e-7)

    def test_nonnegative(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            assert relative_entropy(oracles.rand_measure(d, rng),
                                    oracles.rand_measure(d, rng)) >= 0.0


class TestTiltedLogInequality:
    def test_lower_bound_random(self, rng):
        # int log(e^{-lam t} P_t^V u / u) dmu >= -t I^V(mu)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            gd = principal_eigen(Q, V)
            op = make_operator(Q, V)
            for _ in range(10):
                mu = oracles.rand_measure(d, rng)
                u = np.exp(rng.normal(0, 1, d))
                t = float(rng.choice([0.1, 1.0, 10.0]))
                lhs = float(mu @ np.log(np.exp(-gd.lam * t) * evolve(op, t, u) / u))
                assert lhs >= -t * rate_IV(Q, V, mu) - 1e-10
