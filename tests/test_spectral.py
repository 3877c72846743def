"""Principal eigendata, Doob transform, and the averaging constructions."""

import ast
from pathlib import Path

import numpy as np
import pytest

import oracles
from dvsemigroup import spectral
from dvsemigroup import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFinite,
    ProbMeasure,
    doob_transform,
    expm,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    growth_bound,
    make_operator,
    principal_eigen,
    relative_entropy,
    total_variation,
    validate_generator,
)


def birth_death(n):
    """Unit-rate nearest-neighbour chain on n states."""
    Q = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return Q - np.diag(Q.sum(axis=1))


def weakly_coupled_blocks():
    """Two 32-state complete blocks, unit rates inside, 1e-9 across."""
    Q = np.full((64, 64), 1e-9)
    Q[:32, :32] = Q[32:, 32:] = 1.0
    np.fill_diagonal(Q, 0.0)
    return Q - np.diag(Q.sum(axis=1))


@pytest.fixture
def noda_steps(monkeypatch):
    """Steps of each _noda call in order, the psi side of a solve first."""
    steps = []

    def counted(M, scale, *args):
        x, n = noda(M, scale, *args)
        steps.append(n)
        return x, n

    noda = spectral._noda
    monkeypatch.setattr(spectral, "_noda", counted)
    return steps


HARD_INSTANCES = [
    pytest.param(birth_death(256), 0.01 * np.linspace(-1.0, 1.0, 256),
                 0.00817247146611, id="birth_death_256"),
    pytest.param(weakly_coupled_blocks(), 1e-3 * np.arange(64) / 64,
                 7.42156152456e-4, id="weakly_coupled_blocks"),
    pytest.param(np.array([[-1e6, 1e6, 0.0], [1.0, -2.0, 1.0], [0.0, 1e-6, -1e-6]]),
                 np.array([0.0, 1.0, 2.0]), 1.9999995, id="stiff_three_state"),
]


class TestProbMeasure:
    def test_renormalizes(self):
        m = ProbMeasure(np.array([0.5, 0.5 + 4e-13]))
        assert abs(m.weights.sum() - 1.0) <= 1e-15

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbMeasure(np.array([1.1, -0.1]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            ProbMeasure(np.array([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            ProbMeasure(np.array([bad, 1.0]))


class TestPrincipalEigen:
    def test_constant_potential(self, two_state):
        c = 0.7
        gd = principal_eigen(two_state, [c, c])
        assert gd.lam == pytest.approx(c, abs=1e-13)
        assert np.abs(gd.psi - 1.0).max() <= 1e-12
        # stationary distribution of Q solves pi^T Q = 0
        assert np.abs(gd.pi.weights @ two_state.rates).max() <= 1e-13
        assert np.allclose(gd.pi.weights, [2 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(gd.mu.weights, gd.pi.weights, atol=1e-12)

    def test_two_state_closed_form(self, two_state):
        a, b, v1, v2 = 1.0, 2.0, 1.0, 0.0
        gd = principal_eigen(two_state, [v1, v2])
        assert gd.lam == pytest.approx(oracles.two_state_lambda(a, b, v1, v2), abs=1e-10)

    def test_lambda_between_min_and_max_V(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-2, 2, d)
            lam = principal_eigen(Q, V).lam
            assert V.min() - 1e-12 <= lam <= V.max() + 1e-12

    def test_eigen_residuals_and_oracle(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            gd = principal_eigen(Q, V)
            M = Q.rates + np.diag(V)
            scale = max(1.0, np.abs(M).max())
            assert np.abs(M @ gd.psi - gd.lam * gd.psi).max() <= 1e-9 * scale
            assert np.abs(gd.pi.weights @ M - gd.lam * gd.pi.weights).max() <= 1e-9 * scale
            assert gd.psi.min() > 0 and gd.pi.weights.min() > 0
            assert gd.psi @ gd.pi.weights == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(gd.mu.weights, gd.psi * gd.pi.weights, atol=1e-14)
            lam_oracle = oracles.eig_principal(M)[0]
            assert gd.lam == pytest.approx(lam_oracle, abs=1e-11 * scale)

    def test_shift_covariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            c = float(rng.uniform(-3, 3))
            gd0 = principal_eigen(Q, V)
            gd1 = principal_eigen(Q, V + c)
            assert gd1.lam - gd0.lam == pytest.approx(c, abs=1e-10)
            assert np.abs(gd1.psi - gd0.psi).max() <= 1e-10
            assert np.abs(gd1.pi.weights - gd0.pi.weights).max() <= 1e-10
            assert np.abs(gd1.mu.weights - gd0.mu.weights).max() <= 1e-10

    def test_limit_definition(self, two_state):
        # (1/t) log ||P_t^V|| approaches lambda with O(1/t) error
        gd = principal_eigen(two_state, [1.0, 0.0])
        M = two_state.rates + np.diag([1.0, 0.0])
        errors = []
        for t in (10.0, 20.0, 40.0):
            val = np.log((expm(t * M) @ np.ones(2)).max()) / t
            errors.append(abs(val - gd.lam))
        assert errors[1] / errors[0] == pytest.approx(0.5, abs=0.2)
        assert errors[2] / errors[1] == pytest.approx(0.5, abs=0.2)

    def test_deterministic(self, two_state):
        a = principal_eigen(two_state, [1.0, 0.0])
        b = principal_eigen(two_state, [1.0, 0.0])
        assert a.lam == b.lam
        assert np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.pi.weights, b.pi.weights)

    def test_single_state(self):
        gd = principal_eigen(validate_generator([[0.0]]), [2.5])
        assert gd.lam == 2.5
        assert gd.psi.tolist() == [1.0]

    @pytest.mark.parametrize("Q, V, lam", HARD_INSTANCES)
    def test_hard_instances(self, Q, V, lam):
        # slow mixing, near-reducibility and rates spanning 12 decades
        gd = principal_eigen(validate_generator(Q), V)
        scale = max(1.0, np.abs(Q + np.diag(V)).max())
        assert abs(gd.lam - lam) <= 1e-9 * scale
        assert gd.psi.min() > 0 and gd.pi.weights.min() > 0

    def test_round_off_stall_ends_noda(self, noda_steps):
        # 200-state birth-death chains with rates spanning four decades:
        # psi spans ~1e-108 to 1, and round-off in its tiny entries can
        # hold the bracket near 1e-10 * scale.  On draw 0 the psi side
        # once ran all 100 steps; the underflowing draws end in NonFinite.
        # Before the unit-vector step, draw 4 took 60 steps on one BLAS
        # thread.
        rng = np.random.default_rng(1)
        certified = 0
        for _ in range(8):
            up, down = 10 ** rng.uniform(-2, 2, (2, 199))
            V = rng.normal(0, 1, 200)
            Q = np.diag(up, 1) + np.diag(down, -1)
            Q -= np.diag(Q.sum(axis=1))
            M = Q + np.diag(V)
            try:
                gd = principal_eigen(validate_generator(Q), V)
            except NonFinite:
                continue
            certified += 1
            lam = np.linalg.eigvals(M).real.max()
            assert abs(gd.lam - lam) <= 1e-12 * np.abs(M).max()
        assert certified >= 4
        assert max(noda_steps) <= 30

    @pytest.mark.parametrize("make", [
        lambda rng: (oracles.rand_rate_matrix(128, rng), rng.uniform(-1, 1, 128)),
        lambda rng: (birth_death(256), 0.01 * np.linspace(-1.0, 1.0, 256)),
    ], ids=["dense_128", "birth_death_256"])
    def test_pi_side_continues_from_psi(self, make, rng, noda_steps):
        # started at psi with its shift capped at max(M psi / psi) >= lambda,
        # the M^T side only has to turn psi into pi
        Q, V = make(rng)
        principal_eigen(validate_generator(Q), V)
        assert len(noda_steps) == 2 and noda_steps[1] <= 3

    def test_pi_matches_left_eigenvector(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 101))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            pi = oracles.eig_principal(Q.rates + np.diag(V))[2]
            assert np.abs(principal_eigen(Q, V).pi.weights / pi - 1).max() <= 1e-12

    def test_absorbing_state(self):
        # reducible M: the uniform start already has max(Mx/x) = lambda
        gd = principal_eigen(validate_generator([[0.0, 0.0], [1.0, -1.0]]), [1.0, 0.0])
        assert gd.lam == pytest.approx(1.0, abs=1e-12)
        assert np.abs(gd.psi / gd.psi[1] - [2.0, 1.0]).max() <= 1e-12

    def test_underflowing_equilibrium_measure_is_reported(self, noda_steps):
        # psi * pi falls below the smallest double at the far end of the
        # chain.  With x as right-hand side each solve fixed only ~14
        # decades of psi's tail, and the psi side took 18 steps; one solve
        # with a unit vector resolves the whole tail.
        V = 4.0 * np.cos(np.linspace(0.0, np.pi, 256))
        with pytest.raises(NonFinite, match="underflows"):
            principal_eigen(validate_generator(birth_death(256)), V)
        assert noda_steps[0] <= 9

    def test_unit_vector_step_keeps_the_tail_accurate(self, noda_steps):
        # Without the unit-vector step the psi side took 12 steps here.
        # The solve after that step removes the other eigendirections e_k
        # brings in; stopped right after it, log psi was off by 7e-12 in
        # its tail.  The ratio recurrence is good to ~2e-13.
        n = 256
        V = np.cos(np.linspace(0.0, np.pi, n))
        Q = validate_generator(birth_death(n))
        M = Q.rates + np.diag(V)
        gd = principal_eigen(Q, V)
        lam = np.linalg.eigvals(M).real.max()
        assert noda_steps[0] <= 9
        assert abs(gd.lam - lam) <= 1e-12 * np.abs(M).max()
        err = np.log(gd.psi) - oracles.tridiagonal_log_ground_state(M, lam)
        assert np.ptp(err) <= 1e-12

    @pytest.mark.parametrize("n", [
        52,
        pytest.param(56, marks=pytest.mark.xfail(strict=True, reason=(
            "wrong Perron tails past the underflow (ROADMAP item 12): mu is "
            "3.8e-29 at state 50, where the exact mass is 1e-300, with no error"))),
    ])
    def test_steep_birth_death_tail(self, n):
        # up rate 1, down rate 1e6 and V = 0: detailed balance gives
        # mu_k = 10^(-6k) / Z, down to 1e-306 at n = 52; at n = 56 the
        # masses of states 54 and 55 underflow to zero
        Q = np.diag(np.ones(n - 1), 1) + np.diag(np.full(n - 1, 1e6), -1)
        Q = validate_generator(Q - np.diag(Q.sum(axis=1)))
        k = np.arange(n)
        log10_mu = -6.0 * k - np.log10(np.sum(10.0 ** (-6.0 * k)))
        if not np.all(10.0 ** log10_mu):
            with pytest.raises(NonFinite, match="underflows"):
                principal_eigen(Q, np.zeros(n))
        else:
            mu = principal_eigen(Q, np.zeros(n)).mu.weights
            assert np.abs(np.log10(mu) - log10_mu).max() <= 1e-12


class TestWarmStart:
    """principal_eigen started from the ground data of a nearby potential
    certifies exactly what the uniform start certifies; the start is never
    trusted, only the brackets and the residual check."""

    def test_stress_draws_certify_as_from_uniform(self):
        from test_rate_function import _stress_draws
        rng = np.random.default_rng(150)
        for k, (Q, V) in enumerate(_stress_draws(150)):
            W = V + rng.uniform(-0.5, 0.5, Q.dim)
            outcomes = []
            for start in (None, principal_eigen(Q, V)):
                try:
                    outcomes.append(principal_eigen(Q, W, start))
                except (ConvergenceFailure, NonFinite) as exc:
                    outcomes.append(type(exc))
            uniform, warm = outcomes
            assert isinstance(uniform, type) == isinstance(warm, type), k
            if isinstance(uniform, type):
                assert uniform is warm, k
                continue
            scale = max(1.0, np.abs(Q.rates + np.diag(W)).max())
            assert abs(warm.lam - uniform.lam) <= 1e-12 * scale, k

    @pytest.mark.parametrize("Q, V, lam", HARD_INSTANCES)
    def test_hard_instances_from_a_nearby_potential(self, Q, V, lam):
        # the start's tail is wrong by many decades where V moves
        Q = validate_generator(Q)
        start = principal_eigen(Q, V + 0.5 * np.cos(np.arange(len(V))))
        gd = principal_eigen(Q, V, start)
        scale = max(1.0, np.abs(Q.rates + np.diag(V)).max())
        assert abs(gd.lam - lam) <= 1e-9 * scale

    def test_own_ground_data_take_no_solve(self, rng, noda_steps):
        Q = validate_generator(oracles.rand_rate_matrix(64, rng))
        V = rng.uniform(-1, 1, 64)
        gd = principal_eigen(Q, V)
        noda_steps.clear()
        again = principal_eigen(Q, V, gd)
        assert noda_steps == [1, 1]
        assert abs(again.lam - gd.lam) <= 1e-14
        assert np.abs(again.mu.weights / gd.mu.weights - 1).max() <= 1e-12

    def test_every_start_is_solved_ground_data(self):
        # GroundData comes only from the solver and from lift, which spreads
        # solved orbit data over the d^N states: every Perron start is the
        # ground data of an earlier solve
        builders = set()

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "GroundData":
                    builders.add(owner)
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{owner}.{child.name}")
                else:
                    visit(child, owner)

        for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem)
        assert builders == {"spectral.principal_eigen", "multiparticle.TensorSystem.lift"}

    @pytest.mark.parametrize("psi, pi, error", [
        ([1.0, 1.0, 1.0], [0.5, 0.5], DimensionMismatch),
        ([1.0, 1.0], [0.2, 0.3, 0.5], DimensionMismatch),
        ([1.0, 0.0], [0.5, 0.5], ValueError),
        ([1.0, -1.0], [0.5, 0.5], ValueError),
        ([-1.0, -2.0], [0.5, 0.5], ValueError),
        ([1.0, np.nan], [0.5, 0.5], ValueError),
        ([1.0, 1.0], [1.0, 0.0], ValueError),
        ([1e-320, 1e300], [0.5, 0.5], ValueError),
    ])
    def test_bad_start_raises_before_any_solve(self, two_state, monkeypatch, psi, pi, error):
        def no_solve(*args, **kwargs):
            raise AssertionError("a Noda step ran before the start was checked")

        monkeypatch.setattr(spectral, "_noda", no_solve)
        start = spectral.GroundData(lam=0.0, psi=np.array(psi), pi=ProbMeasure(pi),
                                    mu=ProbMeasure(pi))
        with pytest.raises(error):
            principal_eigen(two_state, [1.0, 0.0], start)


class TestDoobTransform:
    def test_zero_potential_identity(self, two_state):
        gd = principal_eigen(two_state, [0.0, 0.0])
        D = doob_transform(two_state, [0.0, 0.0], gd)
        assert np.abs(D.rates - two_state.rates).max() <= 1e-12

    def test_rows_and_invariance(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            V = rng.uniform(-1, 1, d)
            gd = principal_eigen(Q, V)
            M = Q.rates + np.diag(V)
            raw = (M - gd.lam * np.eye(d)) * (gd.psi[None, :] / gd.psi[:, None])
            assert np.abs(raw.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(raw).max())
            D = doob_transform(Q, V, gd)
            assert np.abs(D.rates.sum(axis=1)).max() <= 1e-13 * D.scale
            assert np.abs(gd.mu.weights @ D.rates).max() <= 1e-9

    def test_stationary_matches_mu(self, two_state):
        gd = principal_eigen(two_state, [1.0, 0.0])
        D = doob_transform(two_state, [1.0, 0.0], gd)
        pi_D = principal_eigen(D, np.zeros(D.dim)).pi
        assert total_variation(pi_D, gd.mu) <= 1e-9


class TestAveraging:
    def test_zero_potential_fixed_point(self, two_state):
        pi = principal_eigen(two_state, np.zeros(two_state.dim)).pi
        for T in (1.0, 8.0):
            avg = ground_measure_by_averaging(two_state, [0.0, 0.0], 0.0, pi, T, 257)
            assert total_variation(avg, pi) <= 1e-12

    def test_two_state_ladder(self, two_state):
        # derived with the eigendecomposition oracle: the window average
        # dilutes the transient only linearly, TV ~ 5e-3 / T here, while
        # the evolved endpoint measure decays at the spectral gap rate
        V = [1.0, 0.0]
        gd = principal_eigen(two_state, V)
        tvs_avg, tvs_end = [], []
        for T in (1.0, 2.0, 4.0, 8.0, 16.0):
            avg = ground_measure_by_averaging(two_state, V, gd.lam, gd.mu, T, 2049)
            end = ground_measure_by_evolution(two_state, V, gd.lam, gd.mu, T)
            tvs_avg.append(total_variation(avg, gd.pi))
            tvs_end.append(total_variation(end, gd.pi))
        assert all(b < a for a, b in zip(tvs_avg, tvs_avg[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(tvs_end, tvs_end[1:]))
        assert tvs_avg[-1] == pytest.approx(1.006e-3, rel=0.05)  # frozen oracle value
        assert tvs_end[-1] <= 1e-6

    def test_entropy_bounded_by_growth_constant(self, two_state):
        V = [1.0, 0.0]
        gd = principal_eigen(two_state, V)
        op = make_operator(two_state, V)
        logC = np.log(growth_bound(op, gd.lam, np.linspace(0.0, 32.0, 257)))
        for T in (1.0, 4.0, 16.0, 32.0):
            avg = ground_measure_by_averaging(two_state, V, gd.lam, gd.mu, T, 1025)
            end = ground_measure_by_evolution(two_state, V, gd.lam, gd.mu, T)
            assert relative_entropy(gd.mu, avg) <= logC + 1e-12
            assert relative_entropy(gd.mu, end) <= logC + 1e-12

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_ladder_matches_row_loop(self, d):
        # the binary ladder against the row-by-row trapezoid sum, including
        # n_grid - 1 = 1, 2, 3 and non-powers of two
        rng = np.random.default_rng(d)
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        V = rng.normal(0.0, 1.0, d)
        mu0 = oracles.rand_measure(d, rng)
        lam = principal_eigen(Q, V).lam
        for n_grid in (2, 3, 4, 17, 1000, 1025):
            avg = ground_measure_by_averaging(Q, V, lam, mu0, 3.0, n_grid)
            ref = oracles.trapezoid_row_average(Q.rates, V, lam, mu0, 3.0, n_grid)
            np.testing.assert_allclose(avg.weights, ref, rtol=1e-12, atol=0.0)

    def test_quadrature_grid_refinement(self, two_state):
        # trapezoid average converges as the grid refines
        V = [1.0, 0.0]
        gd = principal_eigen(two_state, V)
        coarse = ground_measure_by_averaging(two_state, V, gd.lam, gd.mu, 4.0, 17)
        fine = ground_measure_by_averaging(two_state, V, gd.lam, gd.mu, 4.0, 4097)
        finer = ground_measure_by_averaging(two_state, V, gd.lam, gd.mu, 4.0, 8193)
        assert total_variation(fine, finer) < total_variation(coarse, finer)
        assert total_variation(fine, finer) <= 1e-8  # trapezoid is O(h^2)
