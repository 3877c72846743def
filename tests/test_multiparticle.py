"""Kronecker sums, separable potentials, orbits, symmetrization, marginals."""

import itertools
import json
import tracemalloc
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from dvsemigroup import cli, multiparticle
from dvsemigroup import (
    StateSpaceTooLarge,
    as_measure,
    dv_sup,
    equilibrium_marginal,
    evolve,
    expm,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    growth_bound,
    i_hk,
    invert_potential,
    is_symmetric,
    kronecker_sum,
    make_operator,
    pairwise_potential,
    principal_eigen,
    rate_I,
    separable_potential,
    symmetrize_measure,
    validate_generator,
)


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """A dense 256-state chain with its operator and ground data; the
    252-orbit chain of (d, N) = (6, 5) with a pairwise V0 and the marginal
    rho of an equilibrium measure; and a CLI scenario of that system with
    an averaging task, its chain and ground data built."""
    rng = np.random.default_rng(256)
    Q = validate_generator(oracles.rand_rate_matrix(256, rng))
    V = rng.uniform(-1, 1, 256)
    Q1 = oracles.rand_rate_matrix(6, rng)
    w = rng.uniform(0, 1, (6, 6))
    w = 0.5 * (w + w.T)
    orbit = kronecker_sum(validate_generator(Q1), 5)
    V0 = pairwise_potential(w, 5)
    rho = equilibrium_marginal(orbit, V0, rng.uniform(-1, 1, 6))[2]
    path = tmp_path_factory.mktemp("averaging") / "scenario.json"
    path.write_text(json.dumps({
        "name": "averaging", "Q": Q1.tolist(), "v": rng.uniform(-1, 1, 6).tolist(),
        "N": 5, "V0": {"pairwise": w.tolist()}, "t_grid": [1.0, 4.0], "seed": 1,
        "tasks": ["averaging"]}))
    sc = cli.load_scenario(str(path))
    sc.ground
    return SimpleNamespace(Q=Q, V=V, op=make_operator(Q, V), gd=principal_eigen(Q, V),
                           mu=oracles.rand_measure(256, rng), orbit=orbit, V0=V0, rho=rho,
                           sc=sc)


# LAPACK's untraced copy of the matrix in one np.linalg.solve, in n x n
# float64 copies: the growth of ru_maxrss over one solve at n = 2000, in a
# fresh process (1.14 at n = 3000, where OpenBLAS's fixed buffers weigh less)
_SOLVE_COPY = 1.22

# each solver call with the number of states of the chain it runs on
_SOLVERS = {
    "expm": (256, lambda c: expm(c.op)),
    "evolve": (256, lambda c: evolve(c.op, 3.0, np.ones(256))),
    "growth_bound": (256, lambda c: growth_bound(c.op, c.gd.lam, np.linspace(0, 5, 11))),
    "ground_measure_by_averaging": (
        256, lambda c: ground_measure_by_averaging(c.Q, c.V, c.gd.lam, c.gd.mu, 4.0, 65)),
    "ground_measure_by_evolution": (
        256, lambda c: ground_measure_by_evolution(c.Q, c.V, c.gd.lam, c.gd.mu, 4.0)),
    "principal_eigen": (256, lambda c: principal_eigen(c.Q, c.V)),
    "rate_I": (256, lambda c: rate_I(c.Q, c.mu)),
    "dv_sup": (256, lambda c: dv_sup(c.Q, c.V)),
    "i_hk": (252, lambda c: i_hk(c.orbit, c.V0, c.rho)),
    "invert_potential": (252, lambda c: invert_potential(c.orbit, c.V0, c.rho)),
    "cli-averaging": (252, lambda c: cli._TASK_RUNNERS["averaging"](c.sc, {})),
}


class TestKroneckerSum:
    def test_single_particle_is_Q1(self, two_state):
        sys = kronecker_sum(two_state, 1)
        assert np.array_equal(sys.QN.rates, two_state.rates)

    def test_two_particle_structure(self, two_state):
        sys = kronecker_sum(two_state, 2)
        QN = sys.QN.rates
        off = QN.copy()
        np.fill_diagonal(off, 0.0)
        # each of the 4 product states has exactly 2 single-coordinate
        # moves: 8 off-diagonal nonzeros, zeros on double moves
        assert np.count_nonzero(off) == 8
        # moves change exactly one coordinate, at the single-particle rate
        for flat_x in range(4):
            for flat_y in range(4):
                x, y = np.unravel_index(flat_x, (2, 2)), np.unravel_index(flat_y, (2, 2))
                differ = [i for i in range(2) if x[i] != y[i]]
                if len(differ) == 1:
                    i = differ[0]
                    assert QN[flat_x, flat_y] == two_state.rates[x[i], y[i]]
                elif len(differ) == 2:
                    assert QN[flat_x, flat_y] == 0.0

    def test_exponential_factorizes(self, rng):
        for d, N in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
            sys = kronecker_sum(Q1, N)
            for t in (0.3, 1.0):
                left = expm(t * sys.QN.rates)
                right = np.ones((1, 1))
                single = oracles.eig_expm(t * Q1.rates)
                for _ in range(N):
                    right = np.kron(right, single)
                assert np.abs(left - right).max() <= 1e-10

    def test_conservation(self, two_state):
        sys = kronecker_sum(two_state, 3)
        ones = np.ones(8)
        assert np.abs(expm(0.7 * sys.QN.rates) @ ones - 1.0).max() <= 1e-12

    def test_byte_budget(self, two_state, monkeypatch):
        # QN on 8 states is admitted when 10 float64 copies of it fit the
        # budget, 5120 bytes, and refused before allocation one byte below
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 5120)
        assert kronecker_sum(two_state, 3).QN.dim == 8
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 5119)
        with pytest.raises(StateSpaceTooLarge) as exc:
            kronecker_sum(two_state, 3).QN
        assert (exc.value.needed, exc.value.budget) == (5120, 5119)
        assert "5120 bytes" in str(exc.value)

    def test_budget_refuses_before_allocating(self, two_state):
        # 2^13 states: QN would need 10 x 512 MiB, while the 14 orbits and
        # the 13 x 2^13 coordinate grid fit
        sys = kronecker_sum(two_state, 13)
        with pytest.raises(StateSpaceTooLarge):
            sys.QN
        assert sys.lumped_QN.dim == 14
        # the coordinate grid of 2^24 states x 24 coordinates needs 2 x 3 GiB;
        # the orbits are 25 x 2 counts, all that their chain reads
        with pytest.raises(StateSpaceTooLarge):
            separable_potential([0.0, 1.0], 24)
        sys = kronecker_sum(two_state, 24)
        assert sys.orbits.counts.shape == (25, 2) and sys.lumped_QN.dim == 25
        with pytest.raises(StateSpaceTooLarge):
            sys.orbits.of

    def test_budget_counts_the_occupation_counts(self, monkeypatch):
        # at (300, 2) the 45150 x 300 counts, not the 90000 x 2 grid, are the
        # large array: refused on them before allocating, where the grid
        # alone passed and the orbits then took 139 MB
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 10 ** 8)
        for build in (lambda: multiparticle._orbits(300, 2),
                      lambda: separable_potential(np.zeros(300), 2),
                      lambda: pairwise_potential(np.zeros((300, 300)), 2)):
            tracemalloc.start()
            try:
                with pytest.raises(StateSpaceTooLarge):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 10 ** 7

    @pytest.mark.parametrize("d, N", [(2, 16), (4, 8), (100, 2)])
    def test_peak_memory_within_budgeted_bytes(self, d, N):
        # the orbits with their map from the d^N states, and both product
        # potentials, stay within the bytes the budget is checked for: the
        # counts when they are built, then the grid that the map is read off;
        # where the grid is the large array, within _GRID_PEAK grids
        grid = 8 * N * d ** N
        counts = 8 * d * comb(d + N - 1, N)
        budgeted = multiparticle._GRID_PEAK * grid + multiparticle._COUNTS_PEAK * counts
        for build in (lambda: multiparticle._orbits(d, N).of,
                      lambda: separable_potential(np.ones(d), N),
                      lambda: pairwise_potential(np.ones((d, d)), N)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budgeted
            if grid > counts:
                assert peak <= multiparticle._GRID_PEAK * grid


    @pytest.mark.parametrize("name", list(_SOLVERS))
    def test_solver_peak_within_chain_budget(self, chains, name):
        # the byte budget admits a chain of n states when _CHAIN_PEAK n x n
        # float64 arrays fit.  Dense n x n identities, all-ones matrices and
        # diag(V) once took expm to 10.0 copies, evolve and growth_bound to
        # 11.0, both ground measures to 12.0 and the averaging task to 13.0.
        # np.linalg.solve copies its matrix where tracemalloc does not see
        # it, so that copy is reserved on top of the traced peak
        n, call = _SOLVERS[name]
        tracemalloc.start()
        try:
            call(chains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + _SOLVE_COPY * 8 * n * n <= multiparticle._CHAIN_PEAK * 8 * n * n


class TestSeparablePotential:
    def test_single_particle_identity(self):
        v = [0.3, -1.0, 2.0]
        assert np.array_equal(separable_potential(v, 1).values, v)

    def test_constant(self):
        V = separable_potential([0.7, 0.7], 3)
        assert np.abs(V.values - 0.7).max() <= 1e-15

    def test_two_by_two_example(self):
        V = separable_potential([0.0, 1.0], 2)
        assert V.values.tolist() == [0.0, 0.5, 0.5, 1.0]

    @pytest.mark.parametrize("v, N", [([0.0, 1.0], 0), ([0.0, 1.0], -1), ([2.0], 0)])
    def test_rejects_no_particles(self, v, N):
        # N = 0 divided by zero, N = -1 failed in numpy with a TypeError, and
        # a one-state v at N = 0 returned a potential
        with pytest.raises(ValueError, match="particle count must be at least one"):
            separable_potential(v, N)


class TestPairwisePotential:
    def test_two_particles_matches_matrix(self, two_state):
        w = np.array([[0.0, 1.0], [1.0, 0.5]])
        sys = kronecker_sum(two_state, 2)
        V0 = pairwise_potential(w, 2)
        for flat in range(4):
            x = np.unravel_index(flat, (2, 2))
            assert V0.values[flat] == w[x[0], x[1]]

    def test_three_particles_symmetric(self, two_state):
        sys = kronecker_sum(two_state, 3)
        w = np.array([[0.2, 0.9], [0.9, -0.3]])
        V0 = pairwise_potential(w, 3)
        assert is_symmetric(V0, sys)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pairwise_potential(np.array([[0.0, 1.0], [2.0, 0.0]]), 2)

    def test_rejects_asymmetry_below_relative_tolerance(self):
        # 1e-6 apart passed np.allclose's default rtol, and gave a V that
        # is_symmetric rejects
        with pytest.raises(ValueError):
            pairwise_potential(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]), 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # equal infinities once passed the symmetry test, and the pair sums
        # warned before the NaN potential was refused
        with pytest.raises(ValueError, match="must be finite"):
            pairwise_potential(np.array([[0.0, bad], [bad, 0.0]]), 2)


class TestSymmetrize:
    def test_symmetric_fixed_point(self, two_state):
        sys = kronecker_sum(two_state, 2)
        mu = as_measure([0.4, 0.2, 0.2, 0.2])
        out = symmetrize_measure(mu, sys)
        assert np.allclose(out.weights, mu.weights, atol=1e-15)

    def test_point_mass_orbit(self, two_state):
        sys = kronecker_sum(two_state, 2)
        mu = as_measure([0.0, 1.0, 0.0, 0.0])  # point mass at (0, 1)
        out = symmetrize_measure(mu, sys)
        assert out.weights.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_idempotent(self, two_state, rng):
        sys = kronecker_sum(two_state, 3)
        mu = as_measure(oracles.rand_measure(8, rng))
        once = symmetrize_measure(mu, sys)
        twice = symmetrize_measure(once, sys)
        assert np.abs(once.weights - twice.weights).max() <= 1e-15

    def test_marginal_of_symmetrization_averages_coordinates(self, two_state, rng):
        sys = kronecker_sum(two_state, 2)
        mu = oracles.rand_measure(4, rng)
        lhs = oracles.loop_marginal(symmetrize_measure(mu, sys).weights, 2, 2)
        grid = mu.reshape(2, 2)
        rhs = 0.5 * (grid.sum(axis=1) + grid.sum(axis=0))
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestMarginal:
    def test_symmetric_measure_has_equal_coordinate_marginals(self, rng):
        # every coordinate marginal of a symmetric measure is the orbit
        # marginal counts^T p / N of its orbit masses p
        sys = kronecker_sum(validate_generator(oracles.rand_rate_matrix(3, rng)), 3)
        mu = symmetrize_measure(oracles.rand_measure(27, rng), sys)
        o = sys.orbits
        rho = o.counts.T @ np.bincount(o.of, weights=mu.weights) / 3
        for i in range(3):
            assert np.abs(oracles.loop_marginal(mu.weights, 3, 3, i) - rho).max() <= 1e-14


class TestIsSymmetric:
    def test_separable_is_symmetric(self, two_state, rng):
        sys = kronecker_sum(two_state, 3)
        assert is_symmetric(separable_potential(rng.normal(0, 1, 2), 3), sys)

    def test_point_indicator_is_not(self, two_state):
        sys = kronecker_sum(two_state, 2)
        V = np.zeros(4)
        V[np.ravel_multi_index((0, 1), (2, 2))] = 1.0
        assert not is_symmetric(V, sys)

    def test_equilibrium_of_symmetric_system(self, two_state):
        sys = kronecker_sum(two_state, 2)
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        total = pairwise_potential(w, 2).values + separable_potential([0.0, 1.0], 2).values
        gd = principal_eigen(sys.QN, total)
        assert is_symmetric(gd.mu, sys, tol=1e-9)


class TestSemigroupSymmetry:
    def test_commutes_with_permutations(self, two_state, rng):
        sys = kronecker_sum(two_state, 3)
        P = expm(0.8 * sys.QN.rates)
        shape = (sys.d,) * sys.N
        for _ in range(10):
            f = rng.normal(0, 1, sys.size)
            for sigma in itertools.permutations(range(sys.N)):
                def permute(g):
                    return np.transpose(g.reshape(shape), sigma).reshape(-1)
                assert np.abs(permute(P @ f) - P @ permute(f)).max() <= 1e-12


class TestOrbits:
    def test_orbit_structure(self):
        Q1 = validate_generator(oracles.rand_rate_matrix(3, np.random.default_rng(5)))
        sys = kronecker_sum(Q1, 4)
        o = sys.orbits
        assert len(o.reps) == 15                          # C(3 + 4 - 1, 4)
        assert o.sizes.sum() == sys.size
        assert np.array_equal(np.bincount(o.of), o.sizes)
        assert np.array_equal(o.counts.sum(axis=1), np.full(15, 4))
        shape = (sys.d,) * sys.N
        for flat in range(sys.size):
            x = np.unravel_index(flat, shape)
            a = o.of[flat]
            assert sorted(x) == sorted(np.unravel_index(o.reps[a], shape))
            assert np.array_equal(np.bincount(x, minlength=3), o.counts[a])

    @pytest.mark.parametrize("d, N", [(1, 5), (2, 7), (3, 4), (4, 4), (5, 3), (6, 4)])
    def test_multisets_match_sorted_unique_rows(self, d, N, rng):
        # enumerated as multisets, the orbits come in np.unique's order, on
        # which the seeded draws of the mc task on the orbit chain depend;
        # the potentials read off the counts match the coordinate loops
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        o = kronecker_sum(Q1, N).orbits
        for got, want in zip((o.of, o.reps, o.counts, o.sizes), oracles.unique_orbits(d, N)):
            assert np.array_equal(got, want)
        v = rng.uniform(-3, 3, d)
        w = rng.uniform(-3, 3, (d, d))
        w = w + w.T
        for got, want in [(separable_potential(v, N), oracles.loop_separable(v, N)),
                          (pairwise_potential(w, N), oracles.loop_pairwise(w, N))]:
            assert np.abs(got.values - want).max() <= 1e-14 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("d, N", [(2, 3), (3, 3)])
    def test_lumped_rate_identity(self, d, N, rng):
        # I(mu) of a symmetric mu on d^N equals the lumped chain's rate at
        # its orbit masses p
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        sys = kronecker_sum(Q1, N)
        o = sys.orbits
        for _ in range(5):
            p = oracles.rand_measure(len(o.reps), rng)
            mu = (p / o.sizes)[o.of]
            full = rate_I(sys.QN, mu).value
            lumped = rate_I(sys.lumped_QN, p).value
            assert abs(full - lumped) <= 1e-12 * max(1.0, full)

    @pytest.mark.parametrize("d, N", [(2, 3), (3, 3), (4, 4), (3, 5)])
    def test_lumped_QN_is_row_lumping_of_QN(self, d, N, rng):
        # built from Q1 alone, before QN exists, yet equal to the lumping
        # of QN's representative rows to the last bit
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        sys = kronecker_sum(Q1, N)
        built = sys.lumped_QN.rates
        assert "QN" not in sys.__dict__
        o = sys.orbits
        lumped = validate_generator([np.bincount(o.of, weights=row)
                                     for row in sys.QN.rates[o.reps]])
        assert np.array_equal(built, lumped.rates)

    @pytest.mark.parametrize("d, N", [(2, 4), (3, 3), (4, 3)])
    def test_lifted_ground_data_match_full_chain(self, d, N, rng):
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        sys = kronecker_sum(Q1, N)
        w = rng.uniform(-1, 1, (d, d))
        V = (pairwise_potential(w + w.T, N).values
             + separable_potential(rng.uniform(-1, 1, d), N).values)
        lifted = sys.lift(principal_eigen(sys.lumped_QN, sys.on_orbits(V)))
        full = principal_eigen(sys.QN, V)
        scale = max(1.0, np.abs(sys.QN.rates + np.diag(V)).max())
        assert abs(lifted.lam - full.lam) <= 1e-12 * scale
        assert np.abs(lifted.psi - full.psi).max() <= 1e-12
        assert np.abs(lifted.pi.weights - full.pi.weights).max() <= 1e-12
        assert np.abs(lifted.mu.weights - full.mu.weights).max() <= 1e-12

    def test_seven_particles(self, two_state, rng):
        # d = 2: the orbit of a state is its number of ones
        sys = kronecker_sum(two_state, 7)
        ones = np.array([bin(flat).count("1") for flat in range(sys.size)])
        mu = oracles.rand_measure(sys.size, rng)
        sym = symmetrize_measure(mu, sys)
        expected = np.array([mu[ones == k].mean() for k in range(8)])[ones]
        assert np.abs(sym.weights - expected).max() <= 1e-15
        assert is_symmetric(sym, sys)
        assert not is_symmetric(mu, sys)
        assert is_symmetric(separable_potential(rng.normal(0, 1, 2), 7), sys)


class TestCountsBuiltChain:
    """The orbit chain past the d^N grid, against the product-system oracles."""

    @pytest.mark.parametrize("d, N", [(2, 1000), (3, 60)])
    def test_lambda_is_N_times_one_particle(self, d, N):
        # N independent particles under the separable counts . v / N:
        # lambda_N(v) = N lambda_1(v / N), on 1001 or 1891 orbits built from
        # the counts, with no map to the d^N states
        rng = np.random.default_rng(N)
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        v = rng.uniform(-1, 1, d)
        sys = kronecker_sum(Q1, N)
        lam = principal_eigen(sys.lumped_QN, sys.orbits.counts @ v / N).lam
        expected = oracles.product_lambda(Q1.rates, v, N)
        assert abs(lam - expected) <= 1e-11 * max(1.0, abs(expected))
        assert "_maps" not in vars(sys.orbits)

    @pytest.mark.parametrize("v", [
        [0.0, 0.0],
        # the Perron vectors are certified by their eigenvalue bracket only:
        # here the 35 orbits with n_0 >= 166, whose masses the law puts
        # from 1e-7 down to 8e-36, are wrong, the least near 1e-17
        pytest.param([1.0, 0.0], marks=pytest.mark.xfail(
            strict=True, reason="Perron vector tails are not accurate entry by entry")),
    ], ids=["no-potential", "potential"])
    def test_orbit_masses_are_multinomial(self, v):
        # the equilibrium measure of (2, 200) is the product of the one-
        # particle one, mu_1(v / N), so its orbit masses follow the
        # multinomial law; all are representable, the least near 1e-96
        Q1 = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        sys, v = kronecker_sum(Q1, 200), np.array(v) / 200
        mu = principal_eigen(sys.lumped_QN, sys.orbits.counts @ v).mu.weights
        mu1 = oracles.eig_principal(Q1.rates + np.diag(v))[3]
        want = oracles.multinomial_log_masses(sys.orbits.counts, mu1)
        assert np.abs(np.log(mu) - want).max() <= 1e-10
