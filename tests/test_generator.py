"""Generator validation, carre du champ, and the structural conditions."""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    DimensionMismatch,
    GraphDisconnected,
    NegativeOffDiagonal,
    NonFinite,
    RowSumNonzero,
    carre_du_champ,
    check_condition_A,
    check_condition_B,
    check_condition_D,
    gamma_sandwich_check,
    validate_generator,
)


class TestValidateGenerator:
    def test_two_state_accepted(self):
        Q = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        assert Q.dim == 2
        assert np.array_equal(Q.rates.sum(axis=1), [0.0, 0.0])

    def test_zero_matrix_disconnected(self):
        with pytest.raises(GraphDisconnected) as exc:
            validate_generator([[0.0, 0.0], [0.0, 0.0]])
        assert exc.value.components == [[0], [1]]

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal) as exc:
            validate_generator([[-0.5, 0.5], [-1.0, 1.0]])
        assert (exc.value.i, exc.value.j) == (1, 0)

    def test_row_sum_repair_inside_tolerance(self):
        eps = 1e-14
        Q = validate_generator([[-1.0 + eps, 1.0], [2.0, -2.0 - eps]])
        assert Q.rates.sum(axis=1).tolist() == [0.0, 0.0]

    def test_row_sum_error_outside_tolerance(self):
        with pytest.raises(RowSumNonzero) as exc:
            validate_generator([[-1.0, 1.5], [2.0, -2.0]])
        assert exc.value.i == 0

    def test_single_state(self):
        assert validate_generator([[0.0]]).dim == 1

    def test_row_tolerance_scales_with_the_diagonal(self):
        # max |Q| = 2 sits on the diagonal: row 0's sum, -1.5e-12, is
        # inside tol_row * 2 but not inside tol_row * (off-diagonal max 1)
        Q = validate_generator([[-2.0 - 1.5e-12, 1.0, 1.0], [1.0, -2.0, 1.0],
                                [1.0, 1.0, -2.0]])
        assert Q.rates[0, 0] == -2.0

    @pytest.mark.parametrize("check", [validate_generator, check_condition_D],
                             ids=["validate_generator", "check_condition_D"])
    def test_peak_is_one_copy_of_the_matrix(self, check, rng):
        # one float copy and boolean masks; the copies kept for the sign
        # test and for max |Q| once made peaks of 3.0 and 2.25 n x n
        n = 512
        raw = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(raw, 0.0)
        np.fill_diagonal(raw, -raw.sum(axis=1))
        tracemalloc.start()
        try:
            check(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * raw.nbytes

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            validate_generator([[0.0, 0.0]])

    def test_rates_are_read_only(self):
        Q = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(ValueError):
            Q.rates[0, 0] = 5.0


class TestCarreDuChamp:
    def test_two_state_example(self, two_state):
        # direct arithmetic: L(g^2) - 2 g Lg with g = (0, 1)
        g = np.array([0.0, 1.0])
        L = two_state.rates
        expected = L @ g ** 2 - 2.0 * g * (L @ g)
        assert np.allclose(expected, [1.0, 2.0], atol=0)
        assert np.allclose(carre_du_champ(two_state, g), expected, atol=1e-15)

    def test_constant_gives_zero(self, two_state):
        assert np.array_equal(carre_du_champ(two_state, np.full(2, 3.7)), [0.0, 0.0])

    def test_nonnegative_and_matches_definition(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            g = rng.normal(0, 2, d)
            gamma = carre_du_champ(Q, g)
            assert (gamma >= 0).all()
            direct = Q.rates @ g ** 2 - 2.0 * g * (Q.rates @ g)
            assert np.abs(gamma - direct).max() <= 1e-12 * Q.scale * max(1.0, g @ g)

    def test_dimension_mismatch(self, two_state):
        with pytest.raises(DimensionMismatch):
            carre_du_champ(two_state, np.ones(3))


class TestGammaSandwich:
    def test_constant_f_reduces_to_gamma(self, two_state):
        # with f = 1 the middle expression is exactly Gamma(g)
        g = np.array([0.3, -1.2])
        f = np.ones(2)
        L = two_state.rates
        middle = L @ (f * g ** 2) - 2 * g * (L @ (f * g)) + g ** 2 * (L @ f)
        assert np.allclose(middle, carre_du_champ(two_state, g), atol=1e-14)
        assert gamma_sandwich_check(two_state, f, g)

    def test_two_state_derived(self, two_state):
        assert gamma_sandwich_check(two_state, np.array([1.0, 2.0]),
                                    np.array([0.0, 1.0]))

    def test_random_trials(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 9))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            f = rng.normal(0, 2, d)
            g = rng.normal(0, 2, d)
            assert gamma_sandwich_check(Q, f, g)


class TestConditionA:
    def test_two_state_against_series_oracle(self, two_state):
        P = oracles.series_expm(1.0 * two_state.rates)
        expected = min(P[:, j].min() / P[:, j].max() for j in range(2))
        eps = check_condition_A(two_state, 1.0)
        assert eps == pytest.approx(expected, rel=1e-12)
        assert 0 < eps <= 1

    def test_single_state(self):
        Q = validate_generator([[0.0]])
        assert check_condition_A(Q, 1.0) == 1.0

    @pytest.mark.parametrize("d, T", [(12, 0.5), (15, 0.5), (15, 1.0), (18, 1.0)])
    def test_sparse_chain_small_corners(self, d, T, rng):
        # on a birth-death chain the corners of exp(TQ) fall to ~T^(d-1)/(d-1)!,
        # so the ratio is decided by entries far below the largest ones
        for up, down in ((np.ones(d - 1), np.ones(d - 1)),
                         (10 ** rng.uniform(-1, 1, d - 1), 10 ** rng.uniform(-1, 1, d - 1))):
            Q = validate_generator(np.diag(up, 1) + np.diag(down, -1)
                                   - np.diag(np.r_[up, 0] + np.r_[0, down]))
            P = oracles.series_expm(T * Q.rates)
            expected = float((P.min(axis=0) / P.max(axis=0)).min())
            assert expected < 1e-9
            assert check_condition_A(Q, T) == pytest.approx(expected, rel=1e-12)
            assert check_condition_B(Q)

    def test_reducible_chain_is_zero(self):
        # state 0 never leaves, so P_T[0, 1] = 0 for every T: the support
        # graph is connected but not strongly connected
        Q = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        for T in (0.5, 1.0, 10.0):
            assert check_condition_A(Q, T) == 0.0
        assert not check_condition_B(Q)

    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_huge_horizon_is_certified(self, n):
        # dense chains with rates U(0, 1): at T = 1e308 the 16- and 256-state
        # ones read nan, with a RuntimeWarning, after ~1030 squarings, and the
        # 2-state one raised NonFinite, although eps_A(1e8) is within 1e-14
        # of 1
        rng = np.random.default_rng(0)
        Q = validate_generator(oracles.rand_rate_matrix(n, rng, 0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = check_condition_A(Q, 1e308)
        assert 1.0 - 1e-13 <= eps <= 1.0

    def test_slow_mixing_chain_at_a_huge_horizon(self):
        # the 256-state unit birth-death chain mixes over ~6600 time units,
        # so eps_A climbs from 0 (underflowed corners) through 1.6e-7 at
        # T = 1e3.  It read nan at T = 1e308; squaring P itself, rather than
        # against its row-normalized copy, doubles the round-off in the row
        # sums each time and overflows there
        n = 256
        Q = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        Q = validate_generator(Q - np.diag(Q.sum(axis=1)))
        eps = [check_condition_A(Q, T) for T in (1.0, 1e3, 1e5, 1e308)]
        assert eps == sorted(eps) and eps[0] == 0.0
        assert 1.5e-7 < eps[1] < 1.6e-7 and 1.0 - 1e-13 <= eps[3] <= 1.0

    def test_reducible_chain_is_zero_at_any_horizon(self):
        # exp(TQ) underflowed to a zero column at T = 1e308, and the ratio
        # read nan with a RuntimeWarning
        Q = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_condition_A(Q, 1e308) == 0.0

    def test_underflowing_column_is_nonfinite(self):
        # state 0 leaves at rate 1e-300, so column 1 of exp(Q) is about
        # 5e-304, lost in the round-off of expm's unit entries: it comes out
        # a round-off negative, clamped to zero
        Q = validate_generator([[-1e-300, 1e-300], [2e3, -2e3]])
        with pytest.raises(NonFinite, match="underflows"):
            check_condition_A(Q, 1.0)

    def test_positive_for_t_ladder(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            for T in (1.0, 10.0, 100.0):
                assert check_condition_A(Q, T) > 0


class TestConditionD:
    def test_three_cycle(self):
        Q = validate_generator([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        assert check_condition_D(Q)

    def test_block_diagonal_raw_matrix(self):
        raw = [[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
               [0.0, 0.0, -2.0, 2.0], [0.0, 0.0, 2.0, -2.0]]
        assert not check_condition_D(np.array(raw))
        with pytest.raises(GraphDisconnected):
            validate_generator(raw)

    def test_components_match_scipy(self, rng):
        # sparse random graphs, most of them disconnected: GraphDisconnected
        # lists each component as its sorted states, by smallest state
        disconnected = 0
        for _ in range(200):
            d = int(rng.integers(1, 40))
            raw = (rng.random((d, d)) < rng.uniform(0, 0.15)) * rng.uniform(0.5, 2, (d, d))
            np.fill_diagonal(raw, 0.0)
            np.fill_diagonal(raw, -raw.sum(axis=1))
            expected = oracles.support_components(raw)
            assert check_condition_D(raw) == (len(expected) == 1)
            if len(expected) == 1:
                validate_generator(raw)
                continue
            disconnected += 1
            with pytest.raises(GraphDisconnected) as exc:
                validate_generator(raw)
            assert exc.value.components == expected
        assert disconnected > 100

    def test_star_graph(self):
        raw = np.zeros((4, 4))
        raw[0, 1:] = 1.0
        raw[1:, 0] = 1.0
        np.fill_diagonal(raw, -raw.sum(axis=1))
        assert check_condition_D(validate_generator(raw))

    def test_nonconstant_g_has_positive_gamma(self, rng):
        # contrapositive of nondegeneracy: on a connected graph, any g with
        # spread has Gamma(g) > 0 somewhere
        for _ in range(50):
            d = int(rng.integers(2, 7))
            Q = validate_generator(oracles.rand_rate_matrix(d, rng))
            g = rng.normal(0, 1, d)
            g[0] += 1.0  # guarantee spread
            assert carre_du_champ(Q, g).max() > 1e-12 * (g.max() - g.min()) ** 2
