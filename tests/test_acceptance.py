"""Acceptance suite: twelve numbered criteria, one pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass lines as
they are produced (without -s pytest shows them for failing criteria).
Every tolerance is pinned here; none are calibrated at runtime.
"""

import numpy as np

import oracles
from dvsemigroup import (
    HKConclusion,
    dv_sup,
    equilibrium_marginal,
    estimate_lambda,
    evolve,
    expm,
    gamma_overlap_check,
    gamma_sandwich_check,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    growth_bound,
    hk_verify,
    invert_potential,
    kronecker_sum,
    make_operator,
    pairwise_potential,
    principal_eigen,
    rate_I,
    rate_IV,
    reduced_variational,
    relative_entropy,
    separable_potential,
    total_variation,
    validate_generator,
)


def report(number, text):
    print(f"\nCRITERION {number:2d} PASS: {text}")


TWO_STATE = [[-1.0, 1.0], [2.0, -2.0]]
THREE_STATE = [[-1.5, 1.0, 0.5], [0.7, -1.2, 0.5], [0.3, 0.9, -1.2]]


def test_criterion_01_spectral_variational_duality():
    """sup_mu (mu(V) - I(mu)) equals the principal eigenvalue, 200 instances."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        V = rng.uniform(-1, 1, d)
        lam = principal_eigen(Q, V).lam
        lam_hat, _ = dv_sup(Q, V)
        worst = max(worst, abs(lam_hat - lam))
        assert abs(lam_hat - lam) <= 1e-8
    report(1, f"duality gap <= 1e-8 on 200 instances d=2..8 (worst {worst:.2e})")


def test_criterion_02_two_state_closed_forms():
    """Closed-form eigenvalue and rate for two-state chains, to 1e-10."""
    for a, b, v1, v2 in [(1.0, 2.0, 1.0, 0.0), (0.7, 1.3, -0.5, 0.8),
                         (2.5, 0.4, 0.0, 0.3)]:
        Q = validate_generator([[-a, a], [b, -b]])
        lam = principal_eigen(Q, [v1, v2]).lam
        assert abs(lam - oracles.two_state_lambda(a, b, v1, v2)) <= 1e-10
    a, b = 0.7, 1.3
    Q = validate_generator([[-a, a], [b, -b]])
    for m1 in (0.1, 0.35, 0.5, 0.8):
        got = rate_I(Q, [m1, 1 - m1]).value
        assert abs(got - oracles.two_state_rate(a, b, m1)) <= 1e-10
    report(2, "two-state lambda and I(mu) match closed forms to 1e-10")


def test_criterion_03_equilibrium_characterization():
    """I^V vanishes at the equilibrium measure and only there, 100 instances."""
    rng = np.random.default_rng(303)
    worst_eq, worst_pert = 0.0, np.inf
    for _ in range(100):
        d = int(rng.integers(2, 9))
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        V = rng.uniform(-1, 1, d)
        gd = principal_eigen(Q, V)
        at_eq = rate_IV(Q, V, gd.mu)
        assert at_eq <= 1e-8
        m = gd.mu.weights.copy()
        lo, hi = int(np.argmin(m)), int(np.argmax(m))
        m[lo] += 0.05
        m[hi] -= 0.05
        off_eq = rate_IV(Q, V, m / m.sum())
        assert off_eq > 1e-4
        worst_eq = max(worst_eq, at_eq)
        worst_pert = min(worst_pert, off_eq)
    report(3, f"I^V(mu_eq) <= 1e-8 (worst {worst_eq:.2e}); "
              f"perturbed > 1e-4 (min {worst_pert:.2e})")


def test_criterion_04_ground_triangle():
    """Each pair of (ground state, ground measure, equilibrium) recovers the third."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        V = rng.uniform(-1, 1, d)
        gd = principal_eigen(Q, V)
        M = Q.rates + np.diag(V)
        scale = max(1.0, np.abs(M).max())
        op = make_operator(Q, V)

        # (psi, pi) -> mu: the product is the equilibrium measure
        mu = gd.psi * gd.pi.weights
        assert np.abs(mu - gd.mu.weights).max() <= 1e-12
        assert rate_IV(Q, V, mu / mu.sum()) <= 1e-8

        # (pi, mu) -> psi: the density is a ground state
        psi = gd.mu.weights / gd.pi.weights
        t = 1.0
        fixed = np.exp(-gd.lam * t) * evolve(op, t, psi)
        assert np.abs(fixed - psi).max() <= 1e-8
        assert np.abs(M @ psi - gd.lam * psi).max() <= 1e-8 * scale

        # (mu, psi) -> pi: the quotient is a ground measure
        pi = gd.mu.weights / gd.psi
        pi = pi / pi.sum()
        held = np.exp(-gd.lam * t) * (pi @ expm(t * M))
        assert np.abs(held - pi).max() <= 1e-8
        assert np.abs(pi @ M - gd.lam * pi).max() <= 1e-8 * scale
    report(4, "ground triangle closes with residuals <= 1e-8 on 50 instances")


def test_criterion_05_constructive_averaging():
    """Normalized evolved measure recovers the ground measure along a ladder.

    The window (Cesaro) average of the same flow dilutes its transient
    only linearly and cannot reach 1e-6 by T = 32; the evolved measure
    converges at the spectral-gap rate and is what the 1e-6 pin matches.
    Both ladders must be non-increasing and both satisfy the entropy
    bound H(mu, .) <= log C.
    """
    ladder = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    for raw_Q, V in [(TWO_STATE, [1.0, 0.0]), (THREE_STATE, [0.6, 0.0, -0.4])]:
        Q = validate_generator(raw_Q)
        V = np.asarray(V)
        gd = principal_eigen(Q, V)
        M = Q.rates + np.diag(V)
        gaps = np.sort(np.linalg.eigvals(M).real)
        assert gaps[-1] - gaps[-2] >= 0.5

        op = make_operator(Q, V)
        logC = np.log(growth_bound(op, gd.lam, np.linspace(0.0, 32.0, 257)))

        tv_evolved, tv_window = [], []
        for T in ladder:
            end = ground_measure_by_evolution(Q, V, gd.lam, gd.mu, T)
            avg = ground_measure_by_averaging(Q, V, gd.lam, gd.mu, T, 4097)
            tv_evolved.append(total_variation(end, gd.pi))
            tv_window.append(total_variation(avg, gd.pi))
            assert relative_entropy(gd.mu, end) <= logC + 1e-12
            assert relative_entropy(gd.mu, avg) <= logC + 1e-12
        assert all(b <= a + 1e-15 for a, b in zip(tv_evolved, tv_evolved[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(tv_window, tv_window[1:]))
        assert tv_evolved[-1] <= 1e-6
    report(5, "TV ladders non-increasing, evolved TV(T=32) <= 1e-6, "
              "entropy <= log C throughout")


def test_criterion_06_doob_transform():
    """Transform rows vanish, the equilibrium measure is invariant, V=0 fixed."""
    from dvsemigroup import doob_transform
    rng = np.random.default_rng(606)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        V = rng.uniform(-1, 1, d)
        gd = principal_eigen(Q, V)
        M = Q.rates + np.diag(V)
        raw = (M - gd.lam * np.eye(d)) * (gd.psi[None, :] / gd.psi[:, None])
        assert np.abs(raw.sum(axis=1)).max() <= 1e-12
        D = doob_transform(Q, V, gd)
        assert np.abs(D.rates.sum(axis=1)).max() <= 1e-12
        assert np.abs(gd.mu.weights @ D.rates).max() <= 1e-9
    Q = validate_generator(TWO_STATE)
    gd0 = principal_eigen(Q, [0.0, 0.0])
    D0 = doob_transform(Q, [0.0, 0.0], gd0)
    assert np.abs(D0.rates - Q.rates).max() <= 1e-12
    report(6, "Doob rows <= 1e-12, mu invariance <= 1e-9, identity at V = 0")


def test_criterion_07_marginal_uniqueness():
    """Distinct external potentials yield distinct marginals; shifts do not."""
    rng = np.random.default_rng(707)
    min_tv, min_margin = np.inf, np.inf
    for _ in range(200):
        d = int(rng.integers(2, 4))
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        sys = kronecker_sum(Q1, 2)
        w = rng.uniform(0, 1, (d, d))
        V0 = pairwise_potential(0.5 * (w + w.T), 2)
        v1 = rng.uniform(-1, 1, d)
        v2 = rng.uniform(-1, 1, d)
        if np.abs((v1 - v2) - (v1 - v2).mean()).max() < 1e-3:
            v2 = v2 + np.linspace(0.0, 0.5, d)
        rep = hk_verify(sys, V0, v1, v2)
        assert rep.conclusion is HKConclusion.DISTINCT_MARGINALS
        assert rep.marginal_distance > 0.0
        assert min(rep.inequality_margins) > 0.0
        min_tv = min(min_tv, rep.marginal_distance)
        min_margin = min(min_margin, *rep.inequality_margins)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        sys = kronecker_sum(Q1, 2)
        w = rng.uniform(0, 1, (d, d))
        V0 = pairwise_potential(0.5 * (w + w.T), 2)
        v1 = rng.uniform(-1, 1, d)
        rep = hk_verify(sys, V0, v1, v1 + float(rng.uniform(-2, 2)))
        assert rep.conclusion is HKConclusion.SAME_POTENTIAL_UP_TO_CONSTANT
        assert rep.marginal_distance <= 1e-10
        assert rep.potential_residual <= 1e-12
    report(7, f"200 distinct instances: TV > 0 (min {min_tv:.2e}), strict "
              f"inequalities hold (min margin {min_margin:.2e}); shifts collapse")


def test_criterion_08_inversion_round_trip():
    """Newton ascent on the concave dual recovers the centered potential."""
    rng = np.random.default_rng(808)
    worst, worst_it = 0.0, 0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        Q1 = validate_generator(oracles.rand_rate_matrix(d, rng))
        sys = kronecker_sum(Q1, 2)
        w = rng.uniform(0, 1, (d, d))
        V0 = pairwise_potential(0.5 * (w + w.T), 2)
        v_star = rng.uniform(-2, 2, d)
        _, _, rho = equilibrium_marginal(sys, V0, v_star)
        res = invert_potential(sys, V0, rho)
        assert res.converged and res.iterations <= 500
        err = np.abs(res.v_recovered.values - (v_star - v_star.mean())).max()
        assert err <= 1e-4
        worst = max(worst, err)
        worst_it = max(worst_it, res.iterations)
    report(8, f"10 round trips within 1e-4 (worst {worst:.2e}, "
              f"max iterations {worst_it})")


def test_criterion_09_reduced_variational_principle():
    """sup_rho (rho(v) - I_HK(rho)) reproduces the product-system eigenvalue."""
    rng = np.random.default_rng(909)
    Q1 = validate_generator(TWO_STATE)
    sys = kronecker_sum(Q1, 2)
    worst = 0.0
    for w01, v in [(1.0, [0.0, 1.0]), (0.4, [0.8, -0.3]), (0.0, [-0.5, 0.5])]:
        V0 = pairwise_potential(np.array([[0.0, w01], [w01, 0.0]]), 2)
        lam_hat, rho_star = reduced_variational(sys, V0, v)
        total = V0.values + separable_potential(v, 2).values
        gd = principal_eigen(sys.QN, total)
        assert abs(lam_hat - gd.lam) <= 1e-4
        _, _, rho_eq = equilibrium_marginal(sys, V0, v)
        assert total_variation(rho_star, rho_eq) <= 1e-3
        worst = max(worst, abs(lam_hat - gd.lam))
    report(9, f"reduced variational eigenvalue within 1e-4 (worst {worst:.2e})")


def test_criterion_10_gamma_machinery():
    """Sandwich inequality on 1000 trials; overlap separates constant shifts."""
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        assert gamma_sandwich_check(Q, rng.normal(0, 2, d), rng.normal(0, 2, d))
    for _ in range(10):
        d = int(rng.integers(2, 5))
        Q = validate_generator(oracles.rand_rate_matrix(d, rng))
        V1 = rng.uniform(-1, 1, d)
        assert gamma_overlap_check(Q, V1, V1 + float(rng.uniform(-3, 3))) <= 1e-10
        bump = np.zeros(d)
        bump[int(rng.integers(0, d))] = 0.1
        assert gamma_overlap_check(Q, V1, V1 + bump) > 0.0
    report(10, "sandwich holds on 1000 trials; overlap vanishes only on shifts")


def test_criterion_11_monte_carlo_concordance():
    """Path-weight estimate agrees with the spectral eigenvalue at t = 50."""
    rng = np.random.default_rng(44)
    four_state = oracles.rand_rate_matrix(4, rng, 0.5, 1.5)
    v4 = rng.uniform(-0.4, 0.4, 4)
    instances = [(TWO_STATE, [1.0, 0.0]),
                 (THREE_STATE, [0.3, 0.0, -0.3]),
                 (four_state, v4)]
    t, n = 50.0, 20000
    for raw_Q, V in instances:
        Q = validate_generator(raw_Q)
        lam = principal_eigen(Q, V).lam
        est, se = estimate_lambda(Q, V, t, n, seed=12345)
        assert abs(est - lam) <= 3.0 * (se + 0.05 / t)
    Q = validate_generator(TWO_STATE)
    est, se = estimate_lambda(Q, [0.25, 0.25], t, 100, seed=1)
    assert est == 0.25 and se == 0.0
    report(11, "three instances inside 3 (stderr + 0.05/t); constant V exact")


def test_criterion_12_tilted_log_inequality():
    """int log(e^{-lam t} P_t^V u / u) dmu >= -t I^V(mu) with slack >= -1e-10."""
    rng = np.random.default_rng(1212)
    worst = np.inf
    for raw_Q, V in [(TWO_STATE, [1.0, 0.0]),
                     (THREE_STATE, [0.6, 0.0, -0.4]),
                     (None, None)]:
        if raw_Q is None:
            raw_Q = oracles.rand_rate_matrix(5, rng)
            V = rng.uniform(-1, 1, 5)
        Q = validate_generator(raw_Q)
        V = np.asarray(V)
        gd = principal_eigen(Q, V)
        op = make_operator(Q, V)
        for _ in range(100):
            mu = oracles.rand_measure(Q.dim, rng)
            u = np.exp(rng.normal(0, 1, Q.dim))
            t = float(rng.choice([0.1, 1.0, 10.0]))
            lhs = float(mu @ np.log(np.exp(-gd.lam * t) * evolve(op, t, u) / u))
            slack = lhs + t * rate_IV(Q, V, mu)
            assert slack >= -1e-10
            worst = min(worst, slack)
    report(12, f"lower bound holds on 300 draws (worst slack {worst:.2e})")
