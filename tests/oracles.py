"""Independent oracles used to derive expected values.

Everything here deliberately avoids the library's own numerical paths:
matrix exponentials come from eigendecompositions, Taylor series, or
scipy; eigendata from numpy's general solver; the rate function from
closed forms or generic black-box minimization.  legendre_I is the one
exception: it climbs the Legendre dual with the library's Perron solves,
a route that shares no code with rate_I's Newton solve.
"""

import itertools
import math
from math import comb

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse.csgraph

from dvsemigroup import NotConverged, as_measure
from dvsemigroup.rate_function import _legendre_newton


def eig_expm(A):
    """exp(A) through a dense eigendecomposition (small, diagonalizable A)."""
    w, R = np.linalg.eig(A)
    return (R @ np.diag(np.exp(w)) @ np.linalg.inv(R)).real


def series_expm(A, terms=60):
    """exp(A) by scaled Taylor summation."""
    A = np.asarray(A, dtype=float)
    norm = np.abs(A).sum(axis=1).max()
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    B = A / (2.0 ** s)
    R = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ B / k
        R = R + term
    for _ in range(s):
        R = R @ R
    return R


def scipy_expm(A):
    return scipy.linalg.expm(np.asarray(A, dtype=float))


def eig_principal(M):
    """(lam, psi, pi, mu) by numpy's general eigensolver.

    Matches the library normalization: pi sums to one, sum(psi * pi) = 1.
    """
    M = np.asarray(M, dtype=float)
    w, R = np.linalg.eig(M)
    k = int(np.argmax(w.real))
    lam = float(w[k].real)
    psi = R[:, k].real
    wl, Lv = np.linalg.eig(M.T)
    kl = int(np.argmax(wl.real))
    pi = Lv[:, kl].real
    psi = psi * np.sign(psi.sum())
    pi = pi * np.sign(pi.sum())
    pi = pi / pi.sum()
    psi = psi / float(psi @ pi)
    return lam, psi, pi, psi * pi


def tridiagonal_log_ground_state(M, lam):
    """log psi, up to a constant, of a tridiagonal Metzler M at its root lam.

    Backward ratio recurrence q_i = psi_{i-1} / psi_i from row i of
    M psi = lam psi, started at the last row.  It is stable where psi
    grows toward the first state, as for a ground state peaked there, and
    it never forms psi itself, so a tail below the smallest double costs
    no accuracy.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    log_psi = np.zeros(n)
    ratio = 0.0                      # psi_{i+1} / psi_i, none past the end
    for i in range(n - 1, 0, -1):
        up = M[i, i + 1] if i + 1 < n else 0.0
        q = (lam - M[i, i] - up * ratio) / M[i, i - 1]
        log_psi[i - 1] = log_psi[i] + np.log(q)
        ratio = 1.0 / q
    return log_psi


def support_components(mat):
    """Components of the undirected off-diagonal support graph of mat, each
    as its sorted states, ordered by smallest state."""
    support = np.asarray(mat) != 0
    np.fill_diagonal(support, False)
    _, labels = scipy.sparse.csgraph.connected_components(support, directed=False)
    comps = [np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1)]
    return sorted(comps)


def two_state_lambda(a, b, v1, v2):
    """Closed-form principal eigenvalue of [[-a+v1, a], [b, -b+v2]]."""
    return ((v1 - a + v2 - b) + np.sqrt((v1 - a - v2 + b) ** 2 + 4 * a * b)) / 2


def two_state_potential(a, b, rho1):
    """A potential whose equilibrium measure on [[-a, a], [b, -b]] is
    (rho1, 1 - rho1), with lambda 0: V = -Qu / u at u = (1, e^s), where
    e^{2s} = b rho2 / (a rho1) balances the rate function's two terms."""
    es = np.sqrt(b * (1.0 - rho1) / (a * rho1))
    return np.array([a * (1.0 - es), b * (1.0 - 1.0 / es)])


def product_lambda(Q1, v, N):
    """lambda_N(v) = N lambda_1(v / N): the separable potential sum_i
    v(x_i) / N of N independent particles, each at v / N, by numpy's
    general eigensolver on the one-particle chain."""
    return N * eig_principal(np.asarray(Q1, dtype=float) + np.diag(np.asarray(v) / N))[0]


def multinomial_log_masses(counts, mu1):
    """log of the orbit masses of the product measure mu1 x ... x mu1: the
    multinomial law N! / prod(n_a!) prod(mu1_a^n_a), one term at a time
    with math.lgamma, for each row n of counts."""
    counts = np.asarray(counts)
    log_sizes = [math.lgamma(sum(row) + 1) - sum(math.lgamma(k + 1) for k in row)
                 for row in counts.tolist()]
    return np.array(log_sizes) + counts @ np.log(mu1)


def two_state_rate(a, b, mu1):
    """Closed-form I(mu) for the two-state chain: (sqrt(a mu1) - sqrt(b mu2))^2."""
    return (np.sqrt(a * mu1) - np.sqrt(b * (1.0 - mu1))) ** 2


def rate_brute(Q, mu):
    """Black-box minimization of F(w) = sum_i mu_i sum_j Q_ij e^{w_j - w_i}."""
    Q = np.asarray(Q, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = Q.shape[0]

    def F(w):
        E = np.exp(w[None, :] - w[:, None])
        return float((mu[:, None] * Q * E).sum())

    best = np.inf
    for start in [np.zeros(d), np.linspace(-0.5, 0.5, d)]:
        res = scipy.optimize.minimize(F, start, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14,
                                               "maxiter": 20000, "maxfev": 20000})
        best = min(best, float(res.fun))
    return -best


def legendre_I(Q, mu):
    """The rate as sup_V (mu(V) - lambda_V), gauge sum V = 0.

    The concave objective has gradient mu - mu_V, so _legendre_newton with
    F = I, V0 = 0 climbs to stationarity mu = mu_V; the shift covariance of
    lambda makes the zero-mean gauge harmless.  mu must be positive.
    """
    mu = as_measure(mu, Q.dim).weights
    assert (mu > 0).all(), "legendre_I needs a strictly positive measure"
    _, value, err, steps = _legendre_newton(Q, np.zeros(Q.dim), np.eye(Q.dim), mu,
                                            1e-10, 200)
    if err > 1e-6:
        raise NotConverged(value, err, iterations=steps)
    return value


def simpson(values, h):
    """Composite Simpson weights for an odd number of samples."""
    n = len(values) - 1
    acc = values[0] + values[-1]
    acc = acc + 4.0 * sum(values[k] for k in range(1, n, 2))
    acc = acc + 2.0 * sum(values[k] for k in range(2, n, 2))
    return acc * h / 3.0


def trapezoid_row_average(Q, V, lam, mu0, T, n_grid):
    """The normalized trapezoid average of ground_measure_by_averaging,
    summed by n_grid - 1 row updates with scipy's expm as the step."""
    M = np.asarray(Q, dtype=float) + np.diag(V)
    step = scipy_expm(T / (n_grid - 1) * (M - lam * np.eye(len(M))))
    row = np.array(mu0, dtype=float)
    acc = 0.5 * row
    for k in range(1, n_grid):
        row = row @ step
        acc += (0.5 if k == n_grid - 1 else 1.0) * row
    return acc / acc.sum()


def tv(a, b):
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def rand_rate_matrix(d, rng, lo=0.2, hi=2.0):
    """Dense connected rate matrix with uniform off-diagonal rates."""
    Q = rng.uniform(lo, hi, (d, d))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def rand_measure(d, rng, conc=4.0):
    return rng.dirichlet(np.full(d, conc))


def digit_grid(d, N):
    """Coordinates (x1, ..., xN) of every flat state on d^N, row-major."""
    stride = d ** np.arange(N - 1, -1, -1)
    return np.arange(d ** N)[:, None] // stride % d


def unique_orbits(d, N):
    """(of, reps, counts, sizes) of the permutation orbits on d^N states, as
    the distinct sorted rows of the coordinate grid."""
    keys, reps, of, sizes = np.unique(np.sort(digit_grid(d, N), axis=1), axis=0,
                                      return_index=True, return_inverse=True,
                                      return_counts=True)
    counts = (keys[:, :, None] == np.arange(d)).sum(axis=1)
    return of.reshape(-1), reps, counts, sizes


def loop_separable(v, N):
    """(v(x1) + ... + v(xN)) / N, one coordinate at a time."""
    x = digit_grid(len(v), N)
    return sum(np.asarray(v)[x[:, i]] for i in range(N)) / N


def loop_pairwise(w, N):
    """sum_{i<j} w(x_i, x_j) / binom(N, 2), one pair at a time."""
    x = digit_grid(len(w), N)
    pairs = itertools.combinations(range(N), 2)
    return sum(w[x[:, i], x[:, j]] for i, j in pairs) / comb(N, 2)


def loop_marginal(mu, d, N, i=0):
    """The marginal of a measure on d^N states in coordinate i, by summing
    mu over every state with x_i = j, one j at a time."""
    x = digit_grid(d, N)
    mu = np.asarray(mu, dtype=float)
    return np.array([mu[x[:, i] == j].sum() for j in range(d)])
