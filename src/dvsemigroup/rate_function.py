"""Occupation-measure rate function I(mu) and its dual variational problems.

For a generator Q (action L) and a probability measure mu,

    I(mu) = - inf over positive u of  sum_i mu_i (L u)_i / u_i.

Writing u = e^w, the objective

    F(w) = sum_i mu_i sum_j Q_ij e^{w_j - w_i}

is smooth and convex in w, invariant under w -> w + c, so the infimum is
computed by damped Newton on the gauge slice sum(w) = 0.  At the minimizer
the tilted generator L_w[i,j] = Q_ij e^{w_j - w_i} (diagonal adjusted to
zero row sums) has mu as a stationary vector, which yields closed forms
for the derivatives of I:

    grad I(mu) = -(L u*/u*),      Hess I(mu) = L_w H^+ L_w^T,

with H the (positive semidefinite) Hessian of F at the minimizer.  These
feed the concave maximization

    lambda_V = sup_mu ( mu(V) - I(mu) )          [dv_sup]

by damped Newton over the simplex on mu -> I(mu) - mu(V) (_simplex_newton,
which under linear equality rows A mu = A mu0 also runs the constrained
minimization of hohenberg_kohn.reduced_functional).  Its Legendre dual
I(mu) = sup_V ( mu(V) - lambda_V ) is climbed by Newton ascent, using the
fact that the equilibrium measure of V is the gradient of lambda_V
(_legendre_newton, with which hohenberg_kohn inverts the marginal map).

Every candidate mu gives the rigorous lower bound mu(V) - I(mu) <= lambda_V,
and every positive u gives the Collatz-Wielandt upper bound
lambda_V <= max_i (V + L u/u)_i; their difference certifies convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonFinite, NotConverged, UnsupportedSupport
from .generator import Generator, as_potential
from .spectral import ProbMeasure, as_measure, principal_eigen


# convergence tolerance of rate_I (sup-norm of its Newton gradient), and
# the step cap of rate_I and dv_sup
_TOL = 1e-10
_MAX_ITER = 200
# round-off floor of rate_I's gradient per unit of Q.scale, with a margin:
# it stalls at up to 0.54 eps Q.scale (two-state chains with rates up to
# 1e14, dense and birth-death chains up to d = 128)
_FLOOR = 16 * np.finfo(float).eps
# outer steps without a new smallest Frank-Wolfe gap that end dv_sup's ascent
_STALL = 10


@dataclass(frozen=True)
class RateResult:
    value: float
    minimizer_logu: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float


def _positive_weights(mu, dim: int) -> np.ndarray:
    """The weights of a probability vector on dim states; a zero entry
    raises UnsupportedSupport."""
    m = as_measure(mu, dim).weights
    zero = np.nonzero(m == 0.0)[0]
    if zero.size:
        raise UnsupportedSupport(f"measure vanishes on states {zero.tolist()}")
    return m


def _newton_min(Q: np.ndarray, mu: np.ndarray, tol: float, max_iter: int,
                w0: np.ndarray | None = None):
    """Damped Newton for F(w) with sum(w) = 0 gauge.

    The rank-one term rho * ones/d added to the Hessian removes the gauge
    null direction without moving the constrained solution; a small ridge
    keeps the solve well posed when the tilted support graph degenerates.
    Falls back to gradient steps whenever the Newton direction fails to
    produce Armijo decrease.  Returns (F, w, gradient sup-norm, steps,
    mu_i T_ij, T) at the last accepted w, T the off-diagonal part of its
    tilted generator.
    """
    d = Q.shape[0]
    qdiag = float(mu @ np.diag(Q))
    ones = np.ones((d, d))

    def f_parts(w):
        T = Q * np.exp(w[None, :] - w[:, None])    # T_ij = Q_ij e^{w_j - w_i}, i != j
        np.fill_diagonal(T, 0.0)
        tw = mu[:, None] * T
        F = float(tw.sum()) + qdiag
        g = tw.sum(axis=0) - tw.sum(axis=1)
        return F, g, tw, T

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=float) - np.mean(w0)
    F, g, tw, T = f_parts(w)
    iterations = 0
    for iterations in range(max_iter):
        gnorm = float(np.abs(g).max())
        if gnorm <= tol:
            break
        H = np.diag(tw.sum(axis=0) + tw.sum(axis=1)) - (tw + tw.T)
        rho = max(float(np.trace(H)) / d, 1e-13)
        try:
            step = np.linalg.solve(H + rho * ones / d + 1e-13 * rho * np.eye(d), -g)
        except np.linalg.LinAlgError:
            step = -g
        descent = float(g @ step)
        if descent > 0:
            step, descent = -g, -float(g @ g)
        # Newton contracts the gradient quadratically near the minimum,
        # where F-differences drown in round-off; accept the full step on
        # gradient contraction first, fall back to Armijo backtracking
        trial = f_parts(w + step)
        if float(np.abs(trial[1]).max()) < 0.5 * gnorm:
            w = w + step
            w -= w.mean()
            F, g, tw, T = trial
            continue
        s = 1.0
        accepted = False
        for _ in range(60):
            trial = f_parts(w + s * step)
            if trial[0] < F + 1e-4 * s * descent:
                w = w + s * step
                w -= w.mean()
                F, g, tw, T = trial
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
    return F, w, float(np.abs(g).max()), iterations, tw, T


def rate_I(Q: Generator, mu) -> RateResult:
    """Donsker-Varadhan rate of an occupation measure.

    Returns -min F(w) together with the gauge-fixed minimizer.  The value
    is always >= 0 because F(0) = 0 is a feasible point.  A measure with
    zero entries raises UnsupportedSupport.  The Newton run stops once its
    gradient is at most 1e-10, or the round-off floor of the rates where
    that is higher; a gradient past 1e4 times that stop raises NotConverged.
    """
    m = _positive_weights(mu, Q.dim)
    tol = max(_TOL, _FLOOR * Q.scale)
    F, logu, gnorm, iters, _, _ = _newton_min(Q.rates, m, tol, _MAX_ITER)

    converged = gnorm <= tol
    value = max(-F, 0.0)
    if not converged and gnorm > 1e4 * tol:
        raise NotConverged(value, gnorm, iterations=iters)
    return RateResult(value=value, minimizer_logu=logu, converged=converged,
                      iterations=iters, gradient_norm=gnorm)


def rate_IV(Q: Generator, V, mu) -> float:
    """Tilted rate I^V(mu) = I(mu) - mu(V) + lambda_V.

    Nonnegative, and zero exactly at the equilibrium measure of (Q, V).
    """
    V = as_potential(V, Q.dim)
    mu = as_measure(mu, Q.dim)
    lam = principal_eigen(Q, V).lam
    return rate_I(Q, mu).value - float(mu.weights @ V.values) + lam


def _rate_parts(Q: np.ndarray, mu: np.ndarray, tol: float, w0: np.ndarray | None):
    """One inner solve at mu, at most 100 steps from w0, and what I's derivatives need.

    Returns (I, w, h, Lw, H): the rate I(mu) = -min F, the log-tilt w of
    the minimizer u* = e^w, h = L u*/u* (so grad I = -h and I = -mu(h)),
    the tilted generator Lw and the Hessian H of F at w.
    """
    F, w, _, _, tw, Lw = _newton_min(Q, mu, tol, 100, w0)
    out = Lw.sum(axis=1)
    h = out + np.diag(Q)
    np.fill_diagonal(Lw, -out)
    H = np.diag(tw.sum(axis=0) + tw.sum(axis=1)) - (tw + tw.T)
    return -F, w, h, Lw, H


def hessian_of_rate(Lw: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Hess I(mu) = L_w H^+ L_w^T on the zero-sum subspace.

    H is a graph Laplacian with the constants as null space, so H^+ =
    (H + a ee^T)^{-1} - ee^T/a, e = 1/sqrt(m); L_w 1 = 0 drops the last term.
    """
    m = H.shape[0]
    a = float(np.trace(H)) / m
    return Lw @ np.linalg.solve(H + (a / m) * np.ones((m, m)), Lw.T)


def dv_sup(Q: Generator, V, start=None, logu=None):
    """Variational principal eigenvalue sup_mu (mu(V) - I(mu)).

    _simplex_newton minimizes the convex I(mu) - mu(V) over the simplex
    from start (the uniform measure when None; a start with a zero entry
    raises UnsupportedSupport), with the ones row as its only constraint;
    convexity makes one start enough, and a good one, such as the
    equilibrium measure of (Q, V), saves steps.  logu, a finite log-tilt
    on the d states such as rate_I's minimizer_logu at start, starts the
    inner rate solve at start (w = 0 when None); that solve still runs to
    its own tolerance.  With h = L u*/u* at the rate minimizer u*,
    I(mu) = -mu(h), so the Frank-Wolfe gap it stops on,
    max(V + h) - mu(V + h),
    is the Collatz-Wielandt duality gap that certifies the value.  The
    ascent stops once that gap is at most 1e-9, or after _STALL steps
    without a smaller one, and returns the point of smallest gap; the
    start is never trusted, only that gap.  NotConverged is raised when
    the gap exceeds 1e-5 max(1, |value|).  The inner rate solves run at
    1e-12: h at states of tiny mass needs it.

    Returns (lambda_hat, mu_star).
    """
    d = Q.dim
    Vv = as_potential(V, d).values
    p0 = np.full(d, 1.0 / d) if start is None else _positive_weights(start, d)
    w0 = None if logu is None else as_potential(logu, d).values
    mu, I, h, _, _ = _simplex_newton(Q.rates, p0, Vv, np.ones((1, d)), 1e-12,
                                     _MAX_ITER, gap_tol=1e-9, w0=w0)
    value = float(mu @ Vv - I)
    gap = float((Vv + h).max() - value)
    if gap > 1e-5 * max(1.0, abs(value)):
        raise NotConverged(value, gap)
    return value, ProbMeasure(mu)


def _simplex_newton(Q: np.ndarray, p: np.ndarray, c: np.ndarray, A: np.ndarray,
                    tol: float, max_steps: int, gap_tol: float | None = None,
                    w0: np.ndarray | None = None):
    """Damped Newton over the simplex interior for

        phi(p) = I(p) - c p    subject to  A p = A p0,

    with I the rate of Q at p from inner rate solves at tol, p0 the start,
    and the ones row in the span of A's rows.  Each step solves the KKT
    system [[Hess I, A^T], [A, 0]], so A step = 0 keeps p0's feasibility,
    and its dual part is the multiplier y, grad phi + A^T y = 0 at the
    minimizer (Boyd & Vandenberghe 2004, sec. 10.2).  The step is cut to
    0.95 of the distance to the boundary and backtracked to Armijo
    decrease, one rate solve per trial.

    Without gap_tol the loop stops once the Newton decrement is at
    round-off.  With gap_tol it stops once the Frank-Wolfe gap g p - min g
    (g = grad phi) is at most gap_tol, or after _STALL steps without a
    new smallest gap, and also accepts a full step that halves that gap:
    the gap is a max over states, so it still contracts where states of
    tiny mass leave phi-differences at round-off, and there round-off can
    also hold it above gap_tol.

    Each point gets one rate solve, warm-started from the previous point's
    log-tilt (the start's from w0, zero when None): an accepted trial's
    solve serves the next step.  Returns (p, I, h, y, w): the final point
    p (with gap_tol, the point of smallest gap), its rate I(p), h = L u*/u*
    there and the log-tilt w of u* (see _rate_parts) from that point's
    solve, and the last multiplier y.
    """
    m, k = len(p), A.shape[0]
    y = np.zeros(k)
    K = np.zeros((m + k, m + k))
    K[:m, m:] = A.T
    K[m:, :m] = A
    rhs = np.zeros(m + k)
    I, w, h, Lw, H = _rate_parts(Q, p, tol, w0)
    # with gap_tol: the smallest gap so far, the step it came at, and its
    # point's vectors
    best_gap, best_step, best = np.inf, 0, None
    for steps in range(max_steps + 1):
        g = -h - c
        gap = float(g @ p - g.min())
        if gap_tol is not None:
            if gap < best_gap:
                best_gap, best_step, best = gap, steps, (p, I, h, w)
            if gap <= gap_tol or steps - best_step == _STALL:
                break
        if steps == max_steps:
            break
        rhs[:m] = -g
        try:
            # Hess I written in place: a separate m x m array would stay
            # alive through the trial solves below
            K[:m, :m] = hessian_of_rate(Lw, H)
            K[:m, :m] += 1e-12 * max(float(np.trace(K[:m, :m])) / m, 1.0) * np.eye(m)
            sol = np.linalg.solve(K, rhs)
            step, y = sol[:m], sol[m:]
        except np.linalg.LinAlgError:
            # projected gradient, in null(A)
            y = np.linalg.lstsq(A.T, -g, rcond=None)[0]
            step = -(g + A.T @ y)
        phi0 = I - p @ c
        descent = float(g @ step)
        # once the predicted decrease is at round-off, backtracking can
        # only chase noise in phi
        if gap_tol is None and -descent <= 1e-15 * max(1.0, abs(phi0)):
            break
        s = 1.0
        shrink = step < 0
        if shrink.any():
            s = min(1.0, 0.95 * float(np.min(-p[shrink] / step[shrink])))
        moved = False
        for _ in range(50):
            p_try = p + s * step
            if p_try.min() > 0:
                trial = _rate_parts(Q, p_try, tol, w)
                if trial[0] - p_try @ c <= phi0 + 1e-4 * s * descent:
                    moved = True
                elif gap_tol is not None and s == 1.0:
                    g_try = -trial[2] - c
                    moved = float(g_try @ p_try - g_try.min()) < 0.5 * gap
                if moved:
                    p, (I, w, h, Lw, H) = p_try, trial
                    break
            s *= 0.5
        if not moved:
            break
    if best is not None:
        p, I, h, w = best
    return p, I, h, y, w


def _legendre_newton(Q: Generator, V0: np.ndarray, F: np.ndarray, target: np.ndarray,
                     tol: float, max_steps: int):
    """Newton ascent on the concave dual G(v) = target.v - lambda(V0 + F v).

    One principal_eigen call per point gives grad G = target - F^T mu and
    Hess G = -F^T (A + A^T) F, A = diag(pi) S diag(psi), with S = (lambda I
    - M + psi pi^T)^{-1} - psi pi^T the group inverse (Meyer 1975).  Rows of
    F sum to one, so G is flat along constants: v is kept mean-zero and a
    rank-one term fixes that gauge in the solve.  A full step that halves
    the gradient passes unless G drops beyond round-off, else Armijo
    backtracking runs; a failed eigenproblem rejects a trial.  Each trial's
    Perron solve starts from the current point's ground data.  Returns
    (v, G, TV(target, F^T mu), steps), stopping once that TV <= tol.
    """
    def point(v, start=None):
        v = v - v.mean()
        gd = principal_eigen(Q, V0 + F @ v, start)
        g = target - F.T @ gd.mu.weights
        return v, gd, float(target @ v - gd.lam), g, 0.5 * float(np.abs(g).sum())

    v, gd, G, g, err = point(np.zeros_like(target))
    steps = 0
    while err > tol and steps < max_steps:
        B = np.diag(gd.lam - V0 - F @ v) - Q.rates + np.outer(gd.psi, gd.pi.weights)
        half = (gd.pi.weights[:, None] * F).T @ np.linalg.solve(B, gd.psi[:, None] * F)
        K = half + half.T - 2.0 * np.outer(target - g, target - g)    # F^T mu = target - g
        step = np.linalg.solve(K + np.full(K.shape, max(np.trace(K), 1e-300) / K.size), g)
        ascent = float(g @ step)
        if not ascent > 0:
            step, ascent = g, float(g @ g)
        for s in 0.5 ** np.arange(60):
            try:
                trial = point(v + s * step, gd)
            except (ConvergenceFailure, NonFinite):
                continue
            G_try, err_try = trial[2], trial[4]
            if (G_try >= G + 1e-4 * s * ascent or s == 1.0 and err_try < 0.5 * err
                    and G_try >= G - 1e-12 * max(1.0, abs(G))):
                break
        else:
            break
        v, gd, G, g, err = trial
        steps += 1
    return v, G, err, steps


def relative_entropy(mu, pi) -> float:
    """Kullback-Leibler divergence sum mu_i log(mu_i / pi_i).

    Conventions: 0 log(0/x) = 0; returns +inf when mu charges a state that
    pi does not (absolute continuity fails).  Always nonnegative.  Equals
    the variational value sup_V (mu(V) - log pi(e^V)).
    """
    a = mu.weights if isinstance(mu, ProbMeasure) else np.asarray(mu, dtype=float)
    b = pi.weights if isinstance(pi, ProbMeasure) else np.asarray(pi, dtype=float)
    if a.shape != b.shape:
        raise ValueError("measures live on different state spaces")
    pos = a > 0
    if (b[pos] == 0).any():
        return float("inf")
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))
