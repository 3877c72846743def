"""Marginal-to-potential uniqueness, inversion, and the reduced functional.

For a symmetric product system with fixed interaction V0, the separable
external potential built from v on the single-particle space determines
an equilibrium measure on d^N states; its symmetrization has a
1-particle marginal rho.  The map v -> rho is injective up to additive
constants, which this module verifies quantitatively and inverts.

The reduced functional

    I_HK(rho) = inf { I(mu) - mu(V0) : mu symmetric, marginal(mu) = rho }

collapses the d^N-state variational principle to the d-simplex:

    lambda_{V0 + V} = sup_rho ( rho(v) - I_HK(rho) ).

I_HK is evaluated by an augmented-Lagrangian method over orbit masses of
the permutation action (a symmetric measure is constant on orbits), with
damped Newton inner solves reusing the rate-function derivatives.  The
multiplier of the marginal constraint is the gradient -grad I_HK(rho),
which drives the outer ascent of reduced_variational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotConverged, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, carre_du_champ
from .multiparticle import TensorSystem, marginal, separable_potential, symmetrize_measure
from .rate_function import _newton_min, _rate_parts, hessian_of_rate, rate_I
from .spectral import ProbMeasure, as_measure, principal_eigen, total_variation

I_HK_STATE_CAP = 256


class HKConclusion(Enum):
    SAME_POTENTIAL_UP_TO_CONSTANT = "same_potential_up_to_constant"
    DISTINCT_MARGINALS = "distinct_marginals"
    VIOLATION = "violation"


@dataclass(frozen=True)
class HKReport:
    """Outcome of comparing two external potentials through their marginals.

    marginal_distance    TV(rho1, rho2),
    potential_residual   max |(v1 - v2) - mean(v1 - v2)|,
    lambdas              principal eigenvalues of the two full systems,
    conclusion           verdict; VIOLATION would falsify uniqueness,
    kappa                empirical conditioning |v-residual| / TV when TV > 0,
    inequality_margins   slack of the two strict comparison inequalities
                         (lambda_2 - lambda_1) - rho1(v2 - v1) and
                         (lambda_1 - lambda_2) - rho2(v1 - v2).
    """

    marginal_distance: float
    potential_residual: float
    lambdas: tuple[float, float]
    conclusion: HKConclusion
    kappa: float
    inequality_margins: tuple[float, float]


@dataclass(frozen=True)
class InversionResult:
    v_recovered: Potential
    iterations: int
    marginal_error: float
    converged: bool


@dataclass(frozen=True)
class InversionOptions:
    step: float = 0.5
    tol: float = 1e-8
    max_iter: int = 500


@dataclass(frozen=True)
class ReducedOptions:
    """Controls for i_hk and reduced_variational.

    tol is the outer accuracy target; constraint_tol bounds the residual
    of the marginal constraint at return; beta0 seeds the doubling
    penalty schedule of the augmented Lagrangian.
    """

    tol: float = 1e-4
    constraint_tol: float = 1e-9
    inner_tol: float = 1e-11
    beta0: float = 10.0
    max_stages: int = 30
    max_newton: int = 60
    max_iter: int = 300
    cap: int = I_HK_STATE_CAP


@dataclass(frozen=True)
class ReducedResult:
    value: float
    mu: ProbMeasure
    multiplier: np.ndarray
    constraint_violation: float
    orbit_masses: np.ndarray


def equilibrium_marginal(sys: TensorSystem, V0, v):
    """Forward map: (lambda, symmetrized equilibrium measure, its marginal)."""
    V0 = as_potential(V0, sys.size)
    v = as_potential(v, sys.d)
    total = Potential(V0.values + separable_potential(v, sys.N).values)
    gd = principal_eigen(sys.QN, total)
    mu_sym = symmetrize_measure(gd.mu, sys)
    return gd.lam, mu_sym, marginal(mu_sym, sys)


def hk_verify(sys: TensorSystem, V0, v1, v2, tol: float = 1e-10,
              kappa_cap: float = 1e3) -> HKReport:
    """Compare the marginals induced by two external potentials.

    Marginals that agree within tol must come from potentials equal up to
    an additive constant; the report flags VIOLATION otherwise (which
    would falsify uniqueness and never occurs on valid instances).  When
    the potential difference is non-constant, the two strict comparison
    inequalities of the uniqueness argument are evaluated and their
    margins reported.
    """
    v1 = as_potential(v1, sys.d)
    v2 = as_potential(v2, sys.d)
    lam1, _, rho1 = equilibrium_marginal(sys, V0, v1)
    lam2, _, rho2 = equilibrium_marginal(sys, V0, v2)

    tv = total_variation(rho1, rho2)
    diff = v1.values - v2.values
    residual = float(np.abs(diff - diff.mean()).max())
    kappa = residual / tv if tv > 0 else 0.0

    margins = (
        float((lam2 - lam1) - rho1.weights @ (v2.values - v1.values)),
        float((lam1 - lam2) - rho2.weights @ (v1.values - v2.values)),
    )

    if tv <= tol:
        same = residual <= kappa_cap * max(tol, 1e-15)
        conclusion = (HKConclusion.SAME_POTENTIAL_UP_TO_CONSTANT if same
                      else HKConclusion.VIOLATION)
    else:
        conclusion = HKConclusion.DISTINCT_MARGINALS

    return HKReport(marginal_distance=tv, potential_residual=residual,
                    lambdas=(lam1, lam2), conclusion=conclusion,
                    kappa=kappa, inequality_margins=margins)


def invert_potential(sys: TensorSystem, V0, rho_target,
                     opts: InversionOptions | None = None) -> InversionResult:
    """Recover the external potential from a target marginal.

    Damped log-density fixed point: v <- v + alpha (log rho_target - log rho(v)),
    recentered to zero mean each step.  The step alpha halves whenever the
    marginal error increases and recovers slowly afterwards.  Returns the
    best iterate with a converged flag rather than raising; feasibility of
    arbitrary targets is an open question, so non-convergence is data.
    """
    opts = opts or InversionOptions()
    rho_target = as_measure(rho_target, sys.d)
    if (rho_target.weights <= 0).any():
        raise ValueError("target marginal must be strictly positive")

    v = np.zeros(sys.d)
    _, _, rho = equilibrium_marginal(sys, V0, v)
    err = total_variation(rho, rho_target)
    alpha = opts.step
    log_target = np.log(rho_target.weights)
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        if err <= opts.tol:
            break
        v_next = v + alpha * (log_target - np.log(rho.weights))
        v_next -= v_next.mean()
        _, _, rho_next = equilibrium_marginal(sys, V0, v_next)
        err_next = total_variation(rho_next, rho_target)
        if err_next < err:
            v, rho, err = v_next, rho_next, err_next
            alpha = min(alpha * 1.2, 1.0)
        else:
            alpha *= 0.5
            if alpha < 1e-8:
                break
    return InversionResult(v_recovered=Potential(v), iterations=iterations,
                           marginal_error=err, converged=err <= opts.tol)


# ---------------------------------------------------------------------------
# reduced functional


def _orbit_basis(sys: TensorSystem) -> np.ndarray:
    """Columns average to one symmetric unit mass per orbit (multiset)."""
    reps: dict[tuple[int, ...], int] = {}
    orbit_of = np.empty(sys.size, dtype=np.intp)
    for flat, x in enumerate(itertools.product(range(sys.d), repeat=sys.N)):
        key = tuple(sorted(x))
        orbit_of[flat] = reps.setdefault(key, len(reps))
    E = np.zeros((sys.size, len(reps)))
    E[np.arange(sys.size), orbit_of] = 1.0
    return E / E.sum(axis=0, keepdims=True)


def _marginal_matrix(sys: TensorSystem) -> np.ndarray:
    A = np.zeros((sys.d, sys.size))
    block = sys.size // sys.d
    for j in range(sys.d):
        A[j, j * block:(j + 1) * block] = 1.0
    return A


def _product_orbit_masses(rho: np.ndarray, E: np.ndarray, N: int) -> np.ndarray:
    prod = np.ones(1)
    for _ in range(N):
        prod = np.kron(prod, rho)
    return (E > 0).T @ prod


def reduced_functional(sys: TensorSystem, V0, rho,
                       opts: ReducedOptions | None = None,
                       warm: tuple[np.ndarray, np.ndarray] | None = None) -> ReducedResult:
    """Constrained minimum of I(mu) - mu(V0) over symmetric mu with marginal rho.

    Augmented Lagrangian over orbit masses p (mu = E p):

        phi(p) = I(Ep) - (Ep) V0 + y (AEp - rho) + beta ||AEp - rho||^2,

    minimized by damped Newton with fraction-to-boundary steps keeping
    p > 0; the multiplier update y += 2 beta (AEp - rho) runs on a
    doubling beta schedule until the constraint residual is below
    constraint_tol.  The product measure rho x ... x rho is feasible and
    is the default start, so the constraint set is never empty for a
    strictly positive rho.
    """
    opts = opts or ReducedOptions()
    if sys.size > opts.cap:
        raise StateSpaceTooLarge(sys.size, opts.cap)
    V0 = as_potential(V0, sys.size)
    rho = as_measure(rho, sys.d)
    if (rho.weights <= 0).any():
        raise ValueError("marginal must be strictly positive")

    QN = sys.QN.rates
    V0v = V0.values
    E = _orbit_basis(sys)
    A = _marginal_matrix(sys)
    AE = A @ E
    m = E.shape[1]
    rho_v = rho.weights

    if warm is not None:
        p, y = warm[0].copy(), warm[1].copy()
    else:
        p = _product_orbit_masses(rho_v, E, sys.N)
        y = np.zeros(sys.d)
    p = np.maximum(p, 1e-300)
    p /= p.sum()

    beta = opts.beta0
    w0 = None
    for _ in range(opts.max_stages):
        for _ in range(opts.max_newton):
            mu = E @ p
            I, w0, h, Lw, H = _rate_parts(QN, mu, opts.inner_tol, 100, w0)
            r = AE @ p - rho_v
            grad_mu = -h - V0v + A.T @ y + 2.0 * beta * (A.T @ r)
            g = E.T @ grad_mu
            HI = hessian_of_rate(Lw, H)
            Hphi = E.T @ (HI + 2.0 * beta * (A.T @ A)) @ E
            K = np.zeros((m + 1, m + 1))
            K[:m, :m] = Hphi + 1e-12 * max(float(np.trace(Hphi)) / m, 1.0) * np.eye(m)
            K[:m, m] = 1.0
            K[m, :m] = 1.0
            rhs = np.zeros(m + 1)
            rhs[:m] = -g
            try:
                step = np.linalg.solve(K, rhs)[:m]
            except np.linalg.LinAlgError:
                step = -(g - g.mean())
            phi0 = I - mu @ V0v + y @ r + beta * float(r @ r)
            descent = float(g @ step)
            # Newton-decrement stop: once the predicted decrease is at
            # round-off, backtracking can only chase noise in phi
            if -descent <= 1e-15 * max(1.0, abs(phi0)):
                break
            s = 1.0
            shrink = step < 0
            if shrink.any():
                s = min(1.0, 0.95 * float(np.min(-p[shrink] / step[shrink])))
            moved = False
            for _ in range(50):
                p_try = p + s * step
                if p_try.min() > 0:
                    mu_try = E @ p_try
                    F_try, w_try, _, _, _ = _newton_min(QN, mu_try, opts.inner_tol, 100, w0)
                    r_try = AE @ p_try - rho_v
                    phi_try = (-F_try) - mu_try @ V0v + y @ r_try + beta * float(r_try @ r_try)
                    if phi_try <= phi0 + 1e-4 * s * descent:
                        p, w0, moved = p_try, w_try, True
                        break
                s *= 0.5
            if not moved:
                break
        r = AE @ p - rho_v
        cviol = float(np.abs(r).max())
        if cviol <= opts.constraint_tol:
            break
        y = y + 2.0 * beta * r
        beta *= 2.0

    mu = E @ p
    I, w0, h, _, _ = _rate_parts(QN, mu, opts.inner_tol, 100, w0)
    value = float(I - mu @ V0v)
    cviol = float(np.abs(AE @ p - rho_v).max())
    if cviol > 1e3 * opts.constraint_tol:
        raise NotConverged(value, cviol)
    return ReducedResult(value=value, mu=ProbMeasure(mu), multiplier=y.copy(),
                         constraint_violation=cviol, orbit_masses=p.copy())


def i_hk(sys: TensorSystem, V0, rho, opts: ReducedOptions | None = None) -> float:
    """Reduced functional value I_HK(rho); see reduced_functional.

    For a single particle the constraint set is the one-point set {rho},
    so the value is I(rho) - rho(V0) directly.
    """
    if sys.N == 1:
        V0 = as_potential(V0, sys.size)
        rho = as_measure(rho, sys.d)
        return rate_I(sys.Q1, rho).value - float(rho.weights @ V0.values)
    return reduced_functional(sys, V0, rho, opts).value


def reduced_variational(sys: TensorSystem, V0, v,
                        opts: ReducedOptions | None = None):
    """sup over marginals of rho(v) - I_HK(rho), by multiplier-gradient ascent.

    The envelope gradient of the concave objective is v + y(rho), with y
    the marginal-constraint multiplier, so exponentiated-gradient steps
    with backtracking climb to the maximizer.  Every iterate gives the
    rigorous lower bound mu(V0 + V) - I(mu) <= lambda, so the returned
    lambda_hat approaches the principal eigenvalue from below.

    Returns (lambda_hat, rho_star).
    """
    opts = opts or ReducedOptions()
    v = as_potential(v, sys.d)
    vv = v.values
    d = sys.d

    def gap_of(rho, res):
        # concavity over the simplex: sup G - G(rho) <= max(g) - g . rho
        grad = vv + res.multiplier
        return float(grad.max() - grad @ rho), grad

    rho = np.full(d, 1.0 / d)
    res = reduced_functional(sys, V0, rho, opts)
    value = float(rho @ vv - res.value)
    step = 1.0
    for _ in range(opts.max_iter):
        gap, grad = gap_of(rho, res)
        if gap <= 0.5 * opts.tol:
            break
        g_proj = grad - rho @ grad
        improved = False
        for _ in range(40):
            rho_try = rho * np.exp(step * g_proj)
            rho_try /= rho_try.sum()
            res_try = reduced_functional(sys, V0, rho_try, opts,
                                         warm=(res.orbit_masses, res.multiplier))
            value_try = float(rho_try @ vv - res_try.value)
            if value_try > value:
                rho, res, value = rho_try, res_try, value_try
                improved = True
                step = min(step * 1.5, 50.0)
                break
            step *= 0.5
        if not improved:
            break

    gap, _ = gap_of(rho, res)
    if gap > opts.tol:
        raise NotConverged(value, gap)
    return value, ProbMeasure(rho)


def gamma_overlap_check(Q: Generator, V1, V2) -> float:
    """Equilibrium overlap integral of Gamma applied to a ground-state ratio.

    Computes int Gamma(psi_1 / psi_2) d mu_1, with psi_i the ground states
    of the two potentials and mu_1 the first equilibrium measure.  The
    value vanishes (to round-off) exactly when V2 - V1 is constant; a
    strictly positive value witnesses that the two potentials cannot
    share an equilibrium measure.
    """
    gd1 = principal_eigen(Q, as_potential(V1, Q.dim))
    gd2 = principal_eigen(Q, as_potential(V2, Q.dim))
    ratio = gd1.psi / gd2.psi
    return float(gd1.mu.weights @ carre_du_champ(Q, ratio))
