"""Marginal-to-potential uniqueness, inversion, and the reduced functional.

For a symmetric product system with fixed interaction V0, the separable
external potential v on the single-particle space determines an
equilibrium measure on d^N states with 1-particle marginal rho.  The map
v -> rho is injective up to constants, which this module verifies; it is
inverted by Newton ascent on the concave dual rho(v) - lambda_{V0+v}.

The reduced functional

    I_HK(rho) = inf { I(mu) - mu(V0) : mu symmetric, marginal(mu) = rho }

collapses the d^N-state variational principle to the d-simplex:

    lambda_{V0 + V} = sup_rho ( rho(v) - I_HK(rho) ).

These maps run on the product chain lumped onto its C(d+N-1, N)
permutation orbits (TensorSystem.lumped_QN, built from Q1 with no d^N
matrix), exact only for a permutation-symmetric V0; any other V0 raises
ValueError.  I_HK is evaluated there by one equality-constrained damped
Newton run over orbit masses, started from the feasible product measure
and reusing the rate-function derivatives.  The multiplier of the
marginal constraint, read off the KKT solve, is the gradient
-grad I_HK(rho); it drives the outer ascent of reduced_variational and
gives the dual bound that certifies each value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, NonFinite, NotConverged, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, carre_du_champ
from .multiparticle import TensorSystem
from .rate_function import _legendre_newton, _rate_parts, _simplex_newton, rate_I
from .spectral import ProbMeasure, as_measure, principal_eigen, total_variation


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
    tol: float = 1e-8
    max_iter: int = 500


@dataclass(frozen=True)
class ReducedOptions:
    """Controls for i_hk and reduced_variational.

    tol is the outer accuracy target, and also bounds the duality bracket
    of each I_HK value relative to max(1, |value|); constraint_tol guards
    the residual of the marginal constraint at return, which the Newton
    run keeps at round-off; cap bounds the number of permutation orbits
    the minimization runs on.
    """

    tol: float = 1e-4
    constraint_tol: float = 1e-9
    inner_tol: float = 1e-11
    max_newton: int = 60
    max_iter: int = 300
    cap: int = 256


@dataclass(frozen=True)
class ReducedResult:
    value: float
    mu: ProbMeasure
    multiplier: np.ndarray
    constraint_violation: float
    orbit_masses: np.ndarray


def equilibrium_marginal(sys: TensorSystem, V0, v):
    """Forward map: (lambda, symmetric equilibrium measure, its marginal)."""
    v = as_potential(v, sys.d)
    counts = sys.orbits.counts
    gd = principal_eigen(sys.lumped_QN, sys.on_orbits(V0) + counts @ v.values / sys.N)
    return gd.lam, sys.lift(gd).mu, ProbMeasure(counts.T @ gd.mu.weights / sys.N)


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

    The potential maximizes the concave dual rho_target(v) - lambda_{V0+v}
    (Lieb 1983; Wu & Yang 2003); _legendre_newton solves it on the orbit
    chain with F = counts / N.  Returns the last iterate and a converged
    flag: feasibility of arbitrary targets is open, so failure is data.
    """
    opts = opts or InversionOptions()
    rho_target = as_measure(rho_target, sys.d)
    if (rho_target.weights <= 0).any():
        raise ValueError("target marginal must be strictly positive")
    v, _, err, steps = _legendre_newton(sys.lumped_QN, sys.on_orbits(V0),
                                        sys.orbits.counts / sys.N, rho_target.weights,
                                        opts.tol, opts.max_iter)
    return InversionResult(Potential(v), steps, err, converged=err <= opts.tol)


# ---------------------------------------------------------------------------
# reduced functional


def reduced_functional(sys: TensorSystem, V0, rho,
                       opts: ReducedOptions | None = None) -> ReducedResult:
    """Constrained minimum of I(mu) - mu(V0) over symmetric mu with marginal rho.

    One rate_function._simplex_newton run minimizes I(p) - p V0 over orbit
    masses p subject to C p = rho, with I the lumped chain's rate and
    C = counts^T / N the marginal map (its columns sum to one, so it fixes
    sum(p) too).  The start, the product measure rho x ... x rho, is
    feasible and the steps stay in null(C).  The KKT multiplier y is
    returned as `multiplier`.

    The value is the primal I(p) - p V0.  Weak duality, I_HK(rho) >=
    rho(u) - lambda_{V0 + C^T u} for every u, tight at u = -y, certifies
    it with one Perron solve: NotConverged is raised when that bracket
    exceeds tol max(1, |value|), or the constraint residual constraint_tol.
    """
    opts = opts or ReducedOptions()
    o = sys.orbits
    m = len(o.reps)
    if m > opts.cap:
        raise StateSpaceTooLarge(m, opts.cap)
    V0v = sys.on_orbits(V0)
    rho = as_measure(rho, sys.d)
    if (rho.weights <= 0).any():
        raise ValueError("marginal must be strictly positive")

    QL = sys.lumped_QN
    C = o.counts.T / sys.N
    rho_v = rho.weights

    p = np.maximum(o.sizes * np.prod(rho_v ** o.counts, axis=1), 1e-300)
    p /= p.sum()
    p, w0, y = _simplex_newton(QL.rates, p, V0v, C, opts.inner_tol, opts.max_newton, None)

    I, _, _, _, _ = _rate_parts(QL.rates, p, opts.inner_tol, 100, w0)
    value = float(I - p @ V0v)
    cviol = float(np.abs(C @ p - rho_v).max())
    if cviol > opts.constraint_tol:
        raise NotConverged(value, cviol)
    bracket = value + float(rho_v @ y) + principal_eigen(QL, V0v - C.T @ y).lam
    if abs(bracket) > opts.tol * max(1.0, abs(value)):
        raise NotConverged(value, abs(bracket))
    return ReducedResult(value=value, mu=ProbMeasure(o.spread(p)), multiplier=y,
                         constraint_violation=cviol, orbit_masses=p)


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
    lambda_hat approaches the principal eigenvalue from below.  Each trial
    rho gets its own reduced_functional run from its product measure (the
    orbit masses of another rho are infeasible for it); a trial whose run
    raises is rejected like one that does not climb.

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
            try:
                res_try = reduced_functional(sys, V0, rho_try, opts)
                value_try = float(rho_try @ vv - res_try.value)
            except (ConvergenceFailure, NonFinite, NotConverged):
                value_try = -np.inf
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
