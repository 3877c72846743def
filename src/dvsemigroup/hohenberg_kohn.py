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
ValueError.  V0 is given on the d^N states or with one entry per orbit
(see TensorSystem.on_orbits); the latter is not checked again.  I_HK is
evaluated there by one equality-constrained damped Newton run over orbit
masses, started from the feasible product measure
and reusing the rate-function derivatives.  The multiplier of the
marginal constraint, read off the KKT solve, is the gradient
-grad I_HK(rho) and gives the dual bound that certifies each value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lgamma

import numpy as np

from .errors import NotConverged
from .generator import Generator, Potential, as_potential, carre_du_champ
from .multiparticle import TensorSystem
from .rate_function import (_legendre_newton, _positive_weights, _simplex_newton, dv_sup,
                            rate_I)
from .spectral import GroundData, ProbMeasure, as_measure, principal_eigen, total_variation

# largest potential residual per unit of tol that hk_verify still reads as
# the same potential up to a constant
_KAPPA_CAP = 1e3

# inner rate-solve gradient and Newton step cap of reduced_functional, and
# its guard on the marginal constraint residual of a start
_INNER_TOL = 1e-11
_MAX_NEWTON = 60
_CONSTRAINT_TOL = 1e-9

# bound on the duality bracket of each I_HK value relative to max(1, |value|),
# and on the Frank-Wolfe gap of reduced_variational
_REDUCED_TOL = 1e-4


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
class ReducedResult:
    value: float
    multiplier: np.ndarray
    constraint_violation: float
    orbit_masses: np.ndarray


def _orbit_marginal(sys: TensorSystem, V0v: np.ndarray, v: np.ndarray,
                   start: GroundData | None = None) -> tuple[GroundData, ProbMeasure]:
    """Ground data of the orbit chain at V0v + counts . v / N, V0v the
    interaction on the orbits, and its one-particle marginal; start as
    for principal_eigen.  No d^N vector is formed."""
    counts = sys.orbits.counts
    gd = principal_eigen(sys.lumped_QN, V0v + counts @ v / sys.N, start)
    return gd, ProbMeasure(counts.T @ gd.mu.weights / sys.N)


def equilibrium_marginal(sys: TensorSystem, V0, v):
    """Forward map: (lambda, symmetric equilibrium measure, its marginal)."""
    gd, rho = _orbit_marginal(sys, sys.on_orbits(V0), as_potential(v, sys.d).values)
    return gd.lam, sys.lift(gd).mu, rho


def hk_verify(sys: TensorSystem, V0, v1, v2, tol: float = 1e-10,
              start: GroundData | None = None) -> HKReport:
    """Compare the marginals induced by two external potentials.

    Marginals that agree within tol must come from potentials equal up to
    an additive constant; the report flags VIOLATION otherwise (which
    would falsify uniqueness and never occurs on valid instances).  When
    the potential difference is non-constant, the two strict comparison
    inequalities of the uniqueness argument are evaluated and their
    margins reported.

    Both solves run on the orbit chain.  v1's starts from start (see
    principal_eigen), such as the ground data of the orbit chain at v1
    when a caller holds them, and v2's from v1's; v2 = v1 reuses v1's.
    """
    v1 = as_potential(v1, sys.d)
    v2 = as_potential(v2, sys.d)
    V0v = sys.on_orbits(V0)
    gd1, rho1 = _orbit_marginal(sys, V0v, v1.values, start)
    gd2, rho2 = ((gd1, rho1) if np.array_equal(v1.values, v2.values)
                 else _orbit_marginal(sys, V0v, v2.values, gd1))
    lam1, lam2 = gd1.lam, gd2.lam

    tv = total_variation(rho1, rho2)
    diff = v1.values - v2.values
    residual = float(np.abs(diff - diff.mean()).max())
    kappa = residual / tv if tv > 0 else 0.0

    margins = (
        float((lam2 - lam1) - rho1.weights @ (v2.values - v1.values)),
        float((lam1 - lam2) - rho2.weights @ (v1.values - v2.values)),
    )

    if tv <= tol:
        same = residual <= _KAPPA_CAP * max(tol, 1e-15)
        conclusion = (HKConclusion.SAME_POTENTIAL_UP_TO_CONSTANT if same
                      else HKConclusion.VIOLATION)
    else:
        conclusion = HKConclusion.DISTINCT_MARGINALS

    return HKReport(marginal_distance=tv, potential_residual=residual,
                    lambdas=(lam1, lam2), conclusion=conclusion,
                    kappa=kappa, inequality_margins=margins)


def invert_potential(sys: TensorSystem, V0, rho_target, tol: float = 1e-8,
                     max_iter: int = 500) -> InversionResult:
    """Recover the external potential from a target marginal.

    The potential maximizes the concave dual rho_target(v) - lambda_{V0+v}
    (Lieb 1983; Wu & Yang 2003); _legendre_newton solves it on the orbit
    chain with F = counts / N, stopping once the marginal error (total
    variation) is at most tol or after max_iter Newton steps.  Returns the
    last iterate and a converged flag: feasibility of arbitrary targets is
    open, so failure is data.
    """
    rho_target = as_measure(rho_target, sys.d)
    if (rho_target.weights <= 0).any():
        raise ValueError("target marginal must be strictly positive")
    v, _, err, steps = _legendre_newton(sys.lumped_QN, sys.on_orbits(V0),
                                        sys.orbits.counts / sys.N, rho_target.weights,
                                        tol, max_iter)
    return InversionResult(Potential(v), steps, err, converged=err <= tol)


# ---------------------------------------------------------------------------
# reduced functional


def reduced_functional(sys: TensorSystem, V0, rho, start=None) -> ReducedResult:
    """Constrained minimum of I(mu) - mu(V0) over symmetric mu with marginal rho.

    One rate_function._simplex_newton run minimizes I(p) - p V0 over orbit
    masses p subject to C p = rho, with I the lumped chain's rate and
    C = counts^T / N the marginal map (its columns sum to one, so it fixes
    sum(p) too).  It starts from start, a measure on the orbits with
    marginal rho (within 1e-9) and no zero entry, or from the product
    measure rho x ... x rho when None; a good start, such as the
    equilibrium measure whose marginal rho is, saves steps.  Either is
    feasible and the steps stay in null(C).  The KKT multiplier y is
    returned as `multiplier`.

    The value is the primal I(p) - p V0.  Weak duality, I_HK(rho) >=
    rho(u) - lambda_{V0 + C^T u} for every u, tight at u = -y, certifies
    it with one Perron solve: NotConverged is raised when that bracket
    exceeds 1e-4 max(1, |value|), or when the run leaves C p = C p0 by
    more than 1e-12.  That solve starts from the final point's rate
    minimizer u* = e^w and p/u*, the ground state and measure of
    V0 - C^T y at the optimum.
    """
    o = sys.orbits
    V0v = sys.on_orbits(V0)
    rho = as_measure(rho, sys.d)
    if (rho.weights <= 0).any():
        raise ValueError("marginal must be strictly positive")

    QL = sys.lumped_QN
    C = o.counts.T / sys.N
    rho_v = rho.weights

    if start is None:
        # orbit masses N! prod(rho^n / n!) of the product measure, in logs
        logp = o.counts @ np.log(rho_v) - np.vectorize(lgamma)(o.counts + 1.0).sum(axis=1)
        p = np.maximum(np.exp(logp - logp.max()), 1e-300)
        p /= p.sum()
    else:
        p = _positive_weights(start, len(o.counts))
        if float(np.abs(C @ p - rho_v).max()) > _CONSTRAINT_TOL:
            raise ValueError("start measure does not have marginal rho")
    p, I, _, y, w = _simplex_newton(QL.rates, p, V0v, C, _INNER_TOL, _MAX_NEWTON)
    value = float(I - p @ V0v)
    cviol = float(np.abs(C @ p - rho_v).max())
    # at the optimum, lambda_{V0 - C^T y} = -(value + rho y)
    offset = value + float(rho_v @ y)
    bracket = offset + principal_eigen(QL, V0v - C.T @ y, _tilt_start(p, w, -offset)).lam
    if abs(bracket) > _REDUCED_TOL * max(1.0, abs(value)):
        raise NotConverged(value, abs(bracket))
    return ReducedResult(value=value, multiplier=y, constraint_violation=cviol,
                         orbit_masses=p)


def _tilt_start(p: np.ndarray, w: np.ndarray, lam: float) -> GroundData:
    """Ground data that the rate minimizer u* = e^w at p predicts for the
    potential it represents, with eigenvalue lam: psi ~ e^w and pi ~ p/e^w.
    Both are scaled to peak 1 in logs and floored at the smallest normal
    float, so a start stays positive where exp underflows."""
    tiny = np.finfo(float).tiny
    psi = np.maximum(np.exp(w - w.max()), tiny)
    log_pi = np.log(p) - w
    pi = np.maximum(np.exp(log_pi - log_pi.max()), tiny)
    return GroundData(lam=lam, psi=psi, pi=ProbMeasure(pi / pi.sum()),
                      mu=ProbMeasure(p / p.sum()))


def i_hk(sys: TensorSystem, V0, rho, start=None) -> float:
    """Reduced functional value I_HK(rho); see reduced_functional, which
    starts from start.

    For a single particle the constraint set is the one-point set {rho},
    so the value is I(rho) - rho(V0) directly, and start is not read.
    """
    if sys.N == 1:
        V0 = as_potential(V0, sys.size)
        rho = as_measure(rho, sys.d)
        return rate_I(sys.Q1, rho).value - float(rho.weights @ V0.values)
    return reduced_functional(sys, V0, rho, start).value


def reduced_variational(sys: TensorSystem, V0, v):
    """sup over marginals of rho(v) - I_HK(rho), the paper's reduction.

    With C = counts^T / N the marginal map, the sup over rho of rho(v) -
    I_HK(rho) is the sup over orbit masses p of p (V0 + C^T v) - I(p), the
    problem dv_sup solves on the orbit chain.  Its maximizer p* gives
    rho* = C p*; one reduced_functional run then evaluates I_HK(rho*)
    independently, so lambda_hat = rho*(v) - I_HK(rho*).  The multiplier y
    of that run is -grad I_HK(rho*), and by concavity over the simplex the
    Frank-Wolfe gap max(v + y) - rho* (v + y) bounds sup - lambda_hat;
    NotConverged is raised when it exceeds 1e-4.

    Returns (lambda_hat, rho_star).
    """
    v = as_potential(v, sys.d).values
    C = sys.orbits.counts.T / sys.N
    _, p = dv_sup(sys.lumped_QN, sys.on_orbits(V0) + C.T @ v)
    rho = C @ p.weights
    res = reduced_functional(sys, V0, rho)
    value = float(rho @ v - res.value)
    grad = v + res.multiplier
    gap = float(grad.max() - grad @ rho)
    if gap > _REDUCED_TOL:
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
