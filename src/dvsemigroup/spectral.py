"""Principal eigenvalue, ground state, ground measure, and Doob transform.

For a connected generator Q and potential V, the matrix M = Q + diag(V)
has a simple real eigenvalue lambda of maximal real part (the Perron root
of exp(M)), with strictly positive right eigenvector psi (ground state)
and left eigenvector pi (ground measure).  Normalization convention:
pi sums to one first, then psi is scaled so sum(psi * pi) = 1, which makes
the equilibrium measure mu = psi * pi a probability vector by construction.

lambda coincides with the exponential growth rate lim (1/t) log ||P_t^V||,
and mu maximizes mu(V) - I(mu) over probability measures (the variational
characterization evaluated in the rate_function module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonFinite
from .generator import Generator, as_potential, validate_generator
from .semigroup import expm

_NODA_STEPS = 100


@dataclass(frozen=True)
class ProbMeasure:
    """Probability vector: finite entries >= 0, total mass 1 (renormalized exactly)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatch("measure must be a 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("measure weights must be finite")
        if (w < 0).any():
            i = int(np.argmin(w))
            raise ValueError(f"measure has negative weight {w[i]} at state {i}")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12 * max(1.0, abs(total)):
            raise ValueError(f"measure weights sum to {total}, not 1")
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def as_measure(mu, dim: int | None = None) -> ProbMeasure:
    m = mu if isinstance(mu, ProbMeasure) else ProbMeasure(np.asarray(mu, dtype=float))
    if dim is not None and len(m) != dim:
        raise DimensionMismatch(f"measure has {len(m)} entries, expected {dim}")
    return m


def total_variation(mu, nu) -> float:
    """TV distance, half the l1 distance of the weight vectors."""
    a = mu.weights if isinstance(mu, ProbMeasure) else np.asarray(mu, dtype=float)
    b = nu.weights if isinstance(nu, ProbMeasure) else np.asarray(nu, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch("measures live on different state spaces")
    return 0.5 * float(np.abs(a - b).sum())


@dataclass(frozen=True)
class GroundData:
    """Principal eigendata of Q + diag(V).

    lam    principal eigenvalue (real, simple),
    psi    ground state, positive right eigenvector, sum(psi * pi) = 1,
    pi     ground measure, positive left eigenvector, total mass 1,
    mu     equilibrium measure psi * pi.
    """

    lam: float
    psi: np.ndarray
    pi: ProbMeasure
    mu: ProbMeasure


def _noda(M: np.ndarray, scale: float) -> tuple[np.ndarray, int]:
    """Perron vector of the Metzler matrix M by Noda's iteration.

    Each step bounds the Perron root by the Collatz-Wielandt ratios
    r = Mx/x, min r <= lambda <= max r, stops once that bracket is below
    1e-13 * scale, and otherwise solves (max r I - M) y = x.  The shifted
    matrix is an M-matrix, so y > 0, and max r falls monotonically to
    lambda (Noda 1971; Elsner 1976).  The shift is raised by 1e-14 * scale,
    below the stopping tolerance, so the solve stays nonsingular where
    max r equals lambda before x has converged, as a reducible M allows.  Only the bracket certifies the tiny
    entries of x, which keep improving after max r has settled.  A
    singular, non-finite or non-positive solve ends the iteration, and
    the caller's residual check gives the verdict.  Returns (x, steps),
    x > 0 with unit sum.
    """
    d = M.shape[0]
    x = np.full(d, 1.0 / d)
    for steps in range(1, _NODA_STEPS + 1):
        r = (M @ x) / x
        sigma = float(r.max())
        if sigma - float(r.min()) <= 1e-13 * scale:
            break
        try:
            y = np.linalg.solve((sigma + 1e-14 * scale) * np.eye(d) - M, x)
        except np.linalg.LinAlgError:
            break
        if not (np.all(np.isfinite(y)) and y.min() > 0):
            break
        y /= y.sum()
        if y.min() == 0.0:  # an entry underflowed
            break
        x = y
    return x, steps


def principal_eigen(Q: Generator, V) -> GroundData:
    """Principal eigenvalue and eigenvectors of M = Q + diag(V).

    _noda runs on M for psi and on M^T for pi; lambda is the two-sided
    Rayleigh quotient of the pair.  Raises ConvergenceFailure unless both
    eigen-residuals are below 1e-9 * max|M_ij| and both vectors are
    positive, and NonFinite when psi * pi underflows to zero.  Output is
    deterministic: no random starts, fixed sign convention.
    """
    V = as_potential(V, Q.dim)
    M = Q.rates + np.diag(V.values)
    if Q.dim == 1:
        one = np.ones(1)
        return GroundData(lam=float(V.values[0]), psi=one,
                          pi=ProbMeasure(one), mu=ProbMeasure(one))

    scale = max(1.0, float(np.abs(M).max()))
    v, steps_v = _noda(M, scale)
    w, steps_w = _noda(M.T, scale)
    lam = float((w @ (M @ v)) / (w @ v))
    residual = max(float(np.abs(M @ v - lam * v).max()),
                   float(np.abs(M.T @ w - lam * w).max()))
    if residual > 1e-9 * scale or v.min() <= 0 or w.min() <= 0:
        raise ConvergenceFailure(steps_v + steps_w, residual)

    pi = w / w.sum()
    psi = v / float(v @ pi)
    mu = psi * pi
    zeros = int(np.count_nonzero(mu == 0.0))
    if zeros:
        raise NonFinite(f"equilibrium measure underflows at {zeros} states")
    return GroundData(lam=lam, psi=psi, pi=ProbMeasure(pi), mu=ProbMeasure(mu))


def stationary_distribution(Q: Generator) -> ProbMeasure:
    """Unique probability solution of pi^T Q = 0 (V = 0 ground measure)."""
    return principal_eigen(Q, np.zeros(Q.dim)).pi


def doob_transform(Q: Generator, V, gd: GroundData) -> Generator:
    """Ground-state transform diag(psi)^{-1} (M - lam I) diag(psi).

    The result is a valid generator: off-diagonal entries psi_j M_ij / psi_i
    are nonnegative and rows sum to ((M - lam) psi)_i / psi_i, which
    vanishes up to the eigen-residual and is re-zeroed exactly during
    validation.  The equilibrium measure mu is invariant for it.
    """
    V = as_potential(V, Q.dim)
    M = Q.rates + np.diag(V.values)
    psi = gd.psi
    D = (M - gd.lam * np.eye(Q.dim)) * (psi[None, :] / psi[:, None])
    return validate_generator(D, tol_row=1e-9)


def ground_measure_by_averaging(Q: Generator, V, mu0, T: float,
                                n_grid: int) -> ProbMeasure:
    """Normalized time average of t -> e^{-lam t} mu0^T exp(tM) over [0, T].

    Trapezoid rule on n_grid equally spaced points.  The average converges
    to the ground measure pi as T grows, at rate O(1/T): the exponentially
    decaying transient contributes its time integral, which the window
    dilutes only linearly.  See ground_measure_by_evolution for the
    endpoint measure, which converges at the spectral-gap rate instead.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if n_grid < 2:
        raise ValueError("need at least two grid points")
    V = as_potential(V, Q.dim)
    mu0 = as_measure(mu0, Q.dim)
    lam = principal_eigen(Q, V).lam
    M = Q.rates + np.diag(V.values)

    dt = T / (n_grid - 1)
    step = expm(dt * (M - lam * np.eye(Q.dim)))
    row = mu0.weights.copy()
    acc = 0.5 * row
    for k in range(1, n_grid):
        row = row @ step
        acc += (0.5 if k == n_grid - 1 else 1.0) * row
    return ProbMeasure(acc / acc.sum())


def ground_measure_by_evolution(Q: Generator, V, mu0, T: float) -> ProbMeasure:
    """Normalized evolved measure e^{-lam T} mu0^T exp(TM) / mass.

    For an equilibrium start mu0 this converges to the ground measure pi
    at the spectral-gap rate exp(-gap * T).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    V = as_potential(V, Q.dim)
    mu0 = as_measure(mu0, Q.dim)
    lam = principal_eigen(Q, V).lam
    M = Q.rates + np.diag(V.values)
    row = mu0.weights @ expm(T * (M - lam * np.eye(Q.dim)))
    return ProbMeasure(row / row.sum())
