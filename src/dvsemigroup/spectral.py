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
_NODA_STALL = 10


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


def _noda(M: np.ndarray, scale: float, x: np.ndarray | None = None,
          cap: float = np.inf) -> tuple[np.ndarray, int]:
    """Perron vector of the Metzler matrix M by Noda's iteration.

    Each step bounds the Perron root by the Collatz-Wielandt ratios
    r = Mx/x, min r <= lambda <= max r, stops once that bracket is below
    1e-13 * scale, and otherwise solves (sigma I - M) y = x with the shift
    sigma = min(max r, cap).  For any cap >= lambda the shifted matrix is
    an M-matrix, so y > 0, and sigma falls monotonically to lambda (Noda
    1971; Elsner 1976).  The shift is raised by 1e-14 * scale, below the
    stopping tolerance, so the solve stays nonsingular where sigma equals
    lambda before x has converged, as a reducible M allows.

    That offset also caps what one solve can gain: the Perron direction
    grows by ~1/(1e-14 * scale) against the rest, so a tail of x that is
    wrong by many decades shrinks only ~14 decades per solve.  Once the
    upper bound min(max r, cap) has fallen by no more than 1e-15 * scale
    and the bracket has not halved, the step therefore solves once (per
    call) with the unit vector e_k, k = argmax x, as its right-hand side:
    e_k carries no stale tail, so that one solve resolves the whole tail.
    It does bring in the other eigendirections at ~1e-14 * scale / gap,
    which a tail far below the peak magnifies (to 7e-12 relative on a
    256-state birth-death chain), so the solve after it, with x again,
    always runs and removes them.  Only the bracket certifies the tiny
    entries of x, and their round-off can hold it: _NODA_STALL steps
    without a new smallest bracket end the iteration, as does a singular,
    non-finite or non-positive solve.  The caller's residual check gives
    the verdict.  x is the positive start (uniform when None).  Returns
    (x, steps), x > 0, unit sum.
    """
    d = M.shape[0]
    x = np.full(d, 1.0 / d) if x is None else x
    A = np.negative(M, order="F")  # sigma I - M once its diagonal is set
    diag = -M.diagonal()
    best, best_step = np.inf, 0
    upper, prev_gap, unit_step = np.inf, np.inf, None
    for steps in range(1, _NODA_STEPS + 1):
        r = (M @ x) / x
        top = float(r.max())
        gap = top - float(r.min())
        if gap < best:
            best, best_step = gap, steps
        converged = gap <= 1e-13 * scale and unit_step != steps - 1
        if converged or steps - best_step == _NODA_STALL:
            break
        bound = min(top, cap)
        rhs = x
        if (unit_step is None and upper - bound <= 1e-15 * scale
                and gap > 0.5 * prev_gap):
            rhs, unit_step = np.zeros(d), steps
            rhs[np.argmax(x)] = 1.0
        upper, prev_gap = bound, gap
        sigma = upper + 1e-14 * scale
        A.flat[::d + 1] = diag + sigma
        try:
            y = np.linalg.solve(A, rhs)
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

    _noda runs on M for psi, then on M^T for pi as a warm continuation:
    it starts from psi, whose Perron vector shares the (simple) root
    lambda with that of M^T, and caps its shift at cap = max(M psi / psi).
    That Collatz-Wielandt ratio bounds lambda from above for any positive
    psi, so the capped shift keeps (sigma I - M^T) an M-matrix and the
    pi side settles in a few steps instead of re-finding lambda from the
    uniform vector.  On either side, once the shift has settled at
    lambda, one solve with the unit vector at argmax x as right-hand side
    resolves a tail that spans hundreds of decades; with x itself as
    right-hand side, the 1e-14 * scale shift offset lets each solve fix
    only ~14 decades of it.  lambda is the two-sided Rayleigh quotient of
    the pair.  Raises ConvergenceFailure unless both eigen-residuals are
    below 1e-9 * max|M_ij| and both vectors are positive, and NonFinite
    when psi * pi underflows to zero.  Output is deterministic: no random
    starts, fixed sign convention.
    """
    V = as_potential(V, Q.dim)
    M = Q.rates + np.diag(V.values)
    scale = max(1.0, float(np.abs(M).max()))
    v, steps_v = _noda(M, scale)
    cap = float(((M @ v) / v).max())
    w, steps_w = _noda(M.T, scale, v, cap)
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


def ground_measure_by_averaging(Q: Generator, V, lam: float, mu0, T: float,
                                n_grid: int) -> ProbMeasure:
    """Normalized time average of t -> e^{-lam t} mu0^T exp(tM) over [0, T].

    lam is the principal eigenvalue of M, from principal_eigen(Q, V), so
    one solve serves every window.  Trapezoid rule on n_grid equally
    spaced points.  The average converges to the ground measure pi as T
    grows, at rate O(1/T): the exponentially decaying transient
    contributes its time integral, which the window dilutes only
    linearly.  See ground_measure_by_evolution for the endpoint measure,
    which converges at the spectral-gap rate instead.

    With S the step over one grid interval, r = mu0 and n = n_grid - 1,
    the trapezoid sum is v + (w - r)/2 with v = sum_{k<n} r S^k and
    w = r S^n.  Both come from a binary ladder over the bits of n that
    keeps v, w and P = S^m for a prefix m of n: doubling m maps
    (v, w, P) to (v + vP, wP, P^2), and a set bit to (v + w, wS, PS).
    That is about 2 log2(n) matrix products instead of n row updates.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if n_grid < 2:
        raise ValueError("need at least two grid points")
    V = as_potential(V, Q.dim)
    mu0 = as_measure(mu0, Q.dim)
    M = Q.rates + np.diag(V.values)

    n = n_grid - 1
    S = expm(T / n * (M - lam * np.eye(Q.dim)))
    r = mu0.weights
    v, w, P = r.copy(), r @ S, S          # m = 1, the leading bit of n
    bits = bin(n)[3:]
    for k, bit in enumerate(bits):
        v += v @ P
        w = w @ P
        if k + 1 < len(bits):             # P is read again
            P = P @ P
            if bit == "1":
                P = P @ S
        if bit == "1":
            v += w
            w = w @ S
    acc = v + 0.5 * (w - r)
    return ProbMeasure(acc / acc.sum())


def ground_measure_by_evolution(Q: Generator, V, lam: float, mu0,
                                T: float) -> ProbMeasure:
    """Normalized evolved measure e^{-lam T} mu0^T exp(TM) / mass.

    lam is the principal eigenvalue of M, as for
    ground_measure_by_averaging.  For an equilibrium start mu0 this
    converges to the ground measure pi at the spectral-gap rate
    exp(-gap * T).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    V = as_potential(V, Q.dim)
    mu0 = as_measure(mu0, Q.dim)
    M = Q.rates + np.diag(V.values)
    row = mu0.weights @ expm(T * (M - lam * np.eye(Q.dim)))
    return ProbMeasure(row / row.sum())
