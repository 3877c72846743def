"""Markov and Schrodinger semigroups by dense matrix exponentials.

The Schrodinger semigroup P_t^V generated by L + V acts as
exp(t(Q + diag V)).  It solves the integral equation

    u(t) = P_t f + int_0^t P_{t-s} V u(s) ds,

and for f >= 0 obeys the sandwich

    e^{t min V} P_t f  <=  P_t^V f  <=  e^{t max V} P_t f.

Matrix exponentials use scaling and squaring with a fixed-order [13/13]
rational approximant, the matrix being scaled so its infinity norm is at
most theta13 = 5.37 before evaluation: up to that norm the approximant's
backward error is below double-precision unit round-off (Higham 2005,
SIAM J. Matrix Anal. Appl. 26:1179, Table 2.3), so scaling further only
adds squarings and their round-off.  This stays robust for the
non-symmetric matrices Q + diag(V), whose spectra can come close to
defective.  Dense eigendecompositions appear only in test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NegativeInput, NonFinite
from .generator import Generator, Potential, as_potential, _as_vector, _reachable

# Coefficients of the degree-13 diagonal rational approximant to exp.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)

# Negative round-off on nonnegative inputs is clamped inside this band;
# downstream logarithms require strict signs.
CLAMP_BAND = 1e-14

# Largest norm at which the [13/13] approximant is exact to double
# precision (Higham 2005, Table 2.3).
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    A is divided by 2^s until its infinity norm is at most theta13 = 5.37,
    the [13/13] approximant is evaluated, and the result is squared s
    times.  theta13 is the largest norm at which the approximant is exact
    to double precision (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179).
    Raises NonFinite if the result overflows instead of saturating.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix exponential of a non-finite matrix")

    norm = float(np.abs(A).sum(axis=1).max())
    s = 0
    B = A
    if norm > _THETA13:
        s = int(np.ceil(np.log2(norm / _THETA13)))
        B = A / (2.0 ** s)

    b = _PADE13
    I = np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        B2 = B @ B
        B4 = B2 @ B2
        B6 = B2 @ B4
        U = B @ (B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
                 + b[7] * B6 + b[5] * B4 + b[3] * B2 + b[1] * I)
        V = (B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2)
             + b[6] * B6 + b[4] * B4 + b[2] * B2 + b[0] * I)
        R = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            R = R @ R
    if not np.all(np.isfinite(R)):
        raise NonFinite("matrix exponential overflowed")
    return R


@dataclass(frozen=True)
class SchrodingerOperator:
    """Generator L + V of the Schrodinger semigroup, as Q + diag(V)."""

    Q: Generator
    V: Potential
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.V) != self.Q.dim:
            raise DimensionMismatch(
                f"potential has {len(self.V)} entries, generator has {self.Q.dim} states")
        M = self.Q.rates + np.diag(self.V.values)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self) -> int:
        return self.Q.dim

    @property
    def scale(self) -> float:
        return max(1.0, float(np.abs(self.matrix).max()))


def make_operator(Q: Generator, V) -> SchrodingerOperator:
    return SchrodingerOperator(Q=Q, V=as_potential(V, Q.dim))


def evolve(M: SchrodingerOperator, t: float, f) -> np.ndarray:
    """Apply P_t^V to f, i.e. exp(t (Q + diag V)) f.

    For nonnegative f the result is clamped to zero wherever round-off
    produces values in (-CLAMP_BAND * scale, 0).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    f = _as_vector(f, M.dim)
    if t == 0:
        return f.copy()
    return _clamped(expm(t * M.matrix) @ f, t, bool(np.all(f >= 0)))


def _clamped(out: np.ndarray, t: float, nonnegative: bool) -> np.ndarray:
    """Check P_t f for overflow and, for f >= 0, zero its round-off negatives."""
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"P_t f overflowed at t={t}")
    if nonnegative:
        band = CLAMP_BAND * max(1.0, float(np.abs(out).max()))
        out[(out < 0) & (out > -band)] = 0.0
    return out


def duhamel_residual(M: SchrodingerOperator, t: float, f, n_steps: int) -> float:
    """Sup-norm defect of u(t) = P_t f + int_0^t P_{t-s} V u(s) ds.

    The integral uses composite Simpson quadrature on n_steps panels
    (rounded up to an even count), so the residual decreases like
    n_steps^{-4} until it hits the floating-point floor.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if n_steps < 2:
        raise ValueError("need at least two quadrature panels")
    n = n_steps + (n_steps % 2)
    f = _as_vector(f, M.dim)

    V = M.V.values
    P0 = expm(t * M.Q.rates) @ f
    u_t = evolve(M, t, f)

    h = t / n
    integral = np.zeros(M.dim)
    for k in range(n + 1):
        s = k * h
        u_s = expm(s * M.matrix) @ f
        g = expm((t - s) * M.Q.rates) @ (V * u_s)
        weight = 1.0 if k in (0, n) else (4.0 if k % 2 == 1 else 2.0)
        integral += weight * g
    integral *= h / 3.0

    return float(np.abs(u_t - P0 - integral).max())


def sandwich_check(M: SchrodingerOperator, t: float, f, tol: float = 1e-12) -> bool:
    """Entrywise e^{t min V} P_t f <= P_t^V f <= e^{t max V} P_t f for f >= 0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    f = _as_vector(f, M.dim)
    if (f < 0).any():
        i = int(np.argmin(f))
        raise NegativeInput(f"f[{i}] = {f[i]} is negative")
    V = M.V.values
    base = expm(t * M.Q.rates) @ f if t > 0 else f
    mid = evolve(M, t, f)
    lower = np.exp(t * float(V.min())) * base
    upper = np.exp(t * float(V.max())) * base
    band = tol * max(1.0, float(np.abs(upper).max()))
    return bool(np.all(mid >= lower - band) and np.all(mid <= upper + band))


def growth_bound(M: SchrodingerOperator, lam: float, t_grid) -> float:
    """max over the grid of e^{-lam t} ||P_t^V 1||_inf.

    With lam the principal eigenvalue this is a lower bound for
    C = sup_{t>=0} e^{-lam t} ||P_t^V||, and under assumption (A) it
    stabilizes as the grid extends instead of diverging.  Where t grows,
    P_t^V 1 advances from the previous grid point by one step matrix
    exp(h M), reused while consecutive gaps h agree to 1e-12 relative;
    elsewhere it is evolved from t = 0.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if (t_grid < 0).any():
        raise ValueError("t_grid entries must be nonnegative")
    best = -np.inf
    t_prev, h, E = None, None, None
    for t in t_grid.tolist():
        if t_prev is None or t <= t_prev:
            u = evolve(M, t, np.ones(M.dim))
        else:
            if h is None or abs((t - t_prev) - h) > 1e-12 * h:
                h = t - t_prev
                E = expm(h * M.matrix)
            u = _clamped(E @ u, t, True)
        t_prev = t
        best = max(best, np.exp(-lam * t) * float(u.max()))
    return float(best)


def check_condition_B(Q: Generator, T: float = 1.0) -> bool:
    """Positivity improving: every entry of exp(TQ) is strictly positive.

    On a finite state space that holds, for any T > 0, exactly when the
    directed support graph of Q is strongly connected, so it is decided on
    the graph: every state is reachable from state 0 along the off-diagonal
    support of Q and along that of Q^T.  exp(TQ) itself underflows to zero
    entries on long chains (a 256-state birth-death chain at T = 1).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    support = Q.rates > 0
    return bool(_reachable(support, 0).all() and _reachable(support.T, 0).all())
