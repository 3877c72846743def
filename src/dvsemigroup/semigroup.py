"""Markov and Schrodinger semigroups by dense matrix exponentials.

The Schrodinger semigroup P_t^V generated by L + V acts as
exp(t(Q + diag V)).  It solves the integral equation

    u(t) = P_t f + int_0^t P_{t-s} V u(s) ds,

and for f >= 0 obeys the sandwich

    e^{t min V} P_t f  <=  P_t^V f  <=  e^{t max V} P_t f.

The tests check both of evolve: the Duhamel residual and the sandwich
check live in tests/test_semigroup.py.

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

import math

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .generator import Generator, _as_vector, _reachable, _shifted

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


def expm(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(tA) by scaling and squaring.

    tA is divided by 2^s until its infinity norm is at most theta13 = 5.37,
    the [13/13] approximant is evaluated, and the result is squared s
    times.  theta13 is the largest norm at which the approximant is exact
    to double precision (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179).
    t enters only the one scaled copy, A (t / 2^s), which rounds exactly as
    (tA) / 2^s since the two factors differ by a power of two; s comes from
    log2 |t| + log2 ||A||, so it is found for any finite t and A.  Raises
    NonFinite for a non-finite t or A, and if the result overflows instead
    of saturating.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not (math.isfinite(t) and np.all(np.isfinite(A))):
        raise NonFinite("matrix exponential of a non-finite matrix or time")

    # ||A|| = 2^e norm, the row sums taken at 2^-e |A|, where none overflows
    e = math.frexp(float(np.abs(A).max()))[1]
    norm = float(np.abs(np.ldexp(A, -e)).sum(axis=1).max())
    s = 0
    if t != 0.0 and norm > 0.0:
        s = max(0, math.ceil(e + math.log2(abs(t)) + math.log2(norm / _THETA13)))
    B = A
    if s or t != 1.0:
        B = A * math.ldexp(t, -s)

    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        B2 = B @ B
        B4 = B2 @ B2
        B6 = B2 @ B4
        U = B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2) + b[7] * B6 + b[5] * B4 + b[3] * B2
        U.flat[::len(A) + 1] += b[1]  # b_1 I and b_0 I, on the diagonal
        U = B @ U
        V = B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2) + b[6] * B6 + b[4] * B4 + b[2] * B2
        V.flat[::len(A) + 1] += b[0]
        del B, B2, B4, B6
        R = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            R = R @ R
    if not np.all(np.isfinite(R)):
        raise NonFinite("matrix exponential overflowed")
    return R


def make_operator(Q: Generator, V) -> np.ndarray:
    """Generator L + V of the Schrodinger semigroup, Q + diag(V), as a new
    read-only array; DimensionMismatch unless V has Q.dim entries."""
    M = _shifted(Q, V)
    M.setflags(write=False)
    return M


def evolve(M: np.ndarray, t: float, f) -> np.ndarray:
    """Apply P_t^V to f, i.e. exp(tM) f with M = Q + diag V from make_operator.

    For nonnegative f the result is clamped to zero wherever round-off
    produces values in (-CLAMP_BAND * scale, 0).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    f = _as_vector(f, len(M))
    if t == 0:
        return f.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        out = expm(M, t) @ f
    return _clamped(out, t, bool(np.all(f >= 0)))


def _clamped(out: np.ndarray, t: float, nonnegative: bool) -> np.ndarray:
    """Check P_t f for overflow and, for f >= 0, zero its round-off negatives."""
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"P_t f overflowed at t={t}")
    if nonnegative:
        band = CLAMP_BAND * max(1.0, float(np.abs(out).max()))
        out[(out < 0) & (out > -band)] = 0.0
    return out


def growth_bound(M: np.ndarray, lam: float, t_grid) -> float:
    """max over the grid of ||e^{-lam t} P_t^V 1||_inf.

    With lam the principal eigenvalue this is a lower bound for
    C = sup_{t>=0} e^{-lam t} ||P_t^V||, and under assumption (A) it
    stabilizes as the grid extends instead of diverging.  The grid is
    walked in increasing order from t = 0, a repeated value taking no
    step, on the normalized semigroup, u <- exp(h(M - lam I)) u, which
    stays O(1) where P_t^V 1 and e^{-lam t} over- or underflow; the step
    matrix is reused while consecutive gaps h agree to 1e-12 relative.
    Raises NonFinite for a non-finite grid entry.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if (t_grid < 0).any():
        raise ValueError("t_grid entries must be nonnegative")
    if not np.isfinite(t_grid).all():
        raise NonFinite("t_grid entries must be finite")
    best = -np.inf
    t_prev, h, E, u = 0.0, None, None, np.ones(len(M))
    for t in sorted(t_grid.tolist()):   # not np.unique: its first call is slow
        if t > t_prev:
            if h is None or abs((t - t_prev) - h) > 1e-12 * h:
                h = t - t_prev
                E = np.array(M)     # h (M - lam I) in one copy, scaled in place
                E.flat[::len(M) + 1] -= lam
                E *= h
                E = expm(E)
            u = _clamped(E @ u, t, True)
        t_prev = t
        best = max(best, float(u.max()))
    return best


def check_condition_B(Q: Generator) -> bool:
    """Positivity improving: every entry of exp(TQ) is strictly positive.

    On a finite state space that holds, for every T > 0 alike, exactly when the
    directed support graph of Q is strongly connected, so it is decided on
    the graph: every state is reachable from state 0 along the off-diagonal
    support of Q and along that of Q^T.  exp(TQ) itself underflows to zero
    entries on long chains (a 256-state birth-death chain at T = 1).
    """
    support = Q.rates > 0
    return bool(_reachable(support, 0).all() and _reachable(support.T, 0).all())
