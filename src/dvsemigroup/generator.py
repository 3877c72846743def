"""Finite-state Markov generators and their structural conditions.

A generator (rate matrix) Q is a d x d real matrix with nonnegative
off-diagonal entries and vanishing row sums whose undirected support graph
is connected.  Throughout the package, L denotes the action f -> Q f.

The library works under four standing assumptions on the semigroup
P_t = exp(tQ), labelled (A), (B), (C), (D):

  (A) uniform positivity: there are T > 0 and eps in (0, 1] with
      P_T f(x) >= eps * P_T f(y) for all states x, y and all f >= 0;
  (B) positivity improving: P_T f > 0 everywhere for some T > 0 and
      all f >= 0, f != 0;
  (C) a multiplicative core exists; on a finite state space every
      function qualifies, so (C) holds trivially and is not checked;
  (D) nondegeneracy: Gamma(g) = 0 forces g constant.

On a finite state space (B) holds for every T > 0 exactly when the
directed support graph is strongly connected, and then so does (A); (D)
is equivalent to connectivity of the undirected support graph.  This
module quantifies (A) and decides (D), while the semigroup module decides
(B) on the directed graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GraphDisconnected,
    NegativeOffDiagonal,
    NonFinite,
    RowSumNonzero,
)

DEFAULT_ROW_TOL = 1e-12
_EXPM_ROUNDOFF = 1e-13  # exp(TQ) round-off: clamped below 0, and eps's certified gap to 1


@dataclass(frozen=True)
class Generator:
    """Validated rate matrix on a finite state space.

    Construct through validate_generator; the rates array is read-only
    and row sums are exactly zero after diagonal repair.
    """

    dim: int
    rates: np.ndarray

    @property
    def scale(self) -> float:
        """max(1, max |Q|); reference magnitude for relative tolerances."""
        return max(1.0, float(np.abs(self.rates).max()))

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Action of the generator, L f = Q f."""
        f = _as_vector(f, self.dim)
        return self.rates @ f


@dataclass(frozen=True)
class Potential:
    """Real function on the state space, one value per state."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise DimensionMismatch("potential must be a 1-d vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential entries must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def as_potential(v, dim: int | None = None) -> Potential:
    """Coerce a vector or Potential, optionally checking its length."""
    pot = v if isinstance(v, Potential) else Potential(np.asarray(v, dtype=float))
    if dim is not None and len(pot) != dim:
        raise DimensionMismatch(f"potential has {len(pot)} entries, expected {dim}")
    return pot


def _shifted(Q: Generator, V, lam: float = 0.0) -> np.ndarray:
    """Q + diag V - lam I as one new array, summed in that order."""
    M = np.array(Q.rates)
    M.flat[::Q.dim + 1] = M.diagonal() + as_potential(V, Q.dim).values - lam
    return M


def _as_vector(g, dim: int) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (dim,):
        raise DimensionMismatch(f"expected vector of length {dim}, got shape {g.shape}")
    return g


def _reachable(support: np.ndarray, start: int) -> np.ndarray:
    """Mask of the states reachable from start along the edges i -> j with
    support[i, j], by a breadth-first sweep: each frontier is the
    successors of the last one that are not reached yet."""
    reached = np.zeros(support.shape[0], dtype=bool)
    frontier = np.arange(support.shape[0]) == start
    while frontier.any():
        reached |= frontier
        frontier = support[frontier].any(axis=0) & ~reached
    return reached


def _undirected_components(mat: np.ndarray) -> list[list[int]]:
    """Connected components of the undirected support graph of mat."""
    d = mat.shape[0]
    support = (mat > 0) | (mat.T > 0)
    np.fill_diagonal(support, False)
    unseen = np.ones(d, dtype=bool)
    components = []
    while unseen.any():
        comp = _reachable(support, int(unseen.argmax()))
        unseen &= ~comp
        components.append(np.flatnonzero(comp).tolist())
    return components


def validate_generator(raw, tol_row: float = DEFAULT_ROW_TOL) -> Generator:
    """Validate a raw rate matrix and return a Generator.

    Off-diagonal entries must be nonnegative, each row sum must vanish to
    within tol_row * max(1, max|Q|), and the undirected support graph must
    be connected.  Row sums inside the tolerance are re-zeroed exactly by
    recomputing the diagonal, so downstream conservation is exact.
    """
    Q = np.array(raw, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch(f"rate matrix must be square, got shape {Q.shape}")
    d = Q.shape[0]
    if d < 1:
        raise DimensionMismatch("rate matrix must have at least one state")
    if not np.all(np.isfinite(Q)):
        raise ValueError("rate matrix entries must be finite")

    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    if (off < 0).any():
        i, j = map(int, np.argwhere(off < 0)[0])
        raise NegativeOffDiagonal(i, j, float(Q[i, j]))

    scale = max(1.0, float(np.abs(Q).max()))
    row_sums = Q.sum(axis=1)
    bad = np.abs(row_sums) > tol_row * scale
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise RowSumNonzero(i, float(row_sums[i]), tol_row * scale)

    components = _undirected_components(Q)
    if len(components) > 1:
        raise GraphDisconnected(components)

    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    Q.setflags(write=False)
    return Generator(dim=d, rates=Q)


def carre_du_champ(Q: Generator, g) -> np.ndarray:
    """Carre du champ Gamma(g) = L(g^2) - 2 g Lg.

    On a finite state space Gamma(g)[i] = sum_j Q[i,j] (g[j] - g[i])^2,
    a sum of nonnegative terms, so Gamma(g) >= 0 entrywise.
    """
    g = _as_vector(g, Q.dim)
    diff = g[None, :] - g[:, None]
    off = Q.rates * diff ** 2
    return off.sum(axis=1) - np.diag(off)


def gamma_sandwich_check(Q: Generator, f, g, tol: float = 1e-10) -> bool:
    """Check max(f) Gamma(g) >= L(fg^2) - 2g L(fg) + g^2 Lf >= min(f) Gamma(g).

    The middle expression equals sum_j Q[i,j] f[j] (g[j] - g[i])^2, so the
    chain holds entrywise for every valid generator; this returns whether
    it holds within tol * max(1, magnitudes involved).
    """
    f = _as_vector(f, Q.dim)
    g = _as_vector(g, Q.dim)
    L = Q.apply
    gamma = carre_du_champ(Q, g)
    middle = L(f * g ** 2) - 2.0 * g * L(f * g) + g ** 2 * L(f)
    upper = float(f.max()) * gamma
    lower = float(f.min()) * gamma
    band = tol * max(1.0, float(np.abs(upper).max()), float(np.abs(middle).max()),
                     float(np.abs(lower).max()))
    return bool(np.all(middle <= upper + band) and np.all(middle >= lower - band))


def check_condition_A(Q: Generator, T: float) -> float:
    """Uniform positivity ratio of P_T = exp(TQ).

    Returns eps = min over columns j of (min_x P[x,j] / max_y P[y,j]).
    For T > 0, P[x,j] > 0 exactly when j is reachable from x in the
    directed support graph, so every entry of P_T is strictly positive,
    and eps in (0, 1], when that graph is strongly connected (condition
    B); else eps is 0 at every T, as on [[0, 0], [1, -1]], which
    validate_generator admits (it checks only undirected connectivity).
    eps never falls as T grows, the columns of P_{T+s} = P_s P_T being
    convex combinations of P_T's: so P, formed at T / 2^k in [1, 2), is
    squared only until eps is within 1e-13 of 1.  Entries that dip below
    zero by less than 1e-13 (round-off) are clamped before forming the
    ratio; NonFinite if a column underflows.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    from .semigroup import check_condition_B, expm  # local import, avoids cycle at module load

    if not check_condition_B(Q):
        return 0.0
    k = max(0, int(np.frexp(T)[1]) - 1)
    P = expm(Q.rates, np.ldexp(T, -k))
    while True:
        P[(P < 0) & (P > -_EXPM_ROUNDOFF)] = 0.0
        if not P.max(axis=0).all():
            raise NonFinite("a column of exp(TQ) underflows to zero")
        eps = float(np.min(P.min(axis=0) / P.max(axis=0)))
        if k == 0 or eps >= 1.0 - _EXPM_ROUNDOFF:
            return eps
        P = P @ (P / P.sum(axis=1, keepdims=True))    # row-sum round-off stays, never doubles
        k -= 1


def check_condition_D(Q) -> bool:
    """Nondegeneracy: Gamma(g) = 0 forces g constant.

    On a finite state space this holds exactly when the undirected support
    graph is connected.  Accepts a Generator or a raw square matrix, since
    the question is mostly interesting for matrices that have not passed
    validation yet.
    """
    mat = Q.rates if isinstance(Q, Generator) else np.asarray(Q, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    return len(_undirected_components(np.abs(off))) == 1
