"""N-particle product systems on d^N states.

Identical non-interacting particles move under the Kronecker sum

    Q_N = sum_i  I x ... x Q1 x ... x I     (Q1 in slot i),

so exp(t Q_N) is the N-fold Kronecker product of exp(t Q1).  Flat indices
are row-major with coordinate 1 slowest: flattening (x1, ..., xN) gives
x1 d^{N-1} + ... + xN, which makes the first-coordinate marginal a
contiguous block sum.

Permutation symmetry is held once, as orbits: multisets of coordinates,
C(d+N-1, N) of them.  Symmetrizing averages over an orbit, and since Q_N
commutes with coordinate permutations its chain is exactly lumpable onto
the orbits (Kemeny & Snell 1960): orbit n moves to n - e_i + e_j at rate
n_i Q1[i, j].  The dense d^N x d^N matrix is built only when it is read.

A one-state chain (d = 1) has one product state for every N, and N may
then reach 2**63: each construction answers it directly, with no work
that grows with N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import DimensionMismatch, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, validate_generator
from .spectral import GroundData, ProbMeasure, as_measure

DEFAULT_STATE_CAP = 20000


def _digits(d: int, N: int) -> np.ndarray:
    """Coordinates (x1, ..., xN) of every flat state, shape (d^N, N), by
    integer division: two axes for any N, where numpy allows at most 64.
    Callers handle d = 1 first, whose one state admits any N below 2**63."""
    stride = d ** np.arange(N - 1, -1, -1)
    return np.arange(d ** N)[:, None] // stride % d


@dataclass(frozen=True)
class Orbits:
    """Orbits of the coordinate permutations on d^N states.

    of      orbit id of each flat state,
    reps    one flat state per orbit,
    counts  occupation numbers, counts[a, j] particles at state j,
    sizes   number of flat states in each orbit.
    """

    of: np.ndarray
    reps: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray

    def spread(self, masses: np.ndarray) -> np.ndarray:
        """Vector on d^N, constant on each orbit, with the given orbit sums."""
        return (masses / self.sizes)[self.of]


@dataclass(frozen=True)
class TensorSystem:
    """Product system of N particles, each moving under Q1."""

    d: int
    N: int
    Q1: Generator

    @property
    def size(self) -> int:
        return self.d ** self.N

    @cached_property
    def QN(self) -> Generator:
        """The Kronecker sum on d^N states, built when first read."""
        d, N = self.d, self.N
        if d == 1:
            return self.Q1
        QN = np.zeros((self.size, self.size))
        for i in range(N):
            QN += np.kron(np.kron(np.eye(d ** i), self.Q1.rates), np.eye(d ** (N - 1 - i)))
        return validate_generator(QN)

    @cached_property
    def orbits(self) -> Orbits:
        """Orbits as the distinct sorted rows of the multi-index grid."""
        if self.d == 1:
            return Orbits(of=np.zeros(1, dtype=np.intp), reps=np.zeros(1, dtype=np.intp),
                          counts=np.array([[self.N]]), sizes=np.ones(1, dtype=np.intp))
        grid = _digits(self.d, self.N)
        keys, reps, of, sizes = np.unique(np.sort(grid, axis=1), axis=0,
                                          return_index=True, return_inverse=True,
                                          return_counts=True)
        counts = (keys[:, :, None] == np.arange(self.d)).sum(axis=1)
        return Orbits(of=of.reshape(-1), reps=reps, counts=counts, sizes=sizes)

    @cached_property
    def lumped_QN(self) -> Generator:
        """QN lumped onto orbits, from Q1: moving coordinate k of rep a from x_k
        to j adds Q1[x_k, j] at the orbit of rep + (j - x_k) d^{N-1-k}."""
        if self.d == 1:
            return self.Q1
        o = self.orbits
        stride = self.d ** np.arange(self.N - 1, -1, -1)
        x = o.reps[:, None] // stride % self.d
        to = o.reps[:, None, None] + (np.arange(self.d) - x[:, :, None]) * stride[:, None]
        L = np.zeros((len(o.reps), len(o.reps)))
        np.add.at(L, (np.arange(len(o.reps))[:, None, None], o.of[to]), self.Q1.rates[x])
        return validate_generator(L)

    def on_orbits(self, V0) -> np.ndarray:
        """V0 on the orbits; lumping is exact only for a symmetric V0."""
        V0 = as_potential(V0, self.size)
        if not is_symmetric(V0, self):
            raise ValueError("interaction V0 must be symmetric under particle permutations")
        return V0.values[self.orbits.reps]

    def lift(self, gd: GroundData) -> GroundData:
        """Ground data of lumped_QN (symmetric V) as those of QN on d^N states."""
        o = self.orbits
        return GroundData(lam=gd.lam, psi=gd.psi[o.of], pi=ProbMeasure(o.spread(gd.pi.weights)),
                          mu=ProbMeasure(o.spread(gd.mu.weights)))


def kronecker_sum(Q1: Generator, N: int, cap: int = DEFAULT_STATE_CAP) -> TensorSystem:
    """Product system of N identical non-interacting particles."""
    if N < 1:
        raise ValueError("particle count must be at least one")
    d = Q1.dim
    size = d ** N
    if size > cap:
        raise StateSpaceTooLarge(size, cap)
    return TensorSystem(d=d, N=N, Q1=Q1)


def separable_potential(v, N: int, cap: int = DEFAULT_STATE_CAP) -> Potential:
    """(v(x1) + ... + v(xN)) / N on the product space."""
    v = as_potential(v)
    d = len(v)
    if d ** N > cap:
        raise StateSpaceTooLarge(d ** N, cap)
    if d == 1:
        return Potential(v.values.copy())
    x = _digits(d, N)
    acc = np.zeros(d ** N)
    for i in range(N):
        acc = acc + v.values[x[:, i]]
    return Potential(acc / N)


def pairwise_potential(w, N: int, cap: int = DEFAULT_STATE_CAP) -> Potential:
    """Symmetric interaction sum_{i<j} w(x_i, x_j) / binom(N, 2).

    w must be a symmetric d x d matrix; the result is a symmetric
    potential on d^N states, the discrete analogue of a two-body
    repulsion shared between all particle pairs.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionMismatch("pair interaction must be a square matrix")
    if not np.allclose(w, w.T, atol=1e-12 * max(1.0, np.abs(w).max())):
        raise ValueError("pair interaction matrix must be symmetric")
    d = w.shape[0]
    if N < 1:
        raise ValueError("particle count must be at least one")
    if N == 1:
        return Potential(np.zeros(d))
    if d ** N > cap:
        raise StateSpaceTooLarge(d ** N, cap)
    if d == 1:
        return Potential(w[0].copy())
    x = _digits(d, N)
    acc = np.zeros(d ** N)
    for i in range(N):
        for j in range(i + 1, N):
            acc = acc + w[x[:, i], x[:, j]]
    return Potential(acc / comb(N, 2))


def symmetrize_measure(mu, sys: TensorSystem) -> ProbMeasure:
    """Average of mu over all coordinate permutations; idempotent."""
    mu = as_measure(mu, sys.size)
    o = sys.orbits
    return ProbMeasure(o.spread(np.bincount(o.of, weights=mu.weights)))


def marginal(mu, sys: TensorSystem) -> ProbMeasure:
    """First-coordinate marginal: rho[j] = sum of mu over {x : x1 = j}."""
    mu = as_measure(mu, sys.size)
    return ProbMeasure(mu.weights.reshape(sys.d, -1).sum(axis=1))


def is_symmetric(values, sys: TensorSystem, tol: float = 1e-10) -> bool:
    """Invariance of a vector on d^N under every coordinate permutation."""
    vec = np.asarray(values.values if isinstance(values, Potential)
                     else values.weights if isinstance(values, ProbMeasure)
                     else values, dtype=float)
    if vec.shape != (sys.size,):
        raise DimensionMismatch(f"expected vector of length {sys.size}")
    band = tol * max(1.0, float(np.abs(vec).max()))
    o = sys.orbits
    return float(np.abs(o.spread(np.bincount(o.of, weights=vec)) - vec).max()) <= band
