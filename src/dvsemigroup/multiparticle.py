"""N-particle product systems on d^N states.

Identical non-interacting particles move under the Kronecker sum

    Q_N = sum_i  I x ... x Q1 x ... x I     (Q1 in slot i),

so exp(t Q_N) is the N-fold Kronecker product of exp(t Q1).  Flat indices
are row-major with coordinate 1 slowest: flattening (x1, ..., xN) gives
x1 d^{N-1} + ... + xN.

Permutation symmetry is held once, as orbits: multisets of coordinates,
C(d+N-1, N) of them, each given by its occupation counts n (Doi 1976).
Symmetrizing averages over an orbit, and since Q_N commutes with coordinate
permutations its chain is exactly lumpable onto the orbits (Kemeny & Snell
1960): orbit n moves to n - e_i + e_j at rate n_i Q1[i, j].  The dense
d^N x d^N matrix is built only when it is read.

A one-state chain (d = 1) has one product state for every N, and N may
then reach 2**63: each construction answers it directly, with no work
that grows with N.

Memory is bounded by one budget, _MAX_BYTES, checked from sizes before
anything is allocated where (d, N) turns into large arrays: the orbits
behind the product potentials (a d^N x N coordinate grid and the
occupation counts), and the dense chain (QN, or lumped_QN) that the
solvers then run on.  Past it, StateSpaceTooLarge.  At N = 1 nothing is
derived: the chain is Q1 itself, which is not checked.  The Monte Carlo
sampler (feynman_kac.estimate_lambda) checks its per-path arrays against
the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import DimensionMismatch, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, validate_generator
from .spectral import GroundData, ProbMeasure, as_measure

_MAX_BYTES = 2 ** 31

# peak memory in copies of the largest 8-byte array, as measured: the orbits
# and product potentials hold 1 + 2/N copies of the d^N x N coordinate grid
# (1.13 at (2, 16), 1.26 at (4, 8)) and, where the C(d+N-1, N) x d counts
# are larger, up to 3.2 copies of those (pairwise_potential at (60, 3)); on
# a chain of n states, expm holds 10.0 n x n arrays, i_hk's simplex Newton
# 9.2, dv_sup 9.3, the QN and lumped builds 4.0 and principal_eigen 2.0
_GRID_PEAK = 2
_COUNTS_PEAK = 4
_CHAIN_PEAK = 10


def _require_bytes(needed: int) -> None:
    """StateSpaceTooLarge unless needed bytes fit in the budget."""
    if needed > _MAX_BYTES:
        raise StateSpaceTooLarge(needed, _MAX_BYTES)


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


def _orbits(d: int, N: int) -> Orbits:
    """Orbits enumerated as multisets: the sorted N-tuples over range(d), in
    lexicographic order.  A sorted tuple is the smallest flat state of its
    orbit, so it is the representative, and a state's orbit is that of its
    sorted coordinates.  d = 1 has one orbit, for any N below 2**63."""
    if d == 1:
        return Orbits(of=np.zeros(1, dtype=np.intp), reps=np.zeros(1, dtype=np.intp),
                      counts=np.array([[N]]), sizes=np.ones(1, dtype=np.intp))
    _require_bytes(8 * (_GRID_PEAK * N * d ** N + _COUNTS_PEAK * d * comb(d + N - 1, N)))
    x = np.array(list(combinations_with_replacement(range(d), N)))
    stride = d ** np.arange(N - 1, -1, -1)
    reps = x @ stride
    # coordinates of every state, sorted in place: two axes for any N, where
    # numpy allows at most 64
    keys = np.arange(d ** N)[:, None] // stride
    keys %= d
    keys.sort(axis=1)
    of = np.searchsorted(reps, keys @ stride)
    return Orbits(of=of, reps=reps, counts=(x[:, :, None] == np.arange(d)).sum(axis=1),
                  sizes=np.bincount(of))


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
        """The Kronecker sum on d^N states, built when first read; Q1 itself
        when there is one particle or one state."""
        d, N = self.d, self.N
        if d == 1 or N == 1:
            return self.Q1
        _require_bytes(_CHAIN_PEAK * 8 * self.size ** 2)
        QN = np.zeros((self.size, self.size))
        for i in range(N):
            QN += np.kron(np.kron(np.eye(d ** i), self.Q1.rates), np.eye(d ** (N - 1 - i)))
        return validate_generator(QN)

    @cached_property
    def orbits(self) -> Orbits:
        return _orbits(self.d, self.N)

    @cached_property
    def lumped_QN(self) -> Generator:
        """QN lumped onto orbits, from Q1: moving coordinate k of rep a from x_k
        to j adds Q1[x_k, j] at the orbit of rep + (j - x_k) d^{N-1-k}.
        Q1 itself when every orbit is one state (N = 1 or d = 1)."""
        if self.d == 1 or self.N == 1:
            return self.Q1
        _require_bytes(_CHAIN_PEAK * 8 * comb(self.d + self.N - 1, self.N) ** 2)
        o = self.orbits
        stride = self.d ** np.arange(self.N - 1, -1, -1)
        x = o.reps[:, None] // stride % self.d
        to = o.reps[:, None, None] + (np.arange(self.d) - x[:, :, None]) * stride[:, None]
        L = np.zeros((len(o.reps), len(o.reps)))
        np.add.at(L, (np.arange(len(o.reps))[:, None, None], o.of[to]), self.Q1.rates[x])
        return validate_generator(L)

    def on_orbits(self, V0) -> np.ndarray:
        """V0 on the orbits: one entry per orbit, taken as it is, or a vector
        on the d^N states, read at the orbit representatives.  Lumping is
        exact only for a symmetric V0, so a d^N vector that is not raises
        ValueError.  The two lengths differ for d, N >= 2; at N = 1 or d = 1
        every orbit is one state, and they denote the same vector."""
        V0 = as_potential(V0)
        if len(V0) == comb(self.d + self.N - 1, self.N):
            return V0.values
        V0 = as_potential(V0, self.size)
        if not is_symmetric(V0, self):
            raise ValueError("interaction V0 must be symmetric under particle permutations")
        return V0.values[self.orbits.reps]

    def lift(self, gd: GroundData) -> GroundData:
        """Ground data of lumped_QN (symmetric V) as those of QN on d^N states;
        gd itself when every orbit is one state (N = 1 or d = 1)."""
        if self.d == 1 or self.N == 1:
            return gd
        o = self.orbits
        return GroundData(lam=gd.lam, psi=gd.psi[o.of], pi=ProbMeasure(o.spread(gd.pi.weights)),
                          mu=ProbMeasure(o.spread(gd.mu.weights)))


def kronecker_sum(Q1: Generator, N: int) -> TensorSystem:
    """Product system of N identical non-interacting particles."""
    if N < 1:
        raise ValueError("particle count must be at least one")
    return TensorSystem(d=Q1.dim, N=N, Q1=Q1)


def separable_potential(v, N: int) -> Potential:
    """(v(x1) + ... + v(xN)) / N on the product space, counts . v / N per orbit."""
    if N < 1:
        raise ValueError("particle count must be at least one")
    v = as_potential(v)
    o = _orbits(len(v), N)
    return Potential((o.counts @ v.values / N)[o.of])


def _pair_sums(w, o: Orbits, N: int) -> np.ndarray:
    """sum_{i<j} w(x_i, x_j) / binom(N, 2) on each orbit of N particles.

    w must be a finite symmetric d x d matrix, d the states of the orbits.
    On the orbit with counts n the sum is sum_{a<b} n_a n_b w_ab + sum_a
    binom(n_a, 2) w_aa; with one particle there is no pair, and it is 0.
    """
    w = np.asarray(w, dtype=float)
    d = o.counts.shape[1]
    if w.shape != (d, d):
        raise DimensionMismatch(f"pair interaction must be a {d} x {d} matrix")
    if not np.isfinite(w).all():
        raise ValueError("pair interaction must be finite")
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(w).max())):
        raise ValueError("pair interaction matrix must be symmetric")
    if N == 1:
        return np.zeros(len(o.reps))
    n = o.counts.astype(float)      # n (n - 1) overflows int64 at d = 1, N near 2**63
    pairs = ((n @ np.triu(w, 1)) * n).sum(axis=1) + (n * (n - 1) / 2) @ np.diag(w)
    return pairs / comb(N, 2)


def pairwise_potential(w, N: int) -> Potential:
    """Symmetric interaction sum_{i<j} w(x_i, x_j) / binom(N, 2).

    w must be a symmetric d x d matrix; the result is a symmetric
    potential on d^N states, the discrete analogue of a two-body
    repulsion shared between all particle pairs, read off the occupation
    counts of each orbit.
    """
    if N < 1:
        raise ValueError("particle count must be at least one")
    if np.ndim(w) != 2:
        raise DimensionMismatch("pair interaction must be a square matrix")
    o = _orbits(len(w), N)
    return Potential(_pair_sums(w, o, N)[o.of])


def symmetrize_measure(mu, sys: TensorSystem) -> ProbMeasure:
    """Average of mu over all coordinate permutations; idempotent."""
    mu = as_measure(mu, sys.size)
    o = sys.orbits
    return ProbMeasure(o.spread(np.bincount(o.of, weights=mu.weights)))


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
