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
1960): orbit n moves to n - e_i + e_j at rate n_i Q1[i, j].  The maps to
the d^N states, and the dense d^N x d^N matrix, are built only when read.

A one-state chain (d = 1) has one product state for every N, and N may
then reach 2**63: each construction answers it directly, with no work
that grows with N.

Memory is bounded by one budget, _MAX_BYTES, checked from sizes before
anything is allocated where (d, N) turns into large arrays: the
occupation counts, the d^N x N coordinate grid from which Orbits.of is
read, and the dense chain (QN, or lumped_QN) that the solvers then run
on.  Past it, StateSpaceTooLarge.  At N = 1 the chain is Q1 itself and
the orbits are its d states, with d x d counts; neither is checked.  The
Monte Carlo sampler (feynman_kac.estimate_lambda) checks its per-path
arrays against the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
from math import comb

import numpy as np

from .errors import DimensionMismatch, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, validate_generator
from .spectral import GroundData, ProbMeasure, as_measure

_MAX_BYTES = 2 ** 31

# peak memory in copies of the largest 8-byte array, as traced: Orbits.of
# and the product potentials hold 1 + 2/N copies of the d^N x N coordinate
# grid (1.13 at (2, 16), 1.25 at (4, 8)) and, where the C(d+N-1, N) x d
# counts are larger, up to 3.0 copies of those (pairwise_potential at
# (60, 3), and the counts of N >= d particles as they are enumerated); on
# a chain of n ~ 256 states, the CLI averaging task and both ground measures
# hold 8.0 n x n arrays, expm, evolve, growth_bound and check_condition_A
# 7.0, i_hk 5.3, dv_sup 5.2, rate_I 4.2, the QN and lumped builds 4.0,
# invert_potential 3.2 and principal_eigen 2.1.  Each np.linalg.solve adds
# one untraced copy, LAPACK's (1.22 n x n of RSS at n = 2000), which
# _CHAIN_PEAK reserves on top of these
_GRID_PEAK = 2
_COUNTS_PEAK = 4
_CHAIN_PEAK = 10


def _require_bytes(needed: int) -> None:
    """StateSpaceTooLarge unless needed bytes fit in the budget."""
    if needed > _MAX_BYTES:
        raise StateSpaceTooLarge(needed, _MAX_BYTES)


@dataclass(frozen=True)
class Orbits:
    """Orbits of the coordinate permutations on d^N states, held as their
    occupation counts, counts[a, j] particles at state j; built when read:

    of      orbit id of each flat state,
    reps    one flat state per orbit,
    sizes   number of flat states in each orbit.
    """

    counts: np.ndarray

    @cached_property
    def _maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d = self.counts.shape[1]
        N = int(self.counts[0].sum()) if d > 1 else 1      # one state, for any N
        _require_bytes(8 * _GRID_PEAK * N * d ** N)
        # a rep, n_0 zeros, n_1 ones, ...: base-d repunits of the particles past each state
        reps = ((d ** self.counts[:, :0:-1].cumsum(axis=1) - 1) // (d - 1)).sum(axis=1)
        stride = d ** np.arange(N - 1, -1, -1)
        # coordinates of every state, sorted in place: two axes for any N,
        # where numpy allows at most 64
        keys = np.arange(d ** N)[:, None] // stride
        keys %= d
        keys.sort(axis=1)
        of = np.searchsorted(reps, keys @ stride)
        return reps, of, np.bincount(of)

    reps = property(lambda self: self._maps[0])
    of = property(lambda self: self._maps[1])
    sizes = property(lambda self: self._maps[2])


def _orbits(d: int, N: int) -> Orbits:
    """Orbits enumerated as multisets: the sorted N-tuples over range(d), in
    lexicographic order, or for N >= d their d - 1 bars among N + d - 1
    slots in reverse order, so the work is proportional to the counts.
    d = 1 has one orbit, for any N below 2**63; at N = 1, unchecked like
    Q1, the d states are the orbits."""
    if d == 1:
        return Orbits(np.array([[N]]))
    size = comb(d + N - 1, N)
    if N > 1:
        _require_bytes(8 * _COUNTS_PEAK * d * size)
    if N < d:
        x = np.fromiter(chain.from_iterable(combinations_with_replacement(range(d), N)),
                        np.intp, size * N).reshape(size, N) + d * np.arange(size)[:, None]
        return Orbits(np.bincount(x.ravel(), minlength=size * d).reshape(size, d))
    bars = np.fromiter(chain.from_iterable(combinations(range(N + d - 1), d - 1)),
                       np.intp, size * (d - 1)).reshape(size, d - 1)
    return Orbits(np.diff(bars[::-1], axis=1, prepend=-1, append=N + d - 1) - 1)


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

    @property
    def n_orbits(self) -> int:
        return comb(self.d + self.N - 1, self.N)

    @cached_property
    def orbits(self) -> Orbits:
        return _orbits(self.d, self.N)

    @cached_property
    def marginal_map(self) -> np.ndarray:
        """C = counts^T / N, taking orbit masses p to their one-particle marginal
        C p; row-major, so that C p sums each row as counts^T p does."""
        return np.ascontiguousarray(self.orbits.counts.T) / self.N

    @cached_property
    def lumped_QN(self) -> Generator:
        """QN lumped onto orbits, from the counts: orbit n moves to n - e_i + e_j
        at rate n_i Q1[i, j], its n_i equal rates added one by one.  Putting
        the moving particle at j instead of i moves X_j - X_i rows, X_j the
        ways, summed over a < j, to put the R_a others past state a there."""
        d, N = self.d, self.N
        if d == 1 or N == 1:
            return self.Q1
        self._check_chain()
        n, a = self.orbits.counts, np.arange(d - 1)
        ways = np.array([[comb(r + d - 2 - b, r) for b in a] for r in range(N)])
        orbit, i = np.nonzero(n)
        past = N - n[orbit, :-1].cumsum(axis=1) - (a < i[:, None])
        X = np.cumsum(np.c_[np.zeros_like(i), ways[past, a]], axis=1)
        to = orbit[:, None] + X - X[np.arange(len(i)), i, None]
        sums = np.cumsum(np.broadcast_to(self.Q1.rates, (N, d, d)), axis=0)
        L = np.zeros((len(n), len(n)))
        np.add.at(L, (orbit[:, None], to), sums[n[orbit, i] - 1, i])
        return validate_generator(L)

    def _check_chain(self) -> None:
        """StateSpaceTooLarge past the budget for lumped_QN; Q1 (N = 1) is not checked."""
        if self.N > 1:
            _require_bytes(_CHAIN_PEAK * 8 * self.n_orbits ** 2)

    def on_orbits(self, V0) -> np.ndarray:
        """V0 on the orbits: one entry per orbit, taken as it is, or a vector
        on the d^N states, read at the orbit representatives.  Lumping is
        exact only for a symmetric V0, so a d^N vector that is not raises
        ValueError.  The two lengths differ for d, N >= 2; at N = 1 or d = 1
        every orbit is one state, and they denote the same vector."""
        V0 = as_potential(V0)
        if len(V0) == self.n_orbits:
            return V0.values
        V0 = as_potential(V0, self.size)
        if not is_symmetric(V0, self):
            raise ValueError("interaction V0 must be symmetric under particle permutations")
        return V0.values[self.orbits.reps]

    def chain_potential(self, V0: np.ndarray, v: np.ndarray) -> np.ndarray:
        """V0 + C^T v on the orbits; V0 + v at N = 1, where no orbit is enumerated."""
        return V0 + (v if self.N == 1 else self.marginal_map.T @ v)

    def spread(self, masses: np.ndarray) -> np.ndarray:
        """d^N vector, even on each orbit, with orbit sums masses; masses at N = 1 or d = 1."""
        if self.d == 1 or self.N == 1:
            return masses
        o = self.orbits
        return (masses / o.sizes)[o.of]

    def gather(self, mu) -> ProbMeasure:
        """Orbit sums of a permutation-symmetric measure mu on the d^N states,
        else ValueError; mu itself when every orbit is one state."""
        mu = as_measure(mu, self.size)
        if self.d == 1 or self.N == 1:
            return mu
        masses = np.bincount(self.orbits.of, weights=mu.weights)
        if np.abs(self.spread(masses) - mu.weights).max() > 1e-10:   # is_symmetric's band, mu <= 1
            raise ValueError("mu must be symmetric under particle permutations")
        return ProbMeasure(masses)

    def lift(self, gd: GroundData) -> GroundData:
        """Ground data of lumped_QN (symmetric V) as those of QN on d^N states;
        gd itself when every orbit is one state (N = 1 or d = 1)."""
        if self.d == 1 or self.N == 1:
            return gd
        return GroundData(lam=gd.lam, psi=gd.psi[self.orbits.of],
                          pi=ProbMeasure(self.spread(gd.pi.weights)),
                          mu=ProbMeasure(self.spread(gd.mu.weights)))


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
        return np.zeros(len(o.counts))
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
    return ProbMeasure(sys.spread(np.bincount(sys.orbits.of, weights=mu.weights)))


def is_symmetric(values, sys: TensorSystem, tol: float = 1e-10) -> bool:
    """Invariance of a vector on d^N under every coordinate permutation."""
    vec = np.asarray(values.values if isinstance(values, Potential)
                     else values.weights if isinstance(values, ProbMeasure)
                     else values, dtype=float)
    if vec.shape != (sys.size,):
        raise DimensionMismatch(f"expected vector of length {sys.size}")
    band = tol * max(1.0, float(np.abs(vec).max()))
    return float(np.abs(sys.spread(np.bincount(sys.orbits.of, weights=vec)) - vec).max()) <= band
