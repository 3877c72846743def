"""Stochastic cross-check of the principal eigenvalue.

Continuous-time chains are simulated by the Gillespie algorithm: from
state i, hold for an exponential time with rate -Q_ii, then jump to j
with probability Q_ij / (-Q_ii).  The exponential path weight

    exp( int_0^t V(X_s) ds )

is accumulated exactly as sum_k V[state_k] * (holding time), since V is
piecewise constant along a jump path.  Averaging the weights over paths
started from the uniform distribution gives

    (1/t) log E[ e^{int V} ]  ->  lambda_V   as t grows,

with an O(1/t) bias from the finite horizon.

estimate_lambda advances a block of paths in lockstep, one Gillespie step
of every live path per round of numpy operations.  Randomness comes from
a counter-based (Philox) generator with one stream per block of paths,
derived from (seed, block index), so results do not depend on how blocks
are scheduled across workers.
"""

from __future__ import annotations

import math

import numpy as np

from .generator import Generator, as_potential

_BLOCK = 1024  # paths per random stream in estimate_lambda


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for (seed, index); independent of scheduling order."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def log_mean_exp(values: np.ndarray) -> float:
    """log(mean(exp(values))) with the max shifted out, overflow-safe."""
    values = np.asarray(values, dtype=float)
    shift = float(values.max())
    return shift + float(np.log(np.exp(values - shift).mean()))


def _horizon(t: float) -> float:
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("horizon must be finite")
    if t <= 0:
        raise ValueError("horizon must be positive")
    return t


def _jump_chain(Q: Generator):
    """Exit rates -Q_ii and the row CDFs of the embedded jump chain.

    Each CDF row ends at exactly 1.0 (absorbing rows are NaN and never
    read), so for u in [0, 1) the first entry above u always exists and
    belongs to a state with positive jump probability.
    """
    jump = Q.rates.copy()
    np.fill_diagonal(jump, 0.0)
    cum = np.cumsum(jump, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cum /= cum[:, -1:]
    return -np.diag(Q.rates), cum


def _weight_exponents(Q: Generator, vv: np.ndarray, t: float, n_paths: int,
                      seed: int) -> np.ndarray:
    """int_0^t V(X_s) ds on n_paths exact Gillespie paths from uniform starts.

    Block b of _BLOCK paths draws from path_stream(seed, b): its start
    states, then per step one exponential and one uniform for each path
    still short of the horizon.  Working memory is O(_BLOCK * dim).
    """
    rates, cum = _jump_chain(Q)
    out = np.empty(n_paths)
    for b, lo in enumerate(range(0, n_paths, _BLOCK)):
        rng = path_stream(seed, b)
        n = min(_BLOCK, n_paths - lo)
        live = np.arange(lo, lo + n)
        x = rng.integers(0, Q.dim, size=n)
        left = np.full(n, t)
        wexp = np.zeros(n)
        while live.size:
            # an absorbing state (rate 0) holds until the horizon; fmin
            # also maps its 0/0 to the time left
            with np.errstate(divide="ignore", invalid="ignore"):
                hold = np.fmin(rng.standard_exponential(live.size) / rates[x], left)
            u = rng.random(live.size)
            wexp += vv[x] * hold
            left -= hold
            more = left > 0.0
            if not more.all():
                out[live[~more]] = wexp[~more]
                live, x, left, wexp, u = live[more], x[more], left[more], wexp[more], u[more]
            x = (cum.take(x, axis=0) > u[:, None]).argmax(axis=1)
    return out


def estimate_lambda(Q: Generator, V, t: float, n_paths: int, seed: int):
    """Monte Carlo principal eigenvalue and its delta-method standard error.

    estimate = (1/t) log( mean over paths of exp(weight exponent) ),
    computed through a shifted log-mean-exp so large exponents never
    overflow.  Start states are drawn uniformly, one per path, from the
    stream of the path's block.  A constant potential makes every weight
    deterministic, so that case returns the constant exactly with zero
    error and no sampling.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths")
    t = _horizon(t)
    V = as_potential(V, Q.dim)
    vv = V.values
    if float(vv.max() - vv.min()) == 0.0:
        return float(vv[0]), 0.0

    exponents = _weight_exponents(Q, vv, t, n_paths, seed)
    estimate = log_mean_exp(exponents) / t
    scaled = np.exp(exponents - float(exponents.max()))
    std_error = float(scaled.std(ddof=1)) / (math.sqrt(n_paths) * float(scaled.mean()) * t)
    return estimate, std_error
