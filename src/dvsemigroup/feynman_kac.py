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
of every live path per round of numpy operations.  A jump reads one
uniform against the Walker alias table of its row (Walker 1977, ACM TOMS
3:253; Vose 1991, IEEE TSE 17:972), so it costs O(1) whatever the number
of states.  Each block of paths draws from its own SFC64 stream, derived
from (seed, block index), so a block's weights do not depend on how many
blocks follow it.
"""

from __future__ import annotations

import math

import numpy as np

from .generator import Generator, as_potential
from .multiparticle import _require_bytes

_BLOCK = 1 << 16  # paths per random stream in estimate_lambda
# peak memory of estimate_lambda in float64 copies of its per-path exponents,
# as measured: the exponents, weighted in place, plus the one same-length
# temporary of the standard error
_PATHS_PEAK = 2


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Random stream of block `index` of paths under `seed`.

    SFC64 seeded by SeedSequence(entropy=seed, spawn_key=(index,)).  A
    block of _BLOCK paths draws everything from its own stream, so its
    weights do not depend on how many blocks follow it, and the sampler
    advances one block's vectors at a time: O(_BLOCK) working memory plus
    the d x d alias tables, next to the one exponent per path it returns.
    """
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


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
    """Exit rates -Q_ii and Walker alias tables (prob, alias) of the jump chain.

    Row x cuts [0, d) into d unit buckets.  A uniform u lands in bucket
    j = floor(u d), which keeps state j when frac(u d) < prob[x, j] and
    goes to alias[x, j] otherwise; state j then has probability
    Q_xj / (-Q_xx).  The tables come from Vose's pairing.  Bucket j holds
    mass s_j = d Q_xj / (-Q_xx).  A light bucket (s_j < 1) is topped up by
    one heavy bucket (s_j >= 1), and a heavy bucket that this leaves below
    1 is topped up by the next heavy one.  Sweeping both kinds in column
    order, a light bucket goes to the heavy bucket whose stretch of the
    running excess holds the running deficit of the light buckets before
    it, so a row takes one sorted search.  Absorbing rows are never read.
    """
    d = Q.dim
    rates = -np.diag(Q.rates)
    prob = Q.rates / np.where(rates > 0.0, rates, 1.0)[:, None]
    prob *= d
    np.fill_diagonal(prob, 0.0)
    alias = np.zeros((d, d), dtype=np.intp)
    for s, row in zip(prob, alias):
        heavy = s >= 1.0
        hv = np.flatnonzero(heavy)
        if not hv.size:                      # absorbing
            continue
        lt = np.flatnonzero(~heavy)
        short = 1.0 - s[lt]
        # the last heavy bucket tops up whatever is left, round-off included
        end = np.cumsum(s[hv] - 1.0)
        end[-1] = np.inf
        donor = np.searchsorted(end, np.cumsum(short) - short, side="right")
        row[lt] = hv[donor]
        row[hv[:-1]] = hv[1:]
        # what the heavy buckets up to m handed out beyond their running
        # excess is the shortfall of bucket m, topped up by the next one
        given = np.cumsum(np.bincount(donor, short, hv.size))
        s[hv] = np.clip(1.0 + end - given, 0.0, 1.0)
    return rates, prob, alias


def _weight_exponents(Q: Generator, vv: np.ndarray, t: float, n_paths: int,
                      seed: int) -> np.ndarray:
    """int_0^t V(X_s) ds on n_paths exact Gillespie paths from uniform starts.

    Block b of _BLOCK paths draws from path_stream(seed, b): its start
    states, then per step one exponential and one uniform for each path
    still short of the horizon.  Returns one float64 per path; the
    working vectors are O(_BLOCK), plus the d x d alias tables.
    """
    d = Q.dim
    rates, prob, alias = _jump_chain(Q)
    prob, alias = prob.ravel(), alias.ravel()
    out = np.empty(n_paths)
    for b, lo in enumerate(range(0, n_paths, _BLOCK)):
        rng = path_stream(seed, b)
        n = min(_BLOCK, n_paths - lo)
        live = np.arange(lo, lo + n)
        x = rng.integers(0, d, size=n)
        left = np.full(n, t)
        wexp = np.zeros(n)
        # an absorbing state (rate 0) holds until the horizon: fmin maps
        # its e/0 = inf, and the 0/0 of a zero draw, to the time left
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.size:
                hold = np.fmin(rng.standard_exponential(live.size) / rates[x], left)
                u = rng.random(live.size) * d
                wexp += vv[x] * hold
                left -= hold
                more = left > 0.0
                if not more.all():
                    out[live[~more]] = wexp[~more]
                    live, x, left, wexp, u = live[more], x[more], left[more], wexp[more], u[more]
                # bucket j = floor(u d), kept when its fraction is below prob
                j = np.minimum(u.astype(np.intp), d - 1)
                cell = x * d + j
                x = np.where(u - j < prob[cell], j, alias[cell])
    return out


def estimate_lambda(Q: Generator, V, t: float, n_paths: int, seed: int):
    """Monte Carlo principal eigenvalue and its delta-method standard error.

    estimate = (1/t) log( mean over paths of exp(weight exponent) ), read
    with its standard error from the weights exp(exponent - max), formed
    once in place over the exponents.  Start states are drawn uniformly,
    one per path, from the stream of the path's block.  A constant
    potential makes every weight deterministic, so that case returns the
    constant exactly with zero error and no sampling.  Otherwise the
    exponents and one temporary of their length must fit
    multiparticle._MAX_BYTES, else StateSpaceTooLarge before allocating.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths")
    t = _horizon(t)
    V = as_potential(V, Q.dim)
    vv = V.values
    if float(vv.max() - vv.min()) == 0.0:
        return float(vv[0]), 0.0
    _require_bytes(_PATHS_PEAK * 8 * n_paths)

    weights = _weight_exponents(Q, vv, t, n_paths, seed)
    shift = float(weights.max())
    mean = float(np.exp(np.subtract(weights, shift, out=weights), out=weights).mean())
    std_error = float(weights.std(ddof=1)) / (math.sqrt(n_paths) * mean * t)
    return (shift + float(np.log(mean))) / t, std_error
