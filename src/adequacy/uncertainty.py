"""Bootstrap uncertainty quantification for the long-run risk metrics.

Two resampling schemes over historical seasons, both treating seasons as
independent blocks:

* season bootstrap -- resample the per-season metric estimates themselves and
  take percentile quantiles of the resample means;
* block bootstrap  -- resample whole seasons, recompute the pooled metrics
  of every distinct replication in one call, and take percentile quantiles
  of the replicated metrics.

Both read a replication as a row of counts, how often each season was drawn:
an (R, S) count matrix from ``resample_counts``, so that a study column hands
one matrix to both schemes. Replication r draws its indices from numpy's
PCG64 seeded by SeedSequence((*seed, r)), where the seed is an integer or a
key tuple (a study column uses (seed, 101, column position)), so replication
r draws the same indices however many replications are asked for.
``resample_indices`` computes every row at once with an exact port of
SeedSequence, PCG64 and numpy's bounded integer draw in whole-array integer
arithmetic; a row that would enter the bounded draw's rejection loop is
drawn by numpy itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  loaded at import, not on the first draw

from .errors import NumericalError

MAX_DROP_RATE = 0.01


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not self.lower <= self.upper:  # NaN fails this too
            raise ValueError(f"lower endpoint {self.lower!r} is not at or below "
                             f"upper endpoint {self.upper!r}")


@dataclass(frozen=True)
class BlockBootstrapResult:
    intervals: dict[str, ConfidenceInterval]
    replications_used: int
    replications_dropped: int
    first_error: str | None = None  # "replication <r>: <message>" of the first drop


def resample_indices(n: int, replications: int, seed) -> np.ndarray:
    """(replications, n) matrix of i.i.d. uniform indices in [0, n).

    ``seed`` is an integer or a tuple of integers (a derived substream key);
    row r is ``Generator(PCG64(SeedSequence((*seed, r)))).integers(0, n, n)``,
    computed for all rows at once by the port below.
    """
    if n < 1:
        raise ValueError("n must be positive")
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    entropy = [np.full(replications, w, dtype=np.uint32) for w in _entropy_words(key)]
    entropy.append(np.arange(replications, dtype=np.uint32))
    return _bounded(_pcg64_words(_seed_pool(entropy), n), n, key)


def resample_counts(n: int, replications: int, seed) -> np.ndarray:
    """(replications, n) matrix whose row r counts how often each index in
    [0, n) is drawn in row r of ``resample_indices(n, replications, seed)``."""
    idx = resample_indices(n, replications, seed)
    rows = np.arange(replications)[:, None]
    return np.bincount((idx + n * rows).ravel(), minlength=idx.size).reshape(idx.shape)


# An exact port of numpy's SeedSequence -> PCG64 -> Generator.integers(0, n)
# that draws every row at once. uint32 arrays wrap as SeedSequence's words do;
# the 128-bit PCG state is held as four 32-bit limbs, least significant first,
# in uint64 arrays so that limb products do not overflow.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = tuple((0x2360ED051FC65DA44385DF649FCCF645 >> 32 * k) & _MASK32 for k in range(4))


def _entropy_words(x) -> list[int]:
    """SeedSequence's uint32 words of a seed: each integer little-endian
    (0 is one word), the integers of a sequence concatenated."""
    if isinstance(x, (tuple, list)):
        return [w for v in x for w in _entropy_words(v)]
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy: the 4-word pool of each row's entropy words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _carry(limbs: np.ndarray) -> np.ndarray:
    """Reduce column sums (4, R) to 32-bit limbs, mod 2**128, in place."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> 32
        limbs[k] &= _MASK32
    limbs[3] &= _MASK32
    return limbs


def _lcg_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """state * PCG64's multiplier + inc, mod 2**128."""
    out = inc.copy()
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _PCG_MULT[j]
            out[i + j] += product & _MASK32
            if i + j < 3:
                out[i + j + 1] += product >> 32
    return _carry(out)


def _pcg64_words(pool: list[np.ndarray], n: int) -> np.ndarray:
    """The first n 32-bit outputs (R, n) of each row's PCG64.

    The seed is SeedSequence.generate_state(4, uint64) of the pool, read by
    pcg64_set_seed as the (high, low) halves of the initial state and of the
    stream; pcg64_srandom_r sets the increment to stream << 1 | 1. Each
    64-bit XSL-RR output gives its low half first, as next_uint32 does.
    """
    hash_const = _INIT_B
    w = []
    for i in range(8):
        data = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        data = data * hash_const
        w.append((data ^ data >> 16).astype(np.uint64))
    initstate = np.array([w[2], w[3], w[0], w[1]])
    stream = np.array([w[6], w[7], w[4], w[5]])
    inc = (stream << 1) & _MASK32
    inc[1:] |= stream[:-1] >> 31
    inc[0] |= 1
    state = _lcg_step(_carry(inc + initstate), inc)  # srandom: step, add, step
    words = np.empty((state.shape[1], n + n % 2), dtype=np.uint64)
    for k in range(0, n, 2):
        state = _lcg_step(state, inc)
        x = (state[3] << 32 | state[2]) ^ (state[1] << 32 | state[0])
        rot = state[3] >> 26
        x = (x >> rot) | (x << ((64 - rot) & 63))
        words[:, k] = x & _MASK32
        words[:, k + 1] = x >> 32
    return words[:, :n]


def _bounded(words: np.ndarray, n: int, key: tuple) -> np.ndarray:
    """Lemire's bounded draw (w * n) >> 32 of each 32-bit word.

    A row with a word whose low half (w * n) mod 2**32 falls below
    (2**32 - n) mod n would enter the rejection loop, which draws further
    words; that row is drawn again by numpy itself.
    """
    m = words * np.uint64(n)
    out = (m >> 32).astype(np.int64)
    rejected = ((m & _MASK32) < (2**32 - n) % n).any(axis=1)
    for r in np.flatnonzero(rejected).tolist():
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((*key, r))))
        out[r] = rng.integers(0, n, size=n)
    return out


def percentile_interval(samples: np.ndarray, level: float) -> ConfidenceInterval:
    if not 0.0 < level < 1.0:
        raise ValueError("ci_level must lie strictly between 0 and 1")
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(samples, [alpha, 1.0 - alpha])
    return ConfidenceInterval(float(lower), float(upper), level)


def season_bootstrap(per_season_values, counts: np.ndarray, level: float) -> ConfidenceInterval:
    """Percentile CI for the mean of per-season estimates, each row of the
    (R, S) ``counts`` one resample of the S values.

    A resample's mean is its counts-weighted sum over S, taken by einsum:
    unlike a BLAS product, it does not depend on the thread count.
    """
    values = np.asarray(per_season_values, dtype=float)
    if values.size < 2:
        raise ValueError("season bootstrap needs at least 2 values")
    means = np.einsum("rs,s->r", counts, values) / values.size
    return percentile_interval(means, level)


def _distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(counts, axis=0, return_inverse=True)`` by one sort: the
    distinct rows in lexicographic order, and the index of each row's among them."""
    order = np.lexsort(counts.T[::-1])  # the first column is the primary key
    ordered = counts[order]
    starts = np.ones(len(order), dtype=bool)  # where a run of equal rows starts
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    which = np.empty(len(order), dtype=np.intp)
    which[order] = np.cumsum(starts) - 1
    return ordered[starts], which


def block_bootstrap(replicate, counts: np.ndarray, level: float) -> BlockBootstrapResult:
    """Percentile CIs from rerunning ``replicate`` on resampled season blocks.

    Each row of the (R, S) ``counts`` is a replication, how often each of the
    S seasons was drawn. ``replicate`` is called once, on the (D, S) matrix
    of the distinct rows in ``np.unique``'s order. It returns a mapping of
    metric name to the (D,) array of that metric's values, and the message
    of each row that failed with a NumericalError, by row index. The
    replications of a failed row are dropped and counted; more than
    MAX_DROP_RATE of them is an error. An exception ``replicate`` raises is
    a bug and propagates, and a value that is not finite on a row it did not
    report failed breaks its contract: ValueError.
    """
    n_replications, n_seasons = counts.shape
    if n_seasons < 2:
        raise ValueError("block bootstrap needs at least 2 seasons")
    distinct, which = _distinct_rows(counts)
    values, failed = replicate(distinct)
    reported = np.zeros(len(distinct), dtype=bool)
    reported[list(failed)] = True
    values = {name: np.asarray(v, dtype=float) for name, v in values.items()}
    for name, v in values.items():
        if (unreported := np.flatnonzero(~(reported | np.isfinite(v)))).size:
            i = int(unreported[0])
            raise ValueError(f"replicate gave {name} = {float(v[i])!r} for count row {distinct[i].tolist()} "
                             "without reporting it failed")
    dropped = reported[which]
    n_dropped = int(dropped.sum())
    first_error = None
    if n_dropped:
        first = int(np.argmax(dropped))
        first_error = f"replication {first}: {failed[which[first]]}"
    if n_dropped > MAX_DROP_RATE * n_replications:
        raise NumericalError(
            f"{n_dropped}/{n_replications} bootstrap replications failed; first: {first_error}"
        )
    kept = which[~dropped]
    intervals = {name: percentile_interval(v[kept], level) for name, v in values.items()}
    return BlockBootstrapResult(
        intervals=intervals,
        replications_used=kept.size,
        replications_dropped=n_dropped,
        first_error=first_error,
    )
