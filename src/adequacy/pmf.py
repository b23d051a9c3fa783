"""Discrete probability mass functions on a 1 MW integer grid.

All distributions in the risk pipeline (available conventional capacity,
demand-net-of-wind, supply-demand balance) are represented as probability
mass on integer-MW atoms. Bin width is exactly 1 MW; a continuous value x
contributes to the bin floor(x).
"""

from __future__ import annotations

import collections
import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # noqa: F401  loaded with the module, not on the first convolution

from .errors import NumericalError

# Tolerance on total mass; constructions renormalize, so violations indicate bugs.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscretePmf:
    """Probability mass function over integer MW values.

    Atom k (0-based) carries probability ``probabilities[k]`` at the value
    ``origin_mw + k``.
    """

    origin_mw: int
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-D array")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = p.sum()  # NaN or inf if any probability is
        if not np.isfinite(total):
            raise ValueError("probabilities must be finite")
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {MASS_TOL}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "origin_mw", int(self.origin_mw))

    def __len__(self) -> int:
        return self.probabilities.size

    @property
    def values_mw(self) -> np.ndarray:
        """Integer MW value of each atom."""
        return self.origin_mw + np.arange(self.probabilities.size)

    @property
    def last_mw(self) -> int:
        return self.origin_mw + self.probabilities.size - 1

    def survivor(self, v) -> np.ndarray | float:
        """P(V > v), with atoms treated as point masses at their integer value."""
        v_arr = np.asarray(v, dtype=float)
        # suffix[k] = P(V > origin + k - 1) = sum of atoms k..end
        suffix = np.concatenate([np.cumsum(self.probabilities[::-1])[::-1], [0.0]])
        suffix = np.clip(suffix, 0.0, 1.0)  # cumsum round-off can overshoot 1
        idx = np.searchsorted(self.values_mw, v_arr, side="right")
        out = suffix[idx]
        return float(out) if np.isscalar(v) or v_arr.ndim == 0 else out


def pmf_from_samples(values) -> DiscretePmf:
    """Empirical pmf: each observation contributes mass 1/n to its floor-MW bin."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("cannot build a pmf from an empty sample")
    lo, hi = np.floor(vals.min()), np.floor(vals.max())
    off_grid = NumericalError(f"values from {lo:g} to {hi:g} MW do not fit on the 1 MW grid")
    if not -(2.0**63) <= lo <= hi < 2.0**63:  # a floor outside int64
        raise off_grid
    try:
        counts = np.bincount(np.floor(vals).astype(np.int64) - int(lo))
    except (ValueError, MemoryError):  # a span past int64, or more bins than numpy makes
        raise off_grid from None
    return DiscretePmf(int(lo), counts / vals.size)


def reflect(pmf: DiscretePmf) -> DiscretePmf:
    """Distribution of -V for V ~ pmf."""
    return DiscretePmf(-pmf.last_mw, pmf.probabilities[::-1])


def _trimmed(pmf: DiscretePmf) -> tuple[int, np.ndarray]:
    """The pmf's origin and probabilities with the zero padding at both ends cut."""
    nonzero = pmf.probabilities != 0.0
    lo, hi = int(np.argmax(nonzero)), nonzero.size - int(np.argmax(nonzero[::-1]))
    return pmf.origin_mw + lo, pmf.probabilities[lo:hi]


def _fast_length(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) at or above n >= 1: a real
    FFT length that pocketfft factors into radix-2, 3 and 5 passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# the longest sum taken directly: short supports have the largest entries
_DIRECT_SIZE = 64


def convolve_each(a: DiscretePmf, bs) -> Iterator[DiscretePmf]:
    """The distribution of A + B for each B in ``bs``, all independent of A.

    Zero padding is trimmed first so each result's support is the exact
    Minkowski sum of the inputs' supports. A sum of at most ``_DIRECT_SIZE``
    bins is taken directly (``numpy.convolve``): the FFT's round-off scales
    with the largest entry, which only short supports make large, and there
    it reaches two ulps of the direct sum. Every longer sum multiplies real
    FFTs (``numpy.fft``) padded to the 5-smooth length of its own size; A is
    transformed once per distinct length. The FFT's round-off can leave tiny
    negative entries, which are clipped before renormalizing.

    The calling thread advances ``bs`` and transforms A; each B's own work
    (its transform, the product, the inverse, the clip and the
    normalization) runs on a background thread (``_WORKERS``, ``_in_order``),
    all in numpy calls that release the interpreter lock, so it overlaps the
    caller's work on each result and on the next B. The results, and any
    error, come in the order of ``bs``, and their bits do not depend on the
    number of threads. At most workers + 1 results are in flight, so a
    caller need hold only the one it reads.
    """
    return _in_order(_sum_of, _sums(a, bs), _WORKERS)


def _sums(a: DiscretePmf, bs) -> Iterator[tuple]:
    """``_sum_of``'s arguments for A + B, for each B in ``bs``; A is
    transformed once per FFT length."""
    a_origin, a_probs = _trimmed(a)
    a_spectra = {}  # FFT length -> rfft of A
    for b in bs:
        b_origin, b_probs = _trimmed(b)
        size = a_probs.size + b_probs.size - 1
        if size <= _DIRECT_SIZE:
            yield a_origin + b_origin, a_probs, b_probs, size, 0
            continue
        n_fft = _fast_length(size)
        if n_fft not in a_spectra:
            a_spectra[n_fft] = np.fft.rfft(a_probs, n_fft)
        yield a_origin + b_origin, a_spectra[n_fft], b_probs, size, n_fft


def _sum_of(origin: int, a: np.ndarray, b_probs: np.ndarray, size: int, n_fft: int
            ) -> DiscretePmf:
    """The ``size`` bins of A + B from ``origin``: a is A's probabilities when
    n_fft is 0 (a direct sum), else A's rfft at length n_fft. It runs on
    ``convolve_each``'s worker threads, so it calls nothing public: a traced
    span would land on another thread's stack."""
    if not n_fft:
        return _normalized(origin, np.convolve(a, b_probs))
    # a named operand: numpy reuses a temporary right operand in place and
    # swaps the product's operands, which moves its last bits
    b_spectrum = np.fft.rfft(b_probs, n_fft)
    return _normalized(origin, np.clip(np.fft.irfft(a * b_spectrum, n_fft)[:size], 0.0, None))


# Threads that run convolve_each's sums while the calling thread builds each
# B and reads each result. One is the setting measured, on 2 CPUs: it took a
# 28-season SeasonSample._pairs from about 0.15 to 0.09 s for 6-7 MB more
# peak RSS, and a second worker there was slower and held about 7 MB more.
# More wait for a measurement on more CPUs. Tests set 2 to check that no
# output depends on the count.
_WORKERS = 1


class _Result:
    """One call's value or exception, set once by a worker thread."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value = self.error = None

    def run(self, fn, args):
        try:
            self.value = fn(*args)
        except Exception as exc:  # handed to the consumer in the call's place
            self.error = exc
        finally:
            self.done.set()

    def get(self):
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


def _in_order(fn, jobs, workers: int) -> Iterator:
    """fn(*job) for each job of ``jobs``, yielded in order, the calls run on
    ``workers`` threads that live as long as the generator.

    The calling thread advances ``jobs``, at most ``workers`` jobs ahead of
    the result it yields. An exception is raised in its job's place: one that
    a call raised when its result is due, one that advancing ``jobs`` raised
    after every result before it, as a serial loop would. When the generator
    ends, is closed or is abandoned to the collector, the threads finish the
    jobs handed to them and are waited for.
    """
    inbox = queue.SimpleQueue()  # (job, result) for the threads; None stops one

    def work():
        for job, result in iter(inbox.get, None):
            result.run(fn, job)

    threads = []
    pending = collections.deque()  # _Results in job order, not yet yielded
    jobs = iter(jobs)
    failure = None
    try:
        for _ in range(workers):
            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            threads.append(thread)
        while True:
            try:
                job = next(jobs)
            except StopIteration:
                break
            except Exception as exc:  # raised once the results before it are out
                failure = exc
                break
            pending.append(_Result())
            inbox.put((job, pending[-1]))
            if len(pending) > workers:
                yield pending.popleft().get()
        while pending:
            yield pending.popleft().get()
        if failure is not None:
            raise failure
    finally:
        for thread in threads:
            inbox.put(None)
        for thread in threads:
            thread.join()


def _normalized(origin: int, raw: np.ndarray) -> DiscretePmf:
    total = raw.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("convolution produced a degenerate mass function")
    return DiscretePmf(origin, raw / total)


def convolve(a: DiscretePmf, b: DiscretePmf) -> DiscretePmf:
    """Distribution of the sum of independent variables A + B, computed as
    ``convolve_each`` computes it, on the calling thread."""
    [job] = _sums(a, [b])
    return _sum_of(*job)
