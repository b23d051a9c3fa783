"""Discrete probability mass functions on a 1 MW integer grid.

All distributions in the risk pipeline (available conventional capacity,
demand-net-of-wind, supply-demand balance) are represented as probability
mass on integer-MW atoms. Bin width is exactly 1 MW; a continuous value x
contributes to the bin floor(x).
"""

from __future__ import annotations

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
        """P(V > v), atoms being point masses at their integer value; a NaN v raises ValueError."""
        v_arr = np.asarray(v, dtype=float)
        if np.isnan(v_arr).any():
            raise ValueError("a NaN value has no survivor probability")
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
    (its transform, the product, the inverse, the clip and the normalization)
    runs on one background thread (``_in_order``) in numpy calls that release
    the interpreter lock, so it overlaps the caller's work on each result and
    on the next B. The results, and any error, come in the order of ``bs``,
    bit for bit those of ``convolve``; at most two are in flight, so a caller
    need hold only the one it reads.
    """
    return _in_order(_sum_of, _sums(a, bs))


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
    ``convolve_each``'s background thread, so it calls nothing public: a
    traced span would land on another thread's stack."""
    if not n_fft:
        return _normalized(origin, np.convolve(a, b_probs))
    # a named operand: numpy reuses a temporary right operand in place and
    # swaps the product's operands, which moves its last bits
    b_spectrum = np.fft.rfft(b_probs, n_fft)
    return _normalized(origin, np.clip(np.fft.irfft(a * b_spectrum, n_fft)[:size], 0.0, None))


def _in_order(fn, jobs: Iterator) -> Iterator:
    """fn(*job) for each job of the iterator ``jobs``, yielded in order, the
    calls run on one thread that lives as long as the generator.

    The calling thread advances ``jobs``, at most one job ahead of the result
    it yields. An exception is raised in its job's place: one that a call
    raised when its result is due, one that advancing ``jobs`` raised after
    every result before it, as a serial loop would. When the generator ends,
    is closed or is abandoned to the collector, the thread finishes the jobs
    handed to it and is waited for.
    """
    inbox, outbox = queue.SimpleQueue(), queue.SimpleQueue()  # jobs, None to stop; (value, error)

    def work():
        for job in iter(inbox.get, None):
            try:
                outbox.put((fn(*job), None))
            except BaseException as exc:  # raised by the consumer in the call's place
                outbox.put((None, exc))

    def result():
        value, error = outbox.get()
        if error is not None:
            raise error
        return value

    thread = threading.Thread(target=work, daemon=True)
    due = False  # a job handed to the thread whose result is not yet yielded
    failure = None
    try:
        thread.start()
        while True:
            try:
                job = next(jobs)
            except StopIteration:
                break
            except Exception as exc:  # raised once the results before it are out
                failure = exc
                break
            inbox.put(job)
            if due:  # read the job before's result while the thread runs this one
                yield result()
            due = True
        if due:
            yield result()
        if failure is not None:
            raise failure
    finally:
        if thread.is_alive():  # started, and not yet stopped
            inbox.put(None)
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
