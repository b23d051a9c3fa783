"""Discrete probability mass functions on a 1 MW integer grid.

All distributions in the risk pipeline (available conventional capacity,
demand-net-of-wind, supply-demand balance) are represented as probability
mass on integer-MW atoms. Bin width is exactly 1 MW; a continuous value x
contributes to the bin floor(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal

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
        total = p.sum()
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

    def mean(self) -> float:
        return float(self.origin_mw + np.dot(np.arange(self.probabilities.size), self.probabilities))

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
    bins = np.floor(vals).astype(np.int64)
    origin = int(bins.min())
    counts = np.bincount(bins - origin)
    return DiscretePmf(origin, counts / vals.size)


def point_mass(value_mw: float) -> DiscretePmf:
    return DiscretePmf(int(np.floor(value_mw)), np.array([1.0]))


def reflect(pmf: DiscretePmf) -> DiscretePmf:
    """Distribution of -V for V ~ pmf."""
    return DiscretePmf(-pmf.last_mw, pmf.probabilities[::-1])


def _trimmed(pmf: DiscretePmf) -> tuple[int, np.ndarray]:
    nz = np.nonzero(pmf.probabilities)[0]
    return pmf.origin_mw + int(nz[0]), pmf.probabilities[nz[0] : nz[-1] + 1]


def convolve(a: DiscretePmf, b: DiscretePmf) -> DiscretePmf:
    """Distribution of the sum of independent variables A + B.

    Zero padding is trimmed first so the result's support is the exact
    Minkowski sum of the inputs' supports. Large convolutions go through the
    FFT; its round-off can leave tiny negative entries, which are clipped
    before renormalizing.
    """
    a_origin, a_probs = _trimmed(a)
    b_origin, b_probs = _trimmed(b)
    raw = signal.convolve(a_probs, b_probs, mode="full", method="auto")
    raw = np.clip(raw, 0.0, None)
    total = raw.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("convolution produced a degenerate mass function")
    return DiscretePmf(a_origin + b_origin, raw / total)


def rebin(pmf: DiscretePmf, lo: float, hi: float, max_outside_mass: float = 1e-12) -> DiscretePmf:
    """Re-window an integer-atom pmf onto bins covering [lo, hi).

    Raises NumericalError if more than ``max_outside_mass`` falls outside.
    """
    origin = int(np.floor(lo))
    n_bins = int(np.ceil(hi)) - origin
    if n_bins <= 0:
        raise ValueError("lo must be below hi")
    out = np.zeros(n_bins)
    k = pmf.origin_mw - origin
    src = pmf.probabilities
    lo_clip = max(0, -k)
    hi_clip = min(src.size, n_bins - k)
    if hi_clip > lo_clip:
        out[k + lo_clip : k + hi_clip] = src[lo_clip:hi_clip]
    outside = 1.0 - out.sum()
    if outside > max_outside_mass:
        raise NumericalError(
            f"support [{lo}, {hi}) drops {outside:.3e} probability mass "
            f"(limit {max_outside_mass:.1e})"
        )
    return DiscretePmf(origin, out / out.sum())
