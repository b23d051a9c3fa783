"""Two-state generating units and the distribution of available conventional capacity.

Each unit delivers its full capacity with its availability probability and
zero otherwise, independently of all other units; the fleet distribution is
the exact discrete convolution of the per-unit two-state distributions on the
1 MW grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .ingest import _csv_rows
from .pmf import DiscretePmf

# probabilities below this are trimmed during convolution; cumulative trimmed
# mass is tracked and must stay below _TRIM_BUDGET
TRIM_THRESHOLD = 1e-15
_TRIM_BUDGET = 1e-10


@dataclass(frozen=True)
class GeneratingUnit:
    name: str
    capacity_mw: int
    availability: float

    def __post_init__(self):
        if not isinstance(self.capacity_mw, (int, np.integer)) or self.capacity_mw < 1:
            raise ValueError(f"unit {self.name!r}: capacity must be a positive integer MW")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"unit {self.name!r}: availability must lie in (0, 1]")


def convolve_fleet(units, trim_threshold: float = TRIM_THRESHOLD) -> DiscretePmf:
    """Distribution of total available capacity over independent two-state units.

    Each unit updates only the live window [lo, top]: the bins below lo and
    above top hold zero, and a unit moves zeros only onto zeros. After a trim
    both ends move in to the first and last bins still above zero. Zeros stay
    zeros and the trim sees the same values, so the pmf is the same, bit for
    bit, as updating every bin for every unit.
    """
    units = list(units)
    if not units:
        raise ValueError("empty fleet")
    total = sum(u.capacity_mw for u in units)
    try:
        p = np.zeros(total + 1)
    except (ValueError, MemoryError):  # past numpy's largest array, or more than memory holds
        raise DataError(f"the fleet's total capacity of {total} MW is too large for its "
                        f"1 MW grid") from None
    p[0] = 1.0
    lo = top = 0
    trimmed = 0.0
    for unit in units:
        cap, a = unit.capacity_mw, unit.availability
        shifted = p[lo : top + 1] * a
        p[lo : top + 1] *= 1.0 - a
        p[lo + cap : top + cap + 1] += shifted
        top += cap
        if trim_threshold > 0.0:
            live = p[lo : top + 1]
            small = (live > 0.0) & (live < trim_threshold)
            if small.any():
                trimmed += live[small].sum()
                live[small] = 0.0
                kept = live > 0.0
                first = int(kept.argmax())  # 0 when nothing is kept
                if not kept[first]:
                    raise NumericalError(
                        f"trimming at {trim_threshold:g} removed all probability mass from the "
                        f"fleet convolution ({trimmed:.3e} in all); use a smaller trim threshold")
                lo, top = lo + first, top - int(kept[::-1].argmax())
    if trimmed > _TRIM_BUDGET:
        warnings.warn(
            f"trimmed {trimmed:.3e} probability mass during fleet convolution; "
            "consider a smaller trim threshold"
        )
    return DiscretePmf(0, p / p.sum())


def fleet_summary(units) -> dict:
    units = list(units)
    return {
        "n_units": len(units),
        "total_capacity_mw": sum(u.capacity_mw for u in units),
        "mean_available_mw": sum(u.capacity_mw * u.availability for u in units),
    }


def load_fleet(path) -> list[GeneratingUnit]:
    """Read and validate a fleet CSV with columns name, capacity_mw, availability."""
    units = []
    for line, row in _csv_rows(path, ("name", "capacity_mw", "availability"), "fleet"):
        name = (row["name"] or "").strip()
        if not name:
            raise DataError(f"line {line}: unit without a name")
        try:
            cap = float(row["capacity_mw"])
        except (TypeError, ValueError):
            raise DataError(f"unit {name!r} (line {line}): bad capacity") from None
        # the 1 MW grid is the contract: silent rounding would move LoLE
        if not cap.is_integer() or cap <= 0:
            raise DataError(
                f"unit {name!r} (line {line}): capacity must be a positive integer MW, "
                f"got {row['capacity_mw']!r}"
            )
        try:
            avail = float(row["availability"])
        except (TypeError, ValueError):
            raise DataError(f"unit {name!r} (line {line}): bad availability") from None
        if not 0.0 < avail <= 1.0:
            raise DataError(
                f"unit {name!r} (line {line}): availability {avail} outside (0, 1]"
            )
        units.append(GeneratingUnit(name, int(cap), avail))
    if not units:
        raise DataError(f"{path}: no units")
    return units
