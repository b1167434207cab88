"""The empirical CDF behind counters and measurements.

The paper reports cumulative distributions of per-second bandwidth
samples (Fig 4) and tail latencies (the ASDB 99th-percentile remark in
§5).  :class:`Cdf` provides both with O(n log n) cost and no dependency
on pandas.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import List, MutableSequence, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


class Cdf:
    """Exact empirical CDF over collected samples (Fig 4 series).

    Pickles as one float64 blob of the sorted samples.  Loading wraps
    the blob in an ``array("d")`` (one copy, no per-sample float
    objects), so a measurement read back from the result cache pays for
    its samples only in bytes; every query below reads the array as it
    would the list.
    """

    def __init__(self, samples: Optional[Sequence[float]] = None):
        # A list while samples are collected, an array("d") once loaded.
        self._samples: MutableSequence[float] = sorted(samples) if samples else []
        self._dirty = False

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._dirty = True

    def _ensure_sorted(self) -> None:
        if self._dirty:
            if type(self._samples) is not list:
                # array("d") has no sort(); only a loaded Cdf that was
                # then added to gets here.
                self._samples = self._samples.tolist()
            self._samples.sort()
            self._dirty = False

    def __getstate__(self) -> dict:
        # Pickle the canonical (sorted) form: measurements that cross
        # process-pool or result-cache boundaries serialize identically
        # no matter what order samples arrived in.  A loaded Cdf writes
        # the bytes it was loaded from.
        self._ensure_sorted()
        samples = self._samples
        if type(samples) is list:
            samples = array("d", samples)
        return {"blob": samples.tobytes()}

    def __setstate__(self, state: dict) -> None:
        self._samples = array("d", state["blob"])
        self._dirty = False

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """Value at percentile *p* in [0, 100] (linear interpolation)."""
        if not self._samples:
            raise SimulationError("empty CDF")
        if not 0 <= p <= 100:
            raise SimulationError(f"percentile out of range: {p}")
        self._ensure_sorted()
        return float(np.percentile(self._samples, p))

    def percentile_ms(self, p: float) -> float:
        """:meth:`percentile` of latency samples in seconds, as ms.

        NaN when no sample was recorded (a fully-shed tenant, a failed
        point): a tail report must show the gap, not fail on it.
        """
        if not self._samples:
            return math.nan
        return self.percentile(p) * 1000.0

    def fraction_below(self, value: float) -> float:
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        return bisect.bisect_right(self._samples, value) / len(self._samples)

    def mean(self) -> float:
        return float(np.mean(self._samples)) if self._samples else 0.0

    def series(self, num_points: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs suitable for plotting Fig 4."""
        if not self._samples:
            return []
        self._ensure_sorted()
        n = len(self._samples)
        points = []
        for i in range(num_points):
            idx = min(n - 1, int(round(i * (n - 1) / max(1, num_points - 1))))
            points.append((self._samples[idx], (idx + 1) / n))
        return points
