"""Statistics accumulators used by counters and measurements.

The paper reports averages over 1-second intervals (PCM/iostat style),
cumulative distributions of bandwidth samples (Fig 4), and tail latencies
(the ASDB 99th-percentile remark in §5).  These accumulators provide that
surface with O(1) or O(n log n) cost and no dependency on pandas.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Iterable, List, MutableSequence, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


class WelfordStat:
    """Streaming mean / variance / min / max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Record level changes with :meth:`update`; the mean weights each level by
    how long it was held.  Used for utilization-style metrics (active cores,
    queue depths, buffer-pool occupancy).
    """

    def __init__(self, initial: float = 0.0, start_time: float = 0.0):
        self._level = initial
        self._last_time = start_time
        self._area = 0.0
        self._duration = 0.0
        self.minimum = initial
        self.maximum = initial

    @property
    def level(self) -> float:
        return self._level

    def update(self, time: float, level: float) -> None:
        if time < self._last_time:
            raise SimulationError(f"time went backwards: {time} < {self._last_time}")
        dt = time - self._last_time
        self._area += self._level * dt
        self._duration += dt
        self._last_time = time
        self._level = level
        self.minimum = min(self.minimum, level)
        self.maximum = max(self.maximum, level)

    def mean(self, end_time: Optional[float] = None) -> float:
        area, duration = self._area, self._duration
        if end_time is not None:
            if end_time < self._last_time:
                raise SimulationError("end_time before last update")
            dt = end_time - self._last_time
            area += self._level * dt
            duration += dt
        return area / duration if duration > 0 else self._level


class Histogram:
    """Fixed-bin histogram with overflow tracking."""

    def __init__(self, bin_width: float, num_bins: int):
        if bin_width <= 0 or num_bins < 1:
            raise SimulationError("bad histogram shape")
        self.bin_width = bin_width
        self.counts = np.zeros(num_bins, dtype=np.int64)
        self.overflow = 0
        self.total = 0

    def add(self, value: float) -> None:
        index = int(value / self.bin_width)
        if 0 <= index < len(self.counts):
            self.counts[index] += 1
        else:
            self.overflow += 1
        self.total += 1

    def fraction_below(self, value: float) -> float:
        """Empirical CDF evaluated at *value* (bin-resolution)."""
        if self.total == 0:
            return 0.0
        full_bins = int(value / self.bin_width)
        below = int(self.counts[: max(0, min(full_bins, len(self.counts)))].sum())
        return below / self.total


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
