"""PCM / iostat style performance counter sampling.

The paper collects DRAM read/write bandwidth, LLC misses, and instructions
retired with the Processor Counter Monitor, and SSD bandwidth with iostat,
all "average values taken over 1-second intervals" (§3).  This module
samples cumulative totals exposed by a :class:`CounterSource` once per
simulated second and keeps the interval-rate series, from which means
(Figs 2, 3) and CDFs (Fig 4) are derived.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Protocol

import numpy as np

from repro.sim.process import Simulator, Timeout
from repro.sim.stats import Cdf


class CounterSource(Protocol):
    """Anything that exposes monotonically non-decreasing totals."""

    def counter_totals(self) -> Dict[str, float]:
        """Current cumulative totals keyed by counter name.

        Must return a *fresh* dict per call (every implementation in this
        repo builds one): the sampler keeps the returned mapping as its
        previous-tick snapshot instead of copying it every interval.
        """
        ...  # pragma: no cover


#: Canonical counter names (values are cumulative totals).
INSTRUCTIONS = "instructions_retired"
LLC_MISSES = "llc_misses"
DRAM_READ_BYTES = "dram_read_bytes"
DRAM_WRITE_BYTES = "dram_write_bytes"
SSD_READ_BYTES = "ssd_read_bytes"
SSD_WRITE_BYTES = "ssd_write_bytes"

ALL_COUNTERS = (
    INSTRUCTIONS,
    LLC_MISSES,
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)


@dataclass
class CounterSeries:
    """Per-interval rates for every counter, plus derived metrics."""

    interval: float = 1.0
    rates: Dict[str, List[float]] = field(default_factory=dict)

    def append(self, name: str, rate: float) -> None:
        self.rates.setdefault(name, []).append(rate)

    def series(self, name: str) -> List[float]:
        return list(self.rates.get(name, []))

    def _array(self, name: str):
        """Memoized float64 view of one rate series.

        A one-hour simulated run rolls up thousands of intervals per
        counter, and report generation queries the same means and MPKIs
        per measurement many times over.  The list-to-array conversion is
        paid once per series length (appends only grow the lists, so the
        length keys the cache); the cache is deliberately kept out of
        ``__getstate__`` so pickled measurements carry only the rates.
        """
        values = self.rates.get(name)
        if not values:
            return None
        cache = self.__dict__.setdefault("_np_cache", {})
        arr = cache.get(name)
        if arr is None or len(arr) != len(values):
            arr = np.asarray(values, dtype=np.float64)
            cache[name] = arr
        return arr

    def __getstate__(self):
        # Each series pickles as one float64 blob, as Cdf samples do, so
        # loading a cached measurement does not unpickle rates one float
        # at a time; they load back into the lists ``rates`` promises.
        return {
            "interval": self.interval,
            "rates": {name: array("d", values).tobytes()
                      for name, values in self.rates.items()},
        }

    def __setstate__(self, state):
        self.interval = state["interval"]
        self.rates = {name: array("d", blob).tolist()
                      for name, blob in state["rates"].items()}

    def mean(self, name: str) -> float:
        """Run-average rate (array reduction over the memoized series)."""
        arr = self._array(name)
        if arr is None:
            return 0.0
        return float(arr.sum()) / len(arr)

    def cdf(self, name: str) -> Cdf:
        return Cdf(self.rates.get(name, []))

    def percentile(self, name: str, p: float) -> float:
        """Rate percentile over the run's intervals (0-100 scale).

        ``percentile(name, 99.9)`` is the p999 rollup: the Fig 4 CDF
        story extended into the far tail, where transient bandwidth
        spikes live.  0.0 when the counter has no samples.  Not
        :meth:`Cdf.percentile <repro.sim.stats.Cdf.percentile>`: it reads
        the memoized rate array without building a sorted sample list,
        and a silent counter reads as zero bandwidth, not as a gap.
        """
        arr = self._array(name)
        if arr is None:
            return 0.0
        return float(np.percentile(arr, p))

    def p999(self, name: str) -> float:
        """The 99.9th-percentile interval rate (tail-of-tail rollup)."""
        return self.percentile(name, 99.9)

    def mean_mpki(self) -> float:
        """Misses per kilo-instruction over the whole run."""
        instructions_arr = self._array(INSTRUCTIONS)
        misses_arr = self._array(LLC_MISSES)
        instructions = float(instructions_arr.sum()) if instructions_arr is not None else 0.0
        misses = float(misses_arr.sum()) if misses_arr is not None else 0.0
        if instructions <= 0:
            return 0.0
        return 1000.0 * misses / instructions


class CounterSampler:
    """A simulation process sampling a :class:`CounterSource` every second."""

    def __init__(self, sim: Simulator, source: CounterSource, interval: float = 1.0):
        self._sim = sim
        self._source = source
        self.series = CounterSeries(interval=interval)
        self._last_totals = dict(source.counter_totals())
        self._process = sim.spawn(self._run(), name="counter-sampler")

    def _run(self) -> Generator:
        # This fires once per simulated second for the whole run, so the
        # loop body is kept lean: the per-counter lists are appended to
        # directly, and the fresh totals dict (see CounterSource) becomes
        # the next snapshot without an intermediate copy.
        interval = self.series.interval
        rates = self.series.rates
        last = self._last_totals
        while True:
            yield Timeout(interval)
            totals = self._source.counter_totals()
            for name, value in totals.items():
                bucket = rates.get(name)
                if bucket is None:
                    bucket = rates.setdefault(name, [])
                bucket.append((value - last.get(name, 0.0)) / interval)
            last = self._last_totals = totals

    def stop(self) -> None:
        self._process.interrupt()
