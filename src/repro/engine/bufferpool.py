"""Buffer pool model: residency, hit probabilities, and page IO volumes.

The model is analytic rather than page-by-page: what the experiments need
is (a) whether a database fits in memory — the axis Table 2 shades — and
(b) the *rate* of SSD reads implied by misses, which feeds the storage
bandwidth sensitivity analyses (§6).

Residency policy mirrors an LRU-ish pool: each table's *hot set* (its
``hot_fraction``) is kept resident first, in order of access temperature;
whatever capacity remains holds a fraction of the cold data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.calibration import ENGINE_MEMORY_FRACTION
from repro.engine.catalog import Database, Table
from repro.errors import ConfigurationError


@dataclass
class BufferPool:
    """Analytic buffer pool bound to one database.

    Attributes:
        database: the database served by this pool.
        server_memory_bytes: physical memory of the machine.
        reserved_grant_bytes: memory currently promised to query grants
            (shrinks the pool, coupling §8's memory-grant knob to IO).
        hot_access_fraction: fraction of point accesses that touch hot
            sets (OLTP skew).
    """

    database: Database
    server_memory_bytes: float
    reserved_grant_bytes: float = 0.0
    hot_access_fraction: float = 0.85
    _derived_key: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _derived: Tuple[float, float, float] = field(
        default=(1.0, 1.0, 1.0), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.server_memory_bytes <= 0:
            raise ConfigurationError("server memory must be positive")
        if self.reserved_grant_bytes < 0:
            raise ConfigurationError("reserved grants cannot be negative")

    @property
    def capacity_bytes(self) -> float:
        """Pool capacity: the engine's share of memory minus query grants."""
        engine = self.server_memory_bytes * ENGINE_MEMORY_FRACTION
        return max(0.0, engine - self.reserved_grant_bytes)

    # -- residency ---------------------------------------------------------------

    def _residency(self) -> Tuple[float, float, float]:
        """Memoized ``(resident, cold_resident, point_hit)`` triple.

        All three depend only on pool capacity and the catalog's size
        sums, yet they were re-derived per point access and per scan —
        about a third of an OLTP run's serial cost went to re-summing
        static table sizes here.  The memo re-keys on the capacity inputs
        and the database's ``sizes_version``, so grant-driven capacity
        changes and schema growth both invalidate it.
        """
        key = (self.server_memory_bytes, self.reserved_grant_bytes,
               self.hot_access_fraction, self.database.sizes_version)
        if key != self._derived_key:
            capacity = self.capacity_bytes
            total = self.database.total_bytes
            hot = sum(
                (t.data_bytes + t.index_bytes) * t.hot_fraction
                for t in self.database.tables.values()
            )
            resident = min(1.0, capacity / total) if total > 0 else 1.0
            cold = total - hot
            if cold <= 0:
                cold_resident = 1.0
            else:
                spare = capacity - hot
                cold_resident = (
                    min(1.0, spare / cold) if spare > 0 else 0.0
                )
            hot_resident = min(1.0, capacity / hot) if hot > 0 else 1.0
            point_hit = min(
                self.MAX_POINT_HIT,
                self.hot_access_fraction * hot_resident
                + (1.0 - self.hot_access_fraction) * cold_resident,
            )
            self._derived = (resident, cold_resident, point_hit)
            self._derived_key = key
        return self._derived

    def resident_fraction(self) -> float:
        """Overall fraction of the database resident in the pool."""
        return self._residency()[0]

    # -- access-path hit probabilities -------------------------------------------

    #: Even a fully-resident database misses occasionally (first touches,
    #: page splits, checkpoint-evicted pages) — this keeps the baseline
    #: PAGEIOLATCH wait small but nonzero, as in the paper's Table 3.
    MAX_POINT_HIT = 0.997

    def point_hit_probability(self, table: Table) -> float:
        """Hit probability for a skewed point access (OLTP row lookup)."""
        return self._residency()[2]

    def scan_hit_fraction(self, table: Table) -> float:
        """Fraction of a sequential scan served from memory.

        Scans of a table larger than the pool evict themselves; the model
        charges the non-resident fraction as SSD reads.
        """
        size = table.data_bytes
        if size <= 0:
            return 1.0
        return min(1.0, self.resident_fraction())

    # -- IO volume ------------------------------------------------------------------

    def scan_read_bytes(self, table: Table, scanned_fraction: float = 1.0) -> float:
        """SSD bytes read for scanning *scanned_fraction* of a table."""
        if not 0.0 <= scanned_fraction <= 1.0:
            raise ConfigurationError("scanned_fraction must be in [0, 1]")
        return table.data_bytes * scanned_fraction * (1.0 - self.scan_hit_fraction(table))
