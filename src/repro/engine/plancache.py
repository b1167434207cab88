"""LRU plan cache: memoized optimizer output for repeated queries.

Profiling a TPC-H experiment shows the optimizer dominating per-run CPU
time: every closed-loop stream re-plans the same 22 templates on every
pass, and the harness re-plans them all once more when collecting plan
signatures (§9 pitfall #6).  Within one engine instance the planning
inputs — the database, the buffer-pool residency model, the cost model,
and the governor's grant percentage — are fixed at construction, so an
:class:`~repro.engine.optimizer.optimizer.OptimizedQuery` is a pure
function of ``(spec, effective DOP)``.  Caching on that key is therefore
exact, not heuristic: a hit returns the very object a fresh optimization
would rebuild.

Plans must *not* be shared across engine instances (different
allocations change residency and DOP), which is why the cache lives on
the engine rather than at module level.  An engine runs one backend
personality with one cost model, so a cache never mixes two backends'
plans.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

#: Default capacity: comfortably above the 22 TPC-H templates times the
#: handful of DOP hints a single run can produce.
DEFAULT_PLAN_CACHE_SIZE = 256


class PlanCache:
    """A bounded least-recently-used mapping with hit/miss accounting."""

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE):
        if maxsize < 0:
            raise ValueError("plan cache size cannot be negative")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for *key*, refreshing its recency; None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        if not self.enabled:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def info(self) -> Dict[str, int]:
        """Cache statistics in ``functools.lru_cache``-style shape."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "currsize": len(self._entries),
            "maxsize": self.maxsize,
        }
