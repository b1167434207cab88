"""Miss-ratio curves from working-set mixtures.

A workload's LLC behaviour is modelled as a mixture of *working-set
components*, each with a footprint (bytes) and an access intensity
(accesses per kilo-instruction).  Under LRU-like replacement, hotter
components occupy the cache first; a component whose footprint fits in the
remaining allocation hits almost always, one that does not fit hits on the
resident fraction, and streaming components (footprint >> any cache) never
hit.

The resulting MPKI-versus-allocation curve is piecewise, with *knees* at
the cumulative component sizes — matching the paper's §5 observation that
miss-rate curves for database workloads show knees at small cache sizes
(cf. SPLASH-2 [29] and the sufficient-LLC sizes of Table 4).

Performance notes: these curves sit on the per-query, per-sample-tick hot
path, so everything derivable at construction time is precomputed —
component densities, the LRU fill order, the flattened component tuples,
knees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class WorkingSetComponent:
    """One locality class of a workload's memory reference stream.

    Attributes:
        name: label for diagnostics ("btree-upper", "hash-buckets", ...).
        footprint_bytes: total bytes the component touches repeatedly.
            ``float('inf')`` marks a streaming component that can never be
            fully cached.
        accesses_per_ki: LLC accesses per kilo-instruction belonging to
            this component.
        reuse_efficiency: fraction of accesses that hit when the component
            is fully resident (captures conflict/coherence misses); 1.0
            means a perfectly cacheable component.
    """

    name: str
    footprint_bytes: float
    accesses_per_ki: float
    reuse_efficiency: float = 1.0

    def __post_init__(self):
        if self.footprint_bytes <= 0:
            raise ConfigurationError(f"{self.name}: footprint must be positive")
        if self.accesses_per_ki < 0:
            raise ConfigurationError(f"{self.name}: negative access intensity")
        if not 0.0 <= self.reuse_efficiency <= 1.0:
            raise ConfigurationError(f"{self.name}: reuse efficiency in [0,1]")
        # Memoized: the density is consulted once per component per curve
        # *sort comparison*, which used to recompute the division on a
        # per-query-per-tick path.  Not a dataclass field, so equality,
        # hashing, and pickling are unaffected.
        if self.footprint_bytes == float("inf"):
            density = 0.0
        else:
            density = self.accesses_per_ki / self.footprint_bytes
        object.__setattr__(self, "_density", density)

    def access_density(self) -> float:
        """Accesses per byte — the priority under LRU-like replacement."""
        return self._density

    def __getstate__(self):
        return {
            "name": self.name,
            "footprint_bytes": self.footprint_bytes,
            "accesses_per_ki": self.accesses_per_ki,
            "reuse_efficiency": self.reuse_efficiency,
        }

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)
        self.__post_init__()


class MissRatioCurve:
    """MPKI as a function of allocated cache bytes for one workload."""

    def __init__(self, components: Sequence[WorkingSetComponent]):
        if not components:
            raise ConfigurationError("need at least one working-set component")
        # LRU-like: denser components win cache space first.  The sort key
        # is the memoized density, hoisted out of the comparison loop.
        self._components: List[WorkingSetComponent] = sorted(
            components, key=WorkingSetComponent.access_density, reverse=True
        )
        # Per-component columns in fill order; mpki() walks the tuples
        # (attribute access hoisted).
        self._flat = tuple(
            (c.footprint_bytes, c.accesses_per_ki, c.reuse_efficiency)
            for c in self._components
        )
        self._total_accesses = float(
            sum(c.accesses_per_ki for c in self._components)
        )
        # Cumulative footprints of the finite (cacheable) components,
        # summed left to right.
        self._knees: Tuple[float, ...] = tuple(accumulate(
            float(c.footprint_bytes) for c in self._components
            if c.footprint_bytes != float("inf")
        ))

    @property
    def components(self) -> List[WorkingSetComponent]:
        return list(self._components)

    def total_accesses_per_ki(self) -> float:
        return self._total_accesses

    def mpki(self, allocated_bytes: float, footprint_scale: float = 1.0) -> float:
        """Misses per kilo-instruction with *allocated_bytes* of LLC.

        ``footprint_scale`` inflates every footprint; the executor uses it
        to model more concurrent threads enlarging the aggregate working
        set (e.g. hyper-threading doubling resident thread state).
        """
        if allocated_bytes < 0:
            raise ConfigurationError("negative allocation")
        if footprint_scale <= 0:
            raise ConfigurationError("footprint scale must be positive")
        remaining = float(allocated_bytes)
        misses = 0.0
        inf = float("inf")
        for footprint_bytes, accesses, reuse in self._flat:
            footprint = footprint_bytes * footprint_scale
            if footprint == inf:
                # Streaming: every access misses.
                misses += accesses
                continue
            resident = min(1.0, remaining / footprint) if footprint > 0 else 1.0
            misses += accesses * (1.0 - resident * reuse)
            remaining = max(0.0, remaining - footprint)
        return misses

    def hit_ratio(self, allocated_bytes: float, footprint_scale: float = 1.0) -> float:
        total = self.total_accesses_per_ki()
        if total == 0:
            return 1.0
        return 1.0 - self.mpki(allocated_bytes, footprint_scale) / total

    def knee_bytes(self) -> Tuple[float, ...]:
        """Allocation sizes where the curve's slope changes (the knees).

        Precomputed at construction; returns the cached tuple (callers on
        the sampling hot path may hold on to it safely — it is immutable).
        """
        return self._knees
