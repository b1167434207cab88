"""Resource allocation knobs — the experiment x-axes of the paper.

One :class:`ResourceAllocation` captures everything the paper varies:

* ``logical_cores`` — cpuset size, allocated in the §4 order;
* ``llc_mb`` — total CAT allocation across both sockets (§5);
* ``max_dop`` — resource-governor MAXDOP cap (§4, §7);
* ``read_bw_limit`` / ``write_bw_limit`` — cgroup blkio caps in bytes/sec
  (§6);
* ``grant_percent`` — per-query memory grant percentage (§8).

Beyond the paper's axes, the overload-protection knobs
(``grant_timeout_s``, ``small_query_bypass_bytes``, ``max_queue_depth``,
``on_grant_timeout``) configure RESOURCE_SEMAPHORE grant queueing for
the §10 concurrency-surge extension.  All default off, which reproduces
the historical instant-admission behavior exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.calibration import DEFAULT_GRANT_PERCENT
from repro.engine.resource_governor import ON_TIMEOUT_DEGRADE, check_governor_fields
from repro.errors import ConfigurationError
from repro.hardware.cgroups import BlkioLimits, check_bandwidth_limit
from repro.hardware.machine import Machine


@dataclass(frozen=True)
class ResourceAllocation:
    """A complete resource configuration for one experiment run."""

    logical_cores: int = 32
    llc_mb: int = 40
    max_dop: Optional[int] = None   # None = follow the core count (§4)
    read_bw_limit: Optional[float] = None
    write_bw_limit: Optional[float] = None
    grant_percent: float = DEFAULT_GRANT_PERCENT
    grant_timeout_s: Optional[float] = None
    small_query_bypass_bytes: float = 0.0
    max_queue_depth: Optional[int] = None
    on_grant_timeout: str = ON_TIMEOUT_DEGRADE

    def __post_init__(self):
        # ``not <valid>`` rejects NaN, which fails every comparison.
        if not self.logical_cores >= 1:
            raise ConfigurationError(
                f"need at least one core: logical_cores={self.logical_cores!r}")
        if not self.llc_mb >= 2:
            raise ConfigurationError(
                f"CAT granularity is 2 MB total: llc_mb={self.llc_mb!r}")
        check_bandwidth_limit("read_bw_limit", self.read_bw_limit)
        check_bandwidth_limit("write_bw_limit", self.write_bw_limit)
        check_governor_fields(self)

    @property
    def effective_max_dop(self) -> int:
        """The §4 methodology caps MAXDOP at the allocated core count."""
        if self.max_dop is None:
            return self.logical_cores
        return min(self.max_dop, self.logical_cores)

    def apply_to(self, machine: Machine) -> None:
        """Configure a machine: cpuset, CAT, and blkio limits."""
        machine.allocate_cores(self.logical_cores)
        machine.allocate_llc_mb(self.llc_mb)
        machine.apply_blkio(
            BlkioLimits(read_bps=self.read_bw_limit, write_bps=self.write_bw_limit)
        )


#: The paper's core-count sweep points (Fig 2 x-axis).
CORE_SWEEP = (1, 2, 4, 8, 16, 32)

#: The paper's LLC sweep points in MB (Fig 2, 2 MB granularity).
LLC_SWEEP_MB = (2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 36, 40)

#: MAXDOP sweep (Fig 6; baseline is 32).
MAXDOP_SWEEP = (1, 2, 4, 8, 16, 32)

#: Grant percentage sweep (Fig 8; baseline is 25%).
GRANT_SWEEP_PERCENT = (25.0, 15.0, 5.0, 2.0)
