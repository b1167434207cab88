"""cgroup-style resource control front-ends.

The paper drives all resource knobs through Linux interfaces: cpuset for
core affinity (§4), systemd's BlockIO*Bandwidth (cgroup blkio) for storage
caps (§6), and pqos for CAT (§5).  This module provides the same surface:
experiments manipulate a :class:`CpuSet` and :class:`BlkioLimits`, which
then configure the underlying hardware models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.errors import AllocationError
from repro.hardware.topology import AllocationShape, CpuTopology


@dataclass
class CpuSet:
    """A cpuset cgroup: the set of logical CPUs a process tree may use."""

    topology: CpuTopology
    cpus: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.cpus:
            self.cpus = frozenset(c.cpu_id for c in self.topology.cpus)
        self._validate(self.cpus)

    def _validate(self, cpus: FrozenSet[int]) -> None:
        valid = {c.cpu_id for c in self.topology.cpus}
        unknown = set(cpus) - valid
        if unknown:
            raise AllocationError(f"unknown cpu ids in cpuset: {sorted(unknown)}")
        if not cpus:
            raise AllocationError("cpuset cannot be empty")

    def set_cpus(self, cpus: FrozenSet[int]) -> None:
        self._validate(frozenset(cpus))
        self.cpus = frozenset(cpus)

    def set_paper_allocation(self, num_cpus: int) -> None:
        """Apply the paper's §4 allocation order for *num_cpus* CPUs."""
        self.cpus = self.topology.paper_allocation(num_cpus)

    def shape(self) -> AllocationShape:
        return self.topology.describe_allocation(self.cpus)

    def __len__(self) -> int:
        return len(self.cpus)


def check_bandwidth_limit(name: str, limit: Optional[float]) -> None:
    """Reject a blkio cap that is neither ``None`` nor positive and
    finite, in a message ending ``: name=value``.  Written as ``not
    <valid>`` so that NaN, which fails every comparison, is rejected."""
    if limit is not None and not 0 < limit < math.inf:
        raise AllocationError(
            f"blkio cap must be positive and finite, or None: {name}={limit!r}")


@dataclass
class BlkioLimits:
    """Block IO bandwidth limits, in bytes/sec (``None`` = unlimited)."""

    read_bps: Optional[float] = None
    write_bps: Optional[float] = None

    def __post_init__(self):
        check_bandwidth_limit("read_bps", self.read_bps)
        check_bandwidth_limit("write_bps", self.write_bps)
