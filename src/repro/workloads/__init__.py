"""Workload models: TPC-H, TPC-E, ASDB, and the HTAP composite."""

from repro.workloads.arrivals import OpenLoopDriver
from repro.workloads.asdb import AsdbWorkload
from repro.workloads.base import ThroughputTracker, Workload
from repro.workloads.htap import HtapWorkload
from repro.workloads.tpce import TpceWorkload
from repro.workloads.tpch import TPCH_QUERIES, TpchWorkload, tpch_query

WORKLOADS = {
    "tpch": TpchWorkload,
    "tpce": TpceWorkload,
    "asdb": AsdbWorkload,
    "htap": HtapWorkload,
}


def make_workload(name: str, scale_factor: int, **kwargs) -> Workload:
    """Instantiate a workload by name."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    return cls(scale_factor=scale_factor, **kwargs)


__all__ = [
    "OpenLoopDriver",
    "AsdbWorkload",
    "HtapWorkload",
    "TpceWorkload",
    "TpchWorkload",
    "TPCH_QUERIES",
    "tpch_query",
    "ThroughputTracker",
    "Workload",
    "WORKLOADS",
    "make_workload",
]
