"""Workload abstractions and throughput metrics.

A :class:`Workload` knows how to build its database, describe its
execution characteristics (the calibrated MRC and CPI parameters), and
spawn closed-loop client processes against a configured
:class:`~repro.engine.engine.SqlEngine`.  The experiment harness in
:mod:`repro.core.experiment` owns machine construction and knob
application; workloads only produce load.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List

from repro.engine.catalog import Database
from repro.engine.engine import SqlEngine
from repro.engine.sqlos import ExecutionCharacteristics
from repro.sim.stats import Cdf


@dataclass
class ThroughputTracker:
    """Collects completions for throughput and latency reporting.

    ``counts`` is keyed by completion class, e.g. ``"txn"`` for OLTP
    transactions, ``"query"`` for analytical queries — HTAP uses both,
    matching the paper's separate TPS and QPH reporting for it (§2.3).
    """

    counts: Dict[str, int] = field(default_factory=dict)
    latencies: Dict[str, Cdf] = field(default_factory=dict)

    def record(self, kind: str, latency: float) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        cdf = self.latencies.get(kind)
        if cdf is None:
            cdf = self.latencies[kind] = Cdf()
        cdf.add(latency)

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def rate(self, kind: str, elapsed_seconds: float) -> float:
        """Completions per second of *kind* over the run."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.count(kind) / elapsed_seconds


class Workload(abc.ABC):
    """Base class for all benchmark workloads."""

    #: Completion class of the workload's primary metric ("txn" for TPS,
    #: "query" for QPS).
    primary_kind: str = "txn"

    def __init__(self, scale_factor: int):
        self.scale_factor = scale_factor
        self._database: Database = None  # built lazily

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short workload name ("tpch", "asdb", ...)."""

    @abc.abstractmethod
    def build_database(self) -> Database:
        """Construct the catalog for this workload at this scale factor."""

    @abc.abstractmethod
    def execution_characteristics(self) -> ExecutionCharacteristics:
        """Calibrated CPU/cache parameters for this workload and SF."""

    @abc.abstractmethod
    def spawn_clients(self, engine: SqlEngine, tracker: ThroughputTracker,
                      until: float) -> List:
        """Start the closed-loop client processes; return them."""

    # -- defaults -------------------------------------------------------------

    @property
    def database(self) -> Database:
        if self._database is None:
            self._database = self.build_database()
        return self._database

    def engine_parameters(self) -> Dict:
        """Extra keyword arguments for :class:`SqlEngine` construction
        (lock slot counts, reserved grants)."""
        return {}

    def primary_metric(self, tracker: ThroughputTracker, elapsed: float) -> float:
        """The workload's headline number: TPS or QPS."""
        return tracker.rate(self.primary_kind, elapsed)
