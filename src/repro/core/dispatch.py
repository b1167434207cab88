"""Chunked task dispatch for the sweep runner.

One future per point means one executor round-trip per point; dozens of
sub-second points serialize on the dispatch path.  A :class:`ChunkTask`
batches consecutive points into one future and returns per-point
outcomes, so the supervisor keeps per-point journal records and retry
policy while paying one round-trip per *chunk*.  :func:`auto_chunk` sizes the chunks from the sweep's length
and job count.

A chunk ships its configs whole.  Points of one sweep share most of
their sub-objects (machine spec, workload kwargs, faults), and pickle's
memo writes each shared object once per chunk.  Shipping per-point
field deltas instead would shrink a chunk by about a fifth but double
the time to build and pickle it.

The worker entry points live here (module level, picklable) so both the
runner and the warm pool's initializer can import them without cycles.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.measurement import Measurement
from repro.errors import SimulatedWorkerCrash
from repro.faults.spec import WorkerCrash, WorkerStall, harness_faults

#: Outcome tags inside a chunk result.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"

#: Dispatch-tuning defaults: a sweep is split into roughly
#: ``jobs * DISPATCH_SLICES`` chunks (so stragglers still interleave),
#: each at most ``CHUNK_MAX`` points (so one chunk never monopolizes a
#: worker for the whole sweep).
DISPATCH_SLICES = 4
CHUNK_MAX = 32


def run_one(config: ExperimentConfig) -> Measurement:
    """Execute one config.  Module-level so process pools can pickle it."""
    return Experiment(config).run()


def run_attempt(config: ExperimentConfig, attempt: int, in_pool: bool) -> Measurement:
    """Apply harness faults for this attempt, then run the experiment.

    ``attempt`` is the global attempt number (journal-seeded, so it
    survives resume); ``in_pool`` selects between a hard ``os._exit``
    (real worker death, observed by the supervisor as
    ``BrokenProcessPool``) and the in-process stand-in
    :class:`~repro.errors.SimulatedWorkerCrash`.
    """
    for fault in harness_faults(config.faults):
        if isinstance(fault, WorkerCrash) and fault.fires_on(attempt):
            if in_pool:
                os._exit(fault.exit_code)
            raise SimulatedWorkerCrash(
                f"worker crash fault fired on attempt {attempt}"
            )
        if isinstance(fault, WorkerStall) and fault.fires_on(attempt):
            time.sleep(fault.seconds)
    return run_one(config)


@dataclass(frozen=True)
class ChunkTask:
    """One executor round-trip: per-point work items.

    ``entries`` holds ``(config, attempt)`` pairs in dispatch order;
    ``in_pool`` tells the fault interpreter whether a crash fault should
    hard-exit the process (pool workers) or raise the in-process
    stand-in.
    """

    entries: Tuple[Tuple[ExperimentConfig, int], ...]
    in_pool: bool = True

    def __len__(self) -> int:
        return len(self.entries)


def make_chunk(
    configs: Sequence[ExperimentConfig],
    attempts: Sequence[int],
    in_pool: bool = True,
) -> ChunkTask:
    """Pair a batch of configs with their attempt numbers."""
    if not configs:
        raise ValueError("empty chunk")
    return ChunkTask(entries=tuple(zip(configs, attempts)), in_pool=in_pool)


def run_chunk(task: ChunkTask) -> List[Tuple[str, Any]]:
    """Worker entry point: run every point of a chunk sequentially.

    Returns one ``(tag, payload)`` outcome per entry, in order:
    ``("ok", Measurement)`` or ``("error", exception)``.  A point's
    failure never poisons its chunk-mates — each is attempted
    regardless — while a *crash* fault still kills the whole worker
    (that is the point of a crash).
    """
    outcomes: List[Tuple[str, Any]] = []
    for config, attempt in task.entries:
        try:
            outcomes.append((OUTCOME_OK, run_attempt(config, attempt, task.in_pool)))
        except Exception as exc:  # noqa: BLE001 - reported per point
            outcomes.append((OUTCOME_ERROR, exc))
    return outcomes


def auto_chunk(points: int, jobs: int) -> int:
    """Points per chunk: ``points`` split into ``jobs * 4`` slices.

    Mirrors :func:`multiprocessing.pool.Pool.map`'s heuristic — big
    enough to amortize a round-trip over several cheap points, small
    enough that slow points still interleave across workers — capped at
    :data:`CHUNK_MAX`.
    """
    if points <= 0 or jobs <= 0:
        return 1
    return max(1, min(CHUNK_MAX, math.ceil(points / (jobs * DISPATCH_SLICES))))
