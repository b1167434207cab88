"""Property test: parallel chunked dispatch is bit-identical to serial.

Warm pools and chunking are *dispatch* changes only.  For every backend
personality, a supervised sweep with faults firing and crash retries on
must produce byte-for-byte the same pickled measurements at ``jobs=4`` (chunked, warm
pool, real worker crashes) as at ``jobs=1`` (the historical in-process
path with simulated crashes).
"""

import hashlib
import pickle

import pytest

from repro.core.dispatch import auto_chunk
from repro.core.experiment import ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.runner import SupervisionPolicy, run_supervised
from repro.faults.spec import WorkerCrash

BACKENDS = ("rowstore-oltp", "columnstore-dss", "elastic-serverless")


def grid(backend):
    """Nine points: five core steps, a crasher, three reseeded points.

    Nine points at jobs=2 dispatch in chunks of two, so points share a
    worker round-trip on both sides of the solo crasher.
    """
    base = dict(workload="asdb", scale_factor=2000, duration=0.3,
                backend=backend)
    return [
        *(ExperimentConfig(allocation=ResourceAllocation(logical_cores=c),
                           **base)
          for c in (2, 4, 8, 16, 32)),
        ExperimentConfig(faults=(WorkerCrash(attempts=1),), **base),
        *(ExperimentConfig(seed=s, **base) for s in (5, 6, 7)),
    ]


def policy():
    """Retries on; the ``fast_retries`` fixture keeps the backoff tiny."""
    return SupervisionPolicy(retries=2)


def fingerprints(report):
    assert report.ok, f"sweep failed: {report.failures}"
    return [
        hashlib.sha256(pickle.dumps(m)).hexdigest()
        for m in report.measurements
    ]


@pytest.mark.usefixtures("fast_retries")
@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_chunked_matches_serial_bit_for_bit(backend):
    configs = grid(backend)
    serial = fingerprints(run_supervised(configs, jobs=1, policy=policy()))
    parallel = fingerprints(
        run_supervised(configs, jobs=4, policy=policy())
    )
    assert parallel == serial

    # And again at jobs=2, where multiple points genuinely share one
    # worker round-trip.
    assert auto_chunk(len(configs), 2) == 2
    chunked = fingerprints(run_supervised(configs, jobs=2, policy=policy()))
    assert chunked == serial
