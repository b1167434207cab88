"""Engine backend personalities.

Importing this package registers every built-in personality:

* ``rowstore-oltp`` — the seed engine (bit-identical construction);
* ``columnstore-dss`` — batch-mode analytics: cheap scans, deep MAXDOP,
  weak point access, patient grants;
* ``elastic-serverless`` — cold starts, autoscaled per-query cores,
  pay-per-grant memory, aggressive spill.

A run uses exactly one personality (``ExperimentConfig.backend``); the
fleet (:mod:`repro.fleet.cluster`) cycles them across its shards.
"""

from repro.backends.base import (
    BACKENDS,
    DEFAULT_BACKEND,
    EngineBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.backends.columnstore import ColumnstoreDssBackend
from repro.backends.rowstore import RowstoreOltpBackend
from repro.backends.serverless import ElasticServerlessBackend, ServerlessEngine

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ColumnstoreDssBackend",
    "ElasticServerlessBackend",
    "EngineBackend",
    "RowstoreOltpBackend",
    "ServerlessEngine",
    "backend_names",
    "make_backend",
    "register_backend",
]
