"""The ``rowstore-oltp`` personality: the seed engine, unchanged.

This is the monolithic engine the repository grew up with — B-tree point
access, row-at-a-time execution, the calibrated default cost model, and
the allocation's own RESOURCE_SEMAPHORE knobs (off by default).  Every
hook inherits the :class:`~repro.backends.base.EngineBackend` default, so
construction is bit-identical to the historical
``Experiment._build_engine`` path; the property test in
``tests/backends/test_rowstore_identity.py`` holds it to that.
"""

from __future__ import annotations

from repro.backends.base import EngineBackend, register_backend


@register_backend
class RowstoreOltpBackend(EngineBackend):
    """The seed engine: balanced scans, strong point access."""

    name = "rowstore-oltp"
    description = (
        "the seed engine: B-tree point access, row-mode scans, "
        "calibrated default cost model"
    )
