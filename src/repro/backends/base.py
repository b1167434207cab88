"""Engine backend personalities: one engine recipe per consolidation target.

The paper's thesis is that OLTP, DSS, and HTAP workloads have sharply
different resource sensitivities.  An :class:`EngineBackend` captures
one engine *personality*: a named recipe that turns (machine, workload,
allocation) into a configured :class:`~repro.engine.engine.SqlEngine`,
with its own cost model, execution-characteristic transform, and
RESOURCE_SEMAPHORE policy, all riding the shared :mod:`repro.hardware`
substrate.

The default hooks reproduce the historical monolithic construction from
:class:`repro.core.experiment.Experiment` exactly — the ``rowstore-oltp``
personality overrides nothing, which is how it stays bit-identical to the
seed engine on every existing figure/sensitivity path.

Backends self-register into :data:`BACKENDS` via
:func:`register_backend`; :func:`make_backend` instantiates by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Type

from repro.engine.engine import SqlEngine
from repro.engine.optimizer.cost_model import CostModel
from repro.engine.resource_governor import ResourceGovernor
from repro.engine.sqlos import ExecutionCharacteristics
from repro.hardware.machine import Machine
from repro.errors import ConfigurationError
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - hint-only (avoids a repro.core cycle)
    from repro.core.knobs import ResourceAllocation

#: The personality the monolithic engine became; every default path uses it.
DEFAULT_BACKEND = "rowstore-oltp"


class EngineBackend:
    """One engine personality: a named engine-construction recipe.

    Subclasses override the narrow hooks (cost model, execution
    transform, governor policy, engine class) rather than
    :meth:`build_engine` itself, so the shared construction order —
    governor, then engine with the workload's parameters — stays
    identical across personalities.
    """

    #: Registry key ("rowstore-oltp", "columnstore-dss", ...).
    name: str = ""
    #: One-line description for ``repro backends``.
    description: str = ""
    #: Engine class to instantiate (personalities may subclass SqlEngine).
    engine_class: Type[SqlEngine] = SqlEngine

    # -- hooks ---------------------------------------------------------------

    def governor_for(self, allocation: ResourceAllocation) -> ResourceGovernor:
        """The seed allocation→governor mapping; personalities may layer
        their own RESOURCE_SEMAPHORE defaults on top (only when the
        allocation itself left overload protection off)."""
        return ResourceGovernor(
            max_dop=allocation.effective_max_dop,
            grant_percent=allocation.grant_percent,
            grant_timeout_s=allocation.grant_timeout_s,
            small_query_bypass_bytes=allocation.small_query_bypass_bytes,
            max_queue_depth=allocation.max_queue_depth,
            on_grant_timeout=allocation.on_grant_timeout,
        )

    def execution_characteristics(
        self, workload: Workload
    ) -> ExecutionCharacteristics:
        """The workload's calibrated CPU/cache parameters, optionally
        transformed by the personality (batch mode, txn penalties)."""
        return workload.execution_characteristics()

    def cost_model(self) -> Optional[CostModel]:
        """Optimizer cost constants; None = the calibrated default."""
        return None

    def engine_parameters(self, workload: Workload) -> Dict:
        """Extra :class:`SqlEngine` keyword arguments (workload's plus
        any personality-specific ones)."""
        return dict(workload.engine_parameters())

    # -- construction --------------------------------------------------------

    def build_engine(
        self,
        machine: Machine,
        workload: Workload,
        allocation: ResourceAllocation,
    ) -> SqlEngine:
        """Construct this personality's engine on *machine*.

        Mirrors the historical ``Experiment._build_engine`` recipe; with
        every hook at its default the result is bit-identical to the
        seed construction.
        """
        return self.engine_class(
            machine=machine,
            database=workload.database,
            execution=self.execution_characteristics(workload),
            governor=self.governor_for(allocation),
            cost_model=self.cost_model(),
            backend_name=self.name,
            **self.engine_parameters(workload),
        )


#: Backend registry, filled by :func:`register_backend` at import time.
BACKENDS: Dict[str, Type[EngineBackend]] = {}


def register_backend(cls: Type[EngineBackend]) -> Type[EngineBackend]:
    """Class decorator: add a backend personality to the registry."""
    if not cls.name:
        raise ValueError("backend classes must set a name")
    if cls.name in BACKENDS:
        raise ValueError(f"duplicate backend name {cls.name!r}")
    BACKENDS[cls.name] = cls
    return cls


def make_backend(name: str) -> EngineBackend:
    """Instantiate a backend personality by registry name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; one of {sorted(BACKENDS)}"
        ) from None
    return cls()


def backend_names() -> tuple:
    """All registered personality names, sorted."""
    return tuple(sorted(BACKENDS))
