"""Generic discrete-event simulation kernel.

This subpackage is deliberately independent of the database/hardware model:
it provides an event heap with a simulation clock (:mod:`repro.sim.events`),
generator-based cooperating processes (:mod:`repro.sim.process`), shared
resources with queueing (:mod:`repro.sim.resources`), deterministic random
streams (:mod:`repro.sim.randomness`), and statistics accumulators
(:mod:`repro.sim.stats`).
"""

from repro.sim.events import Event, EventLoop
from repro.sim.process import Process, Simulator, Timeout, WaitEvent
from repro.sim.randomness import RandomStreams
from repro.sim.resources import FcfsServer, TokenBucket
from repro.sim.stats import Cdf

__all__ = [
    "Event",
    "EventLoop",
    "Process",
    "Simulator",
    "Timeout",
    "WaitEvent",
    "RandomStreams",
    "FcfsServer",
    "TokenBucket",
    "Cdf",
]
