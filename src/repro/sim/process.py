"""Generator-based cooperating processes on top of the event loop.

A *process* is a Python generator that yields *commands*:

* :class:`Timeout` — suspend for a simulated duration,
* :class:`At` — suspend until an absolute simulated time,
* :class:`WaitEvent` — suspend until another process triggers a condition,
* another :class:`Process` — suspend until that process terminates.

This mirrors the SimPy programming model but is self-contained (no external
dependencies) and deterministic.

Every OLTP transaction crosses this module several times, so the wake
path is kept lean without changing a single event:

* :meth:`Process._resume` dispatches a :class:`Timeout` or
  :class:`WaitEvent` inline by *exact* type; a subclass of either, an
  :class:`At` and a yielded :class:`Process` fall back to the
  ``isinstance`` chain in :meth:`Process._dispatch`, which also rejects
  anything else.
* A timer wakes its process through one bound method,
  :meth:`Process._fire` (for ``Timeout``, ``At`` and the
  :meth:`Simulator.spawn_many` start train alike), not a fresh lambda
  per yield.  The loop still allocates one ``Event`` per timer.
* Hot paths here and in the engine read the clock as ``loop._now``
  rather than through the :attr:`Simulator.now` property.

A suspended process and the objects its frame holds usually reference
each other (a parent waits on its child's ``done``; a pending timer
calls back into its process), so a run stopped at its horizon is one
reference cycle.  :meth:`Simulator.close` ends every live process and
drops the calendar, after which reference counting frees the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.events import EventLoop


class Timeout:
    """Yield target: suspend the process for *delay* simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not delay >= 0:
            raise SimulationError(f"negative timeout: delay={delay}")
        self.delay = delay


class At:
    """Yield target: suspend the process until absolute simulated *time*.

    Unlike ``Timeout(time - now)``, the resume lands on *time* bit for
    bit: ``now + (time - now)`` is not always ``time`` in floating point.
    A *time* before the current clock, or NaN, raises
    :class:`SimulationError` when the process yields it.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time


class WaitEvent:
    """A one-shot condition processes can wait on.

    A process yields the WaitEvent to suspend; another process (or plain
    callback code) calls :meth:`trigger` to resume all waiters with an
    optional value.
    """

    __slots__ = ("_sim", "_triggered", "_value", "_waiters")

    def __init__(self, simulator: "Simulator"):
        self._sim = simulator
        self._triggered = False
        self._value: Any = None
        self._waiters: List["Process"] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the condition, waking every waiting process (FIFO)."""
        if self._triggered:
            raise SimulationError("WaitEvent triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        call_soon = self._sim.loop.call_soon
        for proc in waiters:
            call_soon(proc._resume, value)

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)


class Process:
    """A running generator, driven by the simulator's event loop."""

    __slots__ = ("_sim", "_loop", "_gen", "name", "alive", "result", "error", "_done")

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = "proc"):
        self._sim = simulator
        self._loop = simulator.loop
        self._gen = generator
        self.name = name
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._done = WaitEvent(simulator)
        simulator._live[self] = None

    @property
    def done(self) -> WaitEvent:
        """WaitEvent that triggers (with the return value) on termination."""
        return self._done

    @property
    def failed(self) -> bool:
        """True when the process terminated with an uncaught exception."""
        return self.error is not None

    def _start(self) -> None:
        self._loop.call_soon(self._resume, None)

    def _fire(self, _event) -> None:
        """Timer callback: resume with no value."""
        self._resume(None)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            del self._sim._live[self]
            self.result = stop.value
            self._done.trigger(stop.value)
            return
        except BaseException as exc:
            # Record which process died before the exception unwinds the
            # event loop — essential when an injected fault escapes a
            # handler deep inside the engine stack (see repro.faults).
            self.alive = False
            del self._sim._live[self]
            self.error = exc
            exc.__notes__ = getattr(exc, "__notes__", []) + [
                f"raised in simulation process {self.name!r}"
            ]
            raise
        kind = type(command)
        if kind is Timeout:
            self._loop.schedule_after(command.delay, self._fire)
        elif kind is WaitEvent:
            if command._triggered:
                self._loop.call_soon(self._resume, command._value)
            else:
                command._waiters.append(self)
        else:
            self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Timeout):
            self._loop.schedule_after(command.delay, self._fire)
        elif isinstance(command, WaitEvent):
            if command.triggered:
                self._loop.call_soon(self._resume, command.value)
            else:
                command._add_waiter(self)
        elif isinstance(command, Process):
            self._dispatch(command.done)
        elif isinstance(command, At):
            self._loop.schedule_at(command.time, self._fire)
        else:
            raise SimulationError(f"process {self.name!r} yielded unsupported command: {command!r}")

    def interrupt(self) -> None:
        """Terminate the process without resuming it again."""
        self.alive = False
        self._sim._live.pop(self, None)
        self._gen.close()


class Simulator:
    """Facade bundling an event loop with process management.

    >>> sim = Simulator()
    >>> def worker():
    ...     yield Timeout(1.5)
    ...     return "done"
    >>> proc = sim.spawn(worker())
    >>> sim.run()
    >>> (round(sim.now, 6), proc.result)
    (1.5, 'done')
    """

    def __init__(self) -> None:
        self.loop = EventLoop()
        #: Processes not yet finished, in spawn order.
        self._live: Dict[Process, None] = {}
        self._closers: List[Callable[[], None]] = []

    @property
    def now(self) -> float:
        return self.loop._now

    def spawn(self, generator: Generator, name: str = "proc") -> Process:
        """Create and start a process from a generator."""
        proc = Process(self, generator, name=name)
        proc._start()
        return proc

    def spawn_many(
        self, generators: Sequence[Generator], name: str = "proc"
    ) -> List[Process]:
        """Spawn a batch of processes in order, one heap operation.

        Semantically identical to ``[spawn(g) for g in generators]`` —
        start events keep FIFO order at the current instant — but the
        start-up train goes through :meth:`EventLoop.schedule_batch`,
        which matters when a workload spawns hundreds of client processes
        (ASDB starts 128) at every experiment start.  Names get a
        ``-<index>`` suffix.
        """
        procs = [
            Process(self, gen, name=f"{name}-{index}")
            for index, gen in enumerate(generators)
        ]
        now = self.loop._now
        self.loop.schedule_batch((now, proc._fire, None) for proc in procs)
        return procs

    def event(self) -> WaitEvent:
        """Create a fresh one-shot wait event."""
        return WaitEvent(self)

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop until it drains or the clock passes *until*."""
        self.loop.run(until=until)

    def on_close(self, callback: Callable[[], None]) -> None:
        """Have :meth:`close` call *callback*: a resource that queues
        its requesters' callbacks drops them there."""
        self._closers.append(callback)

    def close(self) -> None:
        """End the simulation: close every live process, in spawn order,
        then drop queued requests and the calendar.

        Closing runs a process's ``finally`` blocks (a query returns its
        grant), which may schedule wakes; the calendar is cleared after
        them, so nothing scheduled here ever fires.
        """
        while self._live:
            for proc in list(self._live):
                proc.interrupt()
        for callback in self._closers:
            callback()
        self.loop.clear()
