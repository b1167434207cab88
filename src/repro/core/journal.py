"""Append-only sweep journal: what happened to every grid point.

The :class:`~repro.core.resultcache.ResultCache` is the resume mechanism
for *successes* — a re-run of a partially completed sweep short-circuits
every cached point.  The journal covers the other half: it records every
attempt (ok / crash / timeout / error) keyed by config digest, so a
resumed sweep

* knows how many attempts a config has already burned (attempt numbering
  is global across invocations — a fault spec that crashes the first
  attempt fails once, ever, not once per invocation), and
* can report *why* the holes in a previous run's grid exist.

Besides attempt records the journal carries *event* lines —
:meth:`SweepJournal.note` — free-form JSON keyed by an ``event`` kind.
This table is the registry of every kind written anywhere in the
package; a test checks it against every ``.note(`` call in the source:

===============  ==========================  =================================
kind             writer                      payload highlights
===============  ==========================  =================================
chaos            core.runner supervisor      canonical fault specs a faulted
                                             point will replay under
chaos-schedule   faults.chaos                seed, scenario, episode list
chaos-episode    faults.chaos                one episode's kind/at/duration
failover         faults.chaos                promotion epoch + window
chaos-report     faults.chaos                invariant verdicts + digest
fleet-traffic    fleet.cluster sweeps        fleet point: spec digest +
                                             asdict(FleetReport)
                                             (replayed on resume)
===============  ==========================  =================================

Lines of a kind that nothing writes any more (older journals carry
prediction events of the retired adaptive sweep planner, and the
supervisor's ``route``/``fleet`` notes and concurrency-transition
notes) still load and come back from :meth:`events`.

Attempt records are digest-keyed and drive resume; event lines are
observational — except ``fleet-traffic``, whose payload is complete
enough that :func:`~repro.fleet.cluster.fleet_oversubscription_sweep`
reconstructs finished points from it without re-simulating.

The format is JSON-lines, append-only, and tolerant of torn tails (a
killed run may leave a partial last line; it is dropped with a warning
on load, never raised).  One journal serves one sweep campaign; by
default the supervised runner places it next to the result cache.
"""

from __future__ import annotations

import json
import logging
import os
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional

log = logging.getLogger(__name__)

#: Attempt outcomes recorded in the journal.
STATUS_OK = "ok"
STATUS_CRASH = "crash"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"

_FAILURE_STATUSES = (STATUS_CRASH, STATUS_TIMEOUT, STATUS_ERROR)


class SweepJournal:
    """JSONL journal of per-config attempts, keyed by config digest."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._entries: List[Dict] = []
        self._events: List[Dict] = []
        self._by_digest: Dict[str, List[Dict]] = defaultdict(list)
        self._needs_newline = False
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            log.warning("sweep journal %s unreadable (%s); starting empty",
                        self.path, exc)
            return
        # A torn tail has no terminating newline; appending straight to
        # it would weld the next record onto the fragment and lose both.
        self._needs_newline = bool(text) and not text.endswith("\n")
        lines = text.splitlines()
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                if number == len(lines):
                    # Torn tail from a killed writer: expected damage —
                    # the attempt it described never committed anyway.
                    log.warning(
                        "sweep journal %s: dropping truncated trailing "
                        "line %d", self.path, number,
                    )
                else:
                    log.warning(
                        "sweep journal %s: skipping corrupt line %d",
                        self.path, number,
                    )
                continue
            if not isinstance(entry, dict):
                log.warning("sweep journal %s: skipping non-record line %d",
                            self.path, number)
            elif "event" in entry:
                # Events may also carry a digest (e.g. per-point chaos
                # schedules) — the event marker wins, or a reloaded note
                # would masquerade as an attempt record.
                self._events.append(entry)
            elif "digest" in entry:
                self._remember(entry)

    def _remember(self, entry: Dict) -> None:
        self._entries.append(entry)
        self._by_digest[entry["digest"]].append(entry)

    def record(
        self,
        digest: str,
        status: str,
        attempt: int,
        index: int = -1,
        error: Optional[str] = None,
    ) -> None:
        """Append one attempt record and flush it to disk.

        Journal IO must never fail a sweep: disk errors degrade to a
        logged warning (the in-memory view stays consistent).
        """
        entry: Dict = {"digest": digest, "status": status, "attempt": attempt,
                       "index": index}
        if error:
            entry["error"] = error
        self._remember(entry)
        self._append(entry)

    def note(self, event: str, **fields) -> None:
        """Append one event line — e.g. a chaos fault schedule.

        Same durability contract as :meth:`record`: disk trouble degrades
        to a warning, never an exception.
        """
        entry: Dict = {"event": event, **fields}
        self._events.append(entry)
        self._append(entry)

    def _append(self, entry: Dict) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                if self._needs_newline:
                    # Seal a torn tail so the fragment stays its own
                    # (skippable) line instead of eating this record.
                    handle.write("\n")
                    self._needs_newline = False
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError as exc:
            log.warning("could not append to sweep journal %s: %s",
                        self.path, exc)

    # -- queries ---------------------------------------------------------------

    def entries(self, digest: str) -> Iterator[Dict]:
        return iter(self._by_digest.get(digest, ()))

    def events(self, event: Optional[str] = None) -> List[Dict]:
        """Event lines recorded via :meth:`note`, optionally filtered."""
        if event is None:
            return list(self._events)
        return [e for e in self._events if e.get("event") == event]

    def attempts(self, digest: str) -> int:
        """Failed attempts burned so far (seeds resumed attempt numbering)."""
        return sum(1 for e in self._by_digest.get(digest, ())
                   if e["status"] in _FAILURE_STATUSES)

    def last_status(self, digest: str) -> Optional[str]:
        history = self._by_digest.get(digest)
        return history[-1]["status"] if history else None

    def failed_digests(self) -> List[str]:
        """Digests whose most recent attempt failed."""
        return [digest for digest, history in self._by_digest.items()
                if history[-1]["status"] in _FAILURE_STATUSES]

    def __len__(self) -> int:
        return len(self._entries)
