"""Content-addressed on-disk cache of experiment results.

Every figure and table in the paper is a grid of independent
``(workload, allocation)`` experiments, and several artifacts share grid
points (the LLC sweep feeds Fig 2, Fig 3, and Table 4; the full-allocation
runs feed Fig 4 and the sensitivity matrix).  Re-running a figure should
therefore cost one disk read per already-measured point, not a fresh
simulation.

The cache key is a SHA-256 digest of a *canonical* rendering of the frozen
:class:`~repro.core.experiment.ExperimentConfig` — every field, including
the seed, the machine spec, and workload kwargs — concatenated with a
calibration token.  The token folds in the package version, the on-disk
format version, and a digest of every constant in :mod:`repro.calibration`,
so retuning the model (or changing the storage format) invalidates every
stale entry automatically instead of silently serving measurements from an
older model.  Entries are pickled :class:`~repro.core.measurement.Measurement`
objects behind a sha256 header, written atomically (temp file + rename)
so a crashed or concurrent run can never leave a torn entry behind.

A warm read is the hot path of a figure regeneration, so it is kept to
one key, one file read, one checksum and one ``pickle.loads``.  Latency
samples (:class:`~repro.sim.stats.Cdf`) travel as float64 blobs and load
into ``array("d")`` buffers, not one float object per sample, and a hit
re-pickles to the bytes it was loaded from.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.measurement import Measurement
from repro.errors import ConfigurationError

log = logging.getLogger(__name__)

#: Bump when the serialized Measurement layout changes incompatibly.
#: v2: Measurement grew the grant counters and entries carry a sha256
#: integrity header, so v1 entries are orphaned via the token.
#: v3: Measurement grew backend/router provenance, and ExperimentConfig
#: grew the backend/router fields (which also enter the config digest —
#: cross-backend runs can never collide on cache entries).
#: v4: Measurement grew fleet-resilience fields (failovers, hedges,
#: unavailable_seconds, fleet_summary) and router_reroutes, and
#: StorageBrownout grew latency_factor (which enters fault-carrying
#: config digests); v3 pickles lack the new attributes.
#: v5: Measurement grew surrogate provenance (source,
#: predicted_uncertainty); v4 pickles lack the new attributes.
#: v6: Measurement grew open-loop / fleet-SLO observables (offered_tps,
#: arrival_sheds, sheds_by_tenant) and ExperimentConfig grew the
#: ``arrival`` spec (which enters the config digest — an open-loop point
#: can never alias the closed-loop run of the same allocation); v5
#: pickles lack the new attributes.
#: v7: Cdf pickles its sorted samples as one float64 blob (loaded into
#: an ``array("d")``) instead of a list of floats; v6 Cdf states have
#: no blob.
CACHE_FORMAT_VERSION = 7

#: Environment variable consulted for a default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: Types rendered as themselves.  Matched by exact type, so subclasses
#: (``np.float64``, int-valued enums) still take the general path below.
_SCALAR_TYPES = frozenset({str, int, bool, type(None)})

#: Per-class dataclass field names (None for non-dataclass types), so a
#: key does not pay :func:`dataclasses.fields` for every nested value.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        pass
    names = (tuple(f.name for f in dataclasses.fields(cls))
             if dataclasses.is_dataclass(cls) else None)
    _FIELD_NAMES[cls] = names
    return names


def _canonical(value: Any) -> Any:
    """Reduce *value* to JSON-serializable primitives, deterministically.

    Dataclasses become ``[class name, {field: value}]`` so that two
    different config types can never collide; enums carry their class and
    member name; floats go through ``repr`` (shortest round-trip form, so
    equal floats always render identically).

    Every config field is reduced on every cache probe, so the common
    exact types are dispatched first and each dataclass's field names
    come from :data:`_FIELD_NAMES`.
    """
    cls = type(value)
    if cls is float:
        return repr(value)
    if cls in _SCALAR_TYPES:
        return value
    names = _field_names(cls)
    if names is not None:
        return [cls.__name__,
                {name: _canonical(getattr(value, name)) for name in names}]
    if isinstance(value, enum.Enum):
        return [cls.__name__, value.name]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (bool, int, str)):
        return value
    raise ConfigurationError(
        f"cannot build a stable cache key from {cls.__name__!r}"
    )


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The canonical string rendering used for hashing."""
    return _CANONICAL_ENCODER.encode(_canonical(value))


def canonical_digest(value: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` — the determinism
    fingerprint of fleet reports, fleet points and chaos runs."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def calibration_token() -> str:
    """A digest of everything that makes measurements comparable.

    Covers the package version, the cache format version, and every
    module-level constant in :mod:`repro.calibration` (the model's tuned
    parameters).  Any recalibration changes the token and orphans old
    entries rather than serving them.

    Memoized: the constants are process-lifetime-stable, yet this used to
    re-walk and re-hash the whole calibration module once per cache
    construction and once per journal digest.  Code that mutates
    calibration constants at runtime (tests, notebooks) must call
    ``calibration_token.cache_clear()`` afterwards.
    """
    import repro
    import repro.calibration as calibration

    return canonical_digest(
        {
            "version": repro.__version__,
            "format": CACHE_FORMAT_VERSION,
            "calibration": calibration.constants(),
        }
    )[:16]


def config_digest(config: Any, token: str) -> str:
    """Content address of one experiment config under a calibration token."""
    payload = f"{token}\n{canonical_json(config)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_dir() -> Optional[Path]:
    """The cache directory implied by the environment, if any.

    Returns ``$REPRO_CACHE_DIR`` when set, else None — caching is opt-in
    so that library calls and tests stay hermetic by default.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


class ResultCache:
    """A directory of pickled measurements addressed by config digest."""

    def __init__(self, directory: os.PathLike, token: Optional[str] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Entry paths as plain strings: a warm probe opens
        # ``_prefix + digest + ".pkl"`` without building a Path.
        self._prefix = os.path.join(self.directory, "")
        self.token = token if token is not None else calibration_token()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0
        self.corrupt = 0

    def digest(self, config: Any) -> str:
        return config_digest(config, self.token)

    def path_for(self, config: Any) -> Path:
        return self.path_for_digest(self.digest(config))

    def path_for_digest(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    def get(self, config: Any) -> Optional[Measurement]:
        """The cached measurement for *config*, or None.

        Every entry carries a sha256 of its pickle payload; a header
        mismatch (bit rot, torn write that still parses, manual edits)
        or any unpickling failure counts as a miss and the damaged file
        is *quarantined* — renamed to ``.corrupt-<name>`` next to the
        cache rather than deleted — so the grid point silently re-runs
        while the evidence survives for diagnosis.
        """
        return self.get_by_digest(self.digest(config))

    def get_by_digest(self, digest: str) -> Optional[Measurement]:
        """:meth:`get` for callers that already computed the digest.

        The sweep supervisor hashes every config exactly once (the digest
        doubles as the journal key), so probing by digest avoids a second
        canonical-JSON + sha256 pass per grid point.
        """
        path = f"{self._prefix}{digest}.pkl"
        try:
            with open(path, "rb", buffering=0) as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            header, _, payload = blob.partition(b"\n")
            if header != hashlib.sha256(payload).hexdigest().encode("ascii"):
                raise ValueError("cache entry checksum mismatch")
            measurement = pickle.loads(payload)
            if not isinstance(measurement, Measurement):
                # A checksum-valid pickle of the wrong type (e.g. a file
                # swapped between caches) is just as unusable as torn bytes.
                raise ValueError(
                    f"cache entry holds {type(measurement).__name__}, "
                    "not Measurement"
                )
        except Exception as exc:
            # Corrupt bytes can raise almost anything (UnpicklingError,
            # EOFError, ValueError, AttributeError, ...); any of them
            # just means the entry is unusable.
            self._quarantine(Path(path), exc)
            self.misses += 1
            return None
        self.hits += 1
        return measurement

    def get_many(
        self, configs: Iterable[Any]
    ) -> List[Tuple[str, Optional[Measurement]]]:
        """Batched pre-dispatch probe: ``(digest, hit-or-None)`` per config.

        One pass resolves every already-measured grid point before any
        worker process is touched, and hands the supervisor the digests
        it needs anyway for journaling and dispatch — no config is ever
        hashed twice.

        Robustness contract: one bad entry is *that key's* miss, never
        the batch's failure.  A corrupt or quarantined entry (torn
        write, chaos-killed worker mid-``put``, wrong-type payload) is
        already downgraded by :meth:`get_by_digest`; anything it still
        manages to raise is caught here per key so a thousand-point
        probe cannot be aborted by one damaged file.
        """
        results: List[Tuple[str, Optional[Measurement]]] = []
        for config in configs:
            digest = self.digest(config)
            try:
                hit = self.get_by_digest(digest)
            except Exception:
                self.misses += 1
                hit = None
            results.append((digest, hit))
        return results

    def _quarantine(self, path: Path, exc: BaseException) -> None:
        self.corrupt += 1
        target = path.with_name(f".corrupt-{path.name}")
        try:
            os.replace(path, target)
            log.warning(
                "cache entry %s is corrupt (%s: %s); quarantined as %s — "
                "the point will re-run",
                path.name, type(exc).__name__, exc, target.name,
            )
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            log.warning(
                "cache entry %s is corrupt (%s: %s) and could not be "
                "quarantined; removed", path.name, type(exc).__name__, exc,
            )

    def put(self, config: Any, measurement: Measurement,
            digest: Optional[str] = None) -> Optional[Path]:
        """Store atomically: write a temp file, then rename into place.

        *digest*, when given, must be ``self.digest(config)`` — callers
        that already hold the digest (the supervisor) skip re-hashing.

        The cache is an accelerator, not a durability contract: a disk
        that fills up or a directory that loses write permission mid-sweep
        must not throw away the measurement that was just computed.  Any
        ``OSError`` (ENOSPC, EACCES, read-only remount, ...) degrades to a
        logged warning and ``None`` — the caller keeps its in-memory
        result, the sweep keeps going.  Pickling errors still raise: an
        unpicklable measurement is a programming bug, not an environment
        hazard.
        """
        path = (self.path_for(config) if digest is None
                else self.path_for_digest(digest))
        tmp_name: Optional[str] = None
        payload = pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".pkl"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(checksum + b"\n" + payload)
            os.replace(tmp_name, path)
        except OSError as exc:
            self._cleanup_tmp(tmp_name)
            self.store_errors += 1
            log.warning(
                "could not store cache entry %s (%s); continuing uncached",
                path.name, exc,
            )
            return None
        except BaseException:
            self._cleanup_tmp(tmp_name)
            raise
        self.stores += 1
        return path

    @staticmethod
    def _cleanup_tmp(tmp_name: Optional[str]) -> None:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    def iter_entries(self) -> Iterator[Tuple[str, Measurement]]:
        """Bulk scan: yield every readable ``(digest, measurement)`` pair.

        The corpus harvester (:mod:`repro.surrogate.corpus`) walks the
        whole cache to turn past sweeps into training data, so this must
        survive whatever a long campaign left behind: already-quarantined
        ``.corrupt-*`` files are counted (``quarantined_entries()``) and
        skipped, and an entry that turns out to be damaged mid-scan is
        quarantined by :meth:`get_by_digest` and skipped — one bad file
        is never the scan's failure.  Entries are yielded in sorted
        digest order so every harvest of the same cache sees the same
        sequence regardless of directory enumeration order.
        """
        for path in sorted(self._entry_paths()):
            digest = path.stem
            try:
                measurement = self.get_by_digest(digest)
            except Exception:       # pragma: no cover - get_by_digest guards
                self.misses += 1
                continue
            if measurement is not None:
                yield digest, measurement

    def quarantined_entries(self) -> int:
        """How many ``.corrupt-*`` quarantine files sit in the directory."""
        return sum(1 for _ in self.directory.glob(".corrupt-*"))

    def _entry_paths(self):
        """Live entries only — ``.corrupt-*`` quarantine files and
        ``.tmp-*`` staging files share the directory but are not
        entries."""
        return (p for p in self.directory.glob("*.pkl")
                if not p.name.startswith("."))

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_errors": self.store_errors,
            "corrupt": self.corrupt,
        }
