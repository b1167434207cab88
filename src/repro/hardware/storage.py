"""Non-volatile storage: the NVMe device plus cgroup blkio limits.

The device itself has sequential read/write bandwidth ceilings (the
Intel 750 in the testbed: 2500 MB/s read, 1200 MB/s write).  On top of the
device, the experiments impose *cgroup* limits via systemd's
``BlockIOReadBandwidth`` / ``BlockIOWriteBandwidth`` (§6, Fig 5).  Both
layers are token buckets; a request must clear the cgroup bucket and then
the device bucket, so the effective cap is the minimum of the two.

A transfer does not resume its process per bucket: a :class:`_Transfer`
walks the chunks through both buckets by grant callbacks and wakes the
process once, on the last chunk's device grant.  Each grant continues the
walk through ``EventLoop.call_soon``, exactly where the process of a
per-chunk ``take`` loop would have resumed, so a transfer fires the same
events in the same order as that loop did, with the same floats.

A blkio limit is checked before it reaches a bucket: ``None``, or
positive and finite.  A rejected limit raises
:class:`~repro.errors.AllocationError` (a ``ConfigurationError``) naming
it and leaves the cgroup bucket's rate and burst as they were.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import ConfigurationError, FaultInjectionError, TransientIOError
from repro.hardware.cgroups import check_bandwidth_limit
from repro.sim.process import Simulator, Timeout, WaitEvent
from repro.sim.resources import TokenBucket
from repro.units import mb_per_s

#: Latency of one small random read (NVMe 8 KiB read ~ 90 us).
RANDOM_READ_LATENCY = 90e-6


class NvmeDevice:
    """A bandwidth-limited block device with independent read/write paths."""

    def __init__(
        self,
        sim: Simulator,
        read_bw: float = mb_per_s(2500),
        write_bw: float = mb_per_s(1200),
        name: str = "nvme0",
    ):
        if read_bw <= 0 or write_bw <= 0:
            raise ConfigurationError("device bandwidths must be positive")
        self._sim = sim
        self.name = name
        self.device_read_bw = read_bw
        self.device_write_bw = write_bw
        burst_r = read_bw * 0.01  # ~10 ms of burst absorbs request jitter
        burst_w = write_bw * 0.01
        self._device_read = TokenBucket(sim, read_bw, burst=burst_r, name=f"{name}.rd")
        self._device_write = TokenBucket(sim, write_bw, burst=burst_w, name=f"{name}.wr")
        self._cgroup_read = TokenBucket(sim, None, name=f"{name}.cg.rd")
        self._cgroup_write = TokenBucket(sim, None, name=f"{name}.cg.wr")
        # Fault-injection state (see repro.faults): bandwidth brownout
        # factors and an optional transient write-error predicate.
        self._brownout_read_factor = 1.0
        self._brownout_write_factor = 1.0
        self._brownout_latency_factor = 1.0
        self._write_error_predicate: Optional[Callable[[], bool]] = None
        self.write_faults_injected = 0

    # -- cgroup blkio front-end -------------------------------------------------

    def set_read_limit(self, limit: Optional[float]) -> None:
        """Apply (or clear, with ``None``) a BlockIOReadBandwidth cap.

        A rejected *limit* raises before the bucket is touched.
        """
        check_bandwidth_limit("limit", limit)
        burst = (limit * 0.01) if limit else 0.0
        self._cgroup_read.burst = burst
        self._cgroup_read.set_rate(limit)

    def set_write_limit(self, limit: Optional[float]) -> None:
        """Apply (or clear, with ``None``) a BlockIOWriteBandwidth cap.

        A rejected *limit* raises before the bucket is touched.
        """
        check_bandwidth_limit("limit", limit)
        burst = (limit * 0.01) if limit else 0.0
        self._cgroup_write.burst = burst
        self._cgroup_write.set_rate(limit)

    @property
    def effective_read_bw(self) -> float:
        device = self.device_read_bw * self._brownout_read_factor
        cgroup = self._cgroup_read.rate
        return device if cgroup is None else min(device, cgroup)

    @property
    def effective_write_bw(self) -> float:
        device = self.device_write_bw * self._brownout_write_factor
        cgroup = self._cgroup_write.rate
        return device if cgroup is None else min(device, cgroup)

    # -- fault injection (see repro.faults) -------------------------------------

    def apply_brownout(self, read_factor: float = 1.0, write_factor: float = 1.0,
                       latency_factor: float = 1.0) -> None:
        """Scale the *device* bandwidths by the given factors (a storage
        brownout).  cgroup caps are untouched; the effective rate is
        still the minimum of the two layers.  ``latency_factor``
        multiplies the per-page seek latency of random reads — a
        garbage-collection stall inflates individual operation latency,
        not just streaming throughput."""
        for name, factor in (("read_factor", read_factor),
                             ("write_factor", write_factor)):
            if not 0 < factor <= 1.0:
                raise FaultInjectionError(f"{name} must be in (0, 1]")
        if latency_factor < 1.0:
            raise FaultInjectionError("latency_factor must be >= 1")
        self._brownout_read_factor = read_factor
        self._brownout_write_factor = write_factor
        self._brownout_latency_factor = latency_factor
        self._device_read.set_rate(self.device_read_bw * read_factor)
        self._device_write.set_rate(self.device_write_bw * write_factor)

    def clear_brownout(self) -> None:
        """Restore the device's rated bandwidths and latency."""
        self.apply_brownout(1.0, 1.0, 1.0)

    @property
    def browned_out(self) -> bool:
        return (self._brownout_read_factor < 1.0
                or self._brownout_write_factor < 1.0
                or self._brownout_latency_factor > 1.0)

    def set_write_error_predicate(
        self, predicate: Optional[Callable[[], bool]]
    ) -> None:
        """Install (or clear, with ``None``) a transient write-error hook.

        While installed, each :meth:`write` call consults the predicate
        *before* consuming bandwidth; a ``True`` return makes the write
        raise :class:`~repro.errors.TransientIOError`.  Callers with a
        durability contract (the WAL) retry with backoff.
        """
        self._write_error_predicate = predicate

    # -- IO path ------------------------------------------------------------------

    #: Multi-GB transfers are split so that small requests (a
    #: transaction's page read, a log flush) are not head-of-line blocked
    #: behind a whole scan; in-flight interpolation in the buckets keeps
    #: 1-second counter sampling smooth regardless of chunk size.  The
    #: device bucket's burst (10 ms of bandwidth, 25 MB at 2500 MB/s) is
    #: below one chunk, so the device throttles nearly every chunk even
    #: under a tighter cgroup cap: the two waits add up and cannot be
    #: merged into one without changing results.
    CHUNK_BYTES = 64 * 1024 * 1024

    def read(self, nbytes: float) -> Generator:
        """Generator: complete a read of *nbytes* through both buckets."""
        if not nbytes >= 0:
            raise ConfigurationError(f"negative read size: nbytes={nbytes}")
        if nbytes > 0:
            yield from self._transfer(self._cgroup_read, self._device_read, nbytes)
        return None

    def read_pages(self, num_pages: float, page_bytes: int) -> Generator:
        """Generator: random point reads — per-page latency plus bandwidth.

        Latencies overlap across concurrent readers (each just waits);
        bandwidth is shared through the buckets as usual.
        """
        if num_pages <= 0:
            return None
        yield Timeout(RANDOM_READ_LATENCY * num_pages
                      * self._brownout_latency_factor)
        yield from self.read(num_pages * page_bytes)
        return None

    def write(self, nbytes: float) -> Generator:
        """Generator: complete a write of *nbytes* through both buckets.

        Raises :class:`~repro.errors.TransientIOError` when an injected
        write-error window is active (no bandwidth is consumed by the
        failed attempt; the caller decides whether to retry).
        """
        if not nbytes >= 0:
            raise ConfigurationError(f"negative write size: nbytes={nbytes}")
        if self._write_error_predicate is not None and self._write_error_predicate():
            self.write_faults_injected += 1
            raise TransientIOError(
                f"{self.name}: injected transient write error "
                f"(#{self.write_faults_injected})"
            )
        if nbytes > 0:
            yield from self._transfer(self._cgroup_write, self._device_write, nbytes)
        return None

    def _transfer(self, cgroup: TokenBucket, device: TokenBucket,
                  nbytes: float) -> Generator:
        """Generator: move *nbytes* > 0 through *cgroup*, then *device*."""
        transfer = _Transfer(self._sim, cgroup, device, nbytes, self.CHUNK_BYTES)
        yield transfer.done
        device.total_consumed += transfer.chunk

    # -- iostat-style accounting ----------------------------------------------------

    @property
    def bytes_read(self) -> float:
        return self._device_read.served_bytes

    @property
    def bytes_written(self) -> float:
        return self._device_write.served_bytes


class _Transfer:
    """One read or write, walked through a cgroup and a device bucket.

    It replays, grant for grant, the per-chunk loop::

        remaining = nbytes
        while remaining > 0:
            chunk = min(chunk_bytes, remaining)
            yield from cgroup.take(chunk)
            yield from device.take(chunk)
            remaining -= chunk

    Each chunk is handed to the cgroup bucket and then to the device
    bucket through :meth:`TokenBucket.consume`, which decides an idle
    bucket's grant or timer on the spot; a transfer's own chunks never
    overlap, so only concurrent transfers queue.  A grant continues the walk
    through ``call_soon``, where the loop's process would have resumed, and
    credits the chunk to the bucket there; an uncapped cgroup passes the
    chunk straight through, with no event, as ``take`` does.  The device
    bucket always has a rate, so every chunk ends on a device grant.  The
    last one triggers :attr:`done` instead, and the waiting process credits
    that chunk when it resumes.
    """

    __slots__ = ("_loop", "_cgroup", "_device", "_chunk_bytes",
                 "_remaining", "chunk", "done")

    def __init__(self, sim: Simulator, cgroup: TokenBucket,
                 device: TokenBucket, nbytes: float, chunk_bytes: float):
        self._loop = sim.loop
        self._cgroup = cgroup
        self._device = device
        self._chunk_bytes = chunk_bytes
        self._remaining = nbytes
        self.done: WaitEvent = sim.event()
        self._next_chunk()

    def _next_chunk(self) -> None:
        # ``min(chunk_bytes, remaining)``, without the call.
        remaining = self._remaining
        chunk_bytes = self._chunk_bytes
        chunk = self.chunk = remaining if remaining < chunk_bytes else chunk_bytes
        if self._cgroup.consume(chunk, self._cgroup_granted):
            self._device.consume(chunk, self._device_granted)

    def _cgroup_granted(self) -> None:
        self._loop.call_soon(self._cgroup_served, None)

    def _cgroup_served(self, _arg) -> None:
        self._cgroup.total_consumed += self.chunk
        self._device.consume(self.chunk, self._device_granted)

    def _device_granted(self) -> None:
        # ``remaining - chunk > 0`` exactly when ``remaining > chunk``.
        if self._remaining > self.chunk:
            self._loop.call_soon(self._device_served, None)
        else:
            self.done.trigger()

    def _device_served(self, _arg) -> None:
        self._device.total_consumed += self.chunk
        self._remaining -= self.chunk
        self._next_chunk()
