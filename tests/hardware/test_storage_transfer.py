"""The NVMe transfer path: one grant-driven walk per read or write.

``NvmeDevice.read``/``write`` walk a transfer's 64 MB chunks through the
cgroup and device token buckets by grant callbacks.  The oracle below
keeps the per-chunk process loop they replaced and requires the same
completion times, bucket totals and 1-second ``served_bytes`` samples,
and the same bucket totals after every event, compared with ``==``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hardware.storage import NvmeDevice
from repro.sim.process import Simulator, Timeout
from repro.sim.tracing import Tracer
from repro.units import mb_per_s

CHUNK = NvmeDevice.CHUNK_BYTES


class _ChunkLoopDevice(NvmeDevice):
    """Reference: the process itself waits at both buckets for every
    chunk, resuming at each grant."""

    def _transfer(self, cgroup, device, nbytes):
        remaining = nbytes
        while remaining > 0:
            chunk = min(self.CHUNK_BYTES, remaining)
            yield from cgroup.take(chunk)
            yield from device.take(chunk)
            remaining -= chunk


def _drive(device_cls, bandwidths, limits, requests, changes):
    """Run *requests* ``(kind, delay, nbytes)`` on a fresh device with
    cgroup *limits* and mid-run *changes* ``(delay, kind, value)``;
    return completion times, bucket totals, 1-second ``served_bytes``
    samples and the bucket totals after every step."""
    sim = Simulator()
    dev = device_cls(sim, read_bw=bandwidths[0], write_bw=bandwidths[1])
    dev.set_read_limit(limits[0])
    dev.set_write_limit(limits[1])
    buckets = (dev._cgroup_read, dev._device_read,
               dev._cgroup_write, dev._device_write)
    done = [None] * len(requests)

    def request(index, kind, delay, nbytes):
        yield Timeout(delay)
        yield from (dev.read if kind == "read" else dev.write)(nbytes)
        done[index] = sim.now

    def change(delay, kind, value):
        yield Timeout(delay)
        if kind == "read_limit":
            dev.set_read_limit(value)
        elif kind == "write_limit":
            dev.set_write_limit(value)
        else:
            dev.apply_brownout(read_factor=value, write_factor=value)

    samples = []

    def sampler():
        while None in done:
            yield Timeout(1.0)
            samples.append(tuple(bucket.served_bytes for bucket in buckets))

    for index, (kind, delay, nbytes) in enumerate(requests):
        sim.spawn(request(index, kind, delay, nbytes))
    for delay, kind, value in changes:
        sim.spawn(change(delay, kind, value))
    sim.spawn(sampler())
    # Also read the counters after every step: a chunk credited one step
    # early or late shows here even when no 1-second tick catches it.
    steps = []
    while sim.loop.step():
        steps.append(tuple(bucket.total_consumed for bucket in buckets))
    totals = [bucket.total_consumed for bucket in buckets]
    return done, totals, samples, steps


_LIMIT = st.sampled_from([None, mb_per_s(50), mb_per_s(200), mb_per_s(1000),
                          mb_per_s(3000)])
_DELAY = st.one_of(st.sampled_from([0.0, 0.0, 0.1, 1.0]),
                   st.floats(min_value=0.0, max_value=3.0))
_SIZE = st.one_of(
    st.sampled_from([0, 1, 8192, CHUNK // 2, CHUNK, CHUNK + 1, 2.5 * CHUNK,
                     3 * CHUNK]),
    st.floats(min_value=0.0, max_value=4.0 * CHUNK),
)
_CHANGE = st.one_of(
    st.tuples(_DELAY, st.sampled_from(["read_limit", "write_limit"]), _LIMIT),
    st.tuples(_DELAY, st.just("brownout"), st.sampled_from([0.25, 0.5, 1.0])),
)


class TestTransferMatchesChunkLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(st.sampled_from([mb_per_s(200), mb_per_s(2500)]),
                  st.sampled_from([mb_per_s(100), mb_per_s(1200)])),
        st.tuples(_LIMIT, _LIMIT),
        st.lists(st.tuples(st.sampled_from(["read", "write"]), _DELAY, _SIZE),
                 min_size=1, max_size=6),
        st.lists(_CHANGE, max_size=3),
    )
    def test_same_completions_totals_and_samples(self, bandwidths, limits,
                                                  requests, changes):
        expected = _drive(_ChunkLoopDevice, bandwidths, limits, requests,
                          changes)
        assert _drive(NvmeDevice, bandwidths, limits, requests,
                      changes) == expected

    def test_multi_chunk_reads_under_a_cgroup_cap(self):
        requests = [("read", 0.0, 3.5 * CHUNK), ("read", 0.0, CHUNK),
                    ("write", 0.5, 2 * CHUNK)]
        args = ((mb_per_s(2500), mb_per_s(1200)), (mb_per_s(200), None),
                requests, [(1.0, "read_limit", mb_per_s(1000))])
        expected = _drive(_ChunkLoopDevice, *args)
        actual = _drive(NvmeDevice, *args)
        assert actual == expected
        assert len(actual[2]) >= 2


class TestTransferEvents:
    @pytest.mark.parametrize("device_cls, resumes", [(NvmeDevice, 2),
                                                     (_ChunkLoopDevice, 6)])
    def test_process_resumes_once_per_transfer(self, device_cls, resumes):
        sim = Simulator()
        dev = device_cls(sim)

        def reader():
            yield from dev.read(5 * CHUNK)

        sim.spawn(reader(), name="reader")
        with Tracer(sim.loop) as tracer:
            sim.run()
        labels = tracer.histogram_by_label()
        # Start plus final wake, against start plus one wake per chunk;
        # both fire a device timer and a grant step per chunk.
        assert labels["Process(reader)._resume"] == resumes
        assert tracer.total_fired == 11
        assert dev.bytes_read == 5 * CHUNK
        assert dev._cgroup_read.total_consumed == 5 * CHUNK


class TestNonFiniteSizes:
    @pytest.mark.parametrize("method", ["read", "write"])
    @pytest.mark.parametrize("nbytes", [math.nan, -1.0])
    def test_rejected(self, method, nbytes):
        sim = Simulator()
        dev = NvmeDevice(sim)

        def worker():
            yield from getattr(dev, method)(nbytes)

        sim.spawn(worker())
        with pytest.raises(ConfigurationError, match="nbytes="):
            sim.run(until=5.0)
        assert sim.now == 0.0

    def test_nan_limit_rejected(self):
        dev = NvmeDevice(Simulator())
        with pytest.raises(ConfigurationError, match="limit=nan"):
            dev.set_read_limit(math.nan)
        with pytest.raises(ConfigurationError, match="limit=nan"):
            dev.set_write_limit(math.nan)
