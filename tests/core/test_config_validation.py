"""Bad experiment configs fail at construction, naming the field."""

import contextlib
import math
import signal

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.knobs import ResourceAllocation
from repro.engine.resource_governor import ResourceGovernor
from repro.errors import ConfigurationError

NAN = float("nan")


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test instead of hanging when the body overruns."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("duration, shown", [
    (NAN, "nan"), (-1.0, "-1.0"), (0.0, "0.0"), (math.inf, "inf"),
])
def test_duration_must_be_finite_and_positive(duration, shown):
    with pytest.raises(ConfigurationError,
                       match=rf"ExperimentConfig\.duration .*got {shown}"):
        ExperimentConfig(workload="asdb", scale_factor=2000, duration=duration)


def test_nan_duration_fails_before_the_event_loop_runs():
    # Without the check this run steps the event loop forever.
    with deadline(1.0), pytest.raises(ConfigurationError, match="duration"):
        run_experiment("asdb", 2000, duration=NAN)


@pytest.mark.parametrize("scale_factor", [0, -5, NAN])
def test_scale_factor_must_be_at_least_one(scale_factor):
    with pytest.raises(ConfigurationError,
                       match=r"ExperimentConfig\.scale_factor must be >= 1"):
        ExperimentConfig(workload="asdb", scale_factor=scale_factor)


@pytest.mark.parametrize("kwargs", [{1: 4}, {"streams": 1, None: 2},
                                    {b"streams": 1}])
def test_workload_kwargs_keys_must_be_str(kwargs):
    # ``{1: x}`` would share ``{"1": x}``'s cache key and only fail
    # later, inside ``make_workload(**kwargs)``.
    with pytest.raises(ConfigurationError,
                       match=r"ExperimentConfig\.workload_kwargs keys must "
                             r"be str"):
        ExperimentConfig(workload="tpch", scale_factor=10,
                         workload_kwargs=kwargs)


@pytest.mark.parametrize("field, value, message", [
    ("logical_cores", NAN, "need at least one core"),
    ("logical_cores", 0, "need at least one core"),
    ("llc_mb", NAN, "CAT granularity is 2 MB total"),
    ("llc_mb", 1, "CAT granularity is 2 MB total"),
    ("max_dop", NAN, "max_dop must be >= 1"),
    ("grant_percent", NAN, r"grant percent in \(0, 100\]"),
    ("grant_timeout_s", NAN, "grant_timeout_s must be positive or None"),
    ("small_query_bypass_bytes", NAN, "small_query_bypass_bytes must be >= 0"),
    ("max_queue_depth", NAN, "max_queue_depth must be >= 0 or None"),
] + [
    (field, value, "blkio cap must be positive and finite, or None")
    for field in ("read_bw_limit", "write_bw_limit")
    for value in (NAN, math.inf, 0.0, -1.0)
])
def test_allocation_rejects_bad_values_by_name(field, value, message):
    with deadline(1.0), pytest.raises(
        ConfigurationError, match=rf"{message}: {field}={value!r}"
    ):
        ResourceAllocation(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("max_dop", NAN, "max_dop must be >= 1"),
    ("max_dop", None, "max_dop must be >= 1"),
    ("grant_percent", NAN, r"grant percent in \(0, 100\]"),
    ("grant_timeout_s", NAN, "grant_timeout_s must be positive or None"),
    ("small_query_bypass_bytes", NAN, "small_query_bypass_bytes must be >= 0"),
    ("max_queue_depth", NAN, "max_queue_depth must be >= 0 or None"),
    ("on_grant_timeout", "queue", "on_grant_timeout must be one of"),
])
def test_governor_rejects_bad_values_by_name(field, value, message):
    with pytest.raises(ConfigurationError,
                       match=rf"{message}.*: {field}={value!r}"):
        ResourceGovernor(**{field: value})


def test_valid_configs_still_construct():
    config = ExperimentConfig(
        workload="asdb", scale_factor=1, duration=0.01,
        allocation=ResourceAllocation(logical_cores=1, llc_mb=2,
                                      grant_timeout_s=5.0,
                                      max_queue_depth=0),
    )
    assert config.duration == 0.01
