"""Tests for the content-addressed result cache: canonical hashing,
calibration tokens, atomic storage, and corruption healing."""

import hashlib
import pickle

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import (
    CACHE_DIR_ENV,
    ResultCache,
    calibration_token,
    canonical_digest,
    canonical_json,
    config_digest,
    default_cache_dir,
)
from repro.errors import ConfigurationError
from repro.hardware.machine import MachineSpec
from repro.units import mb_per_s


def make_config(**overrides):
    base = dict(workload="asdb", scale_factor=2000, duration=3.0, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCanonicalJson:
    def test_stable_across_calls(self):
        config = make_config()
        assert canonical_json(config) == canonical_json(config)

    def test_equal_configs_render_identically(self):
        assert canonical_json(make_config()) == canonical_json(make_config())

    def test_dict_key_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_nested_allocation_included(self):
        with_limit = make_config(
            allocation=ResourceAllocation(read_bw_limit=mb_per_s(200)))
        assert canonical_json(with_limit) != canonical_json(make_config())

    def test_machine_spec_included(self):
        other = make_config(machine_spec=MachineSpec(smt=1))
        assert canonical_json(other) != canonical_json(make_config())

    def test_unhashable_type_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json(object())

    def test_canonical_digest_is_sha256_of_canonical_json(self):
        value = {"b": [1.5, None], "a": make_config()}
        assert canonical_digest(value) == hashlib.sha256(
            canonical_json(value).encode("utf-8")).hexdigest()


class TestDigests:
    def test_digest_diversity(self):
        token = "t"
        variants = [
            make_config(),
            make_config(seed=1),
            make_config(duration=4.0),
            make_config(workload="tpce", scale_factor=5000),
            make_config(allocation=ResourceAllocation(logical_cores=4)),
            make_config(machine_spec=MachineSpec(cores_per_socket=16)),
            make_config(workload_kwargs={"streams": 1}),
        ]
        digests = {config_digest(v, token) for v in variants}
        assert len(digests) == len(variants)

    def test_token_is_part_of_the_address(self):
        config = make_config()
        assert config_digest(config, "a") != config_digest(config, "b")

    def test_backend_is_part_of_the_address(self):
        """Regression: a columnstore or serverless run must never be
        served from a rowstore entry for the same knobs."""
        token = "t"
        variants = [
            make_config(),
            make_config(backend="columnstore-dss"),
            make_config(backend="elastic-serverless"),
        ]
        digests = {config_digest(v, token) for v in variants}
        assert len(digests) == len(variants)

    def test_backend_entries_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        rowstore = make_config()
        columnstore = make_config(backend="columnstore-dss")
        cache.put(rowstore, run_experiment("asdb", 2000, duration=3.0))
        assert cache.get(columnstore) is None
        assert cache.get(rowstore) is not None

    def test_calibration_token_is_stable(self):
        assert calibration_token() == calibration_token()
        assert len(calibration_token()) == 16


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = make_config()
        assert cache.get(config) is None
        measurement = run_experiment("asdb", 2000, duration=3.0)
        cache.put(config, measurement)
        hit = cache.get(config)
        assert hit is not None
        assert hit.primary_metric == measurement.primary_metric
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                                 "store_errors": 0, "corrupt": 0}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = make_config()
        measurement = run_experiment("asdb", 2000, duration=3.0)
        path = cache.put(config, measurement)
        path.write_bytes(b"torn write from a killed process")
        assert cache.get(config) is None
        assert not path.exists()
        cache.put(config, measurement)
        assert cache.get(config).primary_metric == measurement.primary_metric

    @pytest.mark.parametrize("junk", [
        b"garbage\n",                      # raises ValueError inside pickle
        b"\x80\x05garbage",                # truncated frame, UnpicklingError
        b"",                               # empty file, EOFError
    ])
    def test_any_undecodable_entry_is_a_miss(self, tmp_path, junk):
        cache = ResultCache(tmp_path)
        config = make_config()
        path = cache.put(config, run_experiment("asdb", 2000, duration=3.0))
        path.write_bytes(junk)
        assert cache.get(config) is None
        assert not path.exists()

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = make_config()
        path = cache.put(config, run_experiment("asdb", 2000, duration=3.0))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert cache.get(config) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        measurement = run_experiment("asdb", 2000, duration=3.0)
        for seed in range(3):
            cache.put(make_config(seed=seed), measurement)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_no_temp_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_config(), run_experiment("asdb", 2000, duration=3.0))
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_disk_errors_degrade_to_warning(self, tmp_path, monkeypatch,
                                            caplog):
        """A full disk (or revoked permissions) mid-sweep must not throw
        away the just-computed measurement: put() logs and returns None."""
        import errno
        import logging

        cache = ResultCache(tmp_path)
        measurement = run_experiment("asdb", 2000, duration=3.0)

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.core.resultcache.tempfile.mkstemp",
                            no_space)
        with caplog.at_level(logging.WARNING, logger="repro.core.resultcache"):
            result = cache.put(make_config(), measurement)
        assert result is None
        assert cache.store_errors == 1
        assert cache.stores == 0
        assert any("could not store" in r.message for r in caplog.records)
        # The cache object remains usable once the disk recovers.
        monkeypatch.undo()
        assert cache.put(make_config(), measurement) is not None
        assert cache.get(make_config()).primary_metric == \
            measurement.primary_metric

    def test_rename_failure_cleans_temp_file(self, tmp_path, monkeypatch):
        import errno

        cache = ResultCache(tmp_path)
        measurement = run_experiment("asdb", 2000, duration=3.0)

        def no_rename(*args, **kwargs):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr("repro.core.resultcache.os.replace", no_rename)
        assert cache.put(make_config(), measurement) is None
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_entries_survive_a_new_cache_object(self, tmp_path):
        first = ResultCache(tmp_path)
        config = make_config()
        measurement = run_experiment("asdb", 2000, duration=3.0)
        first.put(config, measurement)
        second = ResultCache(tmp_path)
        assert second.get(config).primary_metric == measurement.primary_metric


class TestDefaultCacheDir:
    def test_unset_means_no_caching(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir() is None

    def test_env_sets_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestQuarantine:
    """Satellite: corrupt entries are preserved for post-mortem, not
    deleted — renamed to ``.corrupt-<name>`` beside the cache."""

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = make_config()
        path = cache.put(config, run_experiment("asdb", 2000, duration=3.0))
        garbage = b"torn write from a killed process"
        path.write_bytes(garbage)
        assert cache.get(config) is None
        assert not path.exists()
        quarantined = tmp_path / f".corrupt-{path.name}"
        assert quarantined.exists()
        assert quarantined.read_bytes() == garbage
        assert cache.corrupt == 1
        assert cache.stats()["corrupt"] == 1

    def test_checksum_catches_a_valid_but_wrong_pickle(self, tmp_path):
        """A flipped payload that still unpickles cleanly is caught by
        the sha256 header, not by the unpickler."""
        cache = ResultCache(tmp_path)
        config = make_config()
        path = cache.put(config, run_experiment("asdb", 2000, duration=3.0))
        header, _, _ = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + pickle.dumps({"not": "it"}))
        assert cache.get(config) is None
        assert (tmp_path / f".corrupt-{path.name}").exists()
        assert cache.stats()["corrupt"] == 1

    def test_entries_carry_a_sha256_payload_header(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(make_config(),
                         run_experiment("asdb", 2000, duration=3.0))
        header, _, payload = path.read_bytes().partition(b"\n")
        assert header == hashlib.sha256(payload).hexdigest().encode("ascii")

    def test_quarantined_files_are_invisible_to_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = make_config()
        measurement = run_experiment("asdb", 2000, duration=3.0)
        path = cache.put(config, measurement)
        path.write_bytes(b"junk")
        assert cache.get(config) is None   # quarantines
        cache.put(config, measurement)     # heals
        assert len(cache) == 1             # .corrupt-* not counted
        assert cache.clear() == 1          # ... and not cleared
        assert (tmp_path / f".corrupt-{path.name}").exists()

    def test_quarantined_entries_counts_corpses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.quarantined_entries() == 0
        (tmp_path / ".corrupt-aaaa").write_bytes(b"x")
        (tmp_path / ".corrupt-bbbb").write_bytes(b"x")
        assert cache.quarantined_entries() == 2
        assert len(cache) == 0


class TestGetManyHardening:
    """Satellite: a corrupt entry in a batch probe is a per-key miss —
    the good hits in the same batch are unaffected."""

    def test_mixed_batch_good_hits_survive_corrupt_neighbors(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = [make_config(seed=s) for s in range(3)]
        measurement = run_experiment("asdb", 2000, duration=3.0)
        paths = [cache.put(c, measurement) for c in configs]
        paths[1].write_bytes(b"torn write from a killed process")

        results = cache.get_many(configs)
        assert len(results) == 3
        hits = {digest: hit for digest, hit in results}
        assert results[0][1] is not None
        assert results[1][1] is None       # corrupt: per-key miss
        assert results[2][1] is not None
        assert len(hits) == 3              # three distinct digests
        # The damaged entry was quarantined, not left to fail again.
        assert (tmp_path / f".corrupt-{paths[1].name}").exists()
        assert cache.stats()["corrupt"] == 1

    def test_wrong_type_entry_is_quarantined_in_batch(self, tmp_path):
        """A checksum-valid pickle of the wrong type must not leak out
        of the batch probe as a 'measurement'."""
        cache = ResultCache(tmp_path)
        config = make_config()
        path = cache.put(config, run_experiment("asdb", 2000, duration=3.0))
        payload = pickle.dumps({"not": "a measurement"})
        header = hashlib.sha256(payload).hexdigest().encode("ascii")
        path.write_bytes(header + b"\n" + payload)

        [(digest, hit)] = cache.get_many([config])
        assert hit is None
        assert (tmp_path / f".corrupt-{path.name}").exists()

    def test_batch_misses_then_heal(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = [make_config(seed=s) for s in range(2)]
        assert all(hit is None for _, hit in cache.get_many(configs))
        measurement = run_experiment("asdb", 2000, duration=3.0)
        for config in configs:
            cache.put(config, measurement)
        assert all(hit is not None for _, hit in cache.get_many(configs))
