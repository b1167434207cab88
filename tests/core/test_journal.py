"""Tests for the sweep journal's damage tolerance and event lines.

A killed sweep can tear the journal's last line mid-write; loading must
drop exactly that line with a warning and keep everything before it
(satellite of the robustness tentpole).
"""

import json
import logging

from repro.core.journal import STATUS_CRASH, STATUS_OK, SweepJournal


def write_lines(path, *lines):
    path.write_text("".join(lines), encoding="utf-8")


def record_line(digest, status, attempt=1, index=0):
    return json.dumps({"digest": digest, "status": status,
                       "attempt": attempt, "index": index}) + "\n"


class TestTornTail:
    def test_truncated_trailing_line_is_dropped_with_warning(
            self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        write_lines(
            path,
            record_line("aaa", STATUS_OK),
            record_line("bbb", STATUS_CRASH),
            '{"digest": "ccc", "status": "cr',   # torn by a kill
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.journal"):
            journal = SweepJournal(path)
        assert len(journal) == 2
        assert journal.last_status("aaa") == STATUS_OK
        assert journal.last_status("bbb") == STATUS_CRASH
        assert journal.last_status("ccc") is None
        assert any("truncated trailing line 3" in r.message
                   for r in caplog.records)

    def test_corrupt_middle_line_is_skipped_not_torn(self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        write_lines(
            path,
            record_line("aaa", STATUS_OK),
            "}}} not json {{{\n",
            record_line("bbb", STATUS_OK),
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.journal"):
            journal = SweepJournal(path)
        assert len(journal) == 2
        assert any("skipping corrupt line 2" in r.message
                   for r in caplog.records)
        assert not any("truncated" in r.message for r in caplog.records)

    def test_non_dict_line_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        write_lines(path, '["a", "list"]\n', record_line("aaa", STATUS_OK))
        with caplog.at_level(logging.WARNING, logger="repro.core.journal"):
            journal = SweepJournal(path)
        assert len(journal) == 1
        assert any("non-record line 1" in r.message for r in caplog.records)

    def test_appending_after_a_torn_tail_seals_the_fragment(self, tmp_path):
        """A resumed sweep appends to the damaged file: the torn
        fragment must be sealed with a newline so the new record lands
        on its own line instead of being welded onto the fragment."""
        path = tmp_path / "journal.jsonl"
        write_lines(path, record_line("aaa", STATUS_OK), '{"dig')
        journal = SweepJournal(path)
        journal.record("bbb", STATUS_OK, attempt=1)
        reloaded = SweepJournal(path)
        assert reloaded.last_status("aaa") == STATUS_OK
        assert reloaded.last_status("bbb") == STATUS_OK


class TestEventLines:
    def test_note_round_trips_through_reload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.note("breaker", transition="trip", jobs=2)
        journal.note("breaker", transition="recover", jobs=3)
        journal.note("other", detail="x")
        assert len(journal.events()) == 3
        reloaded = SweepJournal(path)
        breaker = reloaded.events("breaker")
        assert [e["transition"] for e in breaker] == ["trip", "recover"]
        assert breaker[0]["jobs"] == 2
        assert reloaded.events("missing") == []

    def test_events_do_not_pollute_attempt_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record("aaa", STATUS_OK, attempt=1)
        journal.note("breaker", transition="trip", jobs=1)
        reloaded = SweepJournal(path)
        assert len(reloaded) == 1            # attempt records only
        assert reloaded.attempts("aaa") == 0  # ok is not a failure
        assert len(reloaded.events()) == 1

    def test_note_tolerates_disk_trouble(self, tmp_path, monkeypatch,
                                         caplog):
        journal = SweepJournal(tmp_path / "journal.jsonl")

        def no_open(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("builtins.open", no_open)
        with caplog.at_level(logging.WARNING, logger="repro.core.journal"):
            journal.note("breaker", transition="trip", jobs=1)
        # In-memory view stays consistent; the failure is a warning.
        assert len(journal.events("breaker")) == 1
        assert any("could not append" in r.message for r in caplog.records)


class TestRetiredKinds:
    """A kind that lost its writer stays readable: older journals carry
    ``surrogate`` event lines (predicted points of the retired adaptive
    sweep), and resuming over such a journal must still work."""

    def test_legacy_surrogate_lines_load_and_resume(self, tmp_path):
        from repro.core.experiment import ExperimentConfig
        from repro.core.resultcache import ResultCache
        from repro.core.runner import JOURNAL_BASENAME, run_supervised

        cache = ResultCache(tmp_path / "cache")
        configs = [ExperimentConfig(workload="asdb", scale_factor=2000,
                                    duration=0.5, seed=seed)
                   for seed in range(2)]
        first = run_supervised(configs, cache=cache)
        assert first.cache_hits == 0
        path = cache.directory / JOURNAL_BASENAME
        legacy = [
            {"event": "surrogate", "digest": "f" * 64, "index": 2,
             "source": "predicted", "primary_metric": 1523.7,
             "uncertainty": 0.21},
            {"event": "surrogate", "digest": "e" * 64, "index": 3,
             "source": "predicted", "primary_metric": 1519.2,
             "uncertainty": 0.3},
        ]
        with open(path, "a", encoding="utf-8") as handle:
            for event in legacy:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        records = len(SweepJournal(path))

        resumed = run_supervised(configs, cache=cache)
        assert resumed.cache_hits == len(configs)
        assert [m.primary_metric for m in resumed.measurements] == \
            [m.primary_metric for m in first.measurements]
        reloaded = SweepJournal(path)
        assert len(reloaded) == records      # no point re-attempted
        assert reloaded.events("surrogate") == legacy
        for digest in {cache.digest(c) for c in configs}:
            assert reloaded.last_status(digest) == STATUS_OK


def _registered_kinds():
    """The ``kind`` column of the table in the journal module docstring."""
    import repro.core.journal as journal

    lines = journal.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=====")]
    header, first_row, end = rules[0], rules[1] + 1, rules[2]
    width = len(lines[header].split()[0])
    return {line[:width].strip() for line in lines[first_row:end]
            if line[:width].strip()}


def _noted_kinds():
    """Every kind passed to ``.note(`` anywhere in the package source."""
    import ast
    import pathlib

    import repro

    kinds, dynamic = set(), []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "note"):
                kind = node.args[0] if node.args else None
                if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                    kinds.add(kind.value)
                else:
                    dynamic.append(f"{path.name}:{node.lineno}")
    return kinds, dynamic


class TestKindRegistry:
    def test_docstring_table_lists_exactly_the_kinds_written(self):
        kinds, dynamic = _noted_kinds()
        assert dynamic == []       # every kind is a greppable literal
        assert _registered_kinds() == kinds
        assert {"breaker", "route", "fleet"}.isdisjoint(kinds)
