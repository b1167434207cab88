"""Measurement comparison: detect regressions between two study runs.

Model changes shift numbers; the question is always *which* observable
moved and by how much.  :func:`compare_measurements` diffs two
measurements observable by observable; :func:`compare_studies` diffs two
keyed collections (e.g. the full study matrix before and after a change)
and reports everything outside tolerance.

Measurements can be persisted to / loaded from plain JSON so a study can
be snapshotted as a baseline artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.measurement import Measurement
from repro.engine.locks import WaitType
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ObservableDiff:
    """One observable's change between baseline and candidate."""

    name: str
    baseline: float
    candidate: float

    @property
    def relative_change(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else float("inf")
        return (self.candidate - self.baseline) / abs(self.baseline)


def snapshot(measurement: Measurement) -> Dict[str, float]:
    """The comparable observables of a measurement, as plain floats."""
    data = {
        "primary_metric": measurement.primary_metric,
        "mpki_model": measurement.mpki_model,
        "ssd_read_mb": measurement.ssd_read_mb,
        "ssd_write_mb": measurement.ssd_write_mb,
        "dram_read_mb": measurement.dram_read_mb,
        "smt_multiplier": measurement.smt_multiplier,
    }
    for wait_type in WaitType:
        data[f"wait_{wait_type.value}"] = measurement.wait_time(wait_type)
    if measurement.secondary_metric is not None:
        data["secondary_metric"] = measurement.secondary_metric
    return data


def compare_measurements(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    tolerance: float = 0.10,
    absolute_floor: float = 1e-6,
) -> List[ObservableDiff]:
    """Observables whose relative change exceeds *tolerance*.

    Tiny absolute values (below *absolute_floor*) are skipped — wait
    times near zero flap wildly in relative terms without meaning.
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")
    diffs: List[ObservableDiff] = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name, 0.0)
        cand = candidate.get(name, 0.0)
        if max(abs(base), abs(cand)) < absolute_floor:
            continue
        diff = ObservableDiff(name=name, baseline=base, candidate=cand)
        if abs(diff.relative_change) > tolerance:
            diffs.append(diff)
    return diffs


@dataclass
class StudyComparison:
    """Diff of two keyed studies."""

    regressions: Dict[str, List[ObservableDiff]] = field(default_factory=dict)
    missing_keys: List[str] = field(default_factory=list)
    new_keys: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.regressions and not self.missing_keys

    def summary(self) -> str:
        lines: List[str] = []
        for key in self.missing_keys:
            lines.append(f"MISSING {key}")
        for key, diffs in self.regressions.items():
            for diff in diffs:
                lines.append(
                    f"{key}: {diff.name} {diff.baseline:.4g} -> "
                    f"{diff.candidate:.4g} ({diff.relative_change:+.1%})"
                )
        return "\n".join(lines) if lines else "no changes beyond tolerance"


def compare_studies(
    baseline: Dict[str, Dict[str, float]],
    candidate: Dict[str, Dict[str, float]],
    tolerance: float = 0.10,
) -> StudyComparison:
    """Compare two keyed snapshot collections."""
    comparison = StudyComparison()
    for key, base in baseline.items():
        if key not in candidate:
            comparison.missing_keys.append(key)
            continue
        diffs = compare_measurements(base, candidate[key], tolerance=tolerance)
        if diffs:
            comparison.regressions[key] = diffs
    comparison.new_keys = [k for k in candidate if k not in baseline]
    return comparison


# -- persistence ---------------------------------------------------------------

def save_study(path: str, study: Dict[str, Dict[str, float]]) -> None:
    """Write a study snapshot to JSON."""
    with open(path, "w") as handle:
        json.dump(study, handle, indent=2, sort_keys=True)


def load_study(path: str) -> Dict[str, Dict[str, float]]:
    """Read a study snapshot from JSON."""
    with open(path) as handle:
        return json.load(handle)
