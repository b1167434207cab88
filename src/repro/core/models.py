"""Predictive performance models (§10's second research question).

The paper asks what models are needed to estimate the impact of resource
changes.  Two reference models are provided and can be validated against
the simulator:

* :class:`LinearModel` — throughput proportional to the varied resource
  (the naive model Fig 5 shows overestimating bandwidth needs);
* :class:`RooflineModel` — throughput limited by the binding constraint
  among CPU capacity, read bandwidth, and write bandwidth, fitted from a
  small number of observations.

Both are deliberately simple: the point (and the accompanying benchmark)
is to quantify *how much* better a bottleneck-aware model predicts the
measured response than a linear one — echoing the paper's finding that
linear reasoning overallocates by ~20% at the Fig 5 probe point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def _validate_xy(xs: Sequence[float], ys: Sequence[float]) -> None:
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigurationError("need at least two aligned observations")
    if any(x <= 0 for x in xs):
        raise ConfigurationError("resource amounts must be positive")


@dataclass
class LinearModel:
    """Throughput = slope x resource (fit through the origin)."""

    slope: float = 0.0

    def fit(self, xs: Sequence[float], ys: Sequence[float]) -> "LinearModel":
        _validate_xy(xs, ys)
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        self.slope = float((x @ y) / (x @ x))
        return self

    def predict(self, x: float) -> float:
        return self.slope * x

    def required_resource(self, target: float) -> float:
        if self.slope <= 0:
            return float("inf")
        return target / self.slope


@dataclass
class RooflineModel:
    """Throughput = min(ceiling, slope x resource).

    ``ceiling`` captures the other binding resource (e.g. CPU when the
    bandwidth axis is swept); ``slope`` the bandwidth-bound regime.
    Fitted by grid search over the breakpoint.
    """

    slope: float = 0.0
    ceiling: float = 0.0

    def fit(self, xs: Sequence[float], ys: Sequence[float]) -> "RooflineModel":
        _validate_xy(xs, ys)
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        best = (float("inf"), 0.0, float(y.max()))
        for i in range(1, len(x) + 1):
            # Points [0, i) in the rising regime, the rest at the ceiling.
            rising_x, rising_y = x[:i], y[:i]
            slope = float((rising_x @ rising_y) / (rising_x @ rising_x))
            ceiling = float(np.mean(y[i:])) if i < len(y) else float(y[-1])
            prediction = np.minimum(slope * x, ceiling)
            error = float(np.sum((prediction - y) ** 2))
            if error < best[0]:
                best = (error, slope, ceiling)
        _, self.slope, self.ceiling = best
        return self

    def predict(self, x: float) -> float:
        return min(self.ceiling, self.slope * x)

    def required_resource(self, target: float) -> float:
        """Smallest resource achieving *target* (inf if above the roof)."""
        if target > self.ceiling or self.slope <= 0:
            return float("inf")
        return target / self.slope

    @property
    def breakpoint(self) -> float:
        """Resource amount where the ceiling starts to bind."""
        if self.slope <= 0:
            return float("inf")
        return self.ceiling / self.slope


@dataclass(frozen=True)
class ModelComparison:
    """Prediction quality of two models on held-out observations."""

    linear_rmse: float
    roofline_rmse: float
    linear_required: float
    roofline_required: float
    target: float

    @property
    def roofline_wins(self) -> bool:
        return self.roofline_rmse <= self.linear_rmse

    @property
    def overallocation_fraction(self) -> float:
        """How much extra resource the linear model would buy for the
        target (the Fig 5 statistic, generalized)."""
        if self.roofline_required <= 0 or self.roofline_required == float("inf"):
            return 0.0
        return self.linear_required / self.roofline_required - 1.0


def compare_models(
    xs: Sequence[float],
    ys: Sequence[float],
    target_fraction: float = 0.9,
) -> ModelComparison:
    """Fit both models on the observations and compare them.

    ``target_fraction`` positions the provisioning target relative to the
    maximum observed throughput.
    """
    _validate_xy(xs, ys)
    linear = LinearModel().fit(xs, ys)
    roofline = RooflineModel().fit(xs, ys)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    linear_rmse = float(np.sqrt(np.mean((linear.slope * x - y) ** 2)))
    roofline_pred = np.minimum(roofline.slope * x, roofline.ceiling)
    roofline_rmse = float(np.sqrt(np.mean((roofline_pred - y) ** 2)))
    target = target_fraction * float(y.max())
    return ModelComparison(
        linear_rmse=linear_rmse,
        roofline_rmse=roofline_rmse,
        linear_required=linear.required_resource(target),
        roofline_required=roofline.required_resource(target),
        target=target,
    )
