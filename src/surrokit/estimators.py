"""Treatment-effect estimators: direct difference-in-means and surrogate-index.

Both estimators reduce an experiment to one per-user scalar (the observed
long-term mean, or a surrogate model's prediction of it) and compare arm
means against the control arm. Standard errors are two-sample Welch form
with unbiased sample variances; surrogate standard errors treat the fitted
coefficients as fixed constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ControlAsTreatment,
    DegenerateGroup,
    DegenerateVarianceWarning,
    MissingDay,
    OutOfRange,
    UnknownArm,
)
from .panel import ArmLabel, OutcomePanel, window
from .surrogate import ModelSource, SurrogateModel, predict

# Two-sided 95% normal critical value, pinned so confidence intervals are
# reproducible bit for bit.
Z_CRIT_95 = 1.959964

# Substituted (with a warning) when both groups have zero sample variance.
SE_FLOOR = 1e-12

DEFAULT_ALPHA = 0.05


class SignificanceClass(Enum):
    """Three-way read of a two-sided test: sign if significant, else NotSig."""

    SIG_POSITIVE = "sig_positive"
    NOT_SIG = "not_sig"
    SIG_NEGATIVE = "sig_negative"


@dataclass(frozen=True)
class EstimatorKind:
    """Which estimator produced an estimate.

    ``method`` is "direct" or "surrogate"; ``days`` is the measurement
    horizon for direct estimates and the model order for surrogate ones;
    ``source`` is the surrogate training source (None for direct).
    """

    method: str
    days: int
    source: ModelSource | None = None

    def __post_init__(self) -> None:
        if self.method not in ("direct", "surrogate"):
            raise ValueError(f"unknown estimator method {self.method!r}")
        if (self.source is None) != (self.method == "direct"):
            raise ValueError("source must be set iff the estimator is surrogate")
        if self.days < 1:
            raise ValueError(f"days must be positive, got {self.days}")

    @classmethod
    def direct(cls, horizon: int) -> "EstimatorKind":
        return cls("direct", horizon)

    @classmethod
    def surrogate(cls, order: int, source: ModelSource) -> "EstimatorKind":
        return cls("surrogate", order, source)


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate with its normal-theory inference summary.

    Derived fields are locked to the point and standard error:
    z = point / std_error, p = 2 * (1 - Phi(|z|)), and the 95% confidence
    interval is point +/- Z_CRIT_95 * std_error.
    """

    experiment_id: str
    arm: ArmLabel
    kind: EstimatorKind
    point: float
    std_error: float
    z_stat: float
    p_value: float
    ci_95: tuple[float, float]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.point) and math.isfinite(self.std_error)):
            raise ValueError(
                f"point and std_error must be finite, got {self.point} and {self.std_error}"
            )
        if not self.std_error > 0.0:
            raise ValueError(f"std_error must be positive, got {self.std_error}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")
        low, high = self.ci_95
        if not low <= self.point <= high:
            raise ValueError("confidence interval must contain the point estimate")


def _normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def build_estimate(
    experiment_id: str,
    arm: ArmLabel,
    kind: EstimatorKind,
    point: float,
    std_error: float,
) -> EffectEstimate:
    """Assemble an estimate, deriving z, p, and the 95% interval."""
    if not std_error > 0.0:
        raise ValueError(f"std_error must be positive, got {std_error}")
    z = point / std_error
    return EffectEstimate(
        experiment_id=experiment_id,
        arm=arm,
        kind=kind,
        point=point,
        std_error=std_error,
        z_stat=z,
        p_value=_normal_two_sided_p(z),
        ci_95=(point - Z_CRIT_95 * std_error, point + Z_CRIT_95 * std_error),
    )


def welch_se(group_a: np.ndarray, group_b: np.ndarray) -> float:
    """Two-sample standard error sqrt(s_a^2/n_a + s_b^2/n_b), ddof=1.

    A degenerate value (zero, or below SE_FLOOR from roundoff on constant
    groups) is replaced by SE_FLOOR with a DegenerateVarianceWarning so
    downstream z statistics stay finite and meaningfully huge.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DegenerateGroup(
            f"both groups need at least 2 values, got {a.size} and {b.size}"
        )
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    if se < SE_FLOOR:
        warnings.warn(
            f"two-sample variance is degenerate ({se}); flooring standard "
            f"error at {SE_FLOOR}",
            DegenerateVarianceWarning,
            stacklevel=2,
        )
        return SE_FLOOR
    return se


def mean_difference_effect(
    treated: np.ndarray,
    control: np.ndarray,
    *,
    experiment_id: str,
    arm: ArmLabel,
    kind: EstimatorKind,
) -> EffectEstimate:
    """Difference in group means with a Welch standard error."""
    t = np.asarray(treated, dtype=float)
    c = np.asarray(control, dtype=float)
    point = float(t.mean() - c.mean())
    return build_estimate(experiment_id, arm, kind, point, welch_se(t, c))


def _resolve_treatment_arm(panel: OutcomePanel, arm: ArmLabel | str) -> ArmLabel:
    name = arm if isinstance(arm, str) else arm.name
    for label in panel.arm_labels:
        if label.name == name:
            if label.is_control:
                raise ControlAsTreatment(
                    f"arm {name!r} is the control arm of {panel.experiment_id!r}"
                )
            return label
    raise UnknownArm(f"no arm {name!r} in panel {panel.experiment_id!r}")


def direct_effect(
    panel: OutcomePanel, arm: ArmLabel | str, horizon: int | None = None
) -> EffectEstimate:
    """Difference in means of observed per-user horizon averages."""
    label = _resolve_treatment_arm(panel, arm)
    days = panel.horizon if horizon is None else horizon
    try:
        win = window(panel, 1, days)
    except OutOfRange as exc:
        raise MissingDay(
            f"panel {panel.experiment_id!r} lacks post-allocation days 1..{days}"
        ) from exc
    means = win.mean(axis=1)
    return mean_difference_effect(
        means[panel.arm_mask(label)],
        means[panel.arm_mask(panel.control_arm)],
        experiment_id=panel.experiment_id,
        arm=label,
        kind=EstimatorKind.direct(days),
    )


def surrogate_effect(
    model: SurrogateModel, panel: OutcomePanel, arm: ArmLabel | str
) -> EffectEstimate:
    """Difference in means of surrogate-predicted long-term averages.

    The standard error treats the model coefficients as constants; no
    first-stage fitting uncertainty is propagated.
    """
    label = _resolve_treatment_arm(panel, arm)
    predictions = predict(model, panel)
    return mean_difference_effect(
        predictions[panel.arm_mask(label)],
        predictions[panel.arm_mask(panel.control_arm)],
        experiment_id=panel.experiment_id,
        arm=label,
        kind=EstimatorKind.surrogate(model.order, model.source),
    )


def z_test(estimate: EffectEstimate, alpha: float = DEFAULT_ALPHA) -> SignificanceClass:
    """Two-sided normal test at level ``alpha``, signed when significant."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if estimate.p_value < alpha:
        return (
            SignificanceClass.SIG_POSITIVE
            if estimate.point > 0
            else SignificanceClass.SIG_NEGATIVE
        )
    return SignificanceClass.NOT_SIG


def estimate_to_record(estimate: EffectEstimate) -> dict:
    """Flat JSON record; surrogate kinds embed their source as kind:source."""
    kind = estimate.kind
    kind_str = "direct" if kind.method == "direct" else f"surrogate:{kind.source.value}"
    return {
        "experiment_id": estimate.experiment_id,
        "arm": estimate.arm.name,
        "kind": kind_str,
        "T": kind.days,
        "point": estimate.point,
        "std_error": estimate.std_error,
        "z": estimate.z_stat,
        "p": estimate.p_value,
        "ci_low": estimate.ci_95[0],
        "ci_high": estimate.ci_95[1],
    }


def record_to_estimate(record: dict) -> EffectEstimate:
    """Rebuild an estimate from its JSON record.

    Records only exist for treatment arms, so the arm label is re-created
    with ``is_control=False``. Derived statistics are recomputed from the
    point and standard error, which reproduces the stored values exactly.
    """
    kind_str = str(record["kind"])
    if kind_str == "direct":
        kind = EstimatorKind.direct(int(record["T"]))
    elif kind_str.startswith("surrogate:"):
        kind = EstimatorKind.surrogate(
            int(record["T"]), ModelSource(kind_str.split(":", 1)[1])
        )
    else:
        raise ValueError(f"unknown estimate kind {kind_str!r}")
    return build_estimate(
        str(record["experiment_id"]),
        ArmLabel(str(record["arm"]), is_control=False),
        kind,
        float(record["point"]),
        float(record["std_error"]),
    )
