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
    NumericalError,
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

    Stores ``days``, the measurement horizon for direct estimates and the
    model order for surrogate ones, and ``source``, the surrogate training
    source (None for direct). ``method`` is derived: "direct" iff there is
    no source, else "surrogate".
    """

    days: int
    source: ModelSource | None = None

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError(f"days must be positive, got {self.days}")

    @property
    def method(self) -> str:
        return "direct" if self.source is None else "surrogate"

    @classmethod
    def direct(cls, horizon: int) -> "EstimatorKind":
        return cls(horizon)

    @classmethod
    def surrogate(cls, order: int, source: ModelSource) -> "EstimatorKind":
        return cls(order, source)


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate and its standard error, with derived inference.

    Stores the point and standard error; everything else derives from
    them: z = point / std_error, p = 2 * (1 - Phi(|z|)), and the 95%
    confidence interval is point +/- Z_CRIT_95 * std_error. The point and
    standard error must be finite with a positive standard error, and the
    z statistic and interval bounds must not overflow.
    """

    experiment_id: str
    arm: ArmLabel
    kind: EstimatorKind
    point: float
    std_error: float

    def __post_init__(self) -> None:
        if not self.std_error > 0.0:
            raise ValueError(f"std_error must be positive, got {self.std_error}")
        if not all(map(math.isfinite, (self.point, self.std_error, self.z_stat, *self.ci_95))):
            raise ValueError(
                f"point {self.point}, std_error {self.std_error}, their z statistic and "
                f"95% interval must be finite"
            )

    @property
    def z_stat(self) -> float:
        return self.point / self.std_error

    @property
    def p_value(self) -> float:
        return math.erfc(abs(self.z_stat) / math.sqrt(2.0))

    @property
    def ci_95(self) -> tuple[float, float]:
        half_width = Z_CRIT_95 * self.std_error
        return self.point - half_width, self.point + half_width


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
    """Difference in group means with a Welch standard error.

    Raises NumericalError when the point, the standard error, the z
    statistic or a 95% interval bound is not finite (an overflow).
    """
    t = np.asarray(treated, dtype=float)
    c = np.asarray(control, dtype=float)
    point, se = float(t.mean() - c.mean()), welch_se(t, c)
    try:
        return EffectEstimate(experiment_id, arm, kind, point, se)
    except ValueError as exc:  # the point, the SE or a statistic derived from them overflowed
        raise NumericalError(f"effect of arm {arm.name!r} in {experiment_id!r}: {exc}") from None


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
    with ``is_control=False``. Only the point and standard error are read:
    the derived statistics they determine reproduce the stored values
    exactly.
    """
    method, colon, source = str(record["kind"]).partition(":")
    if (method, colon) not in (("direct", ""), ("surrogate", ":")):
        raise ValueError(f"unknown estimate kind {record['kind']!r}")
    kind = EstimatorKind(int(record["T"]), ModelSource(source) if colon else None)
    return EffectEstimate(
        str(record["experiment_id"]),
        ArmLabel(str(record["arm"]), is_control=False),
        kind,
        float(record["point"]),
        float(record["std_error"]),
    )
