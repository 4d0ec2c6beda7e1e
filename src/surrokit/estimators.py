"""Treatment-effect estimators: direct difference-in-means and surrogate-index.

Both estimators reduce an experiment to one per-user scalar (the observed
long-term mean, or a surrogate model's prediction of it) and compare arm
means against the control arm. Standard errors are two-sample Welch form
with unbiased sample variances; surrogate standard errors treat the fitted
coefficients as fixed constants.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ControlAsTreatment,
    DegenerateGroup,
    DegenerateVarianceWarning,
    NumericalError,
    UnknownArm,
)
from .panel import OutcomePanel, window
from .surrogate import ModelSource, SurrogateModel, fit_pretest, predict, running_mean_model

# Two-sided 95% normal critical value, pinned so confidence intervals are
# reproducible bit for bit.
Z_CRIT_95 = 1.959964

# Substituted (with a warning) when both groups have zero sample variance.
SE_FLOOR = 1e-12

DEFAULT_ALPHA = 0.05

# The kinds an estimate may have: a direct read, or a surrogate read by source.
_KINDS = ("direct", *(f"surrogate:{source.value}" for source in ModelSource))


class SignificanceClass(Enum):
    """Three-way read of a two-sided test: sign if significant, else NotSig."""

    SIG_POSITIVE = "sig_positive"
    NOT_SIG = "not_sig"
    SIG_NEGATIVE = "sig_negative"


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate and its standard error, with derived inference.

    Stores the fields of its JSON record. ``arm`` is the treatment arm's
    name, which pairs the direct and surrogate reads of one arm. ``kind`` is
    "direct" or "surrogate:<source>" for a ModelSource value, and ``T``, at
    least 1, is the horizon of a direct read or the order of a surrogate
    model. ``T`` is stored as an ``int``: an integer such as ``np.int64(3)``
    is converted, and a bool or a non-integer raises TypeError. The rest
    derives from the point and standard error:
    z = point / std_error, p = 2 * (1 - Phi(|z|)), and the 95% confidence
    interval is point +/- Z_CRIT_95 * std_error. The point and standard
    error must be finite with a positive standard error, and the z
    statistic and interval bounds must not overflow.
    """

    experiment_id: str
    arm: str
    kind: str
    T: int
    point: float
    std_error: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if isinstance(self.T, bool):  # an int to Python, but never a horizon or an order
            raise TypeError(f"T must be an integer, got {self.T!r}")
        object.__setattr__(self, "T", operator.index(self.T))
        if not self.T >= 1:
            raise ValueError(f"T must be positive, got {self.T}")
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
    downstream z statistics stay finite and meaningfully huge. A group whose
    variance overflows, such as ``[1e200, -1e200, 3e200]``, gives ``inf``
    with numpy's ``RuntimeWarning``, even where the true SE is representable;
    mean_difference_effect turns that ``inf`` into a NumericalError.
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


@np.errstate(over="ignore", invalid="ignore")
def mean_difference_effect(
    treated: np.ndarray,
    control: np.ndarray,
    *,
    experiment_id: str,
    arm: str,
    kind: str,
    T: int,
) -> EffectEstimate:
    """Difference in group means with a Welch standard error.

    ``arm`` is the treatment arm's name. ``kind`` and ``T`` are as in
    EffectEstimate, which raises ValueError or TypeError on one it refuses.
    Raises NumericalError when the point, the standard error, the z
    statistic or a 95% interval bound is not finite (an overflow); numpy's
    overflow warnings are silenced inside, so a caller sees the error alone.
    """
    t = np.asarray(treated, dtype=float)
    c = np.asarray(control, dtype=float)
    point, se = float(t.mean() - c.mean()), welch_se(t, c)
    try:
        return EffectEstimate(experiment_id, arm, kind, T, point, se)
    except ValueError as exc:
        if kind not in _KINDS or not T >= 1:
            raise
        # Else the point, the SE or a statistic derived from them overflowed.
        raise NumericalError(f"effect of arm {arm!r} in {experiment_id!r}: {exc}") from None


def _check_treatment_arm(panel: OutcomePanel, arm: str) -> None:
    """Raise unless ``arm`` names a treatment arm of ``panel``."""
    for label in panel.arm_labels:
        if label.name == arm:
            if label.is_control:
                raise ControlAsTreatment(
                    f"arm {arm!r} is the control arm of {panel.experiment_id!r}"
                )
            return
    raise UnknownArm(f"no arm {arm!r} in panel {panel.experiment_id!r}")


def _contrasts(panel: OutcomePanel, arm, read, kind: str, T: int):
    """Contrast each arm named by ``arm`` against the control arm on one per-user read.

    ``arm`` is one name, which returns one estimate, or an iterable of names,
    which returns a tuple in that order. Every name is checked before
    ``read()`` makes the per-user values once, so an unknown or control arm
    raises ahead of the read's own errors.
    """
    names = [arm] if isinstance(arm, str) else list(arm)
    for name in names:
        _check_treatment_arm(panel, name)
    values = read()
    control, *groups = (values[mask] for mask in panel.arm_mask([panel.control_arm.name, *names]))
    estimates = tuple(
        mean_difference_effect(group, control, experiment_id=panel.experiment_id, arm=name,
                               kind=kind, T=T)
        for name, group in zip(names, groups))
    return estimates[0] if isinstance(arm, str) else estimates


def direct_effect(panel: OutcomePanel, arm: str | Iterable[str], horizon: int | None = None):
    """Difference in means of observed per-user averages over days 1..horizon.

    ``arm`` names a treatment arm, which returns one estimate, or is an
    iterable of names, which returns a tuple of estimates in that order
    from one read of the window. ``horizon`` defaults to the panel's last
    day. The arms are checked first; a panel that lacks days 1..horizon
    then raises the OutOfRange of :func:`~surrokit.panel.window`, which
    names the panel.
    """
    days = panel.horizon if horizon is None else horizon
    return _contrasts(panel, arm, lambda: window(panel, 1, days).mean(axis=1), "direct", days)


def surrogate_effect(model: SurrogateModel, panel: OutcomePanel, arm: str | Iterable[str]):
    """Difference in means of surrogate-predicted long-term averages.

    ``arm`` is as in :func:`direct_effect`: one name or an iterable of
    names, all contrasted from one prediction. The standard error treats
    the model coefficients as constants; no first-stage fitting uncertainty
    is propagated.
    """
    kind = f"surrogate:{model.source.value}"
    return _contrasts(panel, arm, lambda: predict(model, panel), kind, model.order)


def panel_reads(panel: OutcomePanel, regime: ModelSource | str, orders: Iterable[int],
                horizon: int, direct_days: Iterable[int],
                models: Iterable[SurrogateModel] | None = None) -> list[EffectEstimate]:
    """Every read ``surrokit analyze`` makes of one panel, in the order it writes them.

    Each read covers every treatment arm. The direct reads at each of
    ``direct_days`` come first, so a horizon past the panel's last day fails
    before a model of any order up to it is made. Under the similar regime
    ``models`` holds the donor's models, one per order; under the others it
    is None and the panel makes its own: pretest models of ``orders`` fitted
    on its pre-period with a ``horizon``-day target, or the fixed
    running-mean ones. The reads are sorted by (kind, T, arm). An unknown
    regime, or ``models`` given or left out against that rule, raises
    ValueError.
    """
    regime = ModelSource(regime)
    if (models is None) == (regime == ModelSource.SIMILAR_TEST):
        raise ValueError(f"models go with the similar regime and only with it; got "
                         f"{'no models' if models is None else 'models'} under {regime.value}")
    arms = sorted(arm.name for arm in panel.treatment_arms)
    reads = [read for days in direct_days for read in direct_effect(panel, arms, days)]
    if regime == ModelSource.PRE_TEST:
        models = fit_pretest(panel, orders, horizon)
    elif regime == ModelSource.RUNNING_MEAN:
        models = map(running_mean_model, orders)
    for model in models:
        reads += surrogate_effect(model, panel, arms)
    return sorted(reads, key=lambda read: (read.kind, read.T, read.arm))


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
    """Flat JSON record: the stored fields and the derived statistics."""
    ci_low, ci_high = estimate.ci_95
    return {**vars(estimate), "z": estimate.z_stat, "p": estimate.p_value,
            "ci_low": ci_low, "ci_high": ci_high}


# Each field a record is read from: its Python types and JSON type name. A
# bool is an int to Python but never a number here.
_STRING, _NUMBER = (str, "string"), ((int, float), "number")
_RECORD_TYPES = {"experiment_id": _STRING, "arm": _STRING, "kind": _STRING,
                 "T": (int, "integer"), "point": _NUMBER, "std_error": _NUMBER}


def record_to_estimate(record: dict) -> EffectEstimate:
    """Rebuild an estimate from its JSON record.

    Only the six stored fields are read: the derived statistics the point
    and standard error determine reproduce the written values exactly. A missing field,
    or one of another JSON type, such as ``"T": 14.5`` or ``"point": "0.5"``,
    raises ValueError naming it; nothing is coerced.
    """
    for name, (types, json_type) in _RECORD_TYPES.items():
        if name not in record:
            raise ValueError(f"estimate field {name!r} is missing")
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"estimate field {name!r} must be a JSON {json_type}, got {value!r}")
    point, std_error = float(record["point"]), float(record["std_error"])
    return EffectEstimate(record["experiment_id"], record["arm"], record["kind"], record["T"],
                          point, std_error)
