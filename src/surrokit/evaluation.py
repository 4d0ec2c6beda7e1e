"""Decision-agreement evaluation between direct and surrogate test reads.

Pairs each arm's direct and surrogate significance classifications,
tabulates them into a 3x3 confusion matrix (rows = direct read, columns =
surrogate read), and derives launch-decision metrics. A launch decision is
"ship iff the read is positive and statistically significant", so
precision is the share of surrogate ship calls confirmed by the direct
read and recall is the share of direct ship calls the surrogate also
makes.

Metrics with a zero denominator are reported as ``None`` (an explicit
undefined marker, serialized as JSON null), never as NaN.

Also provides the distribution diagnostics used to compare estimate
spreads (scaling by a reference standard deviation, excess kurtosis) and
the two throughput formulas relating testing-cycle length and recall to
experimentation capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGroup,
    EmptyInput,
    InvalidCycle,
    InvalidRecall,
    KeyMismatch,
    NumericalError,
    ZeroVariance,
)
from .estimators import DEFAULT_ALPHA, EffectEstimate, SignificanceClass, z_test

# Fixed row/column order of the confusion matrix.
CLASS_ORDER: tuple[SignificanceClass, ...] = (
    SignificanceClass.SIG_POSITIVE,
    SignificanceClass.NOT_SIG,
    SignificanceClass.SIG_NEGATIVE,
)
_CLASS_INDEX = {cls: i for i, cls in enumerate(CLASS_ORDER)}


@dataclass(frozen=True)
class DecisionPair:
    """One arm's direct and surrogate significance classifications."""

    experiment_id: str
    arm: str
    direct_class: SignificanceClass
    surrogate_class: SignificanceClass


@dataclass(frozen=True)
class ConfusionMatrix3:
    """3x3 decision counts; rows = direct class, columns = surrogate class.

    Row and column order follows CLASS_ORDER: SigPositive, NotSig,
    SigNegative.
    """

    counts: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        counts = tuple(tuple(int(c) for c in row) for row in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != 3 or any(len(row) != 3 for row in counts):
            raise ValueError("confusion matrix must be 3x3")
        if any(c < 0 for row in counts for c in row):
            raise ValueError("confusion matrix counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def count(self, direct: SignificanceClass, surrogate: SignificanceClass) -> int:
        return self.counts[_CLASS_INDEX[direct]][_CLASS_INDEX[surrogate]]

    def row_total(self, direct: SignificanceClass) -> int:
        return sum(self.counts[_CLASS_INDEX[direct]])

    def col_total(self, surrogate: SignificanceClass) -> int:
        j = _CLASS_INDEX[surrogate]
        return sum(row[j] for row in self.counts)


@dataclass(frozen=True)
class LaunchMetrics:
    """Launch-decision agreement summary; None marks an undefined metric."""

    precision: float | None
    recall: float | None
    agreement: float
    surrogate_ns_rate: float
    direct_ns_rate: float
    false_launch_negatives: int


@dataclass(frozen=True)
class DistributionSummary:
    """Summary of values rescaled by a reference standard deviation.

    Stores the scaled values and their statistics; the count
    ``n`` is derived from ``scaled_values``. ``excess_kurtosis`` uses the
    bias-corrected sample estimator and is None for fewer than 4 values.
    """

    mean: float
    std_dev: float
    excess_kurtosis: float | None
    scaled_values: np.ndarray

    @property
    def n(self) -> int:
        return self.scaled_values.size


def classify_pairs(
    direct: list[EffectEstimate],
    surrogate: list[EffectEstimate],
    alpha: float = DEFAULT_ALPHA,
) -> list[DecisionPair]:
    """Pair up direct and surrogate estimates keyed by (experiment, arm).

    Both lists must cover exactly the same keys, once each. Output order
    follows the direct list.
    """

    def keyed(estimates: list[EffectEstimate], label: str) -> dict:
        out = {}
        for est in estimates:
            key = (est.experiment_id, est.arm.name)
            if key in out:
                raise KeyMismatch(f"duplicate {label} estimate for {key}")
            out[key] = est
        return out

    direct_by_key = keyed(direct, "direct")
    surrogate_by_key = keyed(surrogate, "surrogate")
    if direct_by_key.keys() != surrogate_by_key.keys():
        missing = sorted(direct_by_key.keys() - surrogate_by_key.keys())
        extra = sorted(surrogate_by_key.keys() - direct_by_key.keys())
        raise KeyMismatch(
            f"estimate keys differ; missing surrogate for {missing[:5]}, "
            f"missing direct for {extra[:5]}"
        )
    return [
        DecisionPair(
            experiment_id=est.experiment_id,
            arm=est.arm.name,
            direct_class=z_test(est, alpha),
            surrogate_class=z_test(surrogate_by_key[key], alpha),
        )
        for key, est in direct_by_key.items()
    ]


def confusion(pairs: list[DecisionPair]) -> ConfusionMatrix3:
    """Tabulate decision pairs into the 3x3 matrix."""
    if not pairs:
        raise EmptyInput("cannot tabulate zero decision pairs")
    counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for pair in pairs:
        counts[_CLASS_INDEX[pair.direct_class]][_CLASS_INDEX[pair.surrogate_class]] += 1
    return ConfusionMatrix3(tuple(tuple(row) for row in counts))


def launch_metrics(matrix: ConfusionMatrix3) -> LaunchMetrics:
    """Precision/recall/agreement of launch decisions from the matrix."""
    total = matrix.total
    if total == 0:
        raise EmptyInput("confusion matrix is empty")
    pos = SignificanceClass.SIG_POSITIVE
    neg = SignificanceClass.SIG_NEGATIVE
    ns = SignificanceClass.NOT_SIG
    both_positive = matrix.count(pos, pos)
    surrogate_positive = matrix.col_total(pos)
    direct_positive = matrix.row_total(pos)
    agreement = sum(matrix.count(cls, cls) for cls in CLASS_ORDER) / total
    return LaunchMetrics(
        precision=None if surrogate_positive == 0 else both_positive / surrogate_positive,
        recall=None if direct_positive == 0 else both_positive / direct_positive,
        agreement=agreement,
        surrogate_ns_rate=matrix.col_total(ns) / total,
        direct_ns_rate=matrix.row_total(ns) / total,
        false_launch_negatives=matrix.count(neg, pos),
    )


def excess_kurtosis(values: np.ndarray) -> float:
    """Bias-corrected sample excess kurtosis (0 for normal data).

    Uses the standard small-sample correction
    G2 = ((n-1) / ((n-2)(n-3))) * ((n+1) g2 + 6) with g2 = m4/m2^2 - 3.
    Raises NumericalError when the fourth central moment m4 overflows,
    which m2 overflowing implies.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        raise DegenerateGroup(f"excess kurtosis needs at least 4 values, got {n}")
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise ZeroVariance("excess kurtosis undefined for constant values")
    m4 = float(np.mean(centered**4))
    if not math.isfinite(m4):
        raise NumericalError(f"excess kurtosis overflows: fourth central moment is {m4}")
    g2 = m4 / (m2 * m2) - 3.0
    return (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)


def scaled_distribution(
    values: np.ndarray, scale_by: np.ndarray | None = None
) -> DistributionSummary:
    """Divide values by the sample std of ``scale_by`` and summarize.

    ``scale_by`` defaults to the values themselves, in which case the
    scaled values have sample standard deviation 1.
    """
    x = np.asarray(values, dtype=float)
    reference = x if scale_by is None else np.asarray(scale_by, dtype=float)
    if reference.size < 2:
        raise ZeroVariance(
            f"scaling vector needs at least 2 values, got {reference.size}"
        )
    scale = float(reference.std(ddof=1))
    if scale == 0.0:
        raise ZeroVariance("scaling vector has zero sample standard deviation")
    scaled = x / scale
    scaled.setflags(write=False)
    kurt = excess_kurtosis(scaled) if scaled.size >= 4 else None
    return DistributionSummary(
        mean=float(scaled.mean()),
        std_dev=float(scaled.std(ddof=1)) if scaled.size >= 2 else 0.0,
        excess_kurtosis=kurt,
        scaled_values=scaled,
    )


def capacity_gain(long_cycle: float, short_cycle: float) -> float:
    """Maximum relative capacity increase from shortening the test cycle.

    Going from ``long_cycle`` days to ``short_cycle`` days fits
    long/short as many experiments into the same calendar time, a gain of
    long/short - 1.
    """
    if not (0 < long_cycle < math.inf and 0 < short_cycle < math.inf):
        raise InvalidCycle(
            f"cycle lengths must be finite and positive, got {long_cycle} and {short_cycle}"
        )
    if long_cycle < short_cycle:
        raise InvalidCycle(
            f"long cycle {long_cycle} must be at least short cycle {short_cycle}"
        )
    return long_cycle / short_cycle - 1.0


def extra_experiments_needed(recall: float) -> float:
    """Extra short-cycle experiments required to match long-cycle gains.

    With recall r and additive, distribution-stable effects, matching the
    long cycle's launched value takes 1/r times as many experiments, an
    overhead of 1/r - 1.
    """
    if not 0.0 < recall <= 1.0:
        raise InvalidRecall(f"recall must be in (0, 1], got {recall}")
    return 1.0 / recall - 1.0
