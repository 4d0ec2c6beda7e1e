"""Decision-agreement evaluation between direct and surrogate test reads.

``paired_groups`` is the one pairing rule: it groups the reads by (kind,
T) and pairs each read with its arm's direct read at the horizon, the
largest direct T. ``decision_report`` tabulates one group's pairs of
significance classifications into a 3x3 confusion matrix (rows = direct
read, columns = the group's read), and derives launch-decision metrics.
A launch decision is "ship iff the read is positive and statistically
significant", so precision is the share of surrogate ship calls confirmed
by the direct read and recall is the share of direct ship calls the
surrogate also makes.

Metrics with a zero denominator are reported as ``None`` (an explicit
undefined marker, serialized as JSON null), never as NaN.

Also provides the distribution summaries used to compare estimate
spreads (scaling by a reference standard deviation, excess kurtosis) and
the two throughput formulas relating testing-cycle length and recall to
experimentation capacity. ``decision_report`` combines all of these into
the report that ``surrokit evaluate`` writes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

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
from .estimators import EffectEstimate, SignificanceClass, z_test

# Fixed row/column order of the confusion matrix.
CLASS_ORDER: tuple[SignificanceClass, ...] = tuple(SignificanceClass)


def paired_groups(estimates: Iterable[EffectEstimate]) -> dict[tuple[str, int], list[tuple]]:
    """``{(kind, T): [(direct, read), ...]}``: each read paired with its arm's horizon read.

    The reads are grouped by (kind, T), and the horizon is the largest
    direct T. Its direct reads are the reference that every other group is
    paired with, not a group of their own, so a sweep's truncated direct
    reads form the ``("direct", T)`` groups. The groups, and each group's
    pairs, are sorted by key: the result depends on no input order. Raises
    KeyMismatch when a group reads an arm twice or does not read exactly the
    arms that the horizon reads do, and EmptyInput, a DataValidationError,
    when no read is direct.
    """
    groups: dict[tuple[str, int], dict[tuple[str, str], EffectEstimate]] = {}
    for est in estimates:
        group = groups.setdefault((est.kind, est.T), {})
        key = (est.experiment_id, est.arm)
        if key in group:
            raise KeyMismatch(f"{est.kind} at T {est.T} reads {key} twice")
        group[key] = est
    horizon = max((T for kind, T in groups if kind == "direct"), default=None)
    if horizon is None:
        raise EmptyInput("no direct read to pair the reads with")
    reference = groups.pop(("direct", horizon))
    paired = {}
    for (kind, T), group in sorted(groups.items()):
        if group.keys() != reference.keys():
            raise KeyMismatch(f"{kind} at T {T} and direct at T {horizon} read different arms; "
                              f"only direct reads {sorted(reference.keys() - group.keys())[:5]}, "
                              f"only {kind} reads {sorted(group.keys() - reference.keys())[:5]}")
        paired[kind, T] = [(reference[key], group[key]) for key in sorted(group)]
    return paired


def launch_metrics(counts: Sequence[Sequence[int]]) -> dict:
    """The report's launch-decision metrics from a 3x3 matrix of counts.

    Rows are the direct class and columns the surrogate class, both in
    CLASS_ORDER. Returns ``precision``, ``recall``, ``agreement``,
    ``ns_rates`` (direct and surrogate) and ``false_launch_negatives``, the
    pairs the surrogate launches and the direct read scores significantly
    negative. Raises ValueError unless the matrix is 3x3 and its counts are
    nonnegative whole numbers (of any numeric type), and EmptyInput when it
    holds no pairs.
    """
    m = [list(row) for row in counts]
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError("confusion matrix must be 3x3")
    # The bound rejects NaN and infinity before the remainder could see them.
    if not all(0 <= c < math.inf and c % 1 == 0 for row in m for c in row):
        raise ValueError("confusion matrix counts must be nonnegative whole numbers")
    m = [[int(c) for c in row] for row in m]
    total = sum(map(sum, m))
    if total == 0:
        raise EmptyInput("confusion matrix is empty")
    # Index 0 is SigPositive and 1 NotSig in CLASS_ORDER.
    rows, columns = [sum(row) for row in m], [sum(col) for col in zip(*m)]
    return {
        "precision": None if columns[0] == 0 else m[0][0] / columns[0],
        "recall": None if rows[0] == 0 else m[0][0] / rows[0],
        "agreement": (m[0][0] + m[1][1] + m[2][2]) / total,
        "ns_rates": {"direct": rows[1] / total, "surrogate": columns[1] / total},
        "false_launch_negatives": m[2][0],
    }


def _centered(x: np.ndarray) -> tuple[float, np.ndarray, int]:
    """The mean of ``x``, its deviations from it divided by 2**e, and e.

    The values are first divided by the exact power of two 2**e that brings
    the largest |x| into [0.5, 1), so the mean is finite, every deviation is
    below 2 and the largest nonzero one is at least 2^-54. While nothing is
    subnormal, the division commutes with every rounding of the sums that
    use it. Raises NumericalError when a value is not finite.
    """
    with np.errstate(invalid="ignore"):
        exponent = int(np.frexp(abs(x).max())[1])
        x = np.ldexp(x, -exponent)
        mean = x.mean()
        centered = x - mean
    if not np.isfinite(centered).all():
        raise NumericalError("a value is not finite")
    return math.ldexp(float(mean), exponent), centered, exponent


def _sample_std(x: np.ndarray) -> float:
    """``x.std(ddof=1)`` of two or more values, finite wherever its value is.

    Raises NumericalError when the value itself is past the float range, or
    a value is not finite.
    """
    _, centered, exponent = _centered(x)
    root = math.sqrt(float(np.sum(centered**2)) / (x.size - 1))
    if math.frexp(root)[1] + exponent > 1024:
        raise NumericalError(f"the sample standard deviation overflows ({root} * 2**{exponent})")
    return math.ldexp(root, exponent)


def excess_kurtosis(values: np.ndarray) -> float:
    """Bias-corrected sample excess kurtosis (0 for normal data).

    Uses the standard small-sample correction
    G2 = ((n-1) / ((n-2)(n-3))) * ((n+1) g2 + 6) with g2 = m4/m2^2 - 3.
    g2 is scale-free, so the central moments m2 and m4 are taken over the
    deviations that ``_centered`` returns. Raises ZeroVariance for constant
    values, whose mean can round away from them; NumericalError when a
    value is not finite.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        raise DegenerateGroup(f"excess kurtosis needs at least 4 values, got {n}")
    if x.min() == x.max():
        raise ZeroVariance("excess kurtosis undefined: constant values")
    _, centered, _ = _centered(x)
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    g2 = m4 / (m2 * m2) - 3.0
    return (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)


@np.errstate(over="ignore", invalid="ignore")
def scaled_distribution(
    values: np.ndarray, scale_by: np.ndarray | None = None
) -> tuple[dict, np.ndarray]:
    """Divide values by the sample std of ``scale_by`` and summarize.

    Returns the report's ``{n, mean, std_dev, excess_kurtosis}`` entry for
    the scaled values, and the read-only scaled values. ``scale_by``
    defaults to the values themselves, in which case the scaled values have
    sample standard deviation 1. The mean and both standard deviations
    follow ``_centered``'s one rescale rule, so each is finite where its
    true value is. Raises ZeroVariance when the scale is undefined: fewer
    than 2 values in ``scale_by`` or a zero sample standard deviation;
    EmptyInput when ``values`` is empty but the scale is not; NumericalError
    when a scaled value is not finite; numpy's overflow warnings are silenced
    inside, so a caller sees the error alone.
    The excess kurtosis is None exactly when ``excess_kurtosis`` finds it
    undefined: fewer than 4 values, or constant values.
    """
    x = np.asarray(values, dtype=float)
    reference = x if scale_by is None else np.asarray(scale_by, dtype=float)
    if reference.size < 2:
        raise ZeroVariance(
            f"scaling vector needs at least 2 values, got {reference.size}"
        )
    scale = _sample_std(reference)
    if scale == 0.0:
        raise ZeroVariance("scaling vector has zero sample standard deviation")
    if not x.size:
        raise EmptyInput("no values to scale")
    scaled = x / scale
    scaled.setflags(write=False)
    try:
        kurt = excess_kurtosis(scaled)
    except (DegenerateGroup, ZeroVariance):
        kurt = None
    summary = {
        "n": scaled.size,
        "mean": _centered(scaled)[0],
        "std_dev": _sample_std(scaled) if scaled.size >= 2 else 0.0,
        "excess_kurtosis": kurt,
    }
    return summary, scaled


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


def decision_report(
    paired: Sequence[tuple[EffectEstimate, EffectEstimate]],
    alpha: float,
    long_cycle_days: float,
    short_cycle_days: float,
) -> tuple[dict, np.ndarray]:
    """The launch-decision report over one group's (direct, read) pairs, and scaled differences.

    ``paired`` is one group of ``paired_groups``; the report takes the pairs
    in their order and reads neither their kind nor their T. It counts each
    pair's ``z_test`` classes at ``alpha`` into the ``confusion`` matrix.
    The JSON-ready report holds:
    - that matrix and its ``launch_metrics``;
    - the ``scaled_distribution`` of the direct points, the surrogate
      points and their surrogate-minus-direct differences, with points
      scaled by the direct points' standard deviation and differences by
      their own (None where the scale is undefined);
    - the capacity figures for the two cycle lengths.

    The second value holds the scaled differences in the pairs' order,
    empty where they are undefined.
    """
    if not paired:
        raise EmptyInput("cannot tabulate zero decision pairs")
    counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for d, s in paired:
        counts[CLASS_ORDER.index(z_test(d, alpha))][CLASS_ORDER.index(z_test(s, alpha))] += 1
    metrics = launch_metrics(counts)
    direct_points = np.array([d.point for d, _ in paired])
    surrogate_points = np.array([s.point for _, s in paired])
    differences = surrogate_points - direct_points
    distributions = {}
    for name, values, scale_by in (
        ("direct", direct_points, direct_points),
        ("surrogate", surrogate_points, direct_points),
        ("differences", differences, differences),
    ):
        try:
            distributions[name], scaled = scaled_distribution(values, scale_by)
        except ZeroVariance:  # the scale is undefined
            distributions[name], scaled = None, np.empty(0)
    report = {
        "alpha": alpha,
        "n_pairs": len(paired),
        "class_order": [cls.value for cls in CLASS_ORDER],
        "confusion": counts,
        **metrics,
        "kurtosis": {
            name: None if entry is None else entry["excess_kurtosis"]
            for name, entry in distributions.items()
        },
        "distributions": distributions,
        "capacity": {
            "long_cycle_days": long_cycle_days,
            "short_cycle_days": short_cycle_days,
            "capacity_gain": capacity_gain(long_cycle_days, short_cycle_days),
            "extra_experiments_needed": (
                extra_experiments_needed(metrics["recall"]) if metrics["recall"] else None
            ),
        },
    }
    return report, scaled  # the differences', which come last
