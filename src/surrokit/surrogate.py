"""Linear auto-surrogate models of the long-term outcome mean.

A surrogate model of order T predicts each user's long-term average daily
outcome from an intercept plus the user's first T post-allocation days:

    prediction_i = b0 + sum_t b_t * Y[i, t],   t = 1..T

Three model sources are supported:

* pre-test: fit on the same users' pre-allocation days, remapped to a
  pseudo post-allocation window;
* similar-test: fit on another experiment's post-allocation data;
* running-mean: the fixed model b0 = 0, b_t = 1/T (no fitting).

Fitting is plain OLS via a pivoted QR decomposition. Rank deficiency is an
error, never a silent pseudo-inverse solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import (
    MissingPrePeriod,
    NonFiniteOutcome,
    OutOfRange,
    RankDeficient,
    TooFewRows,
)
from .panel import OutcomePanel, window

# Columns whose scaled R diagonal falls below this are treated as dependent.
RANK_RTOL = 1e-10


class ModelSource(str, Enum):
    PRE_TEST = "pretest"
    SIMILAR_TEST = "similar"
    RUNNING_MEAN = "running-mean"


@dataclass(frozen=True)
class FitDiagnostics:
    """Training summary for a fitted model.

    ``residual_variance`` is the unbiased residual variance (sum of squared
    residuals over n - T - 1). Fixed running-mean models carry zeroed
    diagnostics with ``n_train = 0``.
    """

    n_train: int
    r_squared: float
    residual_variance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared {self.r_squared} outside [0, 1]")
        if self.residual_variance < 0.0:
            raise ValueError("residual_variance must be nonnegative")


@dataclass(frozen=True)
class SurrogateModel:
    """An order-T linear predictor of the long-term outcome mean."""

    order: int
    intercept: float
    coefficients: tuple[float, ...]
    source: ModelSource
    diagnostics: FitDiagnostics

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if len(self.coefficients) != self.order:
            raise ValueError(
                f"{len(self.coefficients)} coefficients for order {self.order}"
            )
        if self.source is ModelSource.RUNNING_MEAN:
            equal_weight = 1.0 / self.order
            if self.intercept != 0.0 or any(
                c != equal_weight for c in self.coefficients
            ):
                raise ValueError("running-mean models must have b0=0, b_t=1/T")


def fit_least_squares(
    features: np.ndarray,
    targets: np.ndarray,
    source: ModelSource = ModelSource.SIMILAR_TEST,
) -> SurrogateModel:
    """Fit intercept + coefficients by OLS on an (n, T) feature matrix.

    Solves the least-squares problem through a column-pivoted QR
    decomposition of the design matrix [1 | features]; the normal equations
    are never formed.

    Raises:
        TooFewRows: n <= T + 1.
        RankDeficient: design column rank < T + 1 at the documented
            tolerance (RANK_RTOL times the largest design column norm).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    n, order = x.shape
    if y.shape != (n,):
        raise ValueError(f"targets shape {y.shape} does not match {n} rows")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFiniteOutcome("features and targets must be finite")
    if n <= order + 1:
        raise TooFewRows(f"need more than {order + 1} rows to fit order {order}, got {n}")

    design = np.empty((n, order + 1), dtype=float)
    design[:, 0] = 1.0
    design[:, 1:] = x

    q, r, pivot = scipy.linalg.qr(design, mode="economic", pivoting=True)
    tol = RANK_RTOL * float(np.linalg.norm(design, axis=0).max())
    rank = int(np.sum(np.abs(np.diag(r)) > tol))
    if rank < order + 1:
        raise RankDeficient(
            f"design matrix rank {rank} < {order + 1}; columns are collinear"
        )
    beta = np.empty(order + 1, dtype=float)
    beta[pivot] = scipy.linalg.solve_triangular(r, q.T @ y)

    residuals = y - design @ beta
    rss = float(residuals @ residuals)
    centered = y - y.mean()
    tss = float(centered @ centered)
    r_squared = 1.0 if tss == 0.0 else min(max(1.0 - rss / tss, 0.0), 1.0)
    diagnostics = FitDiagnostics(
        n_train=n,
        r_squared=r_squared,
        residual_variance=max(rss, 0.0) / (n - order - 1),
    )
    return SurrogateModel(
        order=order,
        intercept=float(beta[0]),
        coefficients=tuple(beta[1:].tolist()),
        source=source,
        diagnostics=diagnostics,
    )


def fit_pretest(panel: OutcomePanel, order: int) -> SurrogateModel:
    """Fit on the panel's own pre-allocation window.

    The pre-period days (-P..-1) are remapped to pseudo post-allocation
    days 1..P. The target is each user's mean over the whole pseudo window
    and the features are its first ``order`` days. All arms are pooled:
    the pre-period predates randomization, so pooling is valid.
    """
    pre_days = [d for d in panel.days if d < 0]
    if not pre_days:
        raise MissingPrePeriod(
            f"panel {panel.experiment_id!r} has no pre-allocation days"
        )
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order > len(pre_days):
        raise MissingPrePeriod(
            f"order {order} exceeds the {len(pre_days)}-day pre-period"
        )
    full = window(panel, pre_days[0], pre_days[-1])
    features = full[:, :order]
    targets = full.mean(axis=1)
    return fit_least_squares(features, targets, source=ModelSource.PRE_TEST)


def fit_similar(donor: OutcomePanel, order: int) -> SurrogateModel:
    """Fit on a donor experiment's post-allocation data.

    The target is the donor users' long-term mean (days 1..horizon) and
    the features are their first ``order`` days. All donor arms are pooled.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order > donor.horizon:
        raise OutOfRange(f"order {order} exceeds donor horizon {donor.horizon}")
    targets = window(donor, 1, donor.horizon).mean(axis=1)
    features = window(donor, 1, order)
    return fit_least_squares(features, targets, source=ModelSource.SIMILAR_TEST)


def running_mean_model(order: int) -> SurrogateModel:
    """The fixed equal-weight baseline: b0 = 0 and every b_t = 1/T."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return SurrogateModel(
        order=order,
        intercept=0.0,
        coefficients=(1.0 / order,) * order,
        source=ModelSource.RUNNING_MEAN,
        diagnostics=FitDiagnostics(n_train=0, r_squared=0.0, residual_variance=0.0),
    )


def predict(model: SurrogateModel, panel: OutcomePanel) -> np.ndarray:
    """Per-user predicted long-term means, ordered as ``panel.user_ids``."""
    features = window(panel, 1, model.order)
    return model.intercept + features @ np.asarray(model.coefficients)


def model_to_dict(model: SurrogateModel) -> dict:
    """Flat JSON-compatible representation for CLI round-tripping."""
    d = model.diagnostics
    return {
        "order": model.order,
        "intercept": model.intercept,
        "coefficients": list(model.coefficients),
        "source": model.source.value,
        "diagnostics": {
            "n_train": d.n_train,
            "r_squared": d.r_squared,
            "residual_variance": d.residual_variance,
        },
    }


def model_from_dict(payload: dict) -> SurrogateModel:
    diag = payload["diagnostics"]
    return SurrogateModel(
        order=int(payload["order"]),
        intercept=float(payload["intercept"]),
        coefficients=tuple(float(c) for c in payload["coefficients"]),
        source=ModelSource(payload["source"]),
        diagnostics=FitDiagnostics(
            n_train=int(diag["n_train"]),
            r_squared=float(diag["r_squared"]),
            residual_variance=float(diag["residual_variance"]),
        ),
    )
