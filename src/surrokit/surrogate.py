"""Linear auto-surrogate models of the long-term outcome mean.

A surrogate model of order T predicts each user's long-term average daily
outcome from an intercept plus the user's first T post-allocation days:

    prediction_i = b0 + sum_t b_t * Y[i, t],   t = 1..T

Three model sources are supported:

* pre-test: fit on the same users' pre-allocation days, remapped to a
  pseudo post-allocation window;
* similar-test: fit on another experiment's post-allocation data;
* running-mean: the fixed model b0 = 0, b_t = 1/T (no fitting).

Fitting is plain OLS through a numpy-only orthogonal factorisation of the
design [1 | Y_1..Y_T]: Gram-Schmidt applied twice per column, left to
right. The models of nested orders share one factorisation, and the
factorisation is prefix-invariant by construction: column j is computed
from columns 0..j alone, by numpy sums (never BLAS) over vectors whose
lengths do not depend on how many columns are factored. An order-T model is
therefore bit-identical whether it is fitted alone or among the orders of a
sweep. Rank deficiency is an error, never a silent pseudo-inverse solve.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    MissingPrePeriod,
    NonFiniteOutcome,
    NumericalError,
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
class SurrogateModel:
    """An order-T linear predictor of the long-term outcome mean.

    Stores the intercept, the coefficients b_1..b_T and the training source;
    the order T is derived as the coefficient count, which must be at
    least 1.
    """

    intercept: float
    coefficients: tuple[float, ...]
    source: ModelSource

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.coefficients:
            raise ValueError("a surrogate model needs at least one coefficient")
        if self.source is ModelSource.RUNNING_MEAN:
            equal_weight = 1.0 / self.order
            if self.intercept != 0.0 or any(
                c != equal_weight for c in self.coefficients
            ):
                raise ValueError("running-mean models must have b0=0, b_t=1/T")

    @property
    def order(self) -> int:
        return len(self.coefficients)


def _factor(x: np.ndarray, y: np.ndarray, width: int):
    """Orthonormalise the first ``width`` columns of the design [1 | x].

    Column j of the design is projected off the orthonormal columns 0..j-1
    twice (classical Gram-Schmidt with reorthogonalisation) and normalised.
    Each step is applied to the column's coefficient row too, so that
    ``q_j = design @ coef[j]``; the rows of ``coef`` are the columns of
    R^-1, and the order-T solution is ``(Q'y)[:T+1] @ coef[:T+1, :T+1]``.
    The target is swept off each new column as it is made, which gives Q'y.

    Sums run through ``np.einsum`` (never BLAS), over n rows or over the
    earlier columns one at a time, on vectors whose lengths are n or j, so
    column j's results do not depend on ``width``. The result is cut to the
    longest leading prefix that passes the rank check: every |R_ii| of the
    prefix above RANK_RTOL times its largest column norm. Raises
    NumericalError, naming the column, when a column's sum of squares
    overflows, which the rank check would read as collinearity.
    """
    n = x.shape[0]
    q = np.empty((width, n), dtype=float)
    q[0] = 1.0
    q[1:] = x[:, : width - 1].T
    coef = np.identity(width)
    qty = np.empty(width, dtype=float)
    residual = y.copy()
    smallest_diag, largest_norm = math.inf, 0.0
    for j in range(width):
        v, basis = q[j], q[:j]
        largest_norm = max(largest_norm, math.sqrt(np.einsum("i,i->", v, v)))
        if largest_norm == math.inf:
            raise NumericalError(f"the sum of squares of design column {j} overflows")
        for _ in range(2):
            h = np.einsum("ij,j->i", basis, v)
            v -= np.einsum("i,ij->j", h, basis)
            coef[j, :j] -= np.einsum("i,ij->j", h, coef[:j, :j])
        diag = math.sqrt(np.einsum("i,i->", v, v))
        smallest_diag = min(smallest_diag, diag)
        if not smallest_diag > RANK_RTOL * largest_norm:
            return coef[:j, :j], qty[:j]
        v /= diag
        coef[j, : j + 1] /= diag
        qty[j] = np.einsum("i,i->", v, residual)
        residual -= qty[j] * v
    return coef, qty


def _require_rows(n: int, order: int) -> None:
    if n <= order + 1:
        raise TooFewRows(f"need more than {order + 1} rows to fit order {order}, got {n}")


def fit_nested(
    features: np.ndarray,
    targets: np.ndarray,
    orders: Iterable[int],
    source: ModelSource = ModelSource.SIMILAR_TEST,
) -> tuple[SurrogateModel, ...]:
    """Fit one OLS model per order from one factorisation of [1 | features].

    The order-T model regresses ``targets`` on an intercept and the first T
    columns of the (n, P) ``features``. Only the columns up to the largest
    order are factored. Each model is bit-identical to the one this
    function returns for that order alone. Models come back in the order of
    ``orders``.

    Raises:
        ValueError: ``features`` is not 2-D, ``targets`` does not match its
            rows, there is no order, or an order is outside 1..P.
        TypeError: an order is not an integer.
        NonFiniteOutcome: a used feature or a target is not finite.
        TooFewRows: n <= T + 1 for an order T.
        NumericalError: a design column of an order T has a sum of squares
            past the float range, or the order-T intercept or a
            coefficient is not finite.
        RankDeficient: for an order T, some |R_ii| of the design prefix
            [1 | Y_1..Y_T] is at most RANK_RTOL times the prefix's largest
            column norm.

    When several orders fail, the error is that of the smallest one.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    n, n_columns = x.shape
    if y.shape != (n,):
        raise ValueError(f"targets shape {y.shape} does not match {n} rows")
    orders = [operator.index(order) for order in orders]
    if not orders or min(orders) < 1 or max(orders) > n_columns:
        raise ValueError(f"orders {orders} must lie in 1..{n_columns}")
    top = max(orders)
    x = x[:, :top]
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFiniteOutcome("features and targets must be finite")

    # The smallest order fails first on rows alone; this also keeps n >= 3.
    _require_rows(n, min(orders))

    # Orders with n <= T + 1 fail below, so no column past n - 2 is needed.
    coef, qty = _factor(x, y, min(top, n - 2) + 1)
    models = {}
    for order in sorted(set(orders)):
        _require_rows(n, order)
        if order >= len(qty):
            raise RankDeficient(
                f"design columns 0..{len(qty)} of order {order} are collinear "
                f"at relative tolerance {RANK_RTOL}"
            )
        beta = np.einsum("i,ij->j", qty[: order + 1], coef[: order + 1, : order + 1])
        if not np.isfinite(beta).all():
            raise NumericalError(f"the order-{order} fit has a coefficient that is not finite")
        models[order] = SurrogateModel(float(beta[0]), tuple(beta[1:].tolist()), source)
    return tuple(models[order] for order in orders)


def _fit_window(panel: OutcomePanel, first_day: int, days: int, order, source: ModelSource):
    """Fit ``order`` on ``days`` days of ``panel`` from ``first_day``.

    The target is each user's mean over those days and the features are the
    first ``order`` of them. Raises OutOfRange when an order exceeds
    ``days``, and otherwise as :func:`fit_nested` does. The window is cut
    first, so ``days`` past the panel's range fails before the orders up to
    it are listed.
    """
    full = window(panel, first_day, first_day + days - 1)
    single = not isinstance(order, Iterable)
    orders = [order] if single else list(order)
    if orders and max(orders) > days:
        raise OutOfRange(
            f"panel {panel.experiment_id!r}: order {max(orders)} exceeds horizon {days}")
    models = fit_nested(full, full.mean(axis=1), orders, source)
    return models[0] if single else models


def fit_pretest(panel: OutcomePanel, order: int | Iterable[int], horizon: int | None = None):
    """Fit on the panel's own pre-allocation window.

    The pre-period is the panel's pre-allocation days, from its first day
    to day -1 or to its last day if that comes first. Its P days are
    remapped to pseudo post-allocation days 1..P. The target is each user's
    mean over the first ``horizon`` pseudo days, as the direct read averages
    post days 1..horizon; ``horizon`` defaults to the panel's last day, as in
    ``direct_effect``. The features are the first ``order`` pseudo days.
    All arms are pooled: the pre-period predates randomization, so pooling
    is valid. ``order`` is as in :func:`fit_similar`.

    Raises OutOfRange when ``horizon`` is below 1 (given, or defaulted on a
    panel without post-allocation days), MissingPrePeriod when the
    pre-period is shorter than ``horizon`` (a panel without one has 0 days),
    and OutOfRange when an order exceeds ``horizon``. Each names the panel,
    and ``analyze`` exits 3 on each.
    """
    pre_days = max(0, min(panel.horizon, -1) - panel.days[0] + 1)
    days = panel.horizon if horizon is None else horizon
    if days < 1:
        raise OutOfRange(f"panel {panel.experiment_id!r}: horizon {days} is below 1")
    if days > pre_days:
        raise MissingPrePeriod(f"horizon {days} exceeds the {pre_days}-day pre-period of panel "
                               f"{panel.experiment_id!r}")
    return _fit_window(panel, panel.days[0], days, order, ModelSource.PRE_TEST)


def fit_similar(
    donor: OutcomePanel, order: int | Iterable[int], horizon: int | None = None
):
    """Fit on a donor experiment's post-allocation data.

    The target is the donor users' long-term mean (days 1..horizon, where
    ``horizon`` defaults to the donor's last day) and the features are
    their first ``order`` days. All donor arms are pooled. ``order`` is one
    order, which returns one model, or an iterable of orders, which returns
    a tuple of models from one factorisation (see :func:`fit_nested`); each
    equals its single-order fit bit for bit. Raises OutOfRange, naming the
    donor, when it lacks days 1..horizon or an order exceeds the horizon.
    """
    days = donor.horizon if horizon is None else horizon
    return _fit_window(donor, 1, days, order, ModelSource.SIMILAR_TEST)


def running_mean_model(order: int) -> SurrogateModel:
    """The fixed equal-weight baseline: b0 = 0 and every b_t = 1/T."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return SurrogateModel(0.0, (1.0 / order,) * order, ModelSource.RUNNING_MEAN)


def predict(model: SurrogateModel, panel: OutcomePanel) -> np.ndarray:
    """Per-user predicted long-term means, ordered as ``panel.user_ids``."""
    features = window(panel, 1, model.order)
    return model.intercept + features @ np.asarray(model.coefficients)

