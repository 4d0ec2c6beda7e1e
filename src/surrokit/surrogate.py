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
    """An order-T linear predictor of the long-term outcome mean.

    Stores the intercept, the coefficients b_1..b_T, the training source and
    the fit diagnostics; the order T is derived as the coefficient count,
    which must be at least 1.
    """

    intercept: float
    coefficients: tuple[float, ...]
    source: ModelSource
    diagnostics: FitDiagnostics

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
    The target is swept off each new column as it is made, which gives Q'y
    and the residual sum of squares of every prefix.

    Sums run through ``np.einsum`` (never BLAS), over n rows or over the
    earlier columns one at a time, on vectors whose lengths are n or j, so
    column j's results do not depend on ``width``. The result is cut to the
    longest leading prefix that passes the rank check: every |R_ii| of the
    prefix above RANK_RTOL times its largest column norm.
    """
    n = x.shape[0]
    q = np.empty((width, n), dtype=float)
    q[0] = 1.0
    q[1:] = x[:, : width - 1].T
    coef = np.identity(width)
    qty = np.empty(width, dtype=float)
    rss = np.empty(width, dtype=float)
    residual = y.copy()
    smallest_diag, largest_norm = math.inf, 0.0
    for j in range(width):
        v, basis = q[j], q[:j]
        largest_norm = max(largest_norm, math.sqrt(np.einsum("i,i->", v, v)))
        for _ in range(2):
            h = np.einsum("ij,j->i", basis, v)
            v -= np.einsum("i,ij->j", h, basis)
            coef[j, :j] -= np.einsum("i,ij->j", h, coef[:j, :j])
        diag = math.sqrt(np.einsum("i,i->", v, v))
        smallest_diag = min(smallest_diag, diag)
        if not smallest_diag > RANK_RTOL * largest_norm:
            return coef[:j, :j], qty[:j], rss[:j]
        v /= diag
        coef[j, : j + 1] /= diag
        qty[j] = np.einsum("i,i->", v, residual)
        residual -= qty[j] * v
        rss[j] = np.einsum("i,i->", residual, residual)
    return coef, qty, rss


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
            rows, or an order is outside 1..P.
        NonFiniteOutcome: a used feature or a target is not finite.
        TooFewRows: n <= T + 1 for an order T.
        NumericalError: the targets' total sum of squares is not finite.
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
    coef, qty, rss = _factor(x, y, min(top, n - 2) + 1)
    # rss[0] is the total sum of squares: the residual after the intercept.
    tss = float(rss[0])
    if not math.isfinite(tss):
        raise NumericalError(f"the targets' total sum of squares overflows ({tss})")
    models = {}
    for order in sorted(set(orders)):
        _require_rows(n, order)
        if order >= len(qty):
            raise RankDeficient(
                f"design columns 0..{len(qty)} of order {order} are collinear "
                f"at relative tolerance {RANK_RTOL}"
            )
        beta = np.einsum("i,ij->j", qty[: order + 1], coef[: order + 1, : order + 1])
        order_rss = float(rss[order])
        r_squared = 1.0 if tss == 0.0 else min(max(1.0 - order_rss / tss, 0.0), 1.0)
        models[order] = SurrogateModel(
            intercept=float(beta[0]),
            coefficients=tuple(beta[1:].tolist()),
            source=source,
            diagnostics=FitDiagnostics(
                n_train=n,
                r_squared=r_squared,
                residual_variance=order_rss / (n - order - 1),
            ),
        )
    return tuple(models[order] for order in orders)


def fit_least_squares(
    features: np.ndarray,
    targets: np.ndarray,
    source: ModelSource = ModelSource.SIMILAR_TEST,
) -> SurrogateModel:
    """Fit intercept + coefficients by OLS on an (n, T) feature matrix.

    This is the one-order case of :func:`fit_nested`: the design
    [1 | features] is factored by Gram-Schmidt applied twice per column and
    the normal equations are never formed. The model equals the order-T
    model of any nested fit over a feature matrix whose first T columns are
    ``features``, bit for bit.

    Raises:
        TooFewRows: n <= T + 1.
        RankDeficient: the design is rank deficient at the documented
            tolerance (some |R_ii| at most RANK_RTOL times the largest
            design column norm).
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    return fit_nested(x, targets, [x.shape[1]], source)[0]


def _as_orders(order: int | Iterable[int]) -> tuple[list[int], bool]:
    """The orders to fit, and whether a single model was asked for."""
    if isinstance(order, Iterable):
        return [operator.index(o) for o in order], False
    return [operator.index(order)], True


def fit_pretest(panel: OutcomePanel, order: int | Iterable[int]):
    """Fit on the panel's own pre-allocation window.

    The pre-period days (-P..-1) are remapped to pseudo post-allocation
    days 1..P. The target is each user's mean over the whole pseudo window
    and the features are its first ``order`` days. All arms are pooled:
    the pre-period predates randomization, so pooling is valid.

    ``order`` is one order, which returns one model, or an iterable of
    orders, which returns a tuple of models from one factorisation (see
    :func:`fit_nested`); each equals its single-order fit bit for bit.
    """
    pre_days = [d for d in panel.days if d < 0]
    if not pre_days:
        raise MissingPrePeriod(
            f"panel {panel.experiment_id!r} has no pre-allocation days"
        )
    orders, single = _as_orders(order)
    if not orders or min(orders) < 1:
        raise ValueError(f"orders must be positive, got {orders}")
    if max(orders) > len(pre_days):
        raise MissingPrePeriod(
            f"order {max(orders)} exceeds the {len(pre_days)}-day pre-period"
        )
    full = window(panel, pre_days[0], pre_days[-1])
    models = fit_nested(full, full.mean(axis=1), orders, ModelSource.PRE_TEST)
    return models[0] if single else models


def fit_similar(donor: OutcomePanel, order: int | Iterable[int]):
    """Fit on a donor experiment's post-allocation data.

    The target is the donor users' long-term mean (days 1..horizon) and
    the features are their first ``order`` days. All donor arms are pooled.
    ``order`` is one order or an iterable of orders, as in
    :func:`fit_pretest`.
    """
    orders, single = _as_orders(order)
    if not orders or min(orders) < 1:
        raise ValueError(f"orders must be positive, got {orders}")
    if max(orders) > donor.horizon:
        raise OutOfRange(f"order {max(orders)} exceeds donor horizon {donor.horizon}")
    full = window(donor, 1, donor.horizon)
    models = fit_nested(full, full.mean(axis=1), orders, ModelSource.SIMILAR_TEST)
    return models[0] if single else models


def running_mean_model(order: int) -> SurrogateModel:
    """The fixed equal-weight baseline: b0 = 0 and every b_t = 1/T."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return SurrogateModel(
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
    """Flat JSON-compatible representation; :func:`model_from_dict` inverts it."""
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
    """Rebuild a model; the payload's ``"order"`` must match its coefficient count."""
    diag = payload["diagnostics"]
    coefficients = tuple(float(c) for c in payload["coefficients"])
    if int(payload["order"]) != len(coefficients):
        raise ValueError(f"{len(coefficients)} coefficients for order {payload['order']}")
    return SurrogateModel(
        intercept=float(payload["intercept"]),
        coefficients=coefficients,
        source=ModelSource(payload["source"]),
        diagnostics=FitDiagnostics(
            n_train=int(diag["n_train"]),
            r_squared=float(diag["r_squared"]),
            residual_variance=float(diag["residual_variance"]),
        ),
    )
