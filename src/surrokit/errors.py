"""Exception hierarchy for surrokit.

Two broad families matter for the CLI exit-code mapping:

* :class:`DataValidationError` -- the input data or configuration violates a
  contract (exit code 3).
* :class:`NumericalError` -- the computation itself cannot proceed, e.g. a
  rank-deficient design matrix (exit code 4).
"""

from __future__ import annotations


class SurrokitError(Exception):
    """Base class for all surrokit errors."""


class DataValidationError(SurrokitError):
    """Input data, file, or configuration violates a documented contract."""


class NumericalError(SurrokitError):
    """A numerical routine cannot produce a well-defined result."""


# --- panel ingestion / validation ---

class MalformedRow(DataValidationError):
    """A row of the tabular panel format could not be parsed."""


class DuplicateObservation(DataValidationError):
    """Two rows describe the same (user, day) cell."""


class MissingDay(DataValidationError):
    """A user lacks an outcome for a day inside the declared range.

    Raised only where a panel is built or loaded with a missing cell; a read
    asking for days the panel lacks raises OutOfRange.
    """


class NoControlArm(DataValidationError):
    """The panel has no users labelled as control."""


class NoTreatmentArm(DataValidationError):
    """The panel has only control users."""


class ArmLabelConflict(DataValidationError):
    """Inconsistent arm labelling (user in two arms, two control arms, ...)."""


class NonFiniteOutcome(DataValidationError):
    """An outcome value is NaN or infinite."""


class OutOfRange(DataValidationError):
    """A requested day window falls outside the panel's day range.

    Raised by a read whose window or horizon lies outside the panel's days
    (``direct_effect``, ``surrogate_effect``, ``fit_similar``,
    ``fit_pretest``, all through ``window``), naming the panel; also by a
    built or loaded panel whose day range is itself unusable.
    """


# --- model fitting ---

class TooFewRows(NumericalError):
    """Not enough training rows for the requested model order."""


class RankDeficient(NumericalError):
    """The design matrix does not have full column rank."""


class MissingPrePeriod(DataValidationError):
    """The panel lacks the pre-allocation days needed for pre-test training."""


# --- estimation ---

class UnknownArm(DataValidationError):
    """The requested arm label does not exist in the panel."""


class ControlAsTreatment(DataValidationError):
    """The control arm was passed where a treatment arm is required."""


class DegenerateGroup(NumericalError):
    """A comparison group has fewer than two observations."""


# --- evaluation ---

class KeyMismatch(DataValidationError):
    """A (kind, T) group reads an arm twice, or not exactly the horizon's direct reads' arms."""


class EmptyInput(DataValidationError):
    """An aggregation was asked to run over zero records."""


class ZeroVariance(NumericalError):
    """A scaling vector has zero sample standard deviation."""


class InvalidCycle(DataValidationError):
    """Cycle lengths must be finite and positive with long >= short."""


class InvalidRecall(DataValidationError):
    """Recall must lie in (0, 1]."""


# --- simulation ---

class InvalidConfig(DataValidationError):
    """A simulation configuration field is out of its legal range."""


class DegenerateVarianceWarning(UserWarning):
    """A two-sample standard error of exactly zero was floored."""
