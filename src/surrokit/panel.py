"""Per-user daily outcome panels for single-shot A/B tests.

A panel holds one experiment: every user's per-day outcome across a
contiguous day range indexed relative to allocation. Post-allocation days
are 1..63 by convention, pre-allocation days are -63..-1, and day 0 is
never used. Panels are complete by contract: every user has a value for
every day in the declared range, and loading fails loudly otherwise.

The on-disk format is long-format CSV with a header row and exactly the
columns ``experiment_id,user_id,arm,is_control,day,outcome``.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import (
    ArmLabelConflict,
    DuplicateObservation,
    MalformedRow,
    MissingDay,
    NoControlArm,
    NonFiniteOutcome,
    NoTreatmentArm,
    OutOfRange,
)

DEFAULT_HORIZON = 63

COLUMNS = ("experiment_id", "user_id", "arm", "is_control", "day", "outcome")


def days_in_range(d_min: int, d_max: int) -> list[int]:
    """All usable day indices in [d_min, d_max]; day 0 is skipped."""
    return [d for d in range(d_min, d_max + 1) if d != 0]


@dataclass(frozen=True)
class ArmLabel:
    """A named experiment arm; exactly one arm per panel is the control."""

    name: str
    is_control: bool


@dataclass(frozen=True, eq=False)
class OutcomePanel:
    """A complete outcome panel for one experiment.

    Row ``i`` of the read-only ``matrix`` holds user ``user_ids[i]`` in arm
    ``arms[i]``; column ``j`` is day ``days[j]``. Build panels with
    :meth:`from_matrix` or :func:`load_panel`. Invariants enforced at
    construction:

    * the matrix has one row per user and one column per day;
    * ``days`` is one ascending range of day indices without day 0;
    * all outcomes are finite and user ids are distinct;
    * exactly one distinct arm label is marked as control, and at least
      one other arm exists.

    Panels compare by value and are safe to share across concurrent readers.
    """

    experiment_id: str
    user_ids: tuple[str, ...]
    arms: tuple[ArmLabel, ...]
    days: tuple[int, ...]
    matrix: np.ndarray
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self) -> None:
        n_users = len(self.user_ids)
        if self.horizon < 1:
            raise OutOfRange(f"horizon must be positive, got {self.horizon}")
        if not self.days:
            raise OutOfRange(f"panel {self.experiment_id!r} has no usable days")
        d_min, d_max = self.day_range
        n_days = d_max - d_min + 1 - (d_min < 0 < d_max)
        if len(self.days) != n_days or list(self.days) != days_in_range(d_min, d_max):
            raise OutOfRange(
                f"days must be the ascending range [{d_min}, {d_max}] without "
                f"day 0, got {list(self.days)}"
            )
        shape = (n_users, len(self.days))
        if self.matrix.shape != shape or len(self.arms) != n_users:
            # Surplus columns are days outside the range; other mismatches leave cells missing.
            extra = self.matrix.ndim == 2 and self.matrix.shape[1] > shape[1]
            raise (OutOfRange if extra else MissingDay)(
                f"{n_users} users with {len(self.arms)} arm labels and {shape[1]} days "
                f"in [{d_min}, {d_max}] do not match a {self.matrix.shape} matrix"
            )
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            user = self.user_ids[int(np.argmin(finite))]
            raise NonFiniteOutcome(f"user {user!r} has a non-finite outcome")
        if len(set(self.user_ids)) != n_users:
            user = next(u for u, count in Counter(self.user_ids).items() if count > 1)
            raise DuplicateObservation(f"user {user!r} appears more than once")

        labels = self.arm_labels
        controls = [label.name for label in labels if label.is_control]
        if not controls:
            raise NoControlArm(f"panel {self.experiment_id!r} has no control arm")
        if len(controls) > 1 or len({label.name for label in labels}) < len(labels):
            raise ArmLabelConflict(
                f"panel {self.experiment_id!r} needs distinct arm names and one "
                f"control arm, got {list(labels)}"
            )
        if len(labels) < 2:
            raise NoTreatmentArm(
                f"panel {self.experiment_id!r} has no treatment arm"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomePanel):
            return NotImplemented
        return (
            self.experiment_id == other.experiment_id
            and self.user_ids == other.user_ids
            and self.arms == other.arms
            and self.days == other.days
            and self.horizon == other.horizon
            and np.array_equal(self.matrix, other.matrix)
        )

    @property
    def day_range(self) -> tuple[int, int]:
        """First and last usable day index."""
        return self.days[0], self.days[-1]

    @cached_property
    def arm_labels(self) -> tuple[ArmLabel, ...]:
        """Distinct arm labels in order of first appearance."""
        return tuple(dict.fromkeys(self.arms))

    @property
    def control_arm(self) -> ArmLabel:
        return next(a for a in self.arm_labels if a.is_control)

    @property
    def treatment_arms(self) -> tuple[ArmLabel, ...]:
        return tuple(a for a in self.arm_labels if not a.is_control)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @cached_property
    def _arm_codes(self) -> np.ndarray:
        """Row i's index into ``arm_labels``."""
        index = {label: k for k, label in enumerate(self.arm_labels)}
        return np.array([index[label] for label in self.arms])

    def arm_mask(self, arm: ArmLabel | str) -> np.ndarray:
        """Boolean row mask selecting users in ``arm``."""
        name = arm if isinstance(arm, str) else arm.name
        code = next((k for k, a in enumerate(self.arm_labels) if a.name == name), -1)
        return self._arm_codes == code

    @classmethod
    def from_matrix(
        cls,
        experiment_id: str,
        user_ids: Iterable[str],
        arms: Iterable[ArmLabel],
        days: Iterable[int],
        matrix: np.ndarray,
        horizon: int = DEFAULT_HORIZON,
    ) -> "OutcomePanel":
        """Build a panel from an (n_users, n_days) matrix.

        ``days`` gives the column day indices in ascending order. The panel
        holds a read-only contiguous float copy of the matrix, so the
        caller's array stays writeable and later writes to it do not reach
        the panel.
        """
        matrix = np.array(matrix, dtype=float, order="C")
        matrix.setflags(write=False)
        days = tuple(int(d) for d in days)
        return cls(experiment_id, tuple(user_ids), tuple(arms), days, matrix, horizon)


def window(panel: OutcomePanel, from_day: int, to_day: int) -> np.ndarray:
    """Outcome matrix for days ``from_day..to_day``, rows ordered as ``panel.user_ids``.

    The window must lie inside the panel's day range. Day 0 is skipped if
    the window straddles allocation. Returns a read-only array view.
    """
    d_min, d_max = panel.day_range
    if from_day > to_day:
        raise OutOfRange(f"empty window [{from_day}, {to_day}]")
    if from_day < d_min or to_day > d_max:
        raise OutOfRange(
            f"window [{from_day}, {to_day}] outside panel range [{d_min}, {d_max}]"
        )
    days = panel.days
    lo = bisect_left(days, from_day)
    hi = bisect_right(days, to_day)
    if lo == hi:
        raise OutOfRange(f"window [{from_day}, {to_day}] contains no usable days")
    return panel.matrix[:, lo:hi]


def _parse_row(row: list[str], lineno: int) -> tuple:
    if len(row) != len(COLUMNS):
        raise MalformedRow(
            f"line {lineno}: expected {len(COLUMNS)} fields, got {len(row)}"
        )
    exp_id, user_id, arm_name, is_control_s, day_s, outcome_s = row
    if is_control_s not in ("true", "false"):
        raise MalformedRow(
            f"line {lineno}: is_control must be 'true' or 'false', got {is_control_s!r}"
        )
    try:
        day = int(day_s)
    except ValueError:
        raise MalformedRow(f"line {lineno}: unparseable day {day_s!r}") from None
    if day == 0:
        raise MalformedRow(f"line {lineno}: day 0 is not a usable day index")
    try:
        outcome = float(outcome_s)
    except ValueError:
        raise MalformedRow(f"line {lineno}: unparseable outcome {outcome_s!r}") from None
    if not math.isfinite(outcome):
        raise NonFiniteOutcome(f"line {lineno}: outcome {outcome_s!r} is not finite")
    return exp_id, user_id, arm_name, is_control_s == "true", day, outcome


def load_panel(
    source: str | Path | IO[str],
    horizon: int = DEFAULT_HORIZON,
) -> OutcomePanel:
    """Load and validate a panel from long-format CSV text.

    Args:
        source: path or open text stream positioned at the header row.
        horizon: day count treated as "long-term" for this panel.

    Raises:
        MalformedRow: the text is not UTF-8 or not CSV, or the header or a
            field cannot be parsed.
        DuplicateObservation: two rows share the same (user, day).
        MissingDay: a user lacks a day present in the declared range.
        NoControlArm: no row is labelled as control.
        NonFiniteOutcome: an outcome parses to NaN or infinity.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_panel(handle, horizon)

    reader = csv.reader(source)
    experiment_id: str | None = None
    labels: dict[str, ArmLabel] = {}
    users: dict[str, tuple[ArmLabel, dict[int, float]]] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow("empty input: missing header row")
        if tuple(header) != COLUMNS:
            raise MalformedRow(f"bad header {header!r}; expected {list(COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            exp_id, user_id, arm_name, is_control, day, outcome = _parse_row(row, lineno)
            if experiment_id is None:
                experiment_id = exp_id
            elif exp_id != experiment_id:
                raise MalformedRow(
                    f"line {lineno}: experiment_id {exp_id!r} conflicts with "
                    f"{experiment_id!r}; one file holds one experiment"
                )
            label = labels.get(arm_name)
            if label is None:
                label = labels[arm_name] = ArmLabel(arm_name, is_control)
            elif label.is_control != is_control:
                raise ArmLabelConflict(
                    f"line {lineno}: arm {arm_name!r} changes is_control"
                )
            user = users.get(user_id)
            if user is None:
                user = users[user_id] = (label, {})
            elif user[0] is not label:
                raise ArmLabelConflict(
                    f"line {lineno}: user {user_id!r} assigned to both "
                    f"{user[0].name!r} and {arm_name!r}"
                )
            per_user = user[1]
            if day in per_user:
                raise DuplicateObservation(
                    f"line {lineno}: duplicate observation for user {user_id!r} day {day}"
                )
            per_user[day] = outcome
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"panel is not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None

    if experiment_id is None:
        raise MalformedRow("no data rows")

    d_min = min(min(per_user) for _, per_user in users.values())
    d_max = max(max(per_user) for _, per_user in users.values())
    # Count the range before listing it: one stray huge day must not allocate it.
    n_days = d_max - d_min + 1 - (d_min < 0 < d_max)
    for user_id, (_, per_user) in users.items():
        if len(per_user) != n_days:
            missing = next(d for d in range(d_min, d_max + 1) if d and d not in per_user)
            raise MissingDay(
                f"user {user_id!r} lacks day {missing} "
                f"inside declared range [{d_min}, {d_max}]"
            )
    days = days_in_range(d_min, d_max)
    matrix = np.array([[per_user[d] for d in days] for _, per_user in users.values()])
    matrix.setflags(write=False)
    arms = tuple(label for label, _ in users.values())
    return OutcomePanel(experiment_id, tuple(users), arms, tuple(days), matrix, horizon)


def write_panel(panel: OutcomePanel, dest: str | Path | IO[str]) -> None:
    """Serialize a panel to the long-format CSV layout.

    Row order is users as stored, days ascending, so a write/load round
    trip reproduces the panel exactly (floats are written with full
    round-trip precision).
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            write_panel(panel, handle)
        return
    # csv.writer quotes the text fields; day and outcome never need quoting.
    # A "\r\n" terminator makes it quote a bare "\r" as well as "\n"; the
    # terminator itself is cut off below and each row ends in "\n".
    dest.write(",".join(COLUMNS) + "\n")
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    for user_id, arm, row in zip(panel.user_ids, panel.arms, panel.matrix.tolist()):
        line.seek(0)
        line.truncate()
        flag = "true" if arm.is_control else "false"
        writer.writerow((panel.experiment_id, user_id, arm.name, flag))
        prefix = line.getvalue()[:-2]
        dest.write(
            "".join(f"{prefix},{day},{value!r}\n" for day, value in zip(panel.days, row))
        )


def panel_to_csv_text(panel: OutcomePanel) -> str:
    """Render a panel to CSV text (used by tests and small tools)."""
    buf = io.StringIO()
    write_panel(panel, buf)
    return buf.getvalue()
