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
import re
import warnings
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

# Body rows per np.loadtxt call. A chunk's str objects (four per row) are
# freed before the next chunk is read; parsed whole, a README-shape panel
# keeps 302k of them alive at once.
CHUNK = 1024
# csv.reader's default field_size_limit; loadtxt has none of its own.
FIELD_LIMIT = 131072
_ROW = np.dtype([(name, object) for name in COLUMNS[:4]] + [("day", np.int64), ("outcome", float)])


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
    ``arms[i]``; column ``j`` is day ``days[j]``. The constructor stores
    ``user_ids``, ``arms`` and ``days`` as tuples and ``matrix`` as a
    private read-only contiguous float copy, so later writes to the
    caller's array do not reach the panel. :meth:`from_matrix` and
    :func:`load_panel` build panels the same way. Invariants enforced at
    construction:

    * the matrix has one row per user and one column per day;
    * ``days`` is one ascending range of day indices without day 0;
    * all outcomes are finite and user ids are distinct;
    * exactly one distinct arm label is marked as control, and at least
      one other arm exists.

    Panels compare and hash by value and are safe to share across
    concurrent readers.
    """

    experiment_id: str
    user_ids: tuple[str, ...]
    arms: tuple[ArmLabel, ...]
    days: tuple[int, ...]
    matrix: np.ndarray
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float, order="C")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "days", tuple(int(d) for d in self.days))
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

    def __hash__(self) -> int:
        return hash((self.experiment_id, self.user_ids, self.arms, self.days, self.horizon))

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

        ``days`` gives the column day indices in ascending order. Like the
        constructor, the panel holds a read-only contiguous float copy of
        the matrix, so the caller's array stays writeable and later writes
        to it do not reach the panel.
        """
        return cls(experiment_id, user_ids, arms, days, matrix, horizon)


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


def _code_text(chunk: np.ndarray, tables: list[dict], offset: int) -> np.ndarray:
    """The (n, 4) integer codes of a chunk's text columns.

    Each run of rows with equal text fields costs one lookup per column in
    ``tables``, which map a value to its code and the row where it first
    appears (``offset`` plus its index in the chunk).
    """
    columns = [chunk[name] for name in COLUMNS[:4]]
    change = np.arange(len(chunk)) == 0  # a run starts at row 0 and wherever a field changes
    for values in columns:
        change[1:] |= values[1:] != values[:-1]
    starts = np.flatnonzero(change).tolist()
    codes = np.empty((len(starts), 4), dtype=np.int32)
    for i, start in enumerate(starts):
        for k, (values, table) in enumerate(zip(columns, tables)):
            if len(values[start]) > FIELD_LIMIT:
                raise MalformedRow(
                    f"line {offset + start + 2}: field larger than field limit ({FIELD_LIMIT})"
                )
            codes[i, k] = table.setdefault(values[start], (len(table), offset + start))[0]
    return np.repeat(codes, np.diff(starts + [len(chunk)]), axis=0)


def _malformed(exc: ValueError, offset: int) -> MalformedRow:
    """loadtxt's error for a chunk that follows ``offset`` rows, naming the file line."""
    text = str(exc)
    # The last match is numpy's own suffix: a quoted bad field comes before it.
    at = max(re.finditer(r" at row (\d+)(, column \d+)?", text), key=re.Match.start, default=None)
    if at is None:
        return MalformedRow(f"a row after line {offset + 1}: {text}")
    # numpy counts rows from 0 in conversion errors and from 1 in field-count errors.
    row = offset + int(at[1]) - (at[2] is None)
    return MalformedRow(f"line {row + 2}: {text[:at.start()]}{at[2] or ''}")


def load_panel(
    source: str | Path | IO[str],
    horizon: int = DEFAULT_HORIZON,
) -> OutcomePanel:
    """Load and validate a panel from long-format CSV text.

    ``csv.reader`` reads the header and ``np.loadtxt`` the body, at most
    ``CHUNK`` rows per call on the same handle. Each chunk keeps only its
    days, its outcomes and integer codes for its text fields, so one
    chunk's strings are alive at a time. Whole-array checks follow and one
    scatter fills the matrix; users and arms keep their order of first
    appearance. Errors name the file line, counting the header as line 1
    and one line per data record (blank lines are skipped and not counted).

    Args:
        source: path or open text stream positioned at the header row.
        horizon: day count treated as "long-term" for this panel.

    Raises:
        MalformedRow: the text is not UTF-8 or not CSV, a text field is
            longer than ``FIELD_LIMIT`` characters, or the header or a field
            cannot be parsed.
        DuplicateObservation: two rows share the same (user, day).
        MissingDay: a user lacks a day present in the declared range.
        NoControlArm: no row is labelled as control.
        NonFiniteOutcome: an outcome parses to NaN or infinity.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_panel(handle, horizon)

    reader = csv.reader(source)
    try:
        header = next(reader, None)
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"panel is not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise MalformedRow("empty input: missing header row")
    if tuple(header) != COLUMNS:
        raise MalformedRow(f"bad header {header!r}; expected {list(COLUMNS)}")

    tables: list[dict] = [{}, {}, {}, {}]
    parts: tuple[list, list, list] = ([], [], [])  # codes, days, outcomes per chunk
    n_rows = 0
    with warnings.catch_warnings():
        # loadtxt warns when a call finds no rows and when max_rows skips a blank line.
        warnings.filterwarnings("ignore", r".*contained no data", UserWarning)
        # Older numpy releases (1.23 on) only warn when they truncate a day
        # like 1.5; as an error, loadtxt reports it as a ValueError naming the row.
        warnings.filterwarnings("error", r".*integer via a float", DeprecationWarning)
        while True:
            try:
                chunk = np.loadtxt(source, dtype=_ROW, delimiter=",", quotechar='"',
                                   comments=None, max_rows=CHUNK, ndmin=1)
            except UnicodeDecodeError as exc:
                # The text layer decodes ahead in blocks: only a lower bound on the line is known.
                raise MalformedRow(
                    f"panel is not valid UTF-8 at or after line {n_rows + 2}: {exc.reason}"
                ) from None
            except ValueError as exc:
                raise _malformed(exc, n_rows) from None
            # Copies, so that no view keeps the chunk's str objects alive.
            parts[0].append(_code_text(chunk, tables, n_rows))
            parts[1].append(chunk["day"].copy())
            parts[2].append(chunk["outcome"].copy())
            n_rows += len(chunk)
            if len(chunk) < CHUNK:
                break
    if not n_rows:
        raise MalformedRow("no data rows")

    joined = []
    for part in parts:  # free each part's chunks once it is joined
        joined.append(np.concatenate(part))
        part.clear()
    codes, day, outcome = joined
    experiment, user, arm, flag = codes.T
    experiment_ids, user_ids, arm_names, tokens = (list(table) for table in tables)
    user_arm = arm[[row for _, row in tables[1].values()]]
    arm_flag = flag[[row for _, row in tables[2].values()]]

    valid_flag = np.array([token in ("true", "false") for token in tokens])
    checks = (
        (MalformedRow, ~valid_flag[flag],
         lambda row: f"is_control must be 'true' or 'false', got {tokens[flag[row]]!r}"),
        (MalformedRow, day == 0, lambda row: "day 0 is not a usable day index"),
        (NonFiniteOutcome, ~np.isfinite(outcome),
         lambda row: f"outcome {outcome[row]} is not finite"),
        (MalformedRow, experiment != 0,
         lambda row: f"experiment_id {experiment_ids[experiment[row]]!r} conflicts with "
                     f"{experiment_ids[0]!r}; one file holds one experiment"),
        (ArmLabelConflict, flag != arm_flag[arm],
         lambda row: f"arm {arm_names[arm[row]]!r} changes is_control"),
        (ArmLabelConflict, arm != user_arm[user],
         lambda row: f"user {user_ids[user[row]]!r} assigned to both "
                     f"{arm_names[user_arm[user[row]]]!r} and {arm_names[arm[row]]!r}"),
    )
    for error, bad, message in checks:
        rows = np.flatnonzero(bad)
        if rows.size:
            raise error(f"line {rows[0] + 2}: {message(rows[0])}")

    d_min, d_max = int(day.min()), int(day.max())
    straddles = d_min < 0 < d_max
    # Count the range before listing it: one stray huge day must not allocate it.
    n_days = d_max - d_min + 1 - straddles
    n_cells = len(user_ids) * n_days
    if n_cells <= n_rows:
        cell = user * np.int64(n_days) + (day - d_min - (straddles & (day > 0)))
        repeated = np.flatnonzero(np.bincount(cell, minlength=n_cells)[cell] > 1)
        if repeated.size:
            row = np.flatnonzero(cell == cell[repeated[0]])[1]
            raise DuplicateObservation(
                f"line {row + 2}: duplicate observation for user "
                f"{user_ids[user[row]]!r} day {day[row]}"
            )
    if n_cells != n_rows:  # no cell repeats, so some user lacks a day
        k = int(np.argmax(np.bincount(user) < n_days))
        present = set(day[user == k].tolist())
        missing = next(d for d in range(d_min, d_max + 1) if d and d not in present)
        raise MissingDay(
            f"user {user_ids[k]!r} lacks day {missing} inside declared range [{d_min}, {d_max}]"
        )
    matrix = np.empty((len(user_ids), n_days))
    matrix.reshape(-1)[cell] = outcome
    labels = [ArmLabel(name, tokens[k] == "true") for name, k in zip(arm_names, arm_flag)]
    arms = [labels[k] for k in user_arm]
    days = days_in_range(d_min, d_max)
    return OutcomePanel(experiment_ids[0], user_ids, arms, days, matrix, horizon)


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
