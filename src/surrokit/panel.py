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
from itertools import groupby
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

    The panel stores what its CSV holds. ``arm_labels``, the distinct arm
    labels in order of first appearance, is derived once at construction;
    ``horizon`` is the last day.

    Panels compare and hash by value and are safe to share across
    concurrent readers.
    """

    experiment_id: str
    user_ids: tuple[str, ...]
    arms: tuple[ArmLabel, ...]
    days: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float, order="C")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "days", tuple(int(d) for d in self.days))
        n_users = len(self.user_ids)
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

        # One pass over runs of equal labels gives the distinct labels in order
        # of first appearance and row i's index into them, hashing one label
        # per run rather than per row.
        index: dict[ArmLabel, int] = {}
        run_codes, run_lengths = [], []
        for label, run in groupby(self.arms):
            run_codes.append(index.setdefault(label, len(index)))
            run_lengths.append(len(list(run)))
        codes = np.repeat(run_codes, run_lengths)
        labels = tuple(index)
        object.__setattr__(self, "arm_labels", labels)
        object.__setattr__(self, "_arm_codes", codes)
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
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.experiment_id, self.user_ids, self.arms, self.days))

    @property
    def day_range(self) -> tuple[int, int]:
        """First and last usable day index."""
        return self.days[0], self.days[-1]

    @property
    def horizon(self) -> int:
        """The last day, where the default long-term window ends."""
        return self.days[-1]

    @property
    def control_arm(self) -> ArmLabel:
        return next(a for a in self.arm_labels if a.is_control)

    @property
    def treatment_arms(self) -> tuple[ArmLabel, ...]:
        return tuple(a for a in self.arm_labels if not a.is_control)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def arm_mask(self, arm: str) -> np.ndarray:
        """Boolean row mask selecting users in the arm named ``arm``."""
        code = next((k for k, a in enumerate(self.arm_labels) if a.name == arm), -1)
        return self._arm_codes == code

    @classmethod
    def from_matrix(
        cls,
        experiment_id: str,
        user_ids: Iterable[str],
        arms: Iterable[ArmLabel],
        days: Iterable[int],
        matrix: np.ndarray,
    ) -> "OutcomePanel":
        """Build a panel from an (n_users, n_days) matrix.

        ``days`` gives the column day indices in ascending order. Like the
        constructor, the panel holds a read-only contiguous float copy of
        the matrix, so the caller's array stays writeable and later writes
        to it do not reach the panel.
        """
        return cls(experiment_id, user_ids, arms, days, matrix)


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


def _code_text(
    chunk: np.ndarray, experiment_id: str, users: dict, arms: dict, failures: dict, offset: int
) -> np.ndarray:
    """The int32 user codes of a chunk's rows, checking its text fields once per run.

    A run is a stretch of rows with equal text fields, so only its first row
    is looked up and checked. ``users`` maps a user to its code and the arm
    it was first seen in, and ``arms`` maps an arm to the ``is_control``
    token it was first seen with. A failing check stores its error, row
    (``offset`` plus the index in the chunk) and message in ``failures``
    under its place in the report order, unless an earlier row holds it.
    """
    columns = [chunk[name] for name in COLUMNS[:4]]
    change = np.arange(len(chunk)) == 0  # a run starts at row 0 and wherever a field changes
    for values in columns:
        change[1:] |= values[1:] != values[:-1]
    starts = np.flatnonzero(change).tolist()
    codes = []
    for start in starts:
        row = offset + start
        experiment, user, arm, flag = fields = [values[start] for values in columns]
        if any(len(field) > FIELD_LIMIT for field in fields):
            raise MalformedRow(f"line {row + 2}: field larger than field limit ({FIELD_LIMIT})")
        code, user_arm = users.setdefault(user, (len(users), arm))
        codes.append(code)
        if flag not in ("true", "false"):
            failures.setdefault(0, (MalformedRow, row,
                                    f"is_control must be 'true' or 'false', got {flag!r}"))
        if experiment != experiment_id:
            failures.setdefault(3, (MalformedRow, row,
                                    f"experiment_id {experiment!r} conflicts with "
                                    f"{experiment_id!r}; one file holds one experiment"))
        if arms.setdefault(arm, flag) != flag:
            failures.setdefault(4, (ArmLabelConflict, row, f"arm {arm!r} changes is_control"))
        if arm != user_arm:
            failures.setdefault(5, (ArmLabelConflict, row,
                                    f"user {user!r} assigned to both {user_arm!r} and {arm!r}"))
    return np.repeat(np.array(codes, dtype=np.int32), np.diff(starts + [len(chunk)]))


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


def load_panel(source: str | Path | IO[str]) -> OutcomePanel:
    """Load and validate a panel from long-format CSV text.

    ``csv.reader`` reads the header and ``np.loadtxt`` the body, at most
    ``CHUNK`` rows per call on the same handle, so one chunk's strings are
    alive at a time. A chunk keeps a user code, a day and an outcome per
    row (20 bytes). Its text fields are coded and checked once per run of
    rows with equal text fields, and its days and outcomes once per chunk.
    Each check's first failing row is reported after the last chunk, the
    first failing check in a fixed order winning. One cell index per row
    then finds repeated and missing (user, day) cells, and the matrix is
    filled chunk by chunk; users and arms keep their order of first
    appearance. Errors name the file line, counting the header as line 1
    and one line per data record (blank lines are skipped and not counted).

    Args:
        source: path or open text stream positioned at the header row.

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
            return load_panel(handle)

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

    users: dict[str, tuple[int, str]] = {}  # user -> (code, first arm)
    arms: dict[str, str] = {}  # arm -> first is_control token
    # The first failure of each check, keyed by its place in the report order:
    # is_control, day 0, non-finite outcome, experiment, arm flag, user arm.
    failures: dict[int, tuple] = {}
    user_parts, day_parts, outcome_parts = [], [], []  # one array per chunk
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
            if not len(chunk):
                break
            if not n_rows:
                experiment_id = chunk["experiment_id"][0]
            # Copies, so that no view keeps the chunk's str objects alive.
            day, outcome = chunk["day"].copy(), chunk["outcome"].copy()
            user_parts.append(_code_text(chunk, experiment_id, users, arms, failures, n_rows))
            day_parts.append(day)
            outcome_parts.append(outcome)
            zero, bad = np.flatnonzero(day == 0), np.flatnonzero(~np.isfinite(outcome))
            if zero.size:
                failures.setdefault(1, (MalformedRow, n_rows + zero[0],
                                        "day 0 is not a usable day index"))
            if bad.size:
                failures.setdefault(2, (NonFiniteOutcome, n_rows + bad[0],
                                        f"outcome {outcome[bad[0]]} is not finite"))
            n_rows += len(chunk)
            if len(chunk) < CHUNK:
                break
    if not n_rows:
        raise MalformedRow("no data rows")
    del chunk  # else its str objects live on through the scatter
    if failures:
        error, row, message = failures[min(failures)]
        raise error(f"line {row + 2}: {message}")

    d_min = min(int(day.min()) for day in day_parts)
    d_max = max(int(day.max()) for day in day_parts)
    straddles = d_min < 0 < d_max
    # Count the range before listing it: one stray huge day must not allocate it.
    n_days = d_max - d_min + 1 - straddles
    n_cells = len(users) * n_days
    user_ids = list(users)
    offsets = range(0, n_rows, CHUNK)  # every chunk but the last holds CHUNK rows
    if n_cells <= n_rows:
        cell = np.empty(n_rows, dtype=np.int64)
        for lo, user, day in zip(offsets, user_parts, day_parts):
            cell[lo:lo + CHUNK] = user * np.int64(n_days) + (day - d_min - (straddles & (day > 0)))
        if np.bincount(cell, minlength=n_cells).max() > 1:
            user, day = np.concatenate(user_parts), np.concatenate(day_parts)
            repeated = np.flatnonzero(np.bincount(cell)[cell] > 1)
            row = np.flatnonzero(cell == cell[repeated[0]])[1]
            raise DuplicateObservation(
                f"line {row + 2}: duplicate observation for user "
                f"{user_ids[user[row]]!r} day {day[row]}"
            )
    if n_cells != n_rows:  # no cell repeats, so some user lacks a day
        user, day = np.concatenate(user_parts), np.concatenate(day_parts)
        k = int(np.argmax(np.bincount(user) < n_days))
        present = set(day[user == k].tolist())
        missing = next(d for d in range(d_min, d_max + 1) if d and d not in present)
        raise MissingDay(
            f"user {user_ids[k]!r} lacks day {missing} inside declared range [{d_min}, {d_max}]"
        )
    del user_parts, day_parts
    matrix = np.empty((len(user_ids), n_days))
    for lo, outcome in zip(offsets, outcome_parts):
        matrix.reshape(-1)[cell[lo:lo + CHUNK]] = outcome
    del outcome_parts, cell
    labels = {name: ArmLabel(name, token == "true") for name, token in arms.items()}
    panel_arms = [labels[arm] for _, arm in users.values()]
    return OutcomePanel(experiment_id, user_ids, panel_arms, days_in_range(d_min, d_max), matrix)


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
