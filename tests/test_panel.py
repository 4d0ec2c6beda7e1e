import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrokit import (
    ArmLabel,
    ArmLabelConflict,
    DuplicateObservation,
    MalformedRow,
    MissingDay,
    NoControlArm,
    NonFiniteOutcome,
    NoTreatmentArm,
    OutcomePanel,
    OutOfRange,
    SimConfig,
    days_in_range,
    direct_effect,
    load_panel,
    panel_to_csv_text,
    simulate_experiment,
    window,
    write_panel,
)
from surrokit.panel import CHUNK, FIELD_LIMIT

from conftest import CONTROL, T1, build_panel

MINIMAL_CSV = """experiment_id,user_id,arm,is_control,day,outcome
e1,u1,control,true,1,1.0
e1,u1,control,true,2,2.0
e1,u1,control,true,3,3.0
e1,u2,t1,false,1,4.0
e1,u2,t1,false,2,5.0
e1,u2,t1,false,3,6.0
"""


def load_text(text):
    return load_panel(io.StringIO(text))


class TestLoadPanel:
    def test_minimal_complete_grid(self):
        panel = load_text(MINIMAL_CSV)
        assert panel.experiment_id == "e1"
        assert panel.day_range == (1, 3)
        assert panel.n_users == 2
        assert panel.user_ids == ("u1", "u2")
        assert panel.days == (1, 2, 3)
        np.testing.assert_array_equal(panel.matrix, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert panel.control_arm == ArmLabel("control", True)

    def test_deleted_cell_is_missing_day(self):
        truncated = "\n".join(
            line for line in MINIMAL_CSV.splitlines() if not line.startswith("e1,u2,t1,false,2")
        )
        with pytest.raises(MissingDay):
            load_text(truncated)

    def test_user_without_last_day_is_missing_day(self):
        truncated = MINIMAL_CSV.replace("e1,u2,t1,false,3,6.0\n", "")
        with pytest.raises(MissingDay, match="lacks day 3"):
            load_text(truncated)

    def test_four_user_fixture_arm_counts(self, fixture_dir):
        panel = load_panel(fixture_dir / "four_users.csv")
        # hand count of the fixture rows: 2 control users, 2 t1 users
        assert panel.n_users == 4
        assert panel.arm_mask("control").sum() == 2
        assert panel.arm_mask("t1").sum() == 2
        assert panel.day_range == (1, 3)

    def test_duplicate_observation(self):
        with pytest.raises(DuplicateObservation):
            load_text(MINIMAL_CSV + "e1,u1,control,true,2,9.0\n")

    def test_malformed_day(self):
        with pytest.raises(MalformedRow):
            load_text(MINIMAL_CSV.replace("e1,u1,control,true,1,1.0", "e1,u1,control,true,one,1.0"))

    def test_day_zero_rejected(self):
        with pytest.raises(MalformedRow):
            load_text(MINIMAL_CSV + "e1,u1,control,true,0,1.0\n")

    def test_bad_is_control_token(self):
        with pytest.raises(MalformedRow):
            load_text(MINIMAL_CSV.replace("true", "True"))

    def test_bad_header(self):
        with pytest.raises(MalformedRow):
            load_text("a,b,c\n1,2,3\n")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow):
            load_text(MINIMAL_CSV + "e1,u1,control,true,4\n")

    def test_no_control_arm(self):
        with pytest.raises(NoControlArm):
            load_text(MINIMAL_CSV.replace("control,true", "t2,false"))

    def test_non_finite_outcome(self):
        with pytest.raises(NonFiniteOutcome):
            load_text(MINIMAL_CSV.replace("e1,u1,control,true,1,1.0", "e1,u1,control,true,1,nan"))

    def test_conflicting_control_flag(self):
        bad = MINIMAL_CSV + "e1,u3,control,false,1,1.0\n"
        with pytest.raises(ArmLabelConflict):
            load_text(bad)

    def test_user_in_two_arms(self):
        bad = MINIMAL_CSV + "e1,u1,t1,false,4,1.0\n"
        with pytest.raises(ArmLabelConflict):
            load_text(bad)

    def test_two_experiments_in_one_file(self):
        bad = MINIMAL_CSV + "e2,u9,control,true,1,1.0\n"
        with pytest.raises(MalformedRow):
            load_text(bad)

    def test_empty_file(self):
        with pytest.raises(MalformedRow):
            load_text("")

    def test_header_only_file_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedRow, match="^no data rows$"):
                load_text(MINIMAL_CSV.splitlines(keepends=True)[0])
            with pytest.raises(MalformedRow, match="^no data rows$"):
                load_text(MINIMAL_CSV.splitlines(keepends=True)[0] + "\n\n")

    def test_crlf_and_blank_lines(self):
        expected = OutcomePanel.from_matrix(
            "e1", ["u1", "u2"], [ArmLabel("control", True), ArmLabel("t1", False)],
            [1, 2, 3], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        )
        lines = MINIMAL_CSV.splitlines(keepends=True)
        spaced = lines[0] + "\n" + "".join(line + "\n" for line in lines[1:]) + "\n\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_text(MINIMAL_CSV.replace("\n", "\r\n")) == expected
            assert load_text(spaced) == expected
            assert load_text(spaced.replace("\n", "\r\n")) == expected

    def test_quoted_separators_in_ids(self, tmp_path):
        text = (
            "experiment_id,user_id,arm,is_control,day,outcome\n"
            '"e,1","a,""b""",c,true,1,1.5\n'
            '"e,1","x\ny","t\r1",false,1,-2.0\n'
        )
        expected = OutcomePanel.from_matrix(
            "e,1", ['a,"b"', "x\ny"], [ArmLabel("c", True), ArmLabel("t\r1", False)],
            [1], [[1.5], [-2.0]],
        )
        assert load_text(text) == expected
        # A file is read with newline="", so its lines also break at the quoted "\r".
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode())
        assert load_panel(path) == expected

    def test_ids_differing_by_a_trailing_nul_stay_distinct(self):
        text = MINIMAL_CSV.replace("e1,u2,t1", "e1,u1\x00,t1")
        panel = load_text(text)
        assert panel.user_ids == ("u1", "u1\x00")
        assert panel.arm_mask("t1").tolist() == [False, True]

    def test_interleaved_rows_load_like_the_sorted_file(self):
        rng = np.random.default_rng(4)
        days = [-2, -1, 1, 2, 3]
        panel = build_panel(rng.standard_normal((4, 5)), [CONTROL, T1, CONTROL, T1], days=days)
        lines = panel_to_csv_text(panel).splitlines(keepends=True)
        body = np.array(lines[1:]).reshape(4, 5)
        # day-major order, each day's users in the original order, days descending
        interleaved = lines[0] + "".join(body[:, ::-1].T.ravel())
        assert load_text(interleaved) == panel

    @pytest.mark.parametrize("length, loads", [(FIELD_LIMIT, True), (FIELD_LIMIT + 1, False)])
    def test_field_limit(self, length, loads):
        long_id = "u" * length
        text = MINIMAL_CSV.replace("e1,u2,", f"e1,{long_id},")
        if loads:
            assert load_text(text).user_ids == ("u1", long_id)
        else:
            with pytest.raises(MalformedRow, match="^line 5: field larger than field limit"):
                load_text(text)

    @pytest.mark.parametrize("day, outcome", [("1_0", "1.0"), ("10", "1_0.5")])
    def test_underscore_digits_rejected(self, day, outcome):
        with pytest.raises(MalformedRow, match="^line 8: could not convert"):
            load_text(MINIMAL_CSV + f"e1,u2,t1,false,{day},{outcome}\n")


def long_panel_lines():
    """CSV lines of a panel with more rows than one parse chunk."""
    n_days = CHUNK // 8 + 1
    rng = np.random.default_rng(8)
    panel = build_panel(rng.standard_normal((10, n_days)), [CONTROL] * 5 + [T1] * 5)
    lines = panel_to_csv_text(panel).splitlines(keepends=True)
    assert len(lines) > CHUNK + 100
    return panel, lines


class TestLoadPanelPastFirstChunk:
    @pytest.mark.parametrize(
        "index, row, error, message",
        [
            (CHUNK + 40, "exp,u8,t1,false,x,1.0\n", MalformedRow, "could not convert string 'x'"),
            (CHUNK + 40, "exp,u8,t1,false,1.5,1.0\n", MalformedRow, "could not convert string '1.5'"),
            (CHUNK + 40, "exp,u8,t1,false,1e3,1.0\n", MalformedRow, "could not convert string '1e3'"),
            (CHUNK + 40, "exp,u8,t1,false,x at row 3,1.0\n", MalformedRow,
             "could not convert string 'x at row 3' to int64, column 5"),
            (CHUNK + 1, "exp,u8,t1,false,5\n", MalformedRow, "requires 6 columns but 5"),
            (CHUNK + 2, "exp,u8,t1,false,5,1.0,9\n", MalformedRow, "requires 6 columns but 7"),
            (CHUNK + 40, "exp,u8,t1,False,5,1.0\n", MalformedRow, "is_control must be"),
            (CHUNK + 40, "exp,u8,t1,false,0,1.0\n", MalformedRow, "day 0"),
            (CHUNK + 40, "exp,u8,t1,false,5,inf\n", NonFiniteOutcome, "outcome inf"),
            (CHUNK + 40, "other,u8,t1,false,5,1.0\n", MalformedRow,
             "experiment_id 'other' conflicts with 'exp'"),
            (CHUNK + 40, "exp,u8,control,false,5,1.0\n", ArmLabelConflict, "arm 'control'"),
            (CHUNK + 40, "exp,u8,control,true,5,1.0\n", ArmLabelConflict, "user 'u8'"),
            (CHUNK + 40, "exp,u2,control,true,5,1.0\n", DuplicateObservation, "user 'u2' day 5"),
        ],
        ids=["bad-day", "fractional-day", "exponent-day", "row-text-in-day", "five-fields", "seven-fields", "bad-flag", "day-zero",
             "infinite-outcome", "experiment", "arm-flag", "user-arm", "duplicate"],
    )
    def test_bad_row_names_its_line(self, index, row, error, message):
        _, lines = long_panel_lines()
        lines.insert(index, row)  # lines[index] is line index + 1
        with pytest.raises(error, match=f"^line {index + 1}: .*{message}"):
            load_text("".join(lines))

    @pytest.mark.parametrize(
        "early, late, reported, error, message",
        [
            ("exp,u1,control,true,0,1.0\n", "exp,u8,t1,False,5,1.0\n", "late", MalformedRow,
             "is_control must be"),
            ("exp,u1,control,true,5,inf\n", "exp,u8,control,true,5,1.0\n", "early",
             NonFiniteOutcome, "outcome inf"),
            ("exp,u1,control,true,0,1.0\n", "exp,u8,t1,false,x,1.0\n", "late", MalformedRow,
             "could not convert string 'x'"),
        ],
        ids=["flag-beats-day-zero", "non-finite-beats-user-arm", "parse-error-beats-day-zero"],
    )
    def test_error_order_holds_across_chunks(self, early, late, reported, error, message):
        """A bad row in the first chunk and one in the second: the check order decides.

        A parse error raises as its chunk is read; the other checks are
        reported in a fixed order, whichever chunk holds the row.
        """
        _, lines = long_panel_lines()
        lines.insert(40, early)
        lines.insert(CHUNK + 40, late)
        line = {"early": 41, "late": CHUNK + 41}[reported]
        with pytest.raises(error, match=f"^line {line}: .*{message}"):
            load_text("".join(lines))

    def test_changed_day_is_a_duplicate_on_its_line(self):
        _, lines = long_panel_lines()
        index = CHUNK + 60
        fields = lines[index].split(",")
        lines[index] = ",".join(fields[:4] + [str(int(fields[4]) - 1), fields[5]])
        with pytest.raises(DuplicateObservation, match=f"^line {index + 1}: "):
            load_text("".join(lines))

    def test_exact_chunk_multiple_loads_without_warnings(self):
        matrix = np.arange(CHUNK, dtype=float).reshape(8, CHUNK // 8)
        panel = build_panel(matrix, [CONTROL, T1] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_text(panel_to_csv_text(panel)) == panel

    def test_non_utf8_byte_after_the_first_chunk(self, tmp_path):
        _, lines = long_panel_lines()
        data = "".join(lines).encode()
        late = len(data) - 50
        assert data[:late].count(b"\n") > CHUNK + 1
        path = tmp_path / "panel.csv"
        path.write_bytes(data[:late] + b"\xff" + data[late:])
        with pytest.raises(MalformedRow, match="not valid UTF-8"):
            load_panel(path)


def test_readme_shape_load_peak_memory(tmp_path):
    """A chunked parse keeps the loader's traced peak near the panel's own size.

    The panel holds 600 x 126 outcomes (0.6 MB); a whole-file loadtxt parse
    of its CSV peaks above 20 MiB. Keeping per chunk an (n, 4) code matrix,
    days and outcomes, then joining them and masking the whole file, peaked
    at 4.92 MiB; keeping only user codes, days and outcomes (20 bytes a row)
    and scattering chunk by chunk peaks at 2.77 MiB.
    """
    config = SimConfig(arms_per_experiment=2, users_per_arm=200, horizon=63, pre_period=63, seed=3)
    panel = simulate_experiment(config, 0).panel
    path = tmp_path / "panel.csv"
    write_panel(panel, path)
    tracemalloc.start()
    try:
        loaded = load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == panel
    assert peak <= 4 * 2**20


# Text fields that need CSV quoting: commas, both quote kinds, a bare
# carriage return, non-ASCII.
FIELD_TEXT = st.text(alphabet=list('ab, "\'é中ß;\r'), max_size=6)


@st.composite
def small_panels(draw):
    n_arms = draw(st.integers(2, 3))
    arm_names = draw(st.lists(FIELD_TEXT, min_size=n_arms, max_size=n_arms, unique=True))
    labels = [ArmLabel(name, i == 0) for i, name in enumerate(arm_names)]
    n_users = draw(st.integers(n_arms, 5))
    user_ids = draw(st.lists(FIELD_TEXT, min_size=n_users, max_size=n_users, unique=True))
    d_min = draw(st.integers(-3, 3).filter(bool))
    days = days_in_range(d_min, draw(st.integers(d_min, 4).filter(bool)))
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(values, min_size=len(days), max_size=len(days)),
                         min_size=n_users, max_size=n_users))
    return OutcomePanel.from_matrix(
        draw(FIELD_TEXT),
        user_ids,
        [labels[i % n_arms] for i in range(n_users)],
        days,
        np.array(rows, dtype=float).reshape(n_users, len(days)),
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(small_panels())
    def test_round_trip_property(self, panel):
        text = panel_to_csv_text(panel)
        reloaded = load_text(text)
        assert reloaded == panel
        assert panel_to_csv_text(reloaded) == text

    def test_carriage_return_fields_round_trip(self):
        arms = [ArmLabel("c\r", True), ArmLabel("t\r1", False)]
        panel = OutcomePanel.from_matrix("e\r", ["a\rb", "u2"], arms, [1], [[1.0], [2.0]])
        text = panel_to_csv_text(panel)
        assert text.split("\n")[1] == '"e\r","a\rb","c\r",true,1,1.0'
        assert load_text(text) == panel

    def test_round_trip_with_pre_period(self):
        rng = np.random.default_rng(7)
        days = list(range(-5, 0)) + list(range(1, 6))
        panel = build_panel(
            rng.standard_normal((4, len(days))),
            [CONTROL, CONTROL, T1, T1],
            days=days,
            experiment_id="round",
        )
        reloaded = load_text(panel_to_csv_text(panel))
        assert reloaded == panel

    def test_round_trip_exact_floats(self, tmp_path):
        rng = np.random.default_rng(11)
        panel = build_panel(rng.standard_normal((3, 4)) / 3.0, [CONTROL, T1, T1])
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        assert load_panel(path) == panel


class TestConstruction:
    def test_from_matrix_normalises_to_direct_construction(self):
        via_matrix = OutcomePanel.from_matrix(
            "exp", ["u0", "u1"], [CONTROL, T1], [1, 2], [[1, 2], [3, 4]]
        )
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        matrix.setflags(write=False)
        direct = OutcomePanel("exp", ("u0", "u1"), (CONTROL, T1), (1, 2), matrix)
        assert via_matrix == direct
        assert via_matrix.matrix.dtype == float
        assert not via_matrix.matrix.flags.writeable
        assert via_matrix != build_panel([[1.0, 2.0], [3.0, 5.0]], [CONTROL, T1])

    def test_direct_construction_normalises_like_from_matrix(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        direct = OutcomePanel("e", ["u0", "u1"], [CONTROL, T1], [1, 2], matrix)
        matrix[0, 0] = 9.0
        assert direct.matrix[0, 0] == 1.0 and not direct.matrix.flags.writeable
        assert (direct.user_ids, direct.arms, direct.days) == (("u0", "u1"), (CONTROL, T1), (1, 2))
        via_matrix = OutcomePanel.from_matrix(
            "e", ("u0", "u1"), (CONTROL, T1), (1, 2), [[1, 2], [3, 4]]
        )
        assert direct == via_matrix
        assert hash(direct) == hash(via_matrix)
        assert len({direct, via_matrix}) == 1

    def test_from_matrix_leaves_the_callers_array_alone(self):
        matrix = np.zeros((2, 1))
        panel = OutcomePanel.from_matrix("exp", ["u0", "u1"], [CONTROL, T1], [1], matrix)
        assert matrix.flags.writeable
        matrix[0, 0] = 5.0
        assert panel.matrix[0, 0] == 0.0
        assert not panel.matrix.flags.writeable
        view = matrix.view()
        view.setflags(write=False)
        panel = OutcomePanel.from_matrix("exp", ["u0", "u1"], [CONTROL, T1], [1], view)
        matrix[1, 0] = 7.0
        assert panel.matrix[1, 0] == 0.0

    def test_stores_only_what_its_file_holds(self):
        names = [field.name for field in dataclasses.fields(OutcomePanel)]
        assert names == ["experiment_id", "user_ids", "arms", "days", "matrix"]
        panel = build_panel(np.zeros((2, 4)), [CONTROL, T1], days=[-1, 1, 2, 3])
        assert panel.horizon == 3
        assert panel.arm_labels == (CONTROL, T1)

    def test_duplicate_user_id(self):
        with pytest.raises(DuplicateObservation):
            OutcomePanel.from_matrix(
                "exp", ["u0", "u0"], [CONTROL, T1], [1], [[1.0], [2.0]]
            )

    def test_extra_day_outside_range(self):
        matrix = [[1.0, 5.0], [2.0, 6.0]]
        with pytest.raises(OutOfRange):
            OutcomePanel.from_matrix("exp", ["u0", "u1"], [CONTROL, T1], [1], matrix)

    def test_no_treatment_arm(self):
        with pytest.raises(NoTreatmentArm):
            OutcomePanel.from_matrix(
                "exp", ["u0", "u1"], [CONTROL, CONTROL], [1], [[1.0], [2.0]]
            )

    @pytest.mark.parametrize(
        "days, matrix, error",
        [
            ([1, 2, 3], [[1.0, 2.0], [3.0, 4.0]], MissingDay),
            ([2, 1], [[1.0, 2.0], [3.0, 4.0]], OutOfRange),
            ([-1, 0, 1], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], OutOfRange),
            ([1, 3], [[1.0, 2.0], [3.0, 4.0]], OutOfRange),
            ([1, 2], [[1.0, 2.0]], MissingDay),
            ([1, 2], [[1.0, np.inf], [3.0, 4.0]], NonFiniteOutcome),
        ],
    )
    def test_matrix_must_match_days_and_users(self, days, matrix, error):
        with pytest.raises(error):
            OutcomePanel.from_matrix("exp", ["u0", "u1"], [CONTROL, T1], days, matrix)

    @pytest.mark.parametrize(
        "arms, error",
        [
            ([CONTROL, ArmLabel("control", False)], ArmLabelConflict),
            ([CONTROL, ArmLabel("c2", True)], ArmLabelConflict),
            ([T1, T1], NoControlArm),
        ],
    )
    def test_arm_labels_validated(self, arms, error):
        with pytest.raises(error):
            OutcomePanel.from_matrix("exp", ["u0", "u1"], arms, [1], [[1.0], [2.0]])

    def test_arm_partition(self):
        rng = np.random.default_rng(3)
        arms = [CONTROL] * 3 + [T1] * 4 + [ArmLabel("t2", False)] * 2
        panel = build_panel(rng.standard_normal((9, 3)), arms)
        by_arm = [int(panel.arm_mask(a.name).sum()) for a in panel.arm_labels]
        assert sum(by_arm) == panel.n_users
        assert sorted(by_arm) == [2, 3, 4]
        for label in panel.arm_labels:
            expected = [a.name == label.name for a in panel.arms]
            assert panel.arm_mask(label.name).tolist() == expected
        assert not panel.arm_mask("absent").any()

        # Rows are coded by runs of one label: interleaved labels make runs
        # of one row, and equal labels that are distinct objects share a run.
        t2 = ArmLabel("t2", False)
        interleaved = [CONTROL, T1] * 4 + [t2, CONTROL, t2]
        distinct = [ArmLabel("t1", False), ArmLabel("control", True), ArmLabel("control", True),
                    t2, ArmLabel("t1", False), ArmLabel("t1", False), ArmLabel("t2", False)]
        for arms in (interleaved, distinct):
            panel = build_panel(rng.standard_normal((len(arms), 3)), arms)
            first_seen = list(dict.fromkeys(arms))
            assert list(panel.arm_labels) == first_seen
            for label in first_seen:
                expected = [a.name == label.name for a in arms]
                assert panel.arm_mask(label.name).tolist() == expected


class TestWindow:
    def test_single_day(self):
        panel = build_panel([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [CONTROL, T1])
        np.testing.assert_array_equal(window(panel, 1, 1), [[1.0], [4.0]])

    def test_pre_test_matrix_shape(self):
        rng = np.random.default_rng(5)
        days = list(range(-63, 0)) + list(range(1, 64))
        panel = build_panel(rng.standard_normal((2, 126)), [CONTROL, T1], days=days)
        pre = window(panel, -63, -1)
        assert pre.shape == (2, 63)
        np.testing.assert_array_equal(pre, panel.matrix[:, :63])

    def test_out_of_range(self):
        panel = build_panel(np.ones((2, 63)) * 2, [CONTROL, T1])
        with pytest.raises(OutOfRange):
            window(panel, 1, 64)
        with pytest.raises(OutOfRange):
            window(panel, 5, 4)

    def test_window_straddles_allocation_skips_day_zero(self):
        days = [-2, -1, 1, 2]
        panel = build_panel([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], [CONTROL, T1], days=days)
        np.testing.assert_array_equal(window(panel, -1, 1), [[2.0, 3.0], [6.0, 7.0]])

    def test_window_is_read_only(self):
        panel = build_panel([[1.0, 2.0], [3.0, 4.0]], [CONTROL, T1])
        view = window(panel, 1, 2)
        with pytest.raises(ValueError):
            view[0, 0] = 99.0


class TestLongTermMean:
    """The long-term mean is the row mean of the days 1..horizon window."""

    def test_constant_series(self):
        panel = build_panel(np.full((2, 63), 2.0), [CONTROL, T1])
        assert window(panel, 1, panel.horizon).mean(axis=1)[0] == 2.0

    def test_simple_arithmetic(self):
        panel = build_panel([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]], [CONTROL, T1])
        assert window(panel, 1, panel.horizon).mean(axis=1)[0] == 2.0

    def test_randomized_series_vs_summation_oracle(self):
        rng = np.random.default_rng(17)
        panel = build_panel(rng.standard_normal((4, 63)), [CONTROL, CONTROL, T1, T1])
        means = window(panel, 1, panel.horizon).mean(axis=1)
        for row, mean in zip(panel.matrix.tolist(), means):
            total = 0.0
            for day in range(1, 64):
                total += row[panel.days.index(day)]
            assert mean == pytest.approx(total / 63, rel=1e-12)

    def test_missing_day(self):
        days = list(range(-3, 0))  # pre-period only
        panel = build_panel([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [CONTROL, T1], days=days)
        with pytest.raises(OutOfRange):
            window(panel, 1, panel.horizon)
        with pytest.raises(MissingDay):
            direct_effect(panel, "t1")

    def test_window_means_match_fsum_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            n = int(rng.integers(2, 8))
            arms = [CONTROL] * max(1, n // 2) + [T1] * (n - max(1, n // 2))
            panel = build_panel(10.0 * rng.standard_normal((n, 63)), arms)
            row_means = window(panel, 1, panel.horizon).mean(axis=1)
            for row, mean in zip(panel.matrix.tolist(), row_means):
                assert math.isclose(
                    math.fsum(row[:63]) / 63, mean, rel_tol=1e-12, abs_tol=1e-15
                )
