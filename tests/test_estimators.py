import json
import math
import re

import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from surrokit import (
    ControlAsTreatment,
    DegenerateGroup,
    DegenerateVarianceWarning,
    EffectEstimate,
    MissingPrePeriod,
    OutOfRange,
    SE_FLOOR,
    SignificanceClass,
    SimConfig,
    UnknownArm,
    Z_CRIT_95,
    ModelSource,
    NumericalError,
    direct_effect,
    estimate_to_record,
    fit_pretest,
    fit_similar,
    mean_difference_effect,
    panel_reads,
    record_to_estimate,
    running_mean_model,
    simulate_experiment,
    surrogate_effect,
    welch_se,
    z_test,
)

from conftest import CONTROL, T1, build_panel

ARM = "t1"


def toy_estimate(point, std_error):
    return EffectEstimate("e", ARM, "direct", 63, point, std_error)


class TestWelchSE:
    def test_two_by_two(self):
        # both groups have sample variance 2
        assert welch_se([0.0, 2.0], [0.0, 2.0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_constant_groups_floored_with_warning(self):
        with pytest.warns(DegenerateVarianceWarning):
            se = welch_se([1.0, 1.0, 1.0], [2.0, 2.0])
        assert se == SE_FLOOR

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(37).tolist()
        b = (2.0 + 3.0 * rng.standard_normal(12)).tolist()

        def sample_var(values):
            mean = sum(values) / len(values)
            return sum((v - mean) ** 2 for v in values) / (len(values) - 1)

        expected = math.sqrt(sample_var(a) / len(a) + sample_var(b) / len(b))
        assert welch_se(a, b) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroup):
            welch_se([1.0], [1.0, 2.0])


class TestDirectEffect:
    def test_constant_arms(self):
        panel = build_panel(np.vstack([np.full((2, 63), 3.0), np.full((2, 63), 5.0)]),
                            [CONTROL, CONTROL, T1, T1])
        with pytest.warns(DegenerateVarianceWarning):
            estimate = direct_effect(panel, "t1")
        assert estimate.point == 2.0

    def test_identical_arms_give_zero(self):
        rng = np.random.default_rng(22)
        block = rng.standard_normal((3, 63))
        panel = build_panel(np.vstack([block, block]), [CONTROL] * 3 + [T1] * 3)
        estimate = direct_effect(panel, "t1")
        assert estimate.point == 0.0

    def test_six_user_fixture_hand_welch(self):
        # control users with constant daily outcomes 1, 2, 3; treated 2, 4, 6
        rows = [np.full(3, v) for v in (1.0, 2.0, 3.0, 2.0, 4.0, 6.0)]
        panel = build_panel(np.vstack(rows), [CONTROL] * 3 + [T1] * 3)
        estimate = direct_effect(panel, "t1")
        # hand computation: means 4 vs 2, s2 = 4 and 1, se = sqrt(4/3 + 1/3)
        assert estimate.point == 2.0
        assert estimate.std_error == pytest.approx(1.2909944487358056, rel=1e-15)
        assert estimate.z_stat == pytest.approx(1.5491933384829668, rel=1e-15)
        assert estimate.p_value == pytest.approx(0.12133525035848217, rel=1e-13)
        assert estimate.ci_95[0] == pytest.approx(2.0 - Z_CRIT_95 * estimate.std_error)
        assert estimate.ci_95[1] == pytest.approx(2.0 + Z_CRIT_95 * estimate.std_error)

    def test_unknown_arm(self):
        panel = build_panel(np.random.default_rng(1).standard_normal((4, 3)),
                            [CONTROL, CONTROL, T1, T1])
        with pytest.raises(UnknownArm):
            direct_effect(panel, "nope")

    def test_control_as_treatment(self):
        panel = build_panel(np.random.default_rng(2).standard_normal((4, 3)),
                            [CONTROL, CONTROL, T1, T1])
        with pytest.raises(ControlAsTreatment):
            direct_effect(panel, "control")

    @pytest.mark.parametrize("arm, error", [("nope", UnknownArm), ("control", ControlAsTreatment)])
    def test_arm_is_resolved_before_the_horizon(self, arm, error):
        panel = build_panel(np.random.default_rng(3).standard_normal((4, 3)),
                            [CONTROL, CONTROL, T1, T1])
        with pytest.raises(error):
            direct_effect(panel, arm, horizon=10)
        with pytest.raises(error):
            surrogate_effect(running_mean_model(10), panel, arm)

    def test_missing_horizon_days(self):
        panel = build_panel(np.random.default_rng(3).standard_normal((4, 3)),
                            [CONTROL, CONTROL, T1, T1])
        with pytest.raises(OutOfRange, match="panel 'exp': window"):
            direct_effect(panel, "t1", horizon=10)

    def test_shift_covariance(self):
        rng = np.random.default_rng(24)
        matrix = rng.standard_normal((8, 20))
        arms = [CONTROL] * 4 + [T1] * 4
        base = direct_effect(build_panel(matrix, arms), "t1")
        shifted_matrix = matrix.copy()
        shifted_matrix[4:] += 0.75
        shifted = direct_effect(build_panel(shifted_matrix, arms), "t1")
        assert shifted.point == pytest.approx(base.point + 0.75, rel=1e-12)
        assert shifted.std_error == pytest.approx(base.std_error, rel=1e-12)


class TestSurrogateEffect:
    def test_full_order_fit_matches_direct(self):
        config = SimConfig(users_per_arm=40, pre_period=0, effect_scale=0.4, seed=201)
        panel = simulate_experiment(config, 0).panel
        model = fit_similar(panel, 63)
        direct = direct_effect(panel, "t1")
        surrogate = surrogate_effect(model, panel, "t1")
        assert surrogate.point == pytest.approx(direct.point, rel=1e-8)
        assert surrogate.std_error == pytest.approx(direct.std_error, rel=1e-8)

    def test_full_order_fit_on_donor_matches_direct(self):
        config = SimConfig(n_experiments=2, users_per_arm=40, pre_period=0,
                           effect_scale=0.4, seed=202)
        panel = simulate_experiment(config, 0).panel
        donor = simulate_experiment(config, 1).panel
        model = fit_similar(donor, 63)
        direct = direct_effect(panel, "t1")
        surrogate = surrogate_effect(model, panel, "t1")
        assert surrogate.point == pytest.approx(direct.point, rel=1e-8)

    def test_running_mean_full_order_equals_direct(self):
        config = SimConfig(users_per_arm=30, pre_period=0, effect_scale=0.4, seed=203)
        panel = simulate_experiment(config, 0).panel
        direct = direct_effect(panel, "t1")
        surrogate = surrogate_effect(running_mean_model(63), panel, "t1")
        assert surrogate.point == pytest.approx(direct.point, rel=1e-13)
        assert surrogate.std_error == pytest.approx(direct.std_error, rel=1e-13)

    def test_zero_noise_flat_profile_recovers_injected_effect(self):
        config = SimConfig(
            users_per_arm=25, arms_per_experiment=2, noise_sd=0.0, baseline_sd=0.0,
            novelty_floor=1.0, effect_scale=0.8, pre_period=0, seed=204,
        )
        experiment = simulate_experiment(config, 0)
        model = fit_similar(experiment.panel, 1)
        for arm, truth in experiment.true_effects.items():
            with pytest.warns(DegenerateVarianceWarning):
                estimate = surrogate_effect(model, experiment.panel, arm)
            assert estimate.point == pytest.approx(truth, rel=1e-8)

    def test_kind_carries_order_and_source(self):
        config = SimConfig(users_per_arm=30, seed=205)
        panel = simulate_experiment(config, 0).panel
        estimate = surrogate_effect(fit_pretest(panel, 5), panel, "t1")
        assert (estimate.kind, estimate.T) == ("surrogate:pretest", 5)


class TestEveryArmFromOneRead:
    """An iterable of arm names gives the single-name estimates, in its order."""

    CONFIG = SimConfig(n_experiments=2, arms_per_experiment=3, users_per_arm=30, horizon=14,
                       pre_period=14, seed=208)
    ARMS = ("t3", "t1", "t2")

    @pytest.fixture(scope="class")
    def panel(self):
        return simulate_experiment(self.CONFIG, 0).panel

    @staticmethod
    def text(estimates):
        """The estimates' records as JSON text: equal text means equal bits, -0.0 included."""
        return json.dumps([estimate_to_record(estimate) for estimate in estimates])

    @pytest.mark.parametrize("horizon", [1, 7, 14, None])
    def test_direct_tuple_equals_the_per_arm_calls(self, panel, horizon):
        estimates = direct_effect(panel, self.ARMS, horizon)
        assert isinstance(estimates, tuple)
        assert self.text(estimates) == self.text(
            [direct_effect(panel, arm, horizon) for arm in self.ARMS])

    @pytest.mark.parametrize("source", list(ModelSource))
    def test_surrogate_tuple_equals_the_per_arm_calls(self, panel, source):
        model = {
            ModelSource.PRE_TEST: lambda: fit_pretest(panel, 5),
            ModelSource.SIMILAR_TEST: lambda: fit_similar(
                simulate_experiment(self.CONFIG, 1).panel, 5),
            ModelSource.RUNNING_MEAN: lambda: running_mean_model(5),
        }[source]()
        estimates = surrogate_effect(model, panel, self.ARMS)
        assert isinstance(estimates, tuple)
        assert self.text(estimates) == self.text(
            [surrogate_effect(model, panel, arm) for arm in self.ARMS])

    def test_tuple_follows_the_input_order(self, panel):
        for arms in (list(self.ARMS), ["t2", "t1"], ["t1", "t3", "t1"]):
            assert [e.arm for e in direct_effect(panel, iter(arms))] == arms
            assert [e.arm for e in surrogate_effect(running_mean_model(3), panel, arms)] == arms

    @pytest.mark.parametrize("bad, error", [("nope", UnknownArm), ("control", ControlAsTreatment)])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_bad_name_anywhere_raises_the_single_call_error_before_the_horizon(
        self, panel, bad, error, position
    ):
        arms = list(self.ARMS)
        arms.insert(position, bad)
        with pytest.raises(error) as single:
            direct_effect(panel, bad)
        with pytest.raises(error) as many:
            direct_effect(panel, arms, horizon=99)
        assert str(many.value) == str(single.value)
        with pytest.raises(error) as many:
            surrogate_effect(running_mean_model(99), panel, arms)
        assert str(many.value) == str(single.value)
        # The names all pass, so the read of days 1..99 raises.
        with pytest.raises(OutOfRange):
            direct_effect(panel, self.ARMS, horizon=99)


class TestPanelReads:
    CONFIG = SimConfig(n_experiments=1, arms_per_experiment=3, users_per_arm=30, horizon=7,
                       pre_period=7, seed=36)

    @pytest.fixture(scope="class")
    def panel(self):
        return simulate_experiment(self.CONFIG, 0).panel

    @pytest.mark.parametrize("regime", list(ModelSource))
    def test_every_arm_is_read_at_each_direct_day_and_order(self, panel, regime):
        models = fit_similar(panel, [2, 5], 7) if regime == ModelSource.SIMILAR_TEST else None
        reads = panel_reads(panel, regime.value, [5, 2], 7, [7, 3], models)
        kind = f"surrogate:{regime.value}"
        assert [(read.kind, read.T, read.arm) for read in reads] == [
            (k, T, arm) for k, T in [("direct", 3), ("direct", 7), (kind, 2), (kind, 5)]
            for arm in ("t1", "t2", "t3")]
        assert reads[3:6] == list(direct_effect(panel, ["t1", "t2", "t3"], 7))

    @pytest.mark.parametrize("regime, models, message", [
        ("similar", None, "got no models under similar"),
        ("pretest", [running_mean_model(2)], "got models under pretest"),
        ("running-mean", [], "got models under running-mean"),
        ("nope", None, "'nope' is not a valid ModelSource"),
    ])
    def test_models_go_with_the_similar_regime_only(self, panel, regime, models, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            panel_reads(panel, regime, [2], 7, [7], models)


class TestReadsOfMissingDays:
    """Each read of days its panel lacks raises one error that names the panel.

    The expected messages are worked out from the panel's first and last day
    and the days asked for.
    """

    ID = "sim-00007"

    def panel(self, first, last):
        days = [day for day in range(first, last + 1) if day != 0]
        return build_panel(np.random.default_rng(4).standard_normal((6, len(days))),
                           [CONTROL, T1] * 3, days=days, experiment_id=self.ID)

    @pytest.mark.parametrize("first, last", [(1, 3), (-4, 5)])
    def test_reads_past_the_last_day(self, first, last):
        panel, past = self.panel(first, last), last + 2
        outside = f"panel '{self.ID}': window [1, {past}] outside its days [{first}, {last}]"
        reads = [lambda: direct_effect(panel, ARM, past),
                 lambda: surrogate_effect(running_mean_model(past), panel, ARM),
                 lambda: fit_similar(panel, 1, past)]  # a donor shorter than the horizon
        for read in reads:
            with pytest.raises(OutOfRange, match=re.escape(outside)):
                read()

    def test_panel_without_post_allocation_days(self):
        first, last = -5, -2  # every default horizon is the last day
        panel = self.panel(first, last)
        for horizon in (None, 0):
            below = f"panel '{self.ID}': horizon {last if horizon is None else horizon} is below 1"
            with pytest.raises(OutOfRange, match=re.escape(below)):
                fit_pretest(panel, 1, horizon)
        empty = f"panel '{self.ID}': empty window [1, {last}]"
        for read in (lambda: direct_effect(panel, ARM), lambda: fit_similar(panel, 1)):
            with pytest.raises(OutOfRange, match=re.escape(empty)):
                read()

    def test_panel_without_pre_period(self):
        last = 5
        panel = self.panel(1, last)
        lacking = f"horizon {last} exceeds the 0-day pre-period of panel '{self.ID}'"
        with pytest.raises(MissingPrePeriod, match=re.escape(lacking)):
            fit_pretest(panel, 1)


class TestZTest:
    def test_strong_positive(self):
        assert z_test(toy_estimate(2.0, 0.5)) is SignificanceClass.SIG_POSITIVE

    def test_strong_negative(self):
        assert z_test(toy_estimate(-2.0, 0.5)) is SignificanceClass.SIG_NEGATIVE

    def test_weak_is_not_significant(self):
        # z = 1 has p about 0.317
        assert z_test(toy_estimate(0.5, 0.5)) is SignificanceClass.NOT_SIG

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            z_test(toy_estimate(1.0, 1.0), alpha=1.5)


class TestEstimateInvariants:
    def test_ci_and_z_locked_to_point_and_se(self):
        rng = np.random.default_rng(25)
        for trial in range(20):
            point = float(rng.standard_normal())
            se = float(abs(rng.standard_normal()) + 0.01)
            est = toy_estimate(point, se)
            assert est.z_stat == point / se
            assert est.ci_95 == (point - Z_CRIT_95 * se, point + Z_CRIT_95 * se)
            assert est.ci_95[0] <= est.point <= est.ci_95[1]
            assert 0.0 <= est.p_value <= 1.0

    def test_invalid_se_rejected(self):
        with pytest.raises(ValueError):
            toy_estimate(1.0, 0.0)

    @pytest.mark.parametrize(
        "point, std_error",
        [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)],
    )
    def test_non_finite_point_or_se_rejected(self, point, std_error):
        with pytest.raises(ValueError):
            toy_estimate(point, std_error)

    @pytest.mark.parametrize(
        "point, std_error",
        [(1e297, SE_FLOOR), (-1e300, 1e-10), (1.7e308, 1e307), (-1.7e308, 1e307)],
        ids=["z", "negative-z", "ci-high", "ci-low"],
    )
    def test_overflowing_z_or_interval_rejected(self, point, std_error):
        with pytest.raises(ValueError, match="must be finite"):
            toy_estimate(point, std_error)

    def test_overflowing_effect_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="must be finite"), np.errstate(over="ignore"):
            mean_difference_effect([0.0, 1e200], [0.0, 1.0], experiment_id="e", arm=ARM,
                                   kind="direct", T=63)

    def test_overflowing_standard_error_warns_nothing_first(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="std_error inf"):
                mean_difference_effect([1e200, -1e200, 3e200], [0.0, 1.0, 2.0],
                                       experiment_id="e", arm=ARM, kind="direct", T=63)

    @pytest.mark.parametrize("kind, T, message", [
        ("surrogate:", 5, "unknown estimate kind 'surrogate:'"),
        ("surrogate", 5, "unknown estimate kind"),
        ("direct:pretest", 5, "unknown estimate kind"),
        ("direct", 0, "T must be positive, got 0"),
        ("surrogate:similar", -1, "T must be positive"),
    ], ids=["empty-source", "no-source", "direct-with-source", "zero-T", "negative-T"])
    def test_unknown_kind_or_nonpositive_T_rejected(self, kind, T, message):
        with pytest.raises(ValueError, match=message):
            EffectEstimate("e", ARM, kind, T, 1.0, 1.0)
        # a caller's mistake, not an overflow
        with pytest.raises(ValueError, match=message):
            mean_difference_effect([0.0, 1.0], [0.0, 2.0], experiment_id="e", arm=ARM,
                                   kind=kind, T=T)


    @pytest.mark.parametrize("T", [True, False, 14.0, "14"])
    def test_T_that_is_no_integer_rejected(self, T):
        with pytest.raises(TypeError):
            EffectEstimate("e", ARM, "direct", T, 1.0, 1.0)

    def test_reads_at_a_bool_or_numpy_horizon(self):
        """A read builds only estimates whose records are written and read back."""
        panel = simulate_experiment(SimConfig(users_per_arm=20, horizon=5, pre_period=5,
                                              seed=209), 0).panel
        with pytest.raises(TypeError, match="T must be an integer, got True"):
            direct_effect(panel, "t1", True)
        estimate = direct_effect(panel, "t1", np.int64(3))
        assert type(estimate.T) is int
        record = json.loads(json.dumps(estimate_to_record(estimate)))
        assert record["T"] == 3 and record_to_estimate(record) == estimate


class TestRecords:
    def test_record_keys_exact(self):
        record = estimate_to_record(toy_estimate(1.0, 0.5))
        assert list(record) == [
            "experiment_id", "arm", "kind", "T", "point", "std_error",
            "z", "p", "ci_low", "ci_high",
        ]
        assert record["kind"] == "direct"
        assert record["T"] == 63

    def test_round_trip_direct_and_surrogate(self):
        config = SimConfig(users_per_arm=30, seed=206)
        panel = simulate_experiment(config, 0).panel
        direct = direct_effect(panel, "t1")
        surrogate = surrogate_effect(fit_pretest(panel, 7), panel, "t1")
        for estimate in (direct, surrogate):
            rebuilt = record_to_estimate(estimate_to_record(estimate))
            assert rebuilt == estimate

    @settings(max_examples=200, deadline=None)
    @given(
        experiment_id=st.text(max_size=8),
        arm=st.text(max_size=8),
        T=st.integers(1, 63),
        source=st.none() | st.sampled_from(ModelSource),
        point=st.floats(allow_nan=False, allow_infinity=False),
        std_error=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_record_round_trip_is_the_identity(
        self, experiment_id, arm, T, source, point, std_error
    ):
        kind = "direct" if source is None else f"surrogate:{source.value}"
        try:
            estimate = EffectEstimate(experiment_id, arm, kind, T, point, std_error)
        except ValueError:
            # Only an overflowing z statistic or interval bound is refused.
            low, high = point - Z_CRIT_95 * std_error, point + Z_CRIT_95 * std_error
            assert not all(map(math.isfinite, (point / std_error, low, high)))
            reject()
        assert record_to_estimate(estimate_to_record(estimate)) == estimate
        text = json.dumps(estimate_to_record(estimate))
        rebuilt = record_to_estimate(json.loads(text))
        assert rebuilt == estimate
        assert json.dumps(estimate_to_record(rebuilt)) == text

    @pytest.mark.parametrize("kind", ["direct:", "surrogate", "surrogate:", "surrogate:x", "x"])
    def test_unknown_kind_rejected(self, kind):
        record = {**estimate_to_record(toy_estimate(1.0, 0.5)), "kind": kind}
        with pytest.raises(ValueError, match=f"^unknown estimate kind {kind!r}$"):
            record_to_estimate(record)

    @pytest.mark.parametrize("field, value", [
        ("T", 14.5), ("T", 14.0), ("T", True), ("T", "14"),
        ("point", "0.5"), ("point", True), ("std_error", True), ("std_error", "1"),
        ("experiment_id", 5), ("arm", 7), ("arm", False), ("kind", None),
    ])
    def test_field_of_another_json_type_is_refused(self, field, value):
        record = {**estimate_to_record(toy_estimate(1.0, 0.5)), field: value}
        with pytest.raises(ValueError, match=f"^estimate field '{field}' must be a JSON "):
            record_to_estimate(record)

    @pytest.mark.parametrize("field", ["experiment_id", "arm", "kind", "T", "point", "std_error"])
    def test_missing_field_is_named(self, field):
        record = estimate_to_record(toy_estimate(1.0, 0.5))
        del record[field]
        with pytest.raises(ValueError, match=f"^estimate field '{field}' is missing$"):
            record_to_estimate(record)

    def test_surrogate_kind_embeds_source(self):
        config = SimConfig(users_per_arm=30, seed=207)
        panel = simulate_experiment(config, 0).panel
        record = estimate_to_record(surrogate_effect(running_mean_model(5), panel, "t1"))
        assert record["kind"] == "surrogate:running-mean"
        assert record["T"] == 5


class TestLightMonteCarlo:
    """Fast directional check; the full 2000-replication run is in acceptance."""

    def test_unbiased_and_lower_variance(self):
        config = SimConfig(
            n_experiments=200, arms_per_experiment=1, users_per_arm=100,
            baseline_sd=1.0, noise_sd=1.0, ar1_rho=0.3, effect_scale=0.1,
            effect_tail_df=math.inf, novelty_floor=1.0, seed=208,
        )
        direct_points, surrogate_points, truths = [], [], []
        for index in range(config.n_experiments):
            experiment = simulate_experiment(config, index)
            model = fit_pretest(experiment.panel, 14)
            direct_points.append(direct_effect(experiment.panel, "t1").point)
            surrogate_points.append(surrogate_effect(model, experiment.panel, "t1").point)
            truths.append(experiment.true_effects["t1"])
        errors = np.array(surrogate_points) - np.array(truths)
        mc_se = errors.std(ddof=1) / math.sqrt(len(errors))
        assert abs(errors.mean()) < 5 * mc_se
        assert np.var(surrogate_points, ddof=1) < 1.3 * np.var(direct_points, ddof=1)
