import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from surrokit import (
    CLASS_ORDER,
    EffectEstimate,
    EmptyInput,
    InvalidCycle,
    InvalidRecall,
    KeyMismatch,
    NumericalError,
    SignificanceClass,
    SimConfig,
    ZeroVariance,
    capacity_gain,
    decision_report,
    direct_effect,
    excess_kurtosis,
    extra_experiments_needed,
    fit_pretest,
    launch_metrics,
    running_mean_model,
    scaled_distribution,
    simulate_experiment,
    surrogate_effect,
    z_test,
)

POS = SignificanceClass.SIG_POSITIVE
NS = SignificanceClass.NOT_SIG
NEG = SignificanceClass.SIG_NEGATIVE


def estimate_with_z(experiment_id, arm, z, kind=("direct", 63)):
    return EffectEstimate(experiment_id, arm, *kind, float(z), 1.0)


SURROGATE_KIND = ("surrogate:pretest", 14)

# A z statistic of each class at alpha 0.05.
Z_OF = {POS: 4.0, NS: 0.0, NEG: -4.0}


def reads(points):
    """Direct and surrogate estimates of arm ``t<k>`` from (direct, surrogate) points."""
    direct = [estimate_with_z("e1", f"t{k}", d) for k, (d, _) in enumerate(points, 1)]
    surrogate = [estimate_with_z("e1", f"t{k}", s, SURROGATE_KIND)
                 for k, (_, s) in enumerate(points, 1)]
    return direct, surrogate


def at_unit_scale(values):
    """``values`` times the power of two that brings their largest deviation
    from the mean into [0.5, 1)."""
    x = np.asarray(values, dtype=float)
    return np.ldexp(x, -np.frexp(np.abs(x - x.mean()).max())[1])


def total(matrix):
    return sum(map(sum, matrix))


def count(matrix, direct, surrogate):
    """The pairs that the direct read puts in class ``direct`` and the surrogate in ``surrogate``."""
    return matrix[CLASS_ORDER.index(direct)][CLASS_ORDER.index(surrogate)]


def report_confusion(direct, surrogate):
    """The confusion matrix of ``decision_report`` over the two lists at alpha 0.05."""
    report, _ = decision_report(direct, surrogate, 0.05, 56.0, 14.0)
    matrix = report["confusion"]
    assert total(matrix) == report["n_pairs"]
    return matrix


def class_confusion(pairs):
    """The report's confusion matrix over pairs of (direct, surrogate) classes."""
    return report_confusion(*reads([(Z_OF[d], Z_OF[s]) for d, s in pairs]))


class TestClassifyPairs:
    """Each pair's classes, as the report counts them."""

    def test_both_strongly_positive(self):
        matrix = report_confusion(*reads([(4.0, 4.0)]))
        assert count(matrix, POS, POS) == total(matrix) == 1

    def test_positive_direct_flat_surrogate(self):
        matrix = report_confusion(*reads([(4.0, 0.0)]))
        assert count(matrix, POS, NS) == total(matrix) == 1

    def test_twenty_pair_fixture_hand_count(self):
        # 8 (+,+), 3 (+,ns), 5 (ns,ns), 2 (ns,+), 2 (-,-): 20 total
        spec = [(4, 4)] * 8 + [(4, 0)] * 3 + [(0, 0)] * 5 + [(0, 4)] * 2 + [(-4, -4)] * 2
        direct = [estimate_with_z(f"e{i}", "t1", d) for i, (d, s) in enumerate(spec)]
        surrogate = [estimate_with_z(f"e{i}", "t1", s) for i, (d, s) in enumerate(spec)]
        matrix = report_confusion(direct, surrogate)
        assert matrix == [[8, 3, 0], [2, 5, 0], [0, 0, 2]]
        assert total(matrix) == 20

    def test_key_mismatch(self):
        direct = [estimate_with_z("e1", "t1", 1.0)]
        surrogate = [estimate_with_z("e1", "t2", 1.0)]
        with pytest.raises(KeyMismatch):
            decision_report(direct, surrogate, 0.05, 56.0, 14.0)

    def test_duplicate_key(self):
        direct = [estimate_with_z("e1", "t1", 1.0), estimate_with_z("e1", "t1", 2.0)]
        surrogate = [estimate_with_z("e1", "t1", 1.0)]
        with pytest.raises(KeyMismatch):
            decision_report(direct, surrogate, 0.05, 56.0, 14.0)

    @pytest.mark.parametrize("label, kinds", [
        ("direct", [("direct", 63), ("direct", 14)]),
        ("surrogate", [SURROGATE_KIND, ("surrogate:similar", 14)]),
    ])
    def test_reads_of_two_kinds_or_horizons_raise(self, label, kinds):
        # Each key is read once, but the report could name neither group.
        one = [estimate_with_z(f"e{i}", "t1", 1.0, kind) for i, kind in enumerate(kinds)]
        other = [estimate_with_z(f"e{i}", "t1", 1.0, kinds[0]) for i in range(2)]
        direct, surrogate = (one, other) if label == "direct" else (other, one)
        with pytest.raises(KeyMismatch, match=f"^{label} reads mix "):
            decision_report(direct, surrogate, 0.05, 56.0, 14.0)


class TestConfusion:
    """The report's confusion matrix."""

    def test_single_pair(self):
        matrix = class_confusion([(POS, POS)])
        assert count(matrix, POS, POS) == 1
        assert total(matrix) == 1

    def test_four_not_significant_pairs(self):
        matrix = class_confusion([(NS, NS)] * 4)
        assert matrix[1][1] == 4
        assert total(matrix) == 4

    def test_empty_input(self):
        with pytest.raises(EmptyInput, match="cannot tabulate zero decision pairs"):
            decision_report([], [], 0.05, 56.0, 14.0)

    def test_permutation_invariance(self):
        pairs = [(POS, NS), (NEG, NEG), (NS, NS), (POS, POS)]
        assert class_confusion(pairs) == class_confusion(list(reversed(pairs)))

    def test_total_conservation(self):
        rng = np.random.default_rng(31)
        classes = [POS, NS, NEG]
        pairs = [
            (classes[i], classes[j])
            for i, j in zip(rng.integers(0, 3, 57), rng.integers(0, 3, 57))
        ]
        assert total(class_confusion(pairs)) == 57


class TestLaunchMetrics:
    def test_diagonal_only_matrix(self):
        metrics = launch_metrics(((10, 0, 0), (0, 20, 0), (0, 0, 5)))
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0
        assert metrics["agreement"] == 1.0
        assert metrics["false_launch_negatives"] == 0

    def test_hand_built_matrix_exact_arithmetic(self):
        counts = ((12, 7, 1), (4, 40, 3), (2, 5, 6))
        metrics = launch_metrics(counts)
        # hand tallies: surrogate-positive column 18, direct-positive row 20,
        # diagonal 58 of 80 pairs
        assert metrics["precision"] == 12 / 18
        assert metrics["recall"] == 12 / 20
        assert metrics["agreement"] == 58 / 80
        assert metrics["ns_rates"]["surrogate"] == 52 / 80
        assert metrics["ns_rates"]["direct"] == 47 / 80
        assert metrics["false_launch_negatives"] == 2
        # Whole counts of any numeric type read the same.
        assert launch_metrics(np.array(counts, dtype=float)) == metrics
        assert launch_metrics(np.array(counts, dtype=np.int64)) == metrics

    def test_paper_operating_point_shape(self):
        # An integer matrix near the reported operating point: 1098 arms,
        # recall 0.65 exact, precision ~0.79, no launch call that the long
        # read scored significantly negative.
        counts = ((130, 60, 10), (35, 830, 2), (0, 25, 6))
        assert total(counts) == 1098
        metrics = launch_metrics(counts)
        assert metrics["recall"] == pytest.approx(0.65, abs=1e-9)
        assert round(metrics["precision"], 2) == 0.79
        assert metrics["false_launch_negatives"] == 0
        assert metrics["ns_rates"]["direct"] == pytest.approx(0.79, abs=0.01)
        assert metrics["ns_rates"]["surrogate"] == pytest.approx(0.865, abs=0.04)
        assert metrics["agreement"] > 0.85

    def test_undefined_precision_is_none_not_nan(self):
        metrics = launch_metrics(((0, 5, 0), (0, 20, 0), (0, 3, 0)))
        assert metrics["precision"] is None
        assert metrics["recall"] is not None

    def test_undefined_recall_is_none_not_nan(self):
        metrics = launch_metrics(((0, 0, 0), (4, 20, 0), (1, 3, 2)))
        assert metrics["recall"] is None
        assert metrics["precision"] is not None

    def test_metric_bounds(self):
        rng = np.random.default_rng(33)
        for trial in range(25):
            counts = tuple(tuple(int(c) for c in row) for row in rng.integers(0, 9, (3, 3)))
            if total(counts) == 0:
                continue
            metrics = launch_metrics(counts)
            for value in (metrics["precision"], metrics["recall"], metrics["agreement"],
                          *metrics["ns_rates"].values()):
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            launch_metrics(((0, 0, 0),) * 3)

    @pytest.mark.parametrize("counts, message", [
        (((1, 2, 3), (4, 5, 6)), "must be 3x3"),
        (((1, 2, 3), (4, 5), (7, 8, 9)), "must be 3x3"),
        (((1, 2, 3), (4, 5, 6, 0), (7, 8, 9)), "must be 3x3"),
        (((1, 2, 3), (4, -1, 6), (7, 8, 9)), "must be nonnegative"),
        (((1.5, 0, 0), (0, 0.9, 0), (0, 0, 0)), "whole numbers"),
        (((0.4, 0, 0), (0, 0, 0), (0, 0, 0)), "whole numbers"),
        (((math.inf, 0, 0), (0, 0, 0), (0, 0, 0)), "whole numbers"),
        (((1, 2, 3), (4, np.nan, 6), (7, 8, 9)), "whole numbers"),
        (np.array([[1, 2, 3], [4, 5, 6], [7, 8, np.inf]]), "whole numbers"),
    ])
    def test_malformed_matrix_raises_value_error(self, counts, message):
        with pytest.raises(ValueError, match=message):
            launch_metrics(counts)


class TestScaledDistribution:
    def test_standard_normal_kurtosis_near_zero(self):
        x = np.random.default_rng(42).standard_normal(100_000)
        summary, _ = scaled_distribution(x)
        assert abs(summary["excess_kurtosis"]) < 0.1

    def test_student_t5_kurtosis_near_closed_form(self):
        # closed-form excess kurtosis of t(nu) is 6/(nu-4) = 6 for nu=5
        x = np.random.default_rng(13).standard_t(5, 100_000)
        summary, _ = scaled_distribution(x)
        assert summary["excess_kurtosis"] == pytest.approx(6.0, abs=0.5)

    def test_self_scaled_std_is_one(self):
        x = np.random.default_rng(7).standard_normal(200) * 3.7 + 1.2
        summary, _ = scaled_distribution(x)
        assert summary["std_dev"] == pytest.approx(1.0, abs=1e-9)

    def test_external_scaling_vector(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        reference = np.array([0.0, 2.0])  # sample std sqrt(2)
        _, scaled = scaled_distribution(values, scale_by=reference)
        np.testing.assert_allclose(scaled, values / math.sqrt(2.0))

    def test_scaling_idempotence(self):
        x = np.random.default_rng(8).standard_normal(500)
        _, once = scaled_distribution(x)
        _, twice = scaled_distribution(once)
        np.testing.assert_allclose(twice, once, rtol=1e-9)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            scaled_distribution([1.0, 2.0], scale_by=[5.0, 5.0, 5.0])

    def test_empty_values_with_a_scale_raise_empty_input(self):
        with pytest.raises(EmptyInput, match="no values to scale"):
            scaled_distribution([], scale_by=[1.0, 2.0])
        with pytest.raises(ZeroVariance):
            scaled_distribution([])

    def test_constant_scaled_values_have_no_kurtosis(self):
        direct = [1.0, 2.0, 3.5, -1.0, 0.5]
        summary, _ = scaled_distribution([0.5] * 5, scale_by=direct)
        assert summary["excess_kurtosis"] is None
        assert summary["n"] == 5 and summary["std_dev"] == 0.0
        assert summary["mean"] == 0.5 / float(np.std(direct, ddof=1))
        assert scaled_distribution(direct)[0]["excess_kurtosis"] is not None

    @pytest.mark.parametrize("values, scale_by", [
        ([1e-300, 2e-300, 3e-300, 4e-300], [1, 2, 3, 4]),  # m2 underflows
        ([0.0, 0.0, 0.0, 3.3e-97], [0, 0, 0, 1]),  # m2 squared underflows
    ])
    def test_underflowing_variance_keeps_its_kurtosis(self, values, scale_by):
        # The variance of the scaled values, or its square, underflows to 0,
        # but the kurtosis is scale-free: it is that of the values near 1.
        summary, scaled = scaled_distribution(values, scale_by=scale_by)
        assert np.var(scaled) ** 2 == 0.0
        assert summary["excess_kurtosis"] == excess_kurtosis(at_unit_scale(scaled))
        assert excess_kurtosis(scaled) == excess_kurtosis(at_unit_scale(scaled))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_kurtosis_of_constant_values_raises(self, n):
        # Six or seven copies of 0.1 have a mean that rounds away from 0.1.
        with pytest.raises(ZeroVariance):
            excess_kurtosis(np.full(n, 0.1))
        summary, _ = scaled_distribution(np.full(n, 0.1), scale_by=[0.0, 1.0])
        assert summary["excess_kurtosis"] is None

    def test_kurtosis_matches_scipy_oracle(self):
        rng = np.random.default_rng(9)
        for sample in (rng.standard_normal(50), rng.exponential(1.0, 321),
                       rng.standard_t(7, 1000)):
            assert excess_kurtosis(sample) == pytest.approx(
                stats.kurtosis(sample, fisher=True, bias=False), rel=1e-12
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_kurtosis_overflow_raises_instead_of_nan(self):
        # Fourth central moments past the float range are rescaled away ...
        values = [1e80, 2e80, 3e80, 4e80, 5e80]
        assert excess_kurtosis(values) == excess_kurtosis(at_unit_scale(values))
        summary, scaled = scaled_distribution([i * 1e80 for i in range(1, 7)],
                                              scale_by=range(1, 7))
        assert summary["excess_kurtosis"] == excess_kurtosis(at_unit_scale(scaled))
        # ... but a value that is not finite leaves none.
        with pytest.raises(NumericalError):
            excess_kurtosis([math.inf, 1.0, 2.0, 3.0])

    def test_values_whose_sum_overflows(self):
        # The sum of the first values overflows; the mean of the second is
        # finite but their deviations from it overflow. Every statistic is
        # that of the values divided by 2**1024, and the scale is that value
        # times 2**1024.
        for values in ([1e308, 1.1e308, 1.2e308, 1.3e308], [-1.7e308, 1.7e308, 1.7e308, 0.0]):
            values = np.array(values)
            small = np.ldexp(values, -1024)
            summary, _ = scaled_distribution(values)
            assert summary == scaled_distribution(small)[0]
            assert all(math.isfinite(statistic) for statistic in summary.values())
            _, scaled = scaled_distribution([1.0], scale_by=values)
            assert scaled[0] == 1.0 / math.ldexp(float(np.std(small, ddof=1)), 1024)
            assert excess_kurtosis(values) == excess_kurtosis(small)
            # The summary mean follows the same rule.
            summary, scaled = scaled_distribution(values, scale_by=[1.0, 2.0, 3.0, 4.0])
            assert summary["mean"] == math.ldexp(float(np.ldexp(scaled, -1024).mean()), 1024)

    def test_statistics_equal_numpys_bits(self):
        # Wherever numpy's sample standard deviation is finite and above
        # 1e-153, the scale, the scaled values and every summary statistic
        # are numpy's own, bit for bit, at any scale of the values.
        rng = np.random.default_rng(2311)
        checked = 0
        for _ in range(3000):
            s = 10.0 ** rng.uniform(-150, 150)
            x = s * (rng.uniform(-10, 10) + rng.standard_t(4, rng.integers(4, 201)))
            reference = s * rng.standard_t(4, rng.integers(2, 51))
            scale = np.std(reference, ddof=1)
            if not 1e-153 < scale < math.inf:
                continue
            summary, scaled = scaled_distribution(x, scale_by=reference)
            assert np.array_equal(scaled, x / scale)
            assert summary["mean"] == np.mean(scaled)
            assert summary["std_dev"] == np.std(scaled, ddof=1)
            n, c = scaled.size, scaled - scaled.mean()
            if scaled.min() == scaled.max():
                assert summary["excess_kurtosis"] is None
            else:
                m2 = np.mean(c**2)
                g2 = np.mean(c**4) / (m2 * m2) - 3.0
                g2_corrected = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
                assert summary["excess_kurtosis"] == g2_corrected
            checked += 1
        assert checked > 2900


@st.composite
def shuffled_reads(draw):
    """Paired reads over distinct (experiment, arm) keys, and shuffles of both lists."""
    point = st.floats(-50, 50, allow_nan=False)
    std_error = st.floats(0.1, 10)
    rows = draw(st.lists(st.tuples(point, std_error, point, std_error), min_size=1, max_size=12))
    labels = [(f"e{i // 3}", f"t{i % 3 + 1}") for i in range(len(rows))]
    direct = [EffectEstimate(e, arm, "direct", 63, d, d_se)
              for (e, arm), (d, d_se, _, _) in zip(labels, rows)]
    surrogate = [EffectEstimate(e, arm, *SURROGATE_KIND, s, s_se)
                 for (e, arm), (_, _, s, s_se) in zip(labels, rows)]
    return direct, surrogate, draw(st.permutations(direct)), draw(st.permutations(surrogate))


class TestDecisionReport:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_reads(), st.sampled_from([0.05, 0.2]))
    def test_report_ignores_input_order(self, reads_and_shuffles, alpha):
        direct, surrogate, direct_shuffled, surrogate_shuffled = reads_and_shuffles
        report, scaled = decision_report(direct, surrogate, alpha, 56.0, 14.0)
        for shuffled in ((direct_shuffled, surrogate), (direct, surrogate_shuffled)):
            other_report, other_scaled = decision_report(*shuffled, alpha, 56.0, 14.0)
            assert other_report == report
            assert other_scaled.tolist() == scaled.tolist()
        # shuffled_reads builds both lists in one key order.
        counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        order = [POS, NS, NEG]
        for d, s in zip(direct, surrogate):
            counts[order.index(z_test(d, alpha))][order.index(z_test(s, alpha))] += 1
        assert report["confusion"] == counts
        assert report["n_pairs"] == len(direct)

    def test_points_far_apart_in_scale_have_a_kurtosis(self):
        # Scaled by the direct SD of 3.5e-129, the surrogate point 1 becomes
        # 2.8e128, whose fourth power is past the float range.
        points = [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (7.02e-129, 0.0)]
        report, _ = decision_report(*reads(points), 0.05, 56.0, 14.0)
        for name in ("direct", "surrogate", "differences"):
            assert report["kurtosis"][name] == pytest.approx(4.0, rel=1e-12)

    def test_one_arm_has_null_distributions(self):
        report, scaled = decision_report(*reads([(4.0, 4.0)]), 0.05, 56.0, 14.0)
        assert report["n_pairs"] == 1 and report["confusion"][0][0] == 1
        undefined = {"direct": None, "surrogate": None, "differences": None}
        assert report["kurtosis"] == report["distributions"] == undefined
        assert scaled.size == 0

    def test_equal_direct_points_have_null_direct_and_surrogate(self):
        report, scaled = decision_report(
            *reads([(4.0, 4.0), (4.0, 0.0), (4.0, 1.0)]), 0.05, 56.0, 14.0)
        for name in ("direct", "surrogate"):
            assert report["kurtosis"][name] is None and report["distributions"][name] is None
        assert report["distributions"]["differences"]["n"] == scaled.size == 3
        assert report["recall"] == 1 / 3


class TestThroughput:
    def test_two_months_versus_two_weeks(self):
        assert capacity_gain(56, 14) == 3.0

    def test_equal_cycles(self):
        assert capacity_gain(63, 63) == 0.0

    def test_sixty_three_versus_fourteen(self):
        assert capacity_gain(63, 14) == 3.5

    def test_invalid_cycles(self):
        with pytest.raises(InvalidCycle):
            capacity_gain(0, 14)
        with pytest.raises(InvalidCycle):
            capacity_gain(14, 56)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cycles(self, bad):
        with pytest.raises(InvalidCycle):
            capacity_gain(bad, 14)
        with pytest.raises(InvalidCycle):
            capacity_gain(56, bad)

    def test_recall_sixty_five_percent(self):
        assert extra_experiments_needed(0.65) == pytest.approx(0.5384615384615384, rel=1e-12)

    def test_perfect_recall(self):
        assert extra_experiments_needed(1.0) == 0.0

    def test_half_recall(self):
        assert extra_experiments_needed(0.5) == 1.0

    def test_invalid_recall(self):
        with pytest.raises(InvalidRecall):
            extra_experiments_needed(0.0)
        with pytest.raises(InvalidRecall):
            extra_experiments_needed(1.2)

    def test_net_positive_at_reported_operating_point(self):
        assert capacity_gain(56, 14) > extra_experiments_needed(0.65)


class TestSimulatedAgreement:
    def test_paper_like_regime_agreement_band(self):
        # heavy-tailed, mostly-null effects: both reads should agree on the
        # bulk of arms, landing in a band around 0.95
        config = SimConfig(
            n_experiments=120, arms_per_experiment=2, users_per_arm=120,
            baseline_sd=1.0, noise_sd=1.0, ar1_rho=0.3,
            effect_scale=0.05, effect_tail_df=3.0,
            novelty_floor=0.85, novelty_halflife=10.0, seed=314,
        )
        direct, surrogate = [], []
        for index in range(config.n_experiments):
            experiment = simulate_experiment(config, index)
            model = fit_pretest(experiment.panel, 14)
            for arm in experiment.panel.treatment_arms:
                direct.append(direct_effect(experiment.panel, arm.name))
                surrogate.append(surrogate_effect(model, experiment.panel, arm.name))
        report, _ = decision_report(direct, surrogate, 0.05, 56.0, 14.0)
        assert 0.90 <= report["agreement"] <= 0.99
        assert report["false_launch_negatives"] == 0

    def test_pretest_and_running_mean_calls_agree_at_t1(self):
        # At T=1 the pretest read of an arm is b_1 times its running-mean
        # read, point and SE alike, so where b_1 > 0 the z values, and so
        # the calls, are equal. The corpus has the README's shape.
        config = SimConfig(
            n_experiments=20, arms_per_experiment=2, users_per_arm=200,
            horizon=63, pre_period=63, effect_scale=0.1, effect_tail_df=3.0,
            novelty_floor=0.85, novelty_halflife=10.0, seed=2021,
        )
        compared = 0
        for index in range(config.n_experiments):
            panel = simulate_experiment(config, index).panel
            model = fit_pretest(panel, 1)
            if model.coefficients[0] <= 0:
                continue
            for arm in panel.treatment_arms:
                pretest = surrogate_effect(model, panel, arm.name)
                running = surrogate_effect(running_mean_model(1), panel, arm.name)
                assert z_test(pretest) == z_test(running)
                assert pretest.z_stat == pytest.approx(running.z_stat, rel=1e-9, abs=0)
                compared += 1
        assert compared == 40  # every fitted b_1 of this corpus is positive
