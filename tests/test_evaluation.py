import math

import numpy as np
import pytest
from scipy import stats

from surrokit import (
    ArmLabel,
    ConfusionMatrix3,
    DecisionPair,
    EffectEstimate,
    EmptyInput,
    EstimatorKind,
    InvalidCycle,
    InvalidRecall,
    KeyMismatch,
    NumericalError,
    SignificanceClass,
    SimConfig,
    ZeroVariance,
    capacity_gain,
    classify_pairs,
    confusion,
    direct_effect,
    excess_kurtosis,
    extra_experiments_needed,
    fit_pretest,
    launch_metrics,
    scaled_distribution,
    simulate_experiment,
    surrogate_effect,
)

POS = SignificanceClass.SIG_POSITIVE
NS = SignificanceClass.NOT_SIG
NEG = SignificanceClass.SIG_NEGATIVE


def estimate_with_z(experiment_id, arm, z, kind=None):
    kind = kind or EstimatorKind.direct(63)
    return EffectEstimate(experiment_id, ArmLabel(arm, False), kind, float(z), 1.0)


def pair(direct_class, surrogate_class, experiment_id="e", arm="t1"):
    return DecisionPair(experiment_id, arm, direct_class, surrogate_class)


class TestClassifyPairs:
    def test_both_strongly_positive(self):
        direct = [estimate_with_z("e1", "t1", 4.0)]
        surrogate = [estimate_with_z("e1", "t1", 4.0)]
        (result,) = classify_pairs(direct, surrogate, 0.05)
        assert (result.direct_class, result.surrogate_class) == (POS, POS)

    def test_positive_direct_flat_surrogate(self):
        direct = [estimate_with_z("e1", "t1", 4.0)]
        surrogate = [estimate_with_z("e1", "t1", 0.0)]
        (result,) = classify_pairs(direct, surrogate, 0.05)
        assert (result.direct_class, result.surrogate_class) == (POS, NS)

    def test_twenty_pair_fixture_hand_count(self):
        # 8 (+,+), 3 (+,ns), 5 (ns,ns), 2 (ns,+), 2 (-,-): 20 total
        spec = [(4, 4)] * 8 + [(4, 0)] * 3 + [(0, 0)] * 5 + [(0, 4)] * 2 + [(-4, -4)] * 2
        direct = [estimate_with_z(f"e{i}", "t1", d) for i, (d, s) in enumerate(spec)]
        surrogate = [estimate_with_z(f"e{i}", "t1", s) for i, (d, s) in enumerate(spec)]
        matrix = confusion(classify_pairs(direct, surrogate, 0.05))
        assert matrix.counts == ((8, 3, 0), (2, 5, 0), (0, 0, 2))
        assert matrix.total == 20

    def test_key_mismatch(self):
        direct = [estimate_with_z("e1", "t1", 1.0)]
        surrogate = [estimate_with_z("e1", "t2", 1.0)]
        with pytest.raises(KeyMismatch):
            classify_pairs(direct, surrogate, 0.05)

    def test_duplicate_key(self):
        direct = [estimate_with_z("e1", "t1", 1.0), estimate_with_z("e1", "t1", 2.0)]
        surrogate = [estimate_with_z("e1", "t1", 1.0)]
        with pytest.raises(KeyMismatch):
            classify_pairs(direct, surrogate, 0.05)


class TestConfusion:
    def test_single_pair(self):
        matrix = confusion([pair(POS, POS)])
        assert matrix.count(POS, POS) == 1
        assert matrix.total == 1

    def test_four_not_significant_pairs(self):
        matrix = confusion([pair(NS, NS)] * 4)
        assert matrix.counts[1][1] == 4
        assert matrix.total == 4

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            confusion([])

    def test_permutation_invariance(self):
        pairs = [pair(POS, NS), pair(NEG, NEG), pair(NS, NS), pair(POS, POS)]
        assert confusion(pairs) == confusion(list(reversed(pairs)))

    def test_total_conservation(self):
        rng = np.random.default_rng(31)
        classes = [POS, NS, NEG]
        pairs = [
            pair(classes[i], classes[j], experiment_id=f"e{k}")
            for k, (i, j) in enumerate(zip(rng.integers(0, 3, 57), rng.integers(0, 3, 57)))
        ]
        assert confusion(pairs).total == 57


class TestLaunchMetrics:
    def test_diagonal_only_matrix(self):
        metrics = launch_metrics(ConfusionMatrix3(((10, 0, 0), (0, 20, 0), (0, 0, 5))))
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.agreement == 1.0
        assert metrics.false_launch_negatives == 0

    def test_hand_built_matrix_exact_arithmetic(self):
        counts = ((12, 7, 1), (4, 40, 3), (2, 5, 6))
        metrics = launch_metrics(ConfusionMatrix3(counts))
        # hand tallies: surrogate-positive column 18, direct-positive row 20,
        # diagonal 58 of 80 pairs
        assert metrics.precision == 12 / 18
        assert metrics.recall == 12 / 20
        assert metrics.agreement == 58 / 80
        assert metrics.surrogate_ns_rate == 52 / 80
        assert metrics.direct_ns_rate == 47 / 80
        assert metrics.false_launch_negatives == 2

    def test_paper_operating_point_shape(self):
        # An integer matrix near the reported operating point: 1098 arms,
        # recall 0.65 exact, precision ~0.79, no launch call that the long
        # read scored significantly negative.
        counts = ((130, 60, 10), (35, 830, 2), (0, 25, 6))
        matrix = ConfusionMatrix3(counts)
        assert matrix.total == 1098
        metrics = launch_metrics(matrix)
        assert metrics.recall == pytest.approx(0.65, abs=1e-9)
        assert round(metrics.precision, 2) == 0.79
        assert metrics.false_launch_negatives == 0
        assert metrics.direct_ns_rate == pytest.approx(0.79, abs=0.01)
        assert metrics.surrogate_ns_rate == pytest.approx(0.865, abs=0.04)
        assert metrics.agreement > 0.85

    def test_undefined_precision_is_none_not_nan(self):
        metrics = launch_metrics(ConfusionMatrix3(((0, 5, 0), (0, 20, 0), (0, 3, 0))))
        assert metrics.precision is None
        assert metrics.recall is not None

    def test_undefined_recall_is_none_not_nan(self):
        metrics = launch_metrics(ConfusionMatrix3(((0, 0, 0), (4, 20, 0), (1, 3, 2))))
        assert metrics.recall is None
        assert metrics.precision is not None

    def test_metric_bounds(self):
        rng = np.random.default_rng(33)
        for trial in range(25):
            counts = tuple(tuple(int(c) for c in row) for row in rng.integers(0, 9, (3, 3)))
            matrix = ConfusionMatrix3(counts)
            if matrix.total == 0:
                continue
            metrics = launch_metrics(matrix)
            for value in (metrics.precision, metrics.recall, metrics.agreement,
                          metrics.surrogate_ns_rate, metrics.direct_ns_rate):
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            launch_metrics(ConfusionMatrix3(((0, 0, 0),) * 3))


class TestScaledDistribution:
    def test_standard_normal_kurtosis_near_zero(self):
        x = np.random.default_rng(42).standard_normal(100_000)
        summary = scaled_distribution(x)
        assert abs(summary.excess_kurtosis) < 0.1

    def test_student_t5_kurtosis_near_closed_form(self):
        # closed-form excess kurtosis of t(nu) is 6/(nu-4) = 6 for nu=5
        x = np.random.default_rng(13).standard_t(5, 100_000)
        summary = scaled_distribution(x)
        assert summary.excess_kurtosis == pytest.approx(6.0, abs=0.5)

    def test_self_scaled_std_is_one(self):
        x = np.random.default_rng(7).standard_normal(200) * 3.7 + 1.2
        summary = scaled_distribution(x)
        assert summary.std_dev == pytest.approx(1.0, abs=1e-9)

    def test_external_scaling_vector(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        reference = np.array([0.0, 2.0])  # sample std sqrt(2)
        summary = scaled_distribution(values, scale_by=reference)
        np.testing.assert_allclose(summary.scaled_values, values / math.sqrt(2.0))

    def test_scaling_idempotence(self):
        x = np.random.default_rng(8).standard_normal(500)
        once = scaled_distribution(x).scaled_values
        twice = scaled_distribution(once).scaled_values
        np.testing.assert_allclose(twice, once, rtol=1e-9)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            scaled_distribution([1.0, 2.0], scale_by=[5.0, 5.0, 5.0])

    def test_kurtosis_matches_scipy_oracle(self):
        rng = np.random.default_rng(9)
        for sample in (rng.standard_normal(50), rng.exponential(1.0, 321),
                       rng.standard_t(7, 1000)):
            assert excess_kurtosis(sample) == pytest.approx(
                stats.kurtosis(sample, fisher=True, bias=False), rel=1e-12
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_kurtosis_overflow_raises_instead_of_nan(self):
        with pytest.raises(NumericalError):
            excess_kurtosis([1e80, 2e80, 3e80, 4e80, 5e80])
        with pytest.raises(NumericalError):
            scaled_distribution([i * 1e80 for i in range(1, 7)], scale_by=range(1, 7))


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
                direct.append(direct_effect(experiment.panel, arm))
                surrogate.append(surrogate_effect(model, experiment.panel, arm))
        metrics = launch_metrics(confusion(classify_pairs(direct, surrogate, 0.05)))
        assert 0.90 <= metrics.agreement <= 0.99
        assert metrics.false_launch_negatives == 0
