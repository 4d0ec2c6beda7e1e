import warnings

import numpy as np
import pytest

from surrokit import (
    MissingPrePeriod,
    ModelSource,
    NonFiniteOutcome,
    NumericalError,
    OutOfRange,
    RankDeficient,
    SimConfig,
    SurrogateModel,
    TooFewRows,
    direct_effect,
    fit_nested,
    fit_pretest,
    fit_similar,
    predict,
    running_mean_model,
    simulate_experiment,
    surrogate_effect,
    window,
)

from conftest import CONTROL, T1, build_panel, random_two_arm_panel


def manual_model(intercept, coefficients, source=ModelSource.SIMILAR_TEST):
    return SurrogateModel(intercept, tuple(coefficients), source)


def residuals(model, features, targets):
    return targets - (model.intercept + features @ np.array(model.coefficients))


class TestFitLeastSquares:
    def test_row_mean_target_recovers_equal_weights(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((80, 63))
        targets = features.mean(axis=1)
        model = fit_nested(features, targets, [features.shape[1]])[0]
        assert abs(model.intercept) < 1e-8
        np.testing.assert_allclose(model.coefficients, np.full(63, 1 / 63), rtol=1e-8)

    def test_five_row_fixture_matches_normal_equations(self):
        features = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0], [5.0, 7.0]])
        targets = np.array([3.1, 3.9, 7.2, 8.0, 12.1])
        model = fit_nested(features, targets, [features.shape[1]])[0]
        # frozen from solving (X'X) b = X'y directly
        np.testing.assert_allclose(
            [model.intercept, *model.coefficients],
            [0.3611764705882314, 1.4229411764705906, 0.6558823529411754],
            rtol=1e-10,
        )
        # and re-derived here so the oracle stays in view
        design = np.column_stack([np.ones(5), features])
        beta = np.linalg.solve(design.T @ design, design.T @ targets)
        np.testing.assert_allclose([model.intercept, *model.coefficients], beta, rtol=1e-10)
        # unbiased residual variance: SSR / (n - T - 1)
        ssr = np.sum(residuals(model, features, targets) ** 2)
        assert ssr / (5 - 2 - 1) == pytest.approx(0.0028823529411764626, rel=1e-9)

    def test_duplicated_column_is_rank_deficient(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((10, 1))
        features = np.hstack([base, base])
        with pytest.raises(RankDeficient):
            fit_nested(features, rng.standard_normal(10), [2])

    def test_constant_column_collides_with_intercept(self):
        rng = np.random.default_rng(3)
        features = np.hstack([np.full((10, 1), 4.0), rng.standard_normal((10, 1))])
        with pytest.raises(RankDeficient):
            fit_nested(features, rng.standard_normal(10), [2])

    def test_too_few_rows(self):
        rng = np.random.default_rng(4)
        with pytest.raises(TooFewRows):
            fit_nested(rng.standard_normal((3, 2)), rng.standard_normal(3), [2])

    def test_exact_affine_recovery_property(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            t = int(rng.integers(1, 8))
            n = int(rng.integers(t + 2, 40))
            features = rng.standard_normal((n, t))
            true_beta = rng.standard_normal(t)
            true_intercept = float(rng.standard_normal())
            targets = true_intercept + features @ true_beta
            model = fit_nested(features, targets, [features.shape[1]])[0]
            np.testing.assert_allclose(model.intercept, true_intercept, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(model.coefficients, true_beta, rtol=1e-8, atol=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((30, 4))
        targets = rng.standard_normal(30)
        model = fit_nested(features, targets, [features.shape[1]])[0]
        scaled = fit_nested(3.0 * features, 3.0 * targets, [4])[0]
        assert scaled.intercept == pytest.approx(3.0 * model.intercept, rel=1e-10)
        np.testing.assert_allclose(scaled.coefficients, model.coefficients, rtol=1e-10)
        panel = random_two_arm_panel(rng, n_per_arm=4, days=list(range(1, 5)))
        tripled = build_panel(
            3.0 * panel.matrix, panel.arms, days=panel.days
        )
        np.testing.assert_allclose(
            predict(scaled, tripled), 3.0 * predict(model, panel), rtol=1e-10
        )

    def test_row_permutation_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(7)
        features = rng.standard_normal((25, 3))
        targets = rng.standard_normal(25)
        perm = rng.permutation(25)
        model = fit_nested(features, targets, [features.shape[1]])[0]
        shuffled = fit_nested(features[perm], targets[perm], [3])[0]
        probe = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            model.intercept + probe @ np.array(model.coefficients),
            shuffled.intercept + probe @ np.array(shuffled.coefficients),
            rtol=1e-12,
        )


class TestFitNested:
    """One factorisation serves every order; each order equals its own fit."""

    def test_targets_whose_sum_of_squares_overflows_still_fit(self):
        # The coefficients are finite, so the fit is returned and is OLS.
        features = np.random.default_rng(3).standard_normal((8, 2))
        targets = np.array([1e200, -1e200, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        for model in fit_nested(features, targets, [1, 2]):
            design = np.column_stack([np.ones(8), features[:, : model.order]])
            expected = np.linalg.lstsq(design, targets, rcond=None)[0]
            np.testing.assert_allclose([model.intercept, *model.coefficients], expected,
                                       rtol=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_coefficients_that_are_not_finite_are_a_numerical_error(self):
        features = np.random.default_rng(3).standard_normal((8, 2))
        targets = np.array([1.7e308, 1.7e308, -1.7e308, 0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NumericalError, match="^the order-1 fit has a coefficient"):
            fit_nested(features, targets, [2, 1])

    def test_coefficients_that_are_not_finite_warn_nothing_first(self):
        features = np.random.default_rng(3).standard_normal((8, 2))
        targets = [1.7e308, 1.7e308, -1.7e308, 0.0, 1.0, 2.0, 3.0, 4.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^the order-1 fit has a coefficient"):
                fit_nested(features, targets, [1])

    def test_overflowing_design_column_is_a_numerical_error(self):
        # Not collinearity: the orders that do not use the column still fit.
        rng = np.random.default_rng(15)
        features = rng.standard_normal((40, 3))
        features[:, 1] *= 1e160
        targets = rng.standard_normal(40)
        for orders in ([2], [3], [1, 3]):
            with pytest.raises(NumericalError, match="^the sum of squares of design column 2 "):
                fit_nested(features, targets, orders)
        assert fit_nested(features, targets, [1]) == fit_nested(features[:, :1], targets, [1])

    def test_pretest_sweep_equals_single_order_fits(self):
        config = SimConfig(users_per_arm=100, ar1_rho=0.4, seed=111)
        panel = simulate_experiment(config, 0).panel
        orders = range(1, 64)
        swept = fit_pretest(panel, orders)
        assert len(swept) == 63
        for order, model in zip(orders, swept):
            assert model == fit_pretest(panel, order)
            assert model.order == order

    def test_similar_sweep_equals_single_order_fits(self):
        config = SimConfig(users_per_arm=100, pre_period=0, ar1_rho=0.4, seed=112)
        donor = simulate_experiment(config, 0).panel
        swept = fit_similar(donor, range(1, 64))
        for order, model in zip(range(1, 64), swept):
            assert model == fit_similar(donor, order)

    def test_least_squares_is_the_one_order_case(self):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((40, 9))
        targets = rng.standard_normal(40)
        swept = fit_nested(features, targets, range(1, 10))
        for order, model in enumerate(swept, start=1):
            assert model == fit_nested(features[:, :order], targets, [order])[0]

    def test_models_follow_the_requested_order(self):
        rng = np.random.default_rng(13)
        features = rng.standard_normal((30, 5))
        targets = rng.standard_normal(30)
        models = fit_nested(features, targets, [4, 1, 4, 2])
        assert [m.order for m in models] == [4, 1, 4, 2]
        assert models[0] == models[2] == fit_nested(features, targets, [4])[0]

    def test_collinear_column_fails_from_its_order_on(self):
        rng = np.random.default_rng(14)
        features = rng.standard_normal((30, 6))
        features[:, 3] = features[:, 0] - 2.0 * features[:, 1]  # column of order 4
        targets = rng.standard_normal(30)
        below = fit_nested(features, targets, range(1, 4))
        assert below == fit_nested(features[:, :3], targets, range(1, 4))
        for orders in ([4], [5], range(1, 7), [6, 2]):
            with pytest.raises(RankDeficient):
                fit_nested(features, targets, orders)

    def test_smallest_failing_order_decides_the_error(self):
        rng = np.random.default_rng(15)
        features = rng.standard_normal((6, 5))
        features[:, 1] = features[:, 0]
        targets = rng.standard_normal(6)
        assert fit_nested(features, targets, [1])[0].order == 1
        with pytest.raises(RankDeficient):
            fit_nested(features, targets, [5, 2])  # order 2 fails first
        with pytest.raises(TooFewRows):
            fit_nested(features, targets, [1, 5])  # 6 rows cannot fit order 5

    @pytest.mark.parametrize("orders", [[], [0], [1, 7], [-1]])
    def test_orders_outside_the_features_are_rejected(self, orders):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            fit_nested(rng.standard_normal((20, 6)), rng.standard_normal(20), orders)

    def test_malformed_features_and_targets_are_rejected(self):
        rng = np.random.default_rng(17)
        features, targets = rng.standard_normal((20, 3)), rng.standard_normal(20)
        with pytest.raises(ValueError, match="features must be 2-D"):
            fit_nested(features[:, 0], targets, [1])
        with pytest.raises(ValueError, match="does not match 20 rows"):
            fit_nested(features, targets[:19], [1])
        bad_features, bad_targets = features.copy(), targets.copy()
        bad_features[4, 0], bad_targets[7] = np.nan, np.inf
        for x, y in ((bad_features, targets), (features, bad_targets)):
            with pytest.raises(NonFiniteOutcome):
                fit_nested(x, y, [1])


class TestFitPretest:
    def test_constant_users_zero_noise(self):
        config = SimConfig(
            users_per_arm=20, baseline_sd=1.0, noise_sd=0.0, effect_scale=0.3,
            novelty_floor=1.0, seed=101,
        )
        panel = simulate_experiment(config, 0).panel
        model = fit_pretest(panel, 1)
        constants = window(panel, -1, -1)[:, 0]
        np.testing.assert_allclose(predict(model, panel)[: 20], constants[:20], rtol=1e-8)

    def test_full_order_predicts_pre_period_mean(self):
        config = SimConfig(users_per_arm=40, noise_sd=1.0, ar1_rho=0.4, seed=102)
        panel = simulate_experiment(config, 0).panel
        model = fit_pretest(panel, 63)
        pre_means = window(panel, -63, -1).mean(axis=1)
        fitted = model.intercept + window(panel, -63, -1) @ np.array(model.coefficients)
        np.testing.assert_allclose(fitted, pre_means, rtol=1e-8, atol=1e-12)

    def test_matches_fit_on_materialized_matrix(self):
        config = SimConfig(users_per_arm=50, ar1_rho=0.5, seed=103)
        panel = simulate_experiment(config, 0).panel
        order = 9
        model = fit_pretest(panel, order)
        pre = window(panel, -63, -1)
        oracle = fit_nested(pre[:, :order], pre.mean(axis=1), [order])[0]
        assert model.source is ModelSource.PRE_TEST
        assert model.intercept == oracle.intercept
        assert model.coefficients == oracle.coefficients

    def test_no_pre_period(self):
        panel = build_panel(np.random.default_rng(8).standard_normal((4, 5)), [CONTROL, CONTROL, T1, T1])
        with pytest.raises(MissingPrePeriod):
            fit_pretest(panel, 2)

    def test_order_longer_than_pre_period(self):
        config = SimConfig(users_per_arm=10, pre_period=5, seed=104)
        panel = simulate_experiment(config, 0).panel
        with pytest.raises(MissingPrePeriod):
            fit_pretest(panel, 6)

    @pytest.mark.parametrize("order, error", [(0, ValueError), ([], ValueError),
                                              (2.5, TypeError)])
    def test_invalid_order_is_rejected(self, order, error):
        config = SimConfig(users_per_arm=10, horizon=5, pre_period=5, seed=105)
        panel = simulate_experiment(config, 0).panel
        with pytest.raises(error):
            fit_pretest(panel, order)

    def test_target_spans_the_first_horizon_pre_days(self):
        # With order = horizon the features hold the target's whole window,
        # so the model is the running mean and its read is the direct read.
        config = SimConfig(n_experiments=3, users_per_arm=300, pre_period=70, seed=5)
        for index in range(3):
            panel = simulate_experiment(config, index).panel
            model = fit_pretest(panel, 63)
            assert model == fit_pretest(panel, 63, horizon=63)
            pre = window(panel, -70, -8)
            oracle = fit_nested(pre, pre.mean(axis=1), [63], ModelSource.PRE_TEST)[0]
            assert model == oracle
            for arm in panel.treatment_arms:
                assert surrogate_effect(model, panel, arm.name).point == pytest.approx(
                    direct_effect(panel, arm.name, 63).point, rel=1e-8
                )

    def test_pre_period_shorter_than_horizon(self):
        config = SimConfig(users_per_arm=10, horizon=8, pre_period=5, seed=104)
        panel = simulate_experiment(config, 0).panel
        pre = window(panel, -5, -1)
        assert fit_pretest(panel, 2, horizon=5) == fit_nested(
            pre, pre.mean(axis=1), [2], ModelSource.PRE_TEST)[0]
        with pytest.raises(MissingPrePeriod, match="horizon 8 exceeds the 5-day pre-period"):
            fit_pretest(panel, 2)  # the horizon defaults to the panel's last day
        with pytest.raises(MissingPrePeriod, match="horizon 6 exceeds the 5-day pre-period"):
            fit_pretest(panel, 2, horizon=6)
        with pytest.raises(OutOfRange, match="order 4 exceeds horizon 3"):
            fit_pretest(panel, [2, 4], horizon=3)

    @pytest.mark.parametrize("last_day, horizon, pre_days", [(-2, 5, 4), (-3, 4, 3)])
    def test_panel_ending_before_day_minus_one_counts_its_days(self, last_day, horizon, pre_days):
        days = list(range(-5, last_day + 1))
        panel = build_panel(np.random.default_rng(9).standard_normal((6, len(days))),
                            [CONTROL, T1] * 3, days=days)
        with pytest.raises(MissingPrePeriod,
                           match=f"horizon {horizon} exceeds the {pre_days}-day pre-period"):
            fit_pretest(panel, 2, horizon=horizon)

    def test_panel_ending_at_day_minus_two_fits_its_days(self):
        days = [-5, -4, -3, -2]
        panel = build_panel(np.random.default_rng(9).standard_normal((6, 4)),
                            [CONTROL, T1] * 3, days=days)
        pre = window(panel, -5, -2)
        assert fit_pretest(panel, 2, horizon=4) == fit_nested(
            pre, pre.mean(axis=1), [2], ModelSource.PRE_TEST)[0]


class TestFitSimilar:
    def test_self_donor_full_order_reproduces_direct_estimates(self):
        config = SimConfig(users_per_arm=40, pre_period=0, effect_scale=0.5, seed=105)
        panel = simulate_experiment(config, 0).panel
        model = fit_similar(panel, 63)
        for arm in panel.treatment_arms:
            direct = direct_effect(panel, arm.name)
            surrogate = surrogate_effect(model, panel, arm.name)
            assert surrogate.point == pytest.approx(direct.point, rel=1e-8)

    def test_zero_noise_donor_perfect_r_squared(self):
        config = SimConfig(
            users_per_arm=20, noise_sd=0.0, baseline_sd=1.0, effect_scale=1.0,
            novelty_floor=0.5, novelty_halflife=7.0, pre_period=0, seed=106,
        )
        donor = simulate_experiment(config, 0).panel
        model = fit_similar(donor, 2)
        targets = window(donor, 1, donor.horizon).mean(axis=1)
        ssr = np.sum((targets - predict(model, donor)) ** 2)
        tss = np.sum((targets - targets.mean()) ** 2)
        assert ssr <= 1e-10 * tss  # R^2 = 1 - SSR/TSS within 1e-10 of 1

    def test_disjoint_donors_agree_within_sampling_noise(self):
        config = SimConfig(
            n_experiments=2, users_per_arm=400, pre_period=0, ar1_rho=0.3,
            baseline_sd=1.0, effect_scale=0.1, seed=107,
        )
        order = 5

        def coefficients_and_se(panel):
            model = fit_similar(panel, order)
            features = window(panel, 1, order)
            targets = window(panel, 1, panel.horizon).mean(axis=1)
            ssr = np.sum(residuals(model, features, targets) ** 2)
            design = np.column_stack([np.ones(len(panel.user_ids)), features])
            cov = ssr / (len(panel.user_ids) - order - 1) * np.linalg.inv(design.T @ design)
            return np.array((model.intercept, *model.coefficients)), np.sqrt(np.diag(cov))

        beta_a, se_a = coefficients_and_se(simulate_experiment(config, 0).panel)
        beta_b, se_b = coefficients_and_se(simulate_experiment(config, 1).panel)
        assert np.all(np.abs(beta_a - beta_b) < 3.0 * np.hypot(se_a, se_b))


class TestRunningMean:
    def test_order_one(self):
        assert running_mean_model(1).coefficients == (1.0,)

    def test_order_four(self):
        model = running_mean_model(4)
        assert model.coefficients == (0.25, 0.25, 0.25, 0.25)
        assert model.intercept == 0.0
        assert model.source is ModelSource.RUNNING_MEAN

    def test_full_horizon_predictions_equal_window_means(self):
        rng = np.random.default_rng(9)
        panel = random_two_arm_panel(rng, n_per_arm=3, days=list(range(1, 8)))
        predictions = predict(running_mean_model(7), panel)
        expected = window(panel, 1, panel.horizon).mean(axis=1)
        np.testing.assert_allclose(predictions, expected, rtol=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            running_mean_model(0)

    def test_order_is_the_coefficient_count(self):
        assert manual_model(0.5, [1.0, 2.0, 3.0]).order == 3
        with pytest.raises(ValueError, match="at least one coefficient"):
            manual_model(0.5, [])

    def test_tampered_running_mean_rejected(self):
        with pytest.raises(ValueError):
            manual_model(1.0, [0.5, 0.5], source=ModelSource.RUNNING_MEAN)


class TestPredict:
    def test_running_mean_two_days(self):
        panel = build_panel([[4.0, 6.0], [0.0, 0.0]], [T1, CONTROL])
        np.testing.assert_allclose(predict(running_mean_model(2), panel), [5.0, 0.0])

    def test_affine_arithmetic(self):
        panel = build_panel([[3.0], [1.0]], [T1, CONTROL])
        model = manual_model(1.0, [2.0])
        np.testing.assert_allclose(predict(model, panel), [7.0, 3.0])

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(10)
        panel = random_two_arm_panel(rng, n_per_arm=6, days=list(range(1, 10)))
        model = fit_similar(panel, 4)
        predictions = predict(model, panel)
        for row, got in zip(panel.matrix.tolist(), predictions):
            expected = model.intercept
            for t, coef in enumerate(model.coefficients, start=1):
                expected += coef * row[panel.days.index(t)]
            assert got == pytest.approx(expected, rel=1e-12)

