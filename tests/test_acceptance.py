"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``), and a
check of the README's 95% confidence intervals against the simulator's truth.

The heavy Monte Carlo criteria share a module-scoped replication run. All
tolerances are fixed here, not calibrated at runtime.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from surrokit import (
    SignificanceClass,
    SimConfig,
    capacity_gain,
    config_to_dict,
    direct_effect,
    extra_experiments_needed,
    fit_nested,
    fit_pretest,
    fit_similar,
    launch_metrics,
    mean_difference_effect,
    scaled_distribution,
    simulate_corpus,
    simulate_experiment,
    surrogate_effect,
    window,
    z_test,
)
from surrokit.cli import main


@contextmanager
def criterion(number, title, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({title}): PASS in {elapsed:.1f}s")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s runtime budget"
    )


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_criterion_1_t_equivalence():
    config = SimConfig(
        n_experiments=50, arms_per_experiment=1, users_per_arm=80,
        horizon=63, pre_period=0, baseline_sd=0.5, noise_sd=1.0, ar1_rho=0.2,
        effect_scale=0.5, effect_tail_df=math.inf, novelty_floor=0.7,
        novelty_halflife=14.0, seed=101_001,
    )
    with criterion(1, "T-equivalence at order 63", budget_seconds=60):
        panels = [simulate_experiment(config, i).panel for i in range(config.n_experiments)]
        for i, panel in enumerate(panels):
            direct = direct_effect(panel, "t1")
            # two full-rank training sources: the panel itself and a donor
            self_model = fit_similar(panel, 63)
            donor_model = fit_similar(panels[(i + 1) % len(panels)], 63)
            for model in (self_model, donor_model):
                surrogate = surrogate_effect(model, panel, "t1")
                assert relative_error(surrogate.point, direct.point) <= 1e-8


REPLICATION_CONFIG = SimConfig(
    n_experiments=2000, arms_per_experiment=1, users_per_arm=500,
    horizon=63, pre_period=63, baseline_mean=1.0, baseline_sd=1.0,
    noise_sd=1.0, ar1_rho=0.3, effect_scale=0.1, effect_tail_df=math.inf,
    novelty_floor=1.0, novelty_halflife=14.0, seed=202_002,
)


_replication_cache: dict = {}


def replications():
    """2000 simulated experiments analyzed at T=7 and T=14 plus day-63 direct.

    Generated once and shared by criteria 2 and 3; the generation cost is
    charged to whichever criterion runs first.
    """
    if _replication_cache:
        return _replication_cache
    direct_points, surrogate_points, truths = [], {7: [], 14: []}, []
    for index in range(REPLICATION_CONFIG.n_experiments):
        experiment = simulate_experiment(REPLICATION_CONFIG, index)
        direct_points.append(direct_effect(experiment.panel, "t1").point)
        for order in (7, 14):
            model = fit_pretest(experiment.panel, order)
            surrogate_points[order].append(
                surrogate_effect(model, experiment.panel, "t1").point
            )
        truths.append(experiment.true_effects["t1"])
    _replication_cache.update(
        direct=np.array(direct_points),
        surrogate={order: np.array(pts) for order, pts in surrogate_points.items()},
        truth=np.array(truths),
    )
    return _replication_cache


def test_criterion_2_unbiasedness():
    with criterion(2, "surrogate unbiasedness over 2000 replications", 300):
        runs = replications()
        n = len(runs["truth"])
        for order in (7, 14):
            errors = runs["surrogate"][order] - runs["truth"]
            mc_se = errors.std(ddof=1) / math.sqrt(n)
            assert abs(errors.mean()) <= 4.0 * mc_se, (
                f"T={order}: mean error {errors.mean():.3g} vs 4*MC-SE {4 * mc_se:.3g}"
            )


def test_criterion_3_variance_reduction():
    with criterion(3, "surrogate variance reduction at T=14", 300):
        runs = replications()
        surrogate_var = runs["surrogate"][14].var(ddof=1)
        direct_var = runs["direct"].var(ddof=1)
        assert surrogate_var <= 1.05 * direct_var, (
            f"var(T=14 surrogate) {surrogate_var:.3g} vs var(direct) {direct_var:.3g}"
        )


def test_ci_95_covers_the_truth():
    # 400 replications of criterion 2's config under a seed of their own:
    # the direct read's and the T=7 and T=14 surrogate reads' intervals must
    # each cover the truth at a rate within 4 binomial SEs of 0.95.
    config = dataclasses.replace(REPLICATION_CONFIG, n_experiments=400, seed=313_013)
    covered = {"direct": 0, "T=7": 0, "T=14": 0}
    for index in range(config.n_experiments):
        experiment = simulate_experiment(config, index)
        panel, truth = experiment.panel, experiment.true_effects["t1"]
        reads = {"direct": direct_effect(panel, "t1")}
        for order in (7, 14):
            reads[f"T={order}"] = surrogate_effect(fit_pretest(panel, order), panel, "t1")
        for name, estimate in reads.items():
            low, high = estimate.ci_95
            covered[name] += low <= truth <= high
    coverage = {name: hits / config.n_experiments for name, hits in covered.items()}
    print("95% CI coverage of the truth:",
          ", ".join(f"{name} {rate:.3f}" for name, rate in coverage.items()))
    tolerance = 4.0 * math.sqrt(0.95 * 0.05 / config.n_experiments)
    for name, rate in coverage.items():
        assert abs(rate - 0.95) <= tolerance, f"{name}: coverage {rate:.3f}"


def test_criterion_4_throughput_arithmetic():
    with criterion(4, "throughput arithmetic", 5):
        assert capacity_gain(56, 14) == 3.0
        assert abs(extra_experiments_needed(0.65) - 0.5385) <= 0.0001


def test_criterion_5_ols_oracle():
    rng = np.random.default_rng(505_005)
    with criterion(5, "least squares vs normal equations on 100 instances", 10):
        for trial in range(100):
            order = int(rng.integers(1, 11))
            n = int(rng.integers(order + 2, 51))
            features = rng.standard_normal((n, order))
            targets = rng.standard_normal(n)
            model = fit_nested(features, targets, [order])[0]
            fitted = np.array([model.intercept, *model.coefficients])
            design = np.column_stack([np.ones(n), features])
            oracle = np.linalg.solve(design.T @ design, design.T @ targets)
            assert np.linalg.norm(fitted - oracle) <= 1e-6 * np.linalg.norm(oracle)


def _effect_estimate_points(effect_tail_df, seed):
    config = SimConfig(
        n_experiments=1000, arms_per_experiment=5, users_per_arm=40,
        horizon=21, pre_period=0, baseline_sd=0.5, noise_sd=1.0, ar1_rho=0.2,
        effect_scale=0.3, effect_tail_df=effect_tail_df, novelty_floor=0.85,
        novelty_halflife=10.0, seed=seed,
    )
    points = []
    for experiment in simulate_corpus(config):
        for arm in experiment.panel.treatment_arms:
            points.append(direct_effect(experiment.panel, arm).point)
    return np.array(points)


def test_criterion_6_fat_tail_diagnostic():
    with criterion(6, "kurtosis separates t(3) from Gaussian effects", 300):
        heavy = _effect_estimate_points(3.0, seed=606_006)
        gaussian = _effect_estimate_points(math.inf, seed=606_007)
        assert len(heavy) == len(gaussian) == 5000
        heavy_kurtosis = scaled_distribution(heavy)[0]["excess_kurtosis"]
        gaussian_kurtosis = scaled_distribution(gaussian)[0]["excess_kurtosis"]
        assert heavy_kurtosis > 1.0, f"t(3) corpus kurtosis {heavy_kurtosis:.2f}"
        assert abs(gaussian_kurtosis) < 0.3, f"Gaussian corpus kurtosis {gaussian_kurtosis:.2f}"


def test_criterion_7_decision_harness():
    with criterion(7, "launch metrics exact arithmetic and undefined markers", 5):
        metrics = launch_metrics(((12, 7, 1), (4, 40, 3), (2, 5, 6)))
        assert metrics["precision"] == 12 / 18
        assert metrics["recall"] == 12 / 20
        assert metrics["agreement"] == 58 / 80
        assert metrics["ns_rates"]["surrogate"] == 52 / 80
        assert metrics["ns_rates"]["direct"] == 47 / 80
        assert metrics["false_launch_negatives"] == 2

        no_surrogate_positive = launch_metrics(((0, 9, 1), (0, 30, 0), (0, 2, 3)))
        assert no_surrogate_positive["precision"] is None
        no_direct_positive = launch_metrics(((0, 0, 0), (5, 30, 0), (1, 2, 3)))
        assert no_direct_positive["recall"] is None
        for metrics in (no_surrogate_positive, no_direct_positive):
            for value in (metrics["precision"], metrics["recall"]):
                assert value is None or not math.isnan(value)


def test_criterion_8_size_control():
    config = SimConfig(
        n_experiments=200, arms_per_experiment=5, users_per_arm=100,
        horizon=1, pre_period=63, effect_scale=0.0, baseline_sd=1.0,
        noise_sd=1.0, ar1_rho=0.2, seed=808_008,
    )
    with criterion(8, "pre-period placebo size control", 300):
        not_significant = 0
        total = 0
        for experiment in simulate_corpus(config):
            means = window(experiment.panel, -63, -1).mean(axis=1)
            control = means[experiment.panel.arm_mask("control")]
            for arm in experiment.panel.treatment_arms:
                estimate = mean_difference_effect(
                    means[experiment.panel.arm_mask(arm)], control,
                    experiment_id=experiment.panel.experiment_id,
                    arm=arm, kind="direct", T=63,
                )
                total += 1
                if z_test(estimate, 0.05) is SignificanceClass.NOT_SIG:
                    not_significant += 1
        assert total == 1000
        assert not_significant >= 0.93 * total, (
            f"only {not_significant}/{total} placebo arms NotSig"
        )


def _run_pipeline(tmp_path: Path, tag: str, jobs: int) -> dict[str, bytes]:
    config = SimConfig(
        n_experiments=200, arms_per_experiment=2, users_per_arm=200,
        horizon=63, pre_period=63, baseline_sd=1.0, noise_sd=1.0, ar1_rho=0.2,
        effect_scale=0.1, effect_tail_df=3.0, novelty_floor=0.85,
        novelty_halflife=10.0, seed=909_009,
    )
    root = tmp_path / tag
    root.mkdir()
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    corpus = root / "corpus"
    estimates = root / "estimates"
    report = root / "report.json"
    jobs_arg = ["--jobs", str(jobs)]
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(corpus),
                 *jobs_arg]) == 0
    assert main(["analyze", "--panel-dir", str(corpus), "--regime", "pretest",
                 "--T", "14", "--horizon", "63", "--out", str(estimates),
                 *jobs_arg]) == 0
    assert main(["evaluate", "--estimates", str(estimates), "--out", str(report)]) == 0

    outputs: dict[str, bytes] = {}
    for path in sorted(corpus.glob("*.csv")):
        outputs[f"corpus/{path.name}"] = path.read_bytes()
    outputs["corpus/ground_truth.json"] = (corpus / "ground_truth.json").read_bytes()
    for path in sorted(estimates.glob("*.estimates.json")):
        outputs[f"estimates/{path.name}"] = path.read_bytes()
    outputs["report.json"] = report.read_bytes()
    outputs["report_scaled_values.csv"] = (root / "report_scaled_values.csv").read_bytes()
    return outputs


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "byte-identical simulate/analyze/evaluate pipeline", 600):
        first = _run_pipeline(tmp_path, "run_a", jobs=2)
        second = _run_pipeline(tmp_path, "run_b", jobs=1)
        assert first.keys() == second.keys()
        mismatched = [name for name in first if first[name] != second[name]]
        assert not mismatched, f"outputs differ: {mismatched[:5]}"
        # 200 experiments x 3 arms x 200 users x 126 days made it through
        assert sum(1 for name in first if name.startswith("corpus/") and name.endswith(".csv")) == 200
