import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from surrokit import (
    DegenerateVarianceWarning,
    InvalidConfig,
    SimConfig,
    SimulatedExperiment,
    corpus_treatment_arms,
    direct_effect,
    novelty_profile,
    simulate_experiment,
    window,
)
from surrokit.cli import main

from conftest import CONTROL, T1, build_panel


class TestNoveltyProfile:
    def test_starts_at_one_and_decays_to_floor(self):
        days = np.arange(1, 64)
        g = novelty_profile(days, floor=0.6, halflife=7.0)
        assert g[0] == 1.0
        assert np.all(np.diff(g) < 0)
        assert g[-1] == pytest.approx(0.6, abs=1e-2)

    def test_halving_at_halflife(self):
        g = novelty_profile(np.array([1, 8]), floor=0.0, halflife=7.0)
        assert g[1] == pytest.approx(0.5 * g[0], rel=1e-12)

    def test_flat_when_floor_is_one(self):
        g = novelty_profile(np.arange(1, 20), floor=1.0, halflife=3.0)
        np.testing.assert_array_equal(g, np.ones(19))


class TestSimulateExperiment:
    def test_degenerate_noise_is_exactly_baseline_plus_effect(self):
        config = SimConfig(
            users_per_arm=10, arms_per_experiment=1, noise_sd=0.0, baseline_sd=0.0,
            novelty_floor=1.0, baseline_mean=3.0, effect_scale=1.0, pre_period=5,
            seed=77,
        )
        experiment = simulate_experiment(config, 0)
        tau = experiment.true_effects["t1"]
        post = window(experiment.panel, 1, 63)
        np.testing.assert_array_equal(post[experiment.panel.arm_mask("control")], 3.0)
        np.testing.assert_array_equal(post[experiment.panel.arm_mask("t1")], 3.0 + tau)
        with pytest.warns(DegenerateVarianceWarning):
            estimate = direct_effect(experiment.panel, "t1")
        assert estimate.point == pytest.approx(tau, rel=1e-10)

    def test_short_halflife_limit_only_day_one_contributes(self):
        # g(1) = 1 and every later day underflows to 0, so the true effect
        # collapses to tau / horizon; tau is read off the day-1 outcomes of
        # a zero-noise panel
        config = SimConfig(
            users_per_arm=5, noise_sd=0.0, baseline_sd=0.0, novelty_floor=0.0,
            novelty_halflife=1e-6, effect_scale=2.0, pre_period=0, seed=78,
        )
        experiment = simulate_experiment(config, 0)
        day_one = window(experiment.panel, 1, 1)[:, 0]
        tau = day_one[config.users_per_arm] - day_one[0]
        assert experiment.true_effects["t1"] == pytest.approx(tau / 63, rel=1e-12)

    def test_true_effects_match_summation_oracle(self):
        config = SimConfig(
            n_experiments=3, users_per_arm=4, arms_per_experiment=3,
            novelty_floor=0.4, novelty_halflife=9.0, effect_scale=0.7,
            effect_tail_df=3.0, pre_period=7, horizon=21, seed=79,
        )
        index = 2
        experiment = simulate_experiment(config, index)
        # independent reconstruction: same documented effect substream, then
        # a naive loop over the decay profile
        bitgen = np.random.Philox(key=[config.seed, index], counter=[0, 0, 0, 1])
        draws = np.random.Generator(bitgen).standard_t(config.effect_tail_df, size=3)
        total = 0.0
        for t in range(1, config.horizon + 1):
            total += config.novelty_floor + (1 - config.novelty_floor) * 2.0 ** (
                -(t - 1) / config.novelty_halflife
            )
        for j in range(3):
            expected = config.effect_scale * draws[j] * total / config.horizon
            assert experiment.true_effects[f"t{j + 1}"] == pytest.approx(expected, rel=1e-12)

    def test_noise_free_direct_effect_equals_truth_under_decay(self):
        config = SimConfig(
            users_per_arm=8, arms_per_experiment=3, noise_sd=0.0, baseline_sd=0.0,
            novelty_floor=0.3, novelty_halflife=5.0, effect_scale=1.5,
            pre_period=0, seed=90,
        )
        experiment = simulate_experiment(config, 0)
        for arm, truth in experiment.true_effects.items():
            with pytest.warns(DegenerateVarianceWarning):
                estimate = direct_effect(experiment.panel, arm)
            assert estimate.point == pytest.approx(truth, rel=1e-10)

    def test_day_layout(self):
        config = SimConfig(users_per_arm=3, pre_period=4, horizon=5, seed=80)
        panel = simulate_experiment(config, 0).panel
        assert panel.days == (-4, -3, -2, -1, 1, 2, 3, 4, 5)
        assert panel.horizon == 5

    def test_gaussian_effects_switch(self):
        config = SimConfig(users_per_arm=3, effect_tail_df=math.inf, seed=81)
        experiment = simulate_experiment(config, 0)
        assert all(math.isfinite(v) for v in experiment.true_effects.values())

    def test_index_out_of_range(self):
        config = SimConfig(n_experiments=2, users_per_arm=3, seed=82)
        with pytest.raises(InvalidConfig):
            simulate_experiment(config, 2)

    def test_too_large_experiment_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="past numpy's size limit"):
                simulate_experiment(SimConfig(users_per_arm=10**17), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCorpus:
    def test_fractional_arm_mix_reproduces_published_total(self):
        config = SimConfig(n_experiments=200, arms_per_experiment=5.49,
                           users_per_arm=2, horizon=2, pre_period=0, seed=83)
        assert corpus_treatment_arms(config) == 1098

    def test_fractional_mix_per_experiment_counts(self):
        # Experiments 0..k-1 hold floor(k * x) treatment arms in exact decimal
        # arithmetic, also where floats miss it: 10 * 2.3 is 22.999999999999996.
        for x in ("5.49", "2.5", "2.3", "1.1", "3.0", "1.0"):
            config = SimConfig(n_experiments=20, arms_per_experiment=float(x),
                               users_per_arm=2, horizon=2, pre_period=0, seed=84)
            counts = [len(simulate_experiment(config, i).panel.treatment_arms) for i in range(20)]
            assert set(counts) <= {math.floor(float(x)), math.ceil(float(x))}
            for k in range(21):
                assert sum(counts[:k]) == math.floor(k * Fraction(x))
            assert sum(counts) == corpus_treatment_arms(config)

    def test_same_seed_is_bit_identical(self):
        config = SimConfig(n_experiments=2, users_per_arm=6, horizon=9,
                           pre_period=3, seed=85)
        first = [simulate_experiment(config, i).panel for i in range(2)]
        second = [simulate_experiment(config, i).panel for i in range(2)]
        assert first == second
        np.testing.assert_array_equal(first[0].matrix, second[0].matrix)

    def test_different_seeds_differ(self):
        base = SimConfig(n_experiments=1, users_per_arm=6, seed=86)
        other = SimConfig(n_experiments=1, users_per_arm=6, seed=87)
        a = simulate_experiment(base, 0).panel
        b = simulate_experiment(other, 0).panel
        assert not np.array_equal(window(a, 1, 1), window(b, 1, 1))

    def test_generation_order_does_not_matter(self):
        config = SimConfig(n_experiments=3, users_per_arm=4, seed=88)
        forward = [simulate_experiment(config, i).panel for i in range(3)]
        backward = [simulate_experiment(config, i).panel for i in (2, 1, 0)]
        assert forward == list(reversed(backward))


def reference_experiment(config, index):
    """Rebuild an experiment from one fresh Philox per stream, formulas written out.

    Stream contract: key = uint64 [seed, index]; the effect draws read
    counter [0, 0, 0, 1], user u's block of normals counter [0, 0, u, 2].
    Integral ``arms_per_experiment`` only.
    """
    key = np.array([config.seed, index], dtype=np.uint64)

    def stream(word, tag):
        return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, word, tag]))

    n_treat = int(config.arms_per_experiment)
    if math.isinf(config.effect_tail_df):
        draws = stream(0, 1).standard_normal(n_treat)
    else:
        draws = stream(0, 1).standard_t(config.effect_tail_df, size=n_treat)
    tau = [config.effect_scale * d for d in draws]
    t = np.arange(1, config.horizon + 1, dtype=float)
    floor = config.novelty_floor
    g = floor + (1.0 - floor) * np.exp2(-(t - 1.0) / config.novelty_halflife)
    innovation_sd = config.noise_sd * math.sqrt(1.0 - config.ar1_rho**2)
    rows = []
    for u in range(config.users_per_arm * (n_treat + 1)):
        block = stream(u, 2).standard_normal(config.pre_period + config.horizon + 1)
        level = config.baseline_mean + config.baseline_sd * block[0]
        noise = config.noise_sd * block[1]
        row = [level + noise]
        for shock in block[2:]:
            noise = config.ar1_rho * noise + innovation_sd * shock
            row.append(level + noise)
        arm = u // config.users_per_arm
        for day in range(config.horizon):
            if arm > 0:
                row[config.pre_period + day] += tau[arm - 1] * g[day]
        rows.append(row)
    true_effects = {f"t{j + 1}": float(tau[j] * g.mean()) for j in range(n_treat)}
    return np.array(rows), true_effects


class TestStreamContract:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise_sd": 0.0},
            {"pre_period": 0},
            {"effect_tail_df": math.inf},
            {"ar1_rho": 0.9},
            {"seed": 2**64 - 1},
            {"seed": 2**63},
        ],
        ids=["no-noise", "no-pre-period", "gaussian-effects", "rho-0.9", "seed-2^64-1",
             "seed-2^63"],
    )
    def test_matches_one_philox_per_stream(self, overrides):
        base = dict(n_experiments=2, arms_per_experiment=2, users_per_arm=3, horizon=6,
                    pre_period=4, novelty_floor=0.5, novelty_halflife=2.0, seed=4321)
        config = SimConfig(**{**base, **overrides})
        experiment = simulate_experiment(config, 1)
        matrix, true_effects = reference_experiment(config, 1)
        assert np.array_equal(experiment.panel.matrix, matrix)
        assert experiment.true_effects == true_effects

    def test_seeds_from_two_to_the_63_do_not_collide(self):
        def panel(seed):
            config = SimConfig(users_per_arm=3, horizon=4, pre_period=2, seed=seed)
            return simulate_experiment(config, 0).panel

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert panel(0) != panel(2**64 - 1)
            assert panel(2**63 + 1) != panel(2**63 + 1000)

    def test_small_corpus_bytes_are_pinned(self, tmp_path):
        config = {"n_experiments": 3, "arms_per_experiment": 1.5, "users_per_arm": 4,
                  "horizon": 6, "pre_period": 3, "seed": 2024}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out_dir = tmp_path / "corpus"
        assert main(["simulate", "--config", str(tmp_path / "config.json"),
                     "--out-dir", str(out_dir)]) == 0
        digest = hashlib.sha256()
        for path in sorted(out_dir.glob("*.csv")) + [out_dir / "ground_truth.json"]:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "3bfc83613ee390ac931fce008ad0676a5c7e91210207addc0412bc2e72a3327a"
        )


# Every float field rejects NaN and both infinities, except the tail df's
# +inf, which requests Gaussian effects.
NON_FINITE_OVERRIDES = [
    {field.name: value}
    for field in dataclasses.fields(SimConfig)
    if field.type == "float"
    for value in (math.nan, math.inf, -math.inf)
    if not (field.name == "effect_tail_df" and value == math.inf)
]


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_experiments": 0},
            {"users_per_arm": 0},
            {"arms_per_experiment": 0.5},
            {"horizon": 0},
            {"pre_period": -1},
            {"baseline_sd": -0.1},
            {"noise_sd": -1.0},
            {"ar1_rho": 1.0},
            {"ar1_rho": -0.2},
            {"effect_tail_df": 0.0},
            {"novelty_floor": 1.5},
            {"novelty_halflife": 0.0},
            {"seed": -1},
            {"seed": 2**64},
            {"users_per_arm": 2.5},
            {"n_experiments": 1.5},
            {"horizon": 3.5},
            {"seed": 1.5},
            {"pre_period": 2.0},
            {"users_per_arm": True},
            {"baseline_mean": "1"},
            {"effect_scale": None},
            *NON_FINITE_OVERRIDES,
            {"baseline_mean": 10**400},
        ],
    )
    def test_invalid_config(self, overrides):
        with pytest.raises(InvalidConfig):
            SimConfig(**overrides)

    def test_config_json_round_trip_with_infinite_df(self, tmp_path):
        from surrokit import load_config

        config = SimConfig(users_per_arm=3, effect_tail_df=math.inf, seed=91)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        assert load_config(path) == config

    def test_non_utf8_config_is_invalid(self, tmp_path):
        from surrokit import load_config

        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": 1, "note": "\xff"}')
        with pytest.raises(InvalidConfig):
            load_config(path)

    def test_config_accepts_inf_string(self):
        from surrokit import config_from_dict

        config = config_from_dict({"effect_tail_df": "inf"})
        assert math.isinf(config.effect_tail_df)

    def test_config_rejects_unknown_keys(self):
        from surrokit import config_from_dict

        with pytest.raises(InvalidConfig):
            config_from_dict({"users_per_arm": 5, "typo_key": 1})

    def test_true_effects_must_cover_treatment_arms(self):
        panel = build_panel(np.random.default_rng(1).standard_normal((4, 3)),
                            [CONTROL, CONTROL, T1, T1])
        with pytest.raises(InvalidConfig):
            SimulatedExperiment(panel, {"t9": 0.1})
