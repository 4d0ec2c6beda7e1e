import json
import math
import os
import resource
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from statistics import stdev

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import surrokit
from surrokit import (
    CLASS_ORDER,
    EffectEstimate,
    SimConfig,
    direct_effect,
    estimate_to_record,
    excess_kurtosis,
    fit_pretest,
    fit_similar,
    load_panel,
    running_mean_model,
    simulate_experiment,
    surrogate_effect,
    z_test,
)
from surrokit.cli import main

TOY_CONFIG = {
    "n_experiments": 2,
    "arms_per_experiment": 2,
    "users_per_arm": 12,
    "horizon": 5,
    "pre_period": 5,
    "baseline_sd": 0.5,
    "noise_sd": 0.5,
    "ar1_rho": 0.2,
    "effect_scale": 2.0,
    "effect_tail_df": 3.0,
    "novelty_floor": 0.8,
    "novelty_halflife": 3.0,
    "seed": 99,
}


HEADER = "experiment_id,user_id,arm,is_control,day,outcome\n"


def write_config(tmp_path, **overrides):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TOY_CONFIG, **overrides}))
    return config_path


def simulate_toy(tmp_path, name="corpus", **overrides):
    config_path = write_config(tmp_path, **overrides)
    out_dir = tmp_path / name
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)]) == 0
    return out_dir


def exact_stdev(values):
    """The sample standard deviation of exact arithmetic, as a float."""
    return float(stdev(map(Decimal, values)))


def read_bytes_by_name(directory, pattern):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob(pattern))}


def capitalize_flag(source, dest, line):
    """Copy panel CSV ``source`` to ``dest`` with the is_control token of ``line`` capitalized."""
    lines = Path(source).read_text().splitlines(keepends=True)
    fields = lines[line - 1].split(",")
    fields[3] = fields[3].capitalize()
    lines[line - 1] = ",".join(fields)
    Path(dest).write_text("".join(lines))


class TestSimulate:
    def test_writes_corpus_and_sidecar(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
        assert csvs == ["sim-00000.csv", "sim-00001.csv"]
        truth = json.loads((out_dir / "ground_truth.json").read_text())
        assert sorted(truth) == ["sim-00000", "sim-00001"]
        assert sorted(truth["sim-00000"]) == ["t1", "t2"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 99
        # A horizon-5 corpus file loads back as the simulated panel, with no argument.
        panel = simulate_experiment(SimConfig(**TOY_CONFIG), 0).panel
        assert load_panel(out_dir / "sim-00000.csv") == panel

    def test_rerun_is_byte_identical(self, tmp_path):
        first = simulate_toy(tmp_path, "one")
        second = simulate_toy(tmp_path, "two")
        assert read_bytes_by_name(first, "*.csv") == read_bytes_by_name(second, "*.csv")
        assert (first / "ground_truth.json").read_bytes() == (
            second / "ground_truth.json"
        ).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        config_path = write_config(tmp_path, n_experiments=3)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(serial)]) == 0
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(parallel),
                     "--jobs", "2"]) == 0
        assert read_bytes_by_name(serial, "*.csv") == read_bytes_by_name(parallel, "*.csv")

    def test_seed_override(self, tmp_path):
        config_path = write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(a),
                     "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(b)]) == 0
        assert (a / "sim-00000.csv").read_bytes() != (b / "sim-00000.csv").read_bytes()

    def test_directory_holding_another_runs_panel_exits_3(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path, n_experiments=3)
        before = read_bytes_by_name(out_dir, "*")
        config_path = write_config(tmp_path, n_experiments=2, seed=2)
        argv = ["simulate", "--config", str(config_path), "--out-dir", str(out_dir)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"surrokit: data validation error: {out_dir} holds another run's output: sim-00002.csv\n"
        )
        assert read_bytes_by_name(out_dir, "*") == before
        # A run may overwrite the files it writes itself.
        (out_dir / "sim-00002.csv").unlink()
        assert main(argv) == 0
        assert main(argv) == 0

    def test_bad_config_exits_3(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"users_per_arm": 0}))
        assert main(["simulate", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps({"users_per_arm": 2.5}).encode(),
            b'{"seed": 1, "note": "\xff"}',
            b'{"arms_per_experiment": Infinity}',
            b'{"effect_scale": 1' + b"0" * 400 + b"}",
            b'{"seed": 1' + b"0" * 5000 + b"}",
            b"[" * 200000 + b"]" * 200000,
            b"[1, 2]",
            json.dumps({"effect_tail_df": "abc"}).encode(),
        ],
        ids=["fractional-users", "non-utf8", "infinite-arms", "huge-int-scale",
             "over-digit-limit", "deep-nesting", "array", "unparseable-tail-df"],
    )
    def test_malformed_config_exits_3_without_traceback(self, tmp_path, capsys, content):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        assert main(["simulate", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("surrokit:") and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"users_per_arm": 10**12},  # numpy cannot allocate the array
        {"arms_per_experiment": 1e308},  # past numpy's array size limit
        {"pre_period": 10**15},
    ], ids=["users", "arms", "pre-period"])
    def test_config_too_large_for_memory_exits_3(self, tmp_path, overrides):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_experiments": 1, **overrides}))
        out_dir = tmp_path / "corpus"
        result = run_cli("simulate", "--config", config_path, "--out-dir", out_dir, capped=True)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("surrokit: out of memory: ")
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert not list(out_dir.glob("*.csv"))

    def test_null_tail_df_means_gaussian_effects(self, tmp_path):
        corpora = {df: simulate_toy(tmp_path, f"corpus-{df}", effect_tail_df=df)
                   for df in ("inf", None)}
        assert (read_bytes_by_name(corpora["inf"], "*.csv")
                == read_bytes_by_name(corpora[None], "*.csv"))
        assert (corpora["inf"] / "ground_truth.json").read_bytes() == (
            corpora[None] / "ground_truth.json").read_bytes()

    def test_nan_config_field_exits_3_naming_the_field(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"baseline_sd": NaN}')
        assert main(["simulate", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "x")]) == 3
        assert "baseline_sd must be finite" in capsys.readouterr().err


PANEL_ARGS = ["--panel", "p.csv", "--regime", "pretest", "--out", "o.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "c.json", "--out-dir", "o", "--horizon", "5"],
        ["simulate", "--config", "c.json", "--out-dir", "o", "--alpha", "0.3"],
        ["analyze", *PANEL_ARGS, "--seed", "5"],
        ["analyze", *PANEL_ARGS, "--alpha", "0.5"],
        ["analyze", *PANEL_ARGS, "--sweep-T", "--T", "3"],
        # 14 is the default order: the exclusion must not depend on the value
        ["analyze", *PANEL_ARGS, "--sweep-T", "--T", "14"],
        ["evaluate", "--estimates", "e", "--out", "r.json", "--seed", "9"],
        ["evaluate", "--estimates", "e", "--out", "r.json", "--jobs", "7"],
        ["evaluate", "--estimates", "e", "--out", "r.json", "--horizon", "3"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_flag_of_another_subcommand_is_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


class TestAnalyzeUsage:
    def test_t_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--panel", "p.csv", "--regime", "pretest",
                  "--T", "0", "--out", "o.json"])
        assert excinfo.value.code == 2

    def test_similar_requires_donor(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--panel", "p.csv", "--regime", "similar",
                  "--out", "o.json"])
        assert excinfo.value.code == 2

    def test_donor_rejected_outside_similar(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--panel", "p.csv", "--regime", "pretest",
                  "--donor", "d.csv", "--out", "o.json"])
        assert excinfo.value.code == 2

    def test_t_above_horizon_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--panel", "p.csv", "--regime", "pretest",
                  "--T", "20", "--horizon", "5", "--out", "o.json"])
        assert excinfo.value.code == 2

    def test_missing_panel_exits_3(self, tmp_path):
        assert main(["analyze", "--panel", str(tmp_path / "absent.csv"),
                     "--regime", "running-mean", "--T", "2", "--horizon", "5",
                     "--out", str(tmp_path / "o.json")]) == 3

    def analyze_bytes_exit(self, tmp_path, capsys, content):
        panel_path = tmp_path / "panel.csv"
        panel_path.write_bytes(content)
        code = main(["analyze", "--panel", str(panel_path), "--regime", "running-mean",
                     "--T", "1", "--horizon", "1", "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert err.startswith("surrokit:") and "Traceback" not in err
        return code, err

    def test_non_utf8_panel_exits_3(self, tmp_path, capsys):
        content = (HEADER + "e1,u1,control,true,1,1.0\ne1,u2,t\xff,false,1,2.0\n").encode("latin-1")
        code, err = self.analyze_bytes_exit(tmp_path, capsys, content)
        assert code == 3 and "not valid UTF-8" in err

    def test_oversized_panel_field_exits_3(self, tmp_path, capsys):
        # A complete two-arm panel, so the 200 KiB user id is its only fault.
        big = "x" * (200 * 1024)
        rows = f'e1,"{big}",control,true,1,1.0\ne1,u2,t1,false,1,2.0\n'
        code, err = self.analyze_bytes_exit(tmp_path, capsys, (HEADER + rows).encode())
        assert code == 3 and "field larger than field limit (131072)" in err


class TestAnalyze:
    def test_running_mean_full_horizon_matches_direct(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        out_path = tmp_path / "est.json"
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"),
                     "--regime", "running-mean", "--T", "5", "--horizon", "5",
                     "--out", str(out_path)]) == 0
        records = json.loads(out_path.read_text())
        direct = {r["arm"]: r for r in records if r["kind"] == "direct"}
        surrogate = {r["arm"]: r for r in records if r["kind"].startswith("surrogate")}
        assert set(direct) == set(surrogate) == {"t1", "t2"}
        for arm in direct:
            assert surrogate[arm]["point"] == pytest.approx(direct[arm]["point"], rel=1e-12)
            assert surrogate[arm]["std_error"] == pytest.approx(
                direct[arm]["std_error"], rel=1e-12
            )

    def test_out_in_missing_directory_is_created(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        out_path = tmp_path / "missing" / "a.json"
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"),
                     "--regime", "running-mean", "--T", "5", "--horizon", "5",
                     "--out", str(out_path)]) == 0
        assert sorted(p.name for p in out_path.parent.iterdir()) == [
            "a.json", "a.json.manifest.json"]

    def test_pretest_matches_library_composition(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        panel_path = out_dir / "sim-00001.csv"
        out_path = tmp_path / "est.json"
        assert main(["analyze", "--panel", str(panel_path), "--regime", "pretest",
                     "--T", "2", "--horizon", "5", "--out", str(out_path)]) == 0
        records = json.loads(out_path.read_text())

        panel = load_panel(panel_path)
        model = fit_pretest(panel, 2)
        expected = []
        for arm in sorted(a.name for a in panel.treatment_arms):
            expected.append(estimate_to_record(direct_effect(panel, arm, 5)))
            expected.append(estimate_to_record(surrogate_effect(model, panel, arm)))
        expected.sort(key=lambda r: (r["kind"], r["T"], r["arm"]))
        assert records == expected

    def test_pretest_target_is_the_horizon_below_the_pre_period(self, tmp_path):
        # An 8-day pre-period read at --horizon 4: the target is pre-days
        # -8..-5, so at T = horizon the pretest read is the direct read.
        out_dir = simulate_toy(tmp_path, pre_period=8)
        panel_path = out_dir / "sim-00000.csv"
        panel = load_panel(panel_path)
        out_path = tmp_path / "est.json"
        for order in (2, 4):
            assert main(["analyze", "--panel", str(panel_path), "--regime", "pretest",
                         "--T", str(order), "--horizon", "4", "--out", str(out_path)]) == 0
            records = json.loads(out_path.read_text())
            model = fit_pretest(panel, order, 4)
            got = {r["arm"]: r for r in records if r["kind"] == "surrogate:pretest"}
            assert got == {arm: estimate_to_record(surrogate_effect(model, panel, arm))
                           for arm in ("t1", "t2")}
        direct = {r["arm"]: r["point"] for r in records if r["kind"] == "direct"}
        for arm in ("t1", "t2"):
            assert got[arm]["point"] == pytest.approx(direct[arm], rel=1e-8)

    def test_pretest_pre_period_shorter_than_horizon_exits_3(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path, pre_period=3)
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"), "--regime", "pretest",
                     "--T", "2", "--horizon", "5", "--out", str(tmp_path / "o.json")]) == 3
        assert "horizon 5 exceeds the 3-day pre-period" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_similar_regime_uses_donor(self, tmp_path):
        # At --horizon 4 the donor's days run past the horizon, so the
        # model's target must come from the flag, not the donor's last day.
        out_dir = simulate_toy(tmp_path)
        out_path = tmp_path / "est.json"
        panel = load_panel(out_dir / "sim-00000.csv")
        donor = load_panel(out_dir / "sim-00001.csv")
        for horizon in (5, 4):
            assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"),
                         "--regime", "similar", "--donor", str(out_dir / "sim-00001.csv"),
                         "--T", "3", "--horizon", str(horizon), "--out", str(out_path)]) == 0
            records = json.loads(out_path.read_text())

            model = fit_similar(donor, 3, horizon)
            expected = {
                arm: estimate_to_record(surrogate_effect(model, panel, arm))["point"]
                for arm in ("t1", "t2")
            }
            got = {r["arm"]: r["point"] for r in records if r["kind"] == "surrogate:similar"}
            assert got == expected

    def test_sweep_emits_every_order(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        out_path = tmp_path / "est.json"
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"),
                     "--regime", "running-mean", "--horizon", "5", "--sweep-T",
                     "--out", str(out_path)]) == 0
        records = json.loads(out_path.read_text())
        direct_ts = sorted({r["T"] for r in records if r["kind"] == "direct"})
        surrogate_ts = sorted({r["T"] for r in records if r["kind"] != "direct"})
        assert direct_ts == [1, 2, 3, 4, 5]
        assert surrogate_ts == [1, 2, 3, 4, 5]
        # two arms, five orders, direct plus surrogate
        assert len(records) == 2 * 5 * 2

    @pytest.mark.parametrize("regime", ["pretest", "similar", "running-mean"])
    def test_sweep_horizon_too_large_for_memory_exits_3(self, tmp_path, regime):
        # The sweep's orders run 1..horizon: they must not be listed, nor
        # their models made, before the horizon is checked against a panel.
        out_dir = simulate_toy(tmp_path)
        donor_args = ["--donor", out_dir / "sim-00000.csv"] if regime == "similar" else []
        est_dir = tmp_path / "est"
        result = run_cli("analyze", "--panel-dir", out_dir, "--regime", regime, *donor_args,
                         "--sweep-T", "--horizon", 10**13, "--out", est_dir, capped=True)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("surrokit: data validation error: ")
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert not est_dir.exists()

    def test_pretest_sweep_is_identical_across_jobs_and_matches_the_library(self, tmp_path):
        # Also the similar sweep, whose donor models are built once and sent
        # to the --jobs 2 workers as objects, and the running-mean sweep.
        out_dir = simulate_toy(tmp_path)
        donor_path = out_dir / "sim-00000.csv"
        donor = load_panel(donor_path)
        library_model = {
            "pretest": fit_pretest,
            "similar": lambda panel, order: fit_similar(donor, order),
            "running-mean": lambda panel, order: running_mean_model(order),
        }
        for regime, model_for in library_model.items():
            donor_args = ["--donor", str(donor_path)] if regime == "similar" else []
            for jobs in ("1", "2"):
                assert main(["analyze", "--panel-dir", str(out_dir), "--regime", regime,
                             *donor_args, "--horizon", "5", "--sweep-T", "--jobs", jobs,
                             "--out", str(tmp_path / f"{regime}-jobs{jobs}")]) == 0
            serial = read_bytes_by_name(tmp_path / f"{regime}-jobs1", "*.estimates.json")
            assert serial == read_bytes_by_name(tmp_path / f"{regime}-jobs2", "*.estimates.json")
            assert len(serial) == 2

            for panel_path in sorted(out_dir.glob("*.csv")):
                panel = load_panel(panel_path)
                expected = []
                for arm in sorted(a.name for a in panel.treatment_arms):
                    for order in range(1, 6):
                        expected.append(estimate_to_record(direct_effect(panel, arm, order)))
                        expected.append(estimate_to_record(
                            surrogate_effect(model_for(panel, order), panel, arm)
                        ))
                expected.sort(key=lambda r: (r["kind"], r["T"], r["arm"]))
                records = json.loads(serial[f"{panel_path.stem}.estimates.json"])
                assert records == json.loads(json.dumps(expected))

    def test_pool_starts_no_more_workers_than_panels(self, tmp_path, monkeypatch):
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out_dir = simulate_toy(tmp_path)
        for jobs in ("1", "4"):
            assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                         "--T", "5", "--horizon", "5", "--jobs", jobs,
                         "--out", str(tmp_path / f"jobs{jobs}")]) == 0
        assert started == [2]
        serial = read_bytes_by_name(tmp_path / "jobs1", "*.estimates.json")
        assert len(serial) == 2
        assert serial == read_bytes_by_name(tmp_path / "jobs4", "*.estimates.json")

    def test_panel_dir_mode(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(est_dir)]) == 0
        names = sorted(p.name for p in est_dir.glob("*.estimates.json"))
        assert names == ["sim-00000.estimates.json", "sim-00001.estimates.json"]
        assert (est_dir / "manifest.json").exists()

    def test_out_dir_holding_another_runs_estimates_exits_3(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        (est_dir / "old.estimates.json").write_text("[]\n")
        argv = ["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                "--T", "5", "--horizon", "5", "--out", str(est_dir)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"surrokit: data validation error: {est_dir} holds another run's output: "
            "old.estimates.json\n"
        )
        assert [p.name for p in est_dir.iterdir()] == ["old.estimates.json"]
        # A run may overwrite the files it writes itself.
        (est_dir / "old.estimates.json").unlink()
        assert main(argv) == 0
        assert main(argv) == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_panel_dir_data_error_names_its_file(self, tmp_path, capsys, jobs):
        out_dir = simulate_toy(tmp_path)
        capitalize_flag(out_dir / "sim-00001.csv", out_dir / "sim-00001.csv", 100)
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(tmp_path / "est"),
                     "--jobs", jobs]) == 3
        assert capsys.readouterr().err == (
            "surrokit: data validation error: sim-00001.csv: line 100: "
            "is_control must be 'true' or 'false', got 'True'\n"
        )

    def test_donor_data_error_names_the_donor(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path)
        donor = tmp_path / "donor.csv"
        capitalize_flag(out_dir / "sim-00001.csv", donor, 100)
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"), "--regime", "similar",
                     "--donor", str(donor), "--T", "3", "--horizon", "5",
                     "--out", str(tmp_path / "est.json")]) == 3
        assert capsys.readouterr().err == (
            f"surrokit: data validation error: donor {donor}: line 100: "
            "is_control must be 'true' or 'false', got 'True'\n"
        )

    def test_panel_dir_without_csvs_exits_3(self, tmp_path, capsys):
        panel_dir = tmp_path / "panels"
        panel_dir.mkdir()
        (panel_dir / "notes.txt").write_text("no panels here\n")
        out_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(panel_dir), "--regime", "running-mean",
                     "--T", "2", "--horizon", "5", "--out", str(out_dir)]) == 3
        assert capsys.readouterr().err.startswith("surrokit: data validation error: no panel CSVs")
        assert not out_dir.exists()

    def test_rank_deficient_panel_exits_4(self, tmp_path):
        # constant pre-period column collides with the intercept
        rows = ["experiment_id,user_id,arm,is_control,day,outcome"]
        for i, (arm, flag) in enumerate(
            [("control", "true")] * 3 + [("t1", "false")] * 3
        ):
            for day, value in ((-2, 5.0), (-1, 5.0), (1, 1.0 + i), (2, 2.0 * i + 0.5)):
                rows.append(f"e,u{i},{arm},{flag},{day},{value}")
        panel_path = tmp_path / "flat.csv"
        panel_path.write_text("\n".join(rows) + "\n")
        assert main(["analyze", "--panel", str(panel_path), "--regime", "pretest",
                     "--T", "2", "--horizon", "2", "--out", str(tmp_path / "o.json")]) == 4


class TestEvaluate:
    def run_identity_pipeline(self, tmp_path, report_name="report.json"):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_path = tmp_path / report_name
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(report_path)]) == 0
        return json.loads(report_path.read_text()), report_path

    def test_identity_corpus_agrees_perfectly(self, tmp_path):
        report, _ = self.run_identity_pipeline(tmp_path)
        assert report["agreement"] == 1.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["n_pairs"] == 4
        assert report["false_launch_negatives"] == 0

    def test_out_in_missing_directory_is_created(self, tmp_path):
        _, report_path = self.run_identity_pipeline(tmp_path, "missing/r.json")
        assert sorted(p.name for p in report_path.parent.iterdir()) == [
            "r.json", "r.json.manifest.json", "r_scaled_values.csv"]

    def test_report_shape_and_scaled_values_file(self, tmp_path):
        report, report_path = self.run_identity_pipeline(tmp_path)
        for key in ("confusion", "precision", "recall", "agreement", "ns_rates",
                    "kurtosis", "scaled_values_path", "capacity"):
            assert key in report
        assert report["capacity"]["capacity_gain"] == 3.0
        scaled = report_path.with_name(report["scaled_values_path"])
        lines = scaled.read_text().splitlines()
        assert lines[0] == "scaled_difference"
        assert len(lines) == 1 + report["n_pairs"]

    def test_hand_fixture_metrics(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        # three arms: (+,+), (+,ns), (ns,ns) by construction
        z_pairs = {"t1": (4.0, 4.0), "t2": (4.0, 0.0), "t3": (0.0, 0.0)}
        records = []
        for arm, (z_direct, z_surrogate) in z_pairs.items():
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "direct", 5, z_direct, 1.0)))
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "surrogate:pretest", 2,
                z_surrogate, 1.0)))
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))

        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["confusion"] == [[1, 1, 0], [0, 1, 0], [0, 0, 0]]
        assert report["agreement"] == 2 / 3
        assert report["precision"] == 1.0
        assert report["recall"] == 0.5
        assert report["ns_rates"] == {"direct": 1 / 3, "surrogate": 2 / 3}
        assert report["capacity"]["extra_experiments_needed"] == 1.0

    def test_one_arm_corpus_reports_null_distributions(self, tmp_path):
        # One experiment with one treatment arm: one direct point, so no
        # scale; the decision metrics are still defined.
        out_dir = simulate_toy(tmp_path, n_experiments=1, arms_per_experiment=1)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "pretest",
                     "--T", "2", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_pairs"] == 1 and sum(map(sum, report["confusion"])) == 1
        undefined = {"direct": None, "surrogate": None, "differences": None}
        assert report["kurtosis"] == report["distributions"] == undefined
        scaled = report_path.with_name(report["scaled_values_path"])
        assert scaled.read_text() == "scaled_difference\n"

    def test_equal_direct_points_report_null_direct_and_surrogate(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        records = []
        for arm, surrogate_point in (("t1", 4.0), ("t2", 0.0), ("t3", 1.0)):
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "direct", 5, 4.0, 1.0)))
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "surrogate:pretest", 2,
                surrogate_point, 1.0)))
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        for name in ("direct", "surrogate"):
            assert report["kurtosis"][name] is None and report["distributions"][name] is None
        assert report["distributions"]["differences"]["n"] == 3
        assert report["recall"] == 1 / 3
        scaled = report_path.with_name(report["scaled_values_path"])
        assert len(scaled.read_text().splitlines()) == 1 + 3

    def test_constant_surrogate_points_report_null_kurtosis(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        records = []
        for k, direct_point in enumerate((1.0, 2.0, 3.5, -1.0, 0.5)):
            arm = f"t{k + 1}"
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "direct", 5, direct_point, 1.0)))
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "surrogate:pretest", 2, 0.5, 1.0)))
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        surrogate = report["distributions"]["surrogate"]
        assert report["kurtosis"]["surrogate"] is None and surrogate["excess_kurtosis"] is None
        assert surrogate["n"] == 5 and surrogate["std_dev"] == 0.0
        for name in ("direct", "differences"):
            assert report["kurtosis"][name] == report["distributions"][name]["excess_kurtosis"]
            assert isinstance(report["kurtosis"][name], float)

    @pytest.mark.parametrize("points", [
        [(1.0, 1e-300), (2.0, 2e-300), (3.0, 3e-300), (4.0, 4e-300)],  # m2 underflows
        [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 3.3e-97)],  # m2 squared underflows
        [(float(i), i * 1e80) for i in range(1, 7)],  # m4 overflows
        [(float(i), i * 1e200) for i in range(1, 7)],  # the surrogate points' squares overflow
        # The direct points' squares overflow.
        [(i * 1e200, i * 1e200 + (-1) ** i * 3e199 * i) for i in range(1, 7)],
        # The direct points' squares underflow to 0.
        [(0.0, 0.0), (0.0, 1e-300), (0.0, 2e-300), (1e-300, 3e-300)],
    ])
    def test_extreme_surrogate_scale_reports_its_kurtosis(self, tmp_path, points):
        # At the scale of the direct points, the surrogate points' variance,
        # or its square, underflows to 0, or their fourth central moment
        # overflows; the kurtosis, which does not depend on their scale, is
        # reported: that of the same points near unit scale. Each standard
        # deviation is that of exact arithmetic, also where the squares of
        # the points' deviations are past the float range.
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        records = []
        for k, (direct_point, surrogate_point) in enumerate(points, 1):
            arm = f"t{k}"
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "direct", 5, direct_point, 1.0)))
            records.append(estimate_to_record(EffectEstimate(
                "e1", arm, "surrogate:pretest", 2,
                surrogate_point, 1.0)))
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        surrogate = report["distributions"]["surrogate"]
        assert report["kurtosis"]["surrogate"] == surrogate["excess_kurtosis"]
        unit_scale = [s / max(abs(s) for _, s in points) for _, s in points]
        assert surrogate["excess_kurtosis"] == pytest.approx(excess_kurtosis(unit_scale),
                                                             rel=1e-12)
        assert surrogate["n"] == len(points)
        for name in ("direct", "differences"):
            assert isinstance(report["kurtosis"][name], float)
        direct, differences = [d for d, _ in points], [s - d for d, s in points]
        expected_std = {"direct": 1.0, "differences": 1.0,
                        "surrogate": exact_stdev([s for _, s in points]) / exact_stdev(direct)}
        for name, std_dev in expected_std.items():
            assert report["distributions"][name]["std_dev"] == pytest.approx(std_dev, rel=1e-12)
        scaled = report_path.with_name(report["scaled_values_path"]).read_text().split()[1:]
        assert [float(v) for v in scaled] == pytest.approx(
            [v / exact_stdev(differences) for v in differences], rel=1e-12)

    def test_sweep_output_exits_3_naming_the_pairing(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "pretest",
                     "--sweep-T", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_path = tmp_path / "report" / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("surrokit: data validation error: duplicate direct estimate "
                              "for ('sim-00000', 't1'), at T 1 and T 2: "), err
        assert "one direct and one surrogate per arm" in err
        assert not report_path.parent.exists()

    def test_reads_of_two_regimes_and_orders_exit_3(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        for panel, regime, T in (("sim-00000", "pretest", "2"), ("sim-00001", "running-mean", "4")):
            assert main(["analyze", "--panel", str(out_dir / f"{panel}.csv"), "--regime", regime,
                         "--T", T, "--horizon", "5",
                         "--out", str(est_dir / f"{panel}.estimates.json")]) == 0
        report_path = tmp_path / "report" / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("surrokit: data validation error: surrogate reads mix "
                              "surrogate:pretest at T 2 and surrogate:running-mean at T 4: "), err
        assert not report_path.parent.exists()

    @pytest.mark.parametrize("value", ["0", "1", "-0.1", "nan"])
    def test_alpha_outside_the_unit_interval_is_usage_error(self, tmp_path, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--estimates", str(tmp_path), "--out", str(tmp_path / "r.json"),
                  f"--alpha={value}"])  # "=" keeps argparse from reading "-0.1" as a flag
        assert excinfo.value.code == 2

    def test_alpha_sets_the_significance_level(self, tmp_path):
        # |z| = 1.5 is significant at 0.2 but not at 0.05.
        z_pairs = [(1.5, 0.5), (1.5, 1.5), (-1.5, -2.5), (0.5, 1.5), (3.0, -1.5), (0.0, 0.0)]
        direct, surrogate = [], []
        for k, (z_direct, z_surrogate) in enumerate(z_pairs, 1):
            direct.append(EffectEstimate("e1", f"t{k}", "direct", 63, z_direct, 1.0))
            surrogate.append(EffectEstimate("e1", f"t{k}", "surrogate:pretest", 14,
                                            z_surrogate, 1.0))
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        records = [estimate_to_record(e) for pair in zip(direct, surrogate) for e in pair]
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        confusions = {}
        for alpha in ("0.2", "0.05"):
            report_path = tmp_path / f"report-{alpha}.json"
            assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path),
                         "--alpha", alpha]) == 0
            report = json.loads(report_path.read_text())
            assert report["alpha"] == float(alpha)
            confusions[alpha] = report["confusion"]
        counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        for d, s in zip(direct, surrogate):
            counts[CLASS_ORDER.index(z_test(d, 0.2))][CLASS_ORDER.index(z_test(s, 0.2))] += 1
        assert confusions["0.2"] == counts != confusions["0.05"]

    def test_library_report_equals_cli_report(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        direct, surrogate = [], []
        for arm, (z_direct, z_surrogate) in {"t1": (4.0, 4.0), "t2": (4.0, 0.0),
                                             "t3": (0.0, 0.0)}.items():
            direct.append(EffectEstimate("e1", arm, "direct", 5, z_direct, 1.0))
            surrogate.append(EffectEstimate(
                "e1", arm, "surrogate:pretest", 2, z_surrogate, 1.0))
        records = [estimate_to_record(e) for pair in zip(direct, surrogate) for e in pair]
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path)]) == 0
        cli_report = json.loads(report_path.read_text())
        assert cli_report.pop("scaled_values_path") == "report_scaled_values.csv"

        report, scaled = surrokit.decision_report(direct, surrogate, 0.05, 56.0, 14.0)
        assert report == cli_report
        csv_lines = report_path.with_name("report_scaled_values.csv").read_text().splitlines()
        assert csv_lines[1:] == [repr(v) for v in scaled.tolist()]

    def test_key_mismatch_exits_3(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        arm = "t1"
        records = [
            estimate_to_record(EffectEstimate("e1", arm, "direct", 5, 1.0, 1.0)),
            estimate_to_record(EffectEstimate(
                "e2", arm, "surrogate:pretest", 2, 1.0, 1.0)),
        ]
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(tmp_path / "report.json")]) == 3

    @pytest.mark.parametrize("field", ["point", "std_error"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"),
                                       pytest.param(10**400, id="int-past-float-range")])
    def test_non_finite_estimate_exits_3(self, tmp_path, capsys, field, value):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        arm = "t1"
        records = [
            estimate_to_record(EffectEstimate("e1", arm, "direct", 5, 1.0, 1.0)),
            estimate_to_record(EffectEstimate(
                "e1", arm, "surrogate:pretest", 2, 1.0, 1.0)),
        ]
        records[1][field] = value  # json.dumps writes Infinity / NaN
        (est_dir / "e1.estimates.json").write_text(json.dumps(records))
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(tmp_path / "report.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("surrokit:") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--long-cycle-days", "--short-cycle-days"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-7"])
    def test_non_finite_or_non_positive_cycle_is_usage_error(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--estimates", str(tmp_path), "--out", str(tmp_path / "r.json"),
                  f"{flag}={value}"])  # "=" keeps argparse from reading "-inf" as a flag
        assert excinfo.value.code == 2

    def test_failed_evaluate_writes_nothing(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_dir = tmp_path / "report"
        report_dir.mkdir()
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(report_dir / "report.json"),
                     "--long-cycle-days", "7", "--short-cycle-days", "14"]) == 3
        assert list(report_dir.iterdir()) == []

    def test_failed_report_write_leaves_no_file(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_dir = tmp_path / "report"
        (report_dir / "report.json").mkdir(parents=True)  # the report path is a directory
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(report_dir / "report.json")]) == 3
        assert capsys.readouterr().err.startswith("surrokit: io error:")
        assert [p.name for p in report_dir.iterdir()] == ["report.json"]
        assert list((report_dir / "report.json").iterdir()) == []

    def test_failed_manifest_write_leaves_no_file(self, tmp_path, capsys):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_dir = tmp_path / "report"
        (report_dir / "report.json.manifest.json").mkdir(parents=True)  # a directory
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(report_dir / "report.json")]) == 3
        assert capsys.readouterr().err.startswith("surrokit: io error:")
        assert [p.name for p in report_dir.iterdir()] == ["report.json.manifest.json"]
        assert list((report_dir / "report.json.manifest.json").iterdir()) == []

    def test_empty_estimates_dir_exits_3(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(tmp_path / "report.json")]) == 3

    def test_corrupt_estimates_file_exits_3(self, tmp_path):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        (est_dir / "bad.estimates.json").write_text("{not json")
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(tmp_path / "report.json")]) == 3

    @pytest.mark.parametrize("content, reason", [
        ("{}", ": estimates JSON must be an array of objects"),
        ('"ab"', ": estimates JSON must be an array of objects"),
        ("[1]", ", item 0: an estimate record must be a JSON object"),
        ("[[]]", ", item 0: an estimate record must be a JSON object"),
        ("[{}]", ", item 0: estimate field 'experiment_id' is missing"),
    ])
    def test_estimates_file_that_is_not_an_array_of_objects_exits_3(
        self, tmp_path, capsys, content, reason
    ):
        out_dir = simulate_toy(tmp_path)
        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "running-mean",
                     "--T", "5", "--horizon", "5", "--out", str(est_dir)]) == 0
        (est_dir / "zz.estimates.json").write_text(content)
        report_dir = tmp_path / "report"
        report_dir.mkdir()
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(report_dir / "report.json")]) == 3
        err = capsys.readouterr().err
        prefix = "surrokit: data validation error: bad estimates file zz.estimates.json"
        assert err == prefix + reason + "\n"
        assert list(report_dir.iterdir()) == []

    def test_deeply_nested_estimates_file_exits_3(self, tmp_path, capsys):
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        (est_dir / "deep.estimates.json").write_text("[" * 200000 + "]" * 200000)
        assert main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(tmp_path / "report.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("surrokit: data validation error:") and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


def base_outcome(user, day):
    return user + 0.25 * day * (user + 1) + (day % 3) / 3


def small_panel_text(value=base_outcome):
    """Four users in two arms over days -3..-1 and 1..3; outcome ``value(user, day)``."""
    rows = [HEADER]
    for user in range(4):
        arm = "control,true" if user % 2 == 0 else "t1,false"
        rows += [f"e,u{user},{arm},{day},{value(user, day)!r}\n" for day in (-3, -2, -1, 1, 2, 3)]
    return "".join(rows)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


def run_cli(*args, capped=False):
    """Run the CLI in a fresh interpreter, as a user would.

    ``capped`` gives it 2 GiB of address space and 30 s: an input too large
    for memory must fail at once, and were it to fill memory instead, the
    cap would stop the child rather than the machine.
    """
    return subprocess.run(
        [sys.executable, "-m", "surrokit.cli", *map(str, args)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(surrokit.__file__).parents[1])},
        timeout=30 if capped else None, preexec_fn=_cap_address_space if capped else None,
    )


def assert_one_line_numerical_error(capsys, out_dir):
    err = capsys.readouterr().err
    assert err.startswith("surrokit: numerical error:") and len(err.splitlines()) == 1, err
    assert list(out_dir.iterdir()) == []


class TestOverflow:
    """A statistic that overflows exits 4 with one line and writes no file."""

    CASES = {
        "post-day-pretest": ((1, 2, 1e200), "pretest"),
        "post-day-running-mean": ((1, 2, 1e200), "running-mean"),
        "pre-day-pretest": ((1, -2, -1.3e307), "pretest"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_overflowing_outcome_exits_4(self, tmp_path, capsys, case):
        (bad_user, bad_day, bad_value), regime = self.CASES[case]
        panel_path = tmp_path / "panel.csv"
        panel_path.write_text(small_panel_text(
            lambda user, day: bad_value if (user, day) == (bad_user, bad_day)
            else base_outcome(user, day)))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["analyze", "--panel", str(panel_path), "--regime", regime, "--T", "1",
                     "--horizon", "3", "--out", str(out_dir / "o.json")]) == 4
        assert_one_line_numerical_error(capsys, out_dir)

    @pytest.mark.filterwarnings("ignore::surrokit.errors.DegenerateVarianceWarning")
    def test_overflowing_z_of_constant_arms_exits_4(self, tmp_path, capsys):
        panel_path = tmp_path / "panel.csv"
        panel_path.write_text(small_panel_text(lambda user, day: 0.0 if user % 2 == 0 else 1e297))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["analyze", "--panel", str(panel_path), "--regime", "running-mean",
                     "--T", "1", "--horizon", "3", "--out", str(out_dir / "o.json")]) == 4
        assert_one_line_numerical_error(capsys, out_dir)

    def test_overflow_prints_no_numpy_warning(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        panel_path.write_text(small_panel_text(
            lambda user, day: 1e200 if user == day == 1 else base_outcome(user, day)))
        result = run_cli("analyze", "--panel", panel_path, "--regime", "running-mean",
                         "--T", 1, "--horizon", 3, "--out", tmp_path / "o.json")
        assert result.returncode == 4
        assert result.stderr.startswith("surrokit: numerical error:")
        assert len(result.stderr.splitlines()) == 1, result.stderr

    def test_se_floor_warning_prints_one_line(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        panel_path.write_text(small_panel_text(lambda user, day: 0.0 if user % 2 == 0 else 1e297))
        result = run_cli("analyze", "--panel", panel_path, "--regime", "running-mean",
                         "--T", 1, "--horizon", 3, "--out", tmp_path / "o.json")
        assert result.returncode == 4
        lines = result.stderr.splitlines()
        assert len(lines) == 2, result.stderr
        assert lines[0].startswith("surrokit: warning: two-sample variance is degenerate")
        assert lines[1].startswith("surrokit: numerical error:")

    def test_se_floor_warning_prints_one_line_from_pool_workers(self, tmp_path):
        panel_dir = tmp_path / "panels"
        panel_dir.mkdir()
        for name in ("a", "b"):
            (panel_dir / f"{name}.csv").write_text(small_panel_text(lambda user, day: user % 2))
        result = run_cli("analyze", "--panel-dir", panel_dir, "--regime", "running-mean",
                         "--T", 1, "--horizon", 3, "--jobs", 2, "--out", tmp_path / "est")
        assert result.returncode == 0, result.stderr
        lines = result.stderr.splitlines()
        assert lines, "no warning printed"
        assert all(line.startswith("surrokit: warning: two-sample variance is degenerate")
                   for line in lines), result.stderr

    @staticmethod
    def evaluate_points(tmp_path, points):
        """Exit code of ``evaluate`` on one (direct, surrogate) point pair per experiment."""
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        arm = "t1"
        for i, (direct_point, surrogate_point) in enumerate(points, 1):
            records = [
                estimate_to_record(EffectEstimate(f"e{i}", arm, "direct", 63,
                                                  direct_point, 1.0)),
                estimate_to_record(EffectEstimate(
                    f"e{i}", arm, "surrogate:pretest", 14,
                    surrogate_point, 1.0)),
            ]
            (est_dir / f"e{i}.estimates.json").write_text(json.dumps(records))
        (tmp_path / "report").mkdir()
        return main(["evaluate", "--estimates", str(est_dir),
                     "--out", str(tmp_path / "report" / "report.json")])

    def test_overflowing_report_statistic_exits_4(self, tmp_path, capsys):
        # Scaled by the direct points' standard deviation, the surrogate
        # points lie past the float range.
        points = [(i * 1e-8, i * 1e300) for i in range(1, 7)]
        assert self.evaluate_points(tmp_path, points) == 4
        assert_one_line_numerical_error(capsys, tmp_path / "report")

    @pytest.mark.parametrize("points", [
        # Their sum overflows, and so does their standard deviation.
        [(1.7e308, 1.0), (1.7e308, 2.0), (-1.7e308, 3.0)],
        [(1.7e308, 1.0), (-1.7e308, 2.0)],  # their standard deviation overflows
    ])
    def test_overflowing_direct_scale_exits_4(self, tmp_path, capsys, points):
        assert self.evaluate_points(tmp_path, points) == 4
        assert_one_line_numerical_error(capsys, tmp_path / "report")

    def test_direct_points_whose_sum_overflows_exit_0(self, tmp_path):
        # Their sum overflows, but their mean and every report statistic are finite.
        points = [(1e308, 0.5), (1.1e308, 1.0), (1.2e308, 1.5), (1.3e308, 2.0)]
        assert self.evaluate_points(tmp_path, points) == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        for summary in report["distributions"].values():
            assert all(math.isfinite(statistic) for statistic in summary.values())

    @pytest.mark.parametrize("points, name, statistic, value", [
        # The direct points' mean is finite, but a deviation from it overflows.
        ([(-1.7e308, 1.0), (1.7e308, 2.0), (1.7e308, 3.0), (0.0, 4.0)],
         "direct", "excess_kurtosis", -1.2892561983471085),
        # The sum of the surrogate points scaled by the direct points' SD overflows.
        ([(1.0, 1e308), (2.0, 1.1e308), (3.0, 1.2e308), (4.0, 1.3e308)],
         "surrogate", "mean", 8.907861696277059e307),
    ])
    def test_representable_statistics_past_a_sum_or_deviation_exit_0(
            self, tmp_path, points, name, statistic, value):
        assert self.evaluate_points(tmp_path, points) == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["distributions"][name][statistic] == value


# Tokens spliced into a valid panel: CSV structure, a non-UTF-8 byte, a
# number that is not finite, numbers whose statistics overflow, and zero.
CORRUPTIONS = [",", '"', "\r", "\n", "\xff", "nan", "1e200", "1e308", "-1e308", "0"]


@st.composite
def corrupted_panels(draw):
    """A small valid panel with one or two tokens spliced into its bytes.

    A splice either replaces a span of up to 12 bytes at any offset
    (inserting when the span is empty) or replaces the day or outcome field
    of a data line, where a numeric token keeps the CSV well formed.
    """
    data = small_panel_text().encode()
    for _ in range(draw(st.integers(1, 2))):
        token = draw(st.sampled_from(CORRUPTIONS)).encode("latin-1")
        if draw(st.booleans()):
            start = draw(st.integers(0, len(data)))
            end = min(len(data), start + draw(st.integers(0, 12)))
            data = data[:start] + token + data[end:]
        else:
            lines = data.split(b"\n")
            line = draw(st.sampled_from(range(1, len(lines) - 1)))
            fields = lines[line].split(b",")
            fields[draw(st.sampled_from([-1, -2][: len(fields)]))] = token
            lines[line] = b",".join(fields)
            data = b"\n".join(lines)
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=corrupted_panels(), regime=st.sampled_from(["pretest", "running-mean", "similar"]),
       order=st.sampled_from([["--T", "1"], ["--T", "3"], ["--sweep-T"]]))
def test_corrupted_panel_exits_0_3_or_4(tmp_path, content, regime, order):
    panel_path, out_path = tmp_path / "panel.csv", tmp_path / "o.json"
    panel_path.write_bytes(content)
    out_path.unlink(missing_ok=True)
    donor = ["--donor", str(tmp_path / "donor.csv")] if regime == "similar" else []
    (tmp_path / "donor.csv").write_text(small_panel_text())
    code = main(["analyze", "--panel", str(panel_path), "--regime", regime, *donor, *order,
                 "--horizon", "3", "--out", str(out_path)])
    assert code in (0, 3, 4)
    assert out_path.exists() == (code == 0)
    if code == 0:
        json.loads(out_path.read_text(), parse_constant=pytest.fail)  # no NaN or Infinity


class TestManifest:
    def test_analyze_manifest_fields(self, tmp_path):
        out_dir = simulate_toy(tmp_path)
        out_path = tmp_path / "est.json"
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"),
                     "--regime", "running-mean", "--T", "5", "--horizon", "5",
                     "--out", str(out_path)]) == 0
        manifest = json.loads(
            out_path.with_name(out_path.name + ".manifest.json").read_text()
        )
        assert manifest["command"] == "analyze"
        assert manifest["T"] == 5
        assert manifest["horizon"] == 5
        assert manifest["regime"] == "running-mean"
        assert "tool_version" in manifest and "duration_seconds" in manifest

    def test_log_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SURROKIT_LOG", "DEBUG")
        simulate_toy(tmp_path)

    def test_each_manifest_records_only_what_its_command_read(self, tmp_path):
        common = {"command", "tool_version", "duration_seconds", "outputs"}
        out_dir = simulate_toy(tmp_path)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == common | {"config_path", "out_dir", "seed", "horizon"}

        analyzed = common | {"donor_path", "regime", "sweep_T", "out", "T", "horizon"}
        est_path = tmp_path / "est.json"
        assert main(["analyze", "--panel", str(out_dir / "sim-00000.csv"),
                     "--regime", "pretest", "--T", "2", "--horizon", "5",
                     "--out", str(est_path)]) == 0
        manifest = json.loads(est_path.with_name("est.json.manifest.json").read_text())
        assert set(manifest) == analyzed | {"panel_path"}
        assert manifest["T"] == 2

        sweep_dir = tmp_path / "sweep"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "pretest",
                     "--sweep-T", "--horizon", "5", "--out", str(sweep_dir)]) == 0
        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        assert set(manifest) == analyzed | {"panel_dir"}
        assert manifest["T"] is None

        est_dir = tmp_path / "estimates"
        assert main(["analyze", "--panel-dir", str(out_dir), "--regime", "pretest",
                     "--T", "2", "--horizon", "5", "--out", str(est_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--estimates", str(est_dir), "--out", str(report_path),
                     "--long-cycle-days", "63", "--short-cycle-days", "7"]) == 0
        manifest = json.loads(report_path.with_name("report.json.manifest.json").read_text())
        assert set(manifest) == common | {"estimates_dir", "out", "alpha", "long_cycle_days",
                                          "short_cycle_days"}
        assert (manifest["long_cycle_days"], manifest["short_cycle_days"]) == (63.0, 7.0)

    def test_unknown_log_level_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SURROKIT_LOG", "verbose")
        assert main(["evaluate", "--estimates", str(tmp_path),
                     "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == "surrokit: unknown SURROKIT_LOG level 'VERBOSE'\n"


def assert_cli_import_does_not_load(module):
    """Import ``surrokit.cli`` in a fresh interpreter and check ``module`` stays unloaded."""
    src = str(Path(surrokit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = f"import surrokit.cli, sys; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_loads_no_scipy():
    assert_cli_import_does_not_load("scipy")


def test_cli_import_loads_no_process_pool():
    # Only a run with --jobs above 1 and more than one task starts a pool.
    assert_cli_import_does_not_load("concurrent.futures.process")
