"""Tests of the benchmark itself: names, tiny runs of each workload with
their checks passing, and checks that catch corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "pipeline": dict(workloads.CORPUS_CONFIG, n_experiments=2, users_per_arm=30),
    "sweep": dict(workloads.CORPUS_CONFIG, n_experiments=1, users_per_arm=30),
    "replicate": dict(workloads.REPLICATE_CONFIG, users_per_arm=60),
}


def tiny(name, tmp_path, seed=5):
    workload = workloads.WORKLOADS[name](tmp_path / name, seed, TINY[name])
    workload.prepare()
    return workload


def test_names_match_the_allowed_pattern_and_units_match_suffixes():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
    for name in compare.UNGATED:
        assert NAME.fullmatch(name) and run.unit_of(name)


@pytest.mark.parametrize("name", ["pipeline", "sweep"])
def test_cli_workloads_pass_their_checks_as_subprocesses(name, tmp_path):
    workload = tiny(name, tmp_path)
    stages, rss_kb = workload.run(0, in_process=False)
    assert rss_kb > 0 and all(t > 0 for t in stages.values())
    assert workload.check(0) == []


def test_replicate_passes_its_checks(tmp_path):
    workload = tiny("replicate", tmp_path)
    for k in range(30):
        workload.run(k, in_process=True)
        assert workload.check(k) == []
    assert workload.finish() == []


def test_corrupted_pipeline_estimates_are_counted_as_failed(tmp_path):
    workload = tiny("pipeline", tmp_path)
    workload.run(0, in_process=True)
    path = workload.analyze_out(0) / f"sim-{workload.check_index:05d}.estimates.json"
    records = json.loads(path.read_text())
    records[0]["point"] *= 1.0 + 1e-12
    path.write_text(json.dumps(records))
    assert workload.check(0) != []


def test_corrupted_sweep_estimates_are_counted_as_failed(tmp_path):
    workload = tiny("sweep", tmp_path)
    workload.run(0, in_process=True)
    path = next(workload.analyze_out(0).glob("*.estimates.json"))
    path.write_text(path.read_text()[:-100])
    assert run.checked(workload, 0) != []


def test_sweep_check_catches_a_broken_order_63_equivalence(tmp_path):
    workload = tiny("sweep", tmp_path)
    workload.run(0, in_process=True)
    path = next(workload.analyze_out(0).glob("*.estimates.json"))
    records = json.loads(path.read_text())
    for record in records:
        if record["kind"] != "direct" and record["T"] == 63:
            record["point"] += 1e-6
    path.write_text(json.dumps(records))
    failures = workload.check(0)
    assert any("T=63" in f for f in failures)


@pytest.mark.parametrize("name", ["pipeline", "sweep", "replicate"])
def test_traced_run_reports_every_layer_metric_and_accounts_for_wall(name, tmp_path):
    workload = tiny(name, tmp_path)
    tracer = Tracer()
    loop = run.run_loop(workload, 0.5 if name == "replicate" else 1e-9, tracer)
    assert loop["failed"] == 0, loop["failures"]
    metrics = run.per_layer(loop, tracer)
    for metric in SPEC["per_layer"]:
        if metric["name"] not in metrics:  # only a function this workload never calls
            assert f"{metric['name'].rsplit('.', 1)[0]}.calls" not in metrics, metric["name"]
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_self + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["trace.unattributed_s"] < 0.2 * metrics["trace.wall_s"]
    assert all(span[3] < index for index, span in enumerate(tracer.spans))


def test_tracer_restores_every_patched_name():
    import surrokit
    from surrokit import cli, panel

    before = (surrokit.load_panel, cli.load_panel, cli.cmd_analyze,
              panel.OutcomePanel.__dict__["from_matrix"])
    tracer = Tracer()
    tracer.install()
    assert cli.load_panel is not before[1] and surrokit.load_panel is not before[0]
    tracer.uninstall()
    after = (surrokit.load_panel, cli.load_panel, cli.cmd_analyze,
             panel.OutcomePanel.__dict__["from_matrix"])
    assert after == before


def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Replicate, "check", lambda self, k: ["corrupted"])
    code = run.main(["--workload", "replicate", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    faster = {s: v * 0.8 for s, v in base.items()}
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(faster, base, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, dict(base), "lower", 0.1)[0] == "unchanged"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1)[0] == "unresolved"
