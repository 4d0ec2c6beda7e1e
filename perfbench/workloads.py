"""The benchmark's workloads: their inputs, one timed operation, and the
checks of that operation's outputs against the simulator oracle.

Each workload is a closed loop with one client. ``prepare`` builds the
inputs (this is the set-up the benchmark times); ``run`` performs one
operation; ``check`` compares that operation's outputs with the oracle and
returns a list of failures; ``finish`` makes the checks that need every
operation. Checks run outside the timed region.

Run as a script, ``python3 workloads.py prepare <workload> <seed> <dir>``
builds one workload's default inputs in a fresh interpreter, which is how
the benchmark times set-up.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import surrokit as sk
from surrokit import cli

# The program's own pool size: nproc on the 2-core box these figures were
# taken on. The traced run uses 1 so that every span lands in one process.
JOBS = 2

# README corpus shape: control plus 2 treatment arms, 200 users per arm,
# 63 pre and 63 post days, t(3) effects.
CORPUS_CONFIG = {
    "n_experiments": 8,
    "arms_per_experiment": 2,
    "users_per_arm": 200,
    "horizon": 63,
    "pre_period": 63,
    "effect_scale": 0.1,
    "effect_tail_df": 3.0,
    "novelty_floor": 0.85,
    "novelty_halflife": 10.0,
}

# Acceptance criterion 2's replication config; n_experiments only bounds the
# replication index.
REPLICATE_CONFIG = {
    "n_experiments": 10**9,
    "arms_per_experiment": 1,
    "users_per_arm": 500,
    "horizon": 63,
    "pre_period": 63,
    "baseline_mean": 1.0,
    "baseline_sd": 1.0,
    "noise_sd": 1.0,
    "ar1_rho": 0.3,
    "effect_scale": 0.1,
    "effect_tail_df": math.inf,
    "novelty_floor": 1.0,
    "novelty_halflife": 14.0,
}

PIPELINE_T = 14
REPLICATE_ORDERS = (7, 14)
CHECKED_ORDER = 14  # criterion 2's order for the unbiasedness check
EQUIVALENCE_RTOL = 1e-8  # criterion 1
MAX_MC_SE = 4.0  # criterion 2


class StageFailed(Exception):
    """A CLI stage exited nonzero."""


def panel_records(panel, orders, direct_days) -> list[dict]:
    """Estimate records of one panel rebuilt through the public API,
    in the order and layout ``surrokit analyze`` writes them."""
    arms = sorted(arm.name for arm in panel.treatment_arms)
    records = [
        sk.estimate_to_record(sk.direct_effect(panel, arm, days))
        for days in direct_days
        for arm in arms
    ]
    for order in orders:
        model = sk.fit_pretest(panel, order)
        records += [sk.estimate_to_record(sk.surrogate_effect(model, panel, arm)) for arm in arms]
    records.sort(key=lambda r: (r["kind"], r["T"], r["arm"]))
    return json.loads(json.dumps(records))


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def compare_records(path: Path, expected: list[dict]) -> list[str]:
    if not path.exists():
        return [f"{path.name}: missing"]
    if read_json(path) != expected:
        return [f"{path.name}: records differ from the in-process rebuild"]
    return []


class Workload:
    name = ""
    panels_per_op = 1

    def __init__(self, workdir: Path, seed: int, config: dict | None = None) -> None:
        self.workdir = Path(workdir)
        self.inputs = self.workdir / "inputs"
        self.seed = seed % 2**64
        self.config_dict = dict(self.default_config() if config is None else config)
        self.config_dict["seed"] = self.seed
        self.config = sk.config_from_dict(self.config_dict)
        src = Path(sk.__file__).resolve().parents[1]
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))

    @staticmethod
    def default_config() -> dict:
        return CORPUS_CONFIG

    def op_dir(self, k: int) -> Path:
        return self.workdir / f"op-{k}"

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True)
        (self.inputs / "config.json").write_text(json.dumps(self.config_dict), encoding="utf-8")

    def run(self, k: int, in_process: bool) -> tuple[dict[str, float], int]:
        """One operation; returns stage times and the largest child max-RSS (KiB)."""
        raise NotImplementedError

    def check(self, k: int) -> list[str]:
        return []

    def finish(self) -> list[str]:
        return []

    def analyze_out(self, k: int) -> Path | None:
        return None

    def cleanup(self, k: int) -> None:
        shutil.rmtree(self.op_dir(k), ignore_errors=True)

    def _cli(self, argv: list[str], in_process: bool) -> tuple[float, int]:
        """Run one ``surrokit`` subcommand; returns wall seconds and max-RSS (KiB)."""
        argv = [str(a) for a in argv]
        err_path = self.workdir / "stderr.txt"
        start = perf_counter()
        if in_process:
            code, rss = cli.main(argv), 0
        else:
            with open(err_path, "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "surrokit.cli", *argv],
                    stdout=subprocess.DEVNULL, stderr=err, env=self.env,
                )
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss
        elapsed = perf_counter() - start
        if code != 0:
            detail = err_path.read_text(errors="replace").strip() if not in_process else ""
            raise StageFailed(f"{argv[0]} exited {code}: {detail[-300:]}")
        return elapsed, rss


class CorpusWorkload(Workload):
    """A workload whose operation runs the CLI over a corpus of panels;
    the panel whose records are rebuilt in-process is chosen by the seed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.panels_per_op = self.config.n_experiments
        self.check_index = self.seed % self.config.n_experiments
        self._records = None

    def analyze_out(self, k):
        return self.op_dir(k) / "estimates"


class Pipeline(CorpusWorkload):
    name = "pipeline"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._truth = None

    def run(self, k, in_process):
        out = self.op_dir(k)
        jobs = 1 if in_process else JOBS
        corpus, estimates = out / "corpus", self.analyze_out(k)
        stages, rss = {}, 0
        steps = {
            "simulate_s": ["simulate", "--config", self.inputs / "config.json",
                           "--out-dir", corpus, "--jobs", jobs],
            "analyze_s": ["analyze", "--panel-dir", corpus, "--regime", "pretest",
                          "--T", PIPELINE_T, "--out", estimates, "--jobs", jobs],
            "evaluate_s": ["evaluate", "--estimates", estimates, "--out", out / "report.json"],
        }
        for stage, argv in steps.items():
            stages[stage], stage_rss = self._cli(argv, in_process)
            rss = max(rss, stage_rss)
        return stages, rss

    def check(self, k):
        out = self.op_dir(k)
        if self._truth is None:
            experiments = [sk.simulate_experiment(self.config, i) for i in range(self.config.n_experiments)]
            self._truth = {e.panel.experiment_id: e.true_effects for e in experiments}
            panel = experiments[self.check_index].panel
            self._records = panel_records(panel, [PIPELINE_T], [self.config.horizon])
        failures = []
        n_pairs = read_json(out / "report.json")["n_pairs"]
        if n_pairs != sk.corpus_treatment_arms(self.config):
            failures.append(f"report.json n_pairs {n_pairs} != {sk.corpus_treatment_arms(self.config)}")
        if read_json(out / "corpus" / "ground_truth.json") != self._truth:
            failures.append("ground_truth.json differs from simulate_experiment().true_effects")
        name = f"sim-{self.check_index:05d}.estimates.json"
        return failures + compare_records(self.analyze_out(k) / name, self._records)


class Sweep(CorpusWorkload):
    name = "sweep"

    @staticmethod
    def default_config():
        return dict(CORPUS_CONFIG, n_experiments=4)

    def prepare(self):
        super().prepare()
        for index in range(self.config.n_experiments):
            panel = sk.simulate_experiment(self.config, index).panel
            sk.write_panel(panel, self.inputs / f"{panel.experiment_id}.csv")

    def run(self, k, in_process):
        # --jobs 1: at --jobs 2 the fork-started workers inherit threaded
        # OpenBLAS and the run time swings by 8x; see README.md.
        wall, rss = self._cli(
            ["analyze", "--panel-dir", self.inputs, "--regime", "pretest", "--sweep-T",
             "--out", self.analyze_out(k), "--jobs", 1],
            in_process,
        )
        return {"analyze_s": wall}, rss

    def check(self, k):
        """Record count, the order-63 equivalence with the direct read, and
        one panel matching its in-process recomputation."""
        estimates, horizon = self.analyze_out(k), self.config.horizon
        failures = []
        for csv_path in sorted(self.inputs.glob("*.csv")):
            path = estimates / f"{csv_path.stem}.estimates.json"
            if not path.exists():
                failures.append(f"{path.name}: missing")
                continue
            records = read_json(path)
            arms = {r["arm"] for r in records}
            if len(records) != 2 * horizon * len(arms):
                failures.append(f"{path.name}: {len(records)} records, expected {2 * horizon * len(arms)}")
            points = {(r["kind"], r["T"], r["arm"]): r["point"] for r in records}
            for arm in sorted(arms):
                direct = points.get(("direct", horizon, arm))
                surrogate = points.get(("surrogate:pretest", horizon, arm))
                if direct is None or surrogate is None:
                    failures.append(f"{path.name}: no T={horizon} pair for {arm}")
                elif abs(surrogate - direct) > EQUIVALENCE_RTOL * max(abs(surrogate), abs(direct)):
                    failures.append(f"{path.name}: T={horizon} surrogate {surrogate!r} != direct {direct!r} for {arm}")
        if self._records is None:
            path = sorted(self.inputs.glob("*.csv"))[self.check_index]
            days = range(1, horizon + 1)
            self._records = (path.stem, panel_records(sk.load_panel(path), days, days))
        stem, records = self._records
        return failures + compare_records(estimates / f"{stem}.estimates.json", records)


class Replicate(Workload):
    name = "replicate"

    @staticmethod
    def default_config():
        return REPLICATE_CONFIG

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reads: dict[int, dict] = {}

    def prepare(self):
        self.inputs.mkdir(parents=True)

    def run(self, k, in_process):
        experiment = sk.simulate_experiment(self.config, k)
        panel = experiment.panel
        reads = {"truth": experiment.true_effects["t1"], "direct": sk.direct_effect(panel, "t1")}
        for order in REPLICATE_ORDERS:
            reads[order] = sk.surrogate_effect(sk.fit_pretest(panel, order), panel, "t1")
        self.reads[k] = reads
        return {}, 0

    def check(self, k):
        reads = self.reads[k]
        values = [reads["truth"]] + [
            v for name in ("direct", *REPLICATE_ORDERS) for v in (reads[name].point, reads[name].std_error)
        ]
        if not all(math.isfinite(v) for v in values):
            return [f"replication {k}: non-finite estimate in {values}"]
        return []

    def finish(self):
        """Criterion 2: the T=14 mean error is within 4 Monte Carlo SEs of 0."""
        errors = [r[CHECKED_ORDER].point - r["truth"] for r in self.reads.values()]
        if len(errors) < 2:
            return ["fewer than 2 replications: unbiasedness not checked"]
        mc_se = statistics.stdev(errors) / math.sqrt(len(errors))
        if abs(statistics.fmean(errors)) > MAX_MC_SE * mc_se:
            return [f"T=14 mean error {statistics.fmean(errors):.3g} exceeds {MAX_MC_SE} MC-SE ({mc_se:.3g})"]
        return []


WORKLOADS = {cls.name: cls for cls in (Pipeline, Sweep, Replicate)}


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "prepare" or sys.argv[2] not in WORKLOADS:
        sys.exit(f"usage: {sys.argv[0]} prepare {{{','.join(WORKLOADS)}}} SEED DIR")
    WORKLOADS[sys.argv[2]](Path(sys.argv[4]), int(sys.argv[3])).prepare()
