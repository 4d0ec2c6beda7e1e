"""Command-line pipeline: simulate corpora, analyze panels, evaluate decisions.

Subcommands, each with only the flags it reads::

    surrokit simulate --config cfg.json --out-dir corpus/ [--seed N] [--jobs N]
    surrokit analyze (--panel exp.csv | --panel-dir corpus/) --regime REGIME
        [--donor donor.csv] [--T 14 | --sweep-T] [--horizon 63] --out PATH [--jobs N]
    surrokit evaluate --estimates estimates/ --out report.json [--alpha 0.05]
        [--long-cycle-days 56] [--short-cycle-days 14]

``--T`` and ``--sweep-T`` exclude each other. Numeric outputs are pure
functions of the input files and flags: floats are serialized with full
round-trip precision, directory scans are sorted, and worker pools merge
results in deterministic order. Every run ends by atomically writing a
manifest recording the command, the values it read, its inputs, outputs, and
tool version. Exit codes: 0 success, 2 usage, 3 data validation failure or
an input too large for memory, 4 numerical failure, including a statistic
that overflows; no output file holds a NaN or infinity. A warning prints as
one ``surrokit: warning:`` line. ``simulate`` and ``analyze --panel-dir``
exit 3, writing nothing, when their output directory holds a file of their
output pattern that the run would not write; an ``analyze`` error names
the panel file, or the donor, it came from.

Set SURROKIT_LOG to a logging level name (DEBUG, INFO, WARNING, ...) to
control log verbosity; an unknown name is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataValidationError, NumericalError
from .estimators import (
    DEFAULT_ALPHA,
    direct_effect,
    estimate_to_record,
    record_to_estimate,
    surrogate_effect,
)
from .evaluation import decision_report
from .panel import DEFAULT_HORIZON, load_panel, write_panel
from .simulator import EXPERIMENT_ID, load_config, simulate_experiment
from .surrogate import ModelSource, fit_pretest, fit_similar, running_mean_model

logger = logging.getLogger("surrokit")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _dump_json(payload) -> str:
    """Strict JSON text: a NaN or infinity raises ValueError instead of being written."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _write_manifest(path: Path, command: str, started: float, fields: dict) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "duration_seconds": time.perf_counter() - started,
        **fields,
    }
    _write_atomic(path, _dump_json(manifest))


def _refuse_strays(out_dir: Path, pattern: str, names: set[str]) -> None:
    """Refuse an output directory holding a ``pattern`` file that this run will not write.

    The next stage reads every such file, so a stray one would be read as this run's.
    """
    if stray := sorted(path.name for path in out_dir.glob(pattern) if path.name not in names):
        raise DataValidationError(f"{out_dir} holds another run's output: {', '.join(stray)}")


@contextlib.contextmanager
def _naming(source: str):
    """Prefix ``source`` to the message of a data or numerical error raised inside."""
    try:
        yield
    except (DataValidationError, NumericalError) as exc:
        raise type(exc)(f"{source}: {exc}") from None


# --- simulate ---

def _simulate_one(task: tuple) -> tuple[str, dict[str, float]]:
    config, index, out_dir = task
    experiment = simulate_experiment(config, index)
    write_panel(experiment.panel, Path(out_dir) / f"{experiment.panel.experiment_id}.csv")
    return experiment.panel.experiment_id, experiment.true_effects


def _run_pool(worker, tasks: list, jobs: int) -> list:
    # A pool starts all its workers at once, so it gets no more than there are tasks.
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    # Imported here: a serial run, and evaluate, never start a pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = Path(args.out_dir)
    tasks = [(config, index, str(out_dir)) for index in range(config.n_experiments)]
    _refuse_strays(out_dir, "*.csv", {f"{EXPERIMENT_ID.format(i)}.csv" for i in range(len(tasks))})
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_pool(_simulate_one, tasks, args.jobs)

    ground_truth = {experiment_id: effects for experiment_id, effects in results}
    truth_path = out_dir / "ground_truth.json"
    _write_atomic(truth_path, _dump_json(ground_truth))
    logger.info("simulated %d experiments into %s", len(results), out_dir)

    _write_manifest(
        out_dir / "manifest.json",
        "simulate",
        started,
        {
            "config_path": str(args.config),
            "out_dir": str(out_dir),
            "seed": config.seed,
            "horizon": config.horizon,
            "outputs": sorted(f"{eid}.csv" for eid, _ in results) + ["ground_truth.json"],
        },
    )
    return EXIT_OK


# --- analyze ---

def _analyze_one(task: tuple) -> str:
    """Write one panel's direct and surrogate records.

    The direct reads come first, so a horizon past the panel's last day
    fails before a model of any order up to it is made. ``models`` holds the
    donor's models under the similar regime; under the others each panel
    makes its own: pretest models fitted on its pre-period with a
    ``horizon``-day target, or the fixed running-mean ones.
    """
    panel_path, out_path, regime, horizon, direct_days, orders, models = task
    with _naming(Path(panel_path).name):
        panel = load_panel(panel_path)
        arms = sorted(arm.name for arm in panel.treatment_arms)
        records = []
        for days in direct_days:
            records += [estimate_to_record(direct_effect(panel, arm, days)) for arm in arms]
        if regime == ModelSource.PRE_TEST:
            models = fit_pretest(panel, orders, horizon)
        elif regime == ModelSource.RUNNING_MEAN:
            models = map(running_mean_model, orders)
        for model in models:
            records += [estimate_to_record(surrogate_effect(model, panel, arm)) for arm in arms]
    records.sort(key=lambda r: (r["kind"], r["T"], r["arm"]))
    _write_atomic(Path(out_path), _dump_json(records))
    return str(out_path)


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    horizon = args.horizon
    # A range, not a list: a horizon past the panels' last day fails at its
    # first read, before the sweep's orders 1..horizon are listed.
    orders = range(1, horizon + 1) if args.sweep_T else [args.T]
    direct_days = orders if args.sweep_T else [horizon]
    models = None
    if args.regime == ModelSource.SIMILAR_TEST:
        with _naming(f"donor {args.donor}"):
            models = fit_similar(load_panel(args.donor), orders, horizon)

    if args.panel is not None:
        out_path = Path(args.out)
        targets = [(args.panel, out_path)]
        manifest_path = out_path.with_name(out_path.name + ".manifest.json")
        inputs = {"panel_path": args.panel}
    else:
        panel_files = sorted(Path(args.panel_dir).glob("*.csv"))
        if not panel_files:
            raise DataValidationError(f"no panel CSVs found in {args.panel_dir}")
        out_dir = Path(args.out)
        targets = [(str(path), out_dir / f"{path.stem}.estimates.json") for path in panel_files]
        _refuse_strays(out_dir, "*.estimates.json", {out.name for _, out in targets})
        manifest_path = out_dir / "manifest.json"
        inputs = {"panel_dir": args.panel_dir}

    tasks = [
        (panel_path, str(out_path), args.regime, horizon, direct_days, orders, models)
        for panel_path, out_path in targets
    ]
    outputs = _run_pool(_analyze_one, tasks, args.jobs)
    logger.info("analyzed %d panel(s) under regime %s", len(outputs), args.regime)

    _write_manifest(
        manifest_path,
        "analyze",
        started,
        {
            **inputs,
            "donor_path": args.donor,
            "regime": args.regime,
            "sweep_T": args.sweep_T,
            "out": str(args.out),
            "T": args.T,
            "horizon": horizon,
            "outputs": sorted(Path(p).name for p in outputs),
        },
    )
    return EXIT_OK


# --- evaluate ---

def _load_estimates(estimates_dir: str) -> tuple[list, list]:
    files = sorted(Path(estimates_dir).glob("*.estimates.json"))
    if not files:
        raise DataValidationError(
            f"no *.estimates.json files found in {estimates_dir}"
        )
    direct, surrogate = [], []
    for path in files:
        item = None  # the index of the record being read
        try:
            records = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(records, list):
                raise ValueError("estimates JSON must be an array of objects")
            for item, record in enumerate(records):
                if not isinstance(record, dict):
                    raise ValueError("an estimate record must be a JSON object")
                estimate = record_to_estimate(record)
                (direct if estimate.kind == "direct" else surrogate).append(estimate)
        # OverflowError: a JSON integer past the float range; RecursionError:
        # arrays or objects nested past the recursion limit.
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            where = "" if item is None else f", item {item}"
            raise DataValidationError(f"bad estimates file {path.name}{where}: {exc}") from None
    return direct, surrogate


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    direct, surrogate = _load_estimates(args.estimates)
    report, scaled = decision_report(
        direct, surrogate, args.alpha, args.long_cycle_days, args.short_cycle_days
    )
    out_path = Path(args.out)
    scaled_path = out_path.with_name(out_path.stem + "_scaled_values.csv")
    report["scaled_values_path"] = scaled_path.name
    try:
        report_text = _dump_json(report)
    except ValueError as exc:  # a statistic overflowed to NaN or infinity
        raise NumericalError(f"report statistic is not finite: {exc}") from None
    # Every check has passed: a failed write removes what this run wrote.
    scaled_text = "scaled_difference\n" + "".join(repr(v) + "\n" for v in scaled.tolist())
    written = []
    try:
        for path, text in ((scaled_path, scaled_text), (out_path, report_text)):
            _write_atomic(path, text)
            written.append(path)
        logger.info("evaluated %d decision pairs", report["n_pairs"])
        _write_manifest(
            out_path.with_name(out_path.name + ".manifest.json"),
            "evaluate",
            started,
            {
                "estimates_dir": args.estimates,
                "out": str(out_path),
                "alpha": args.alpha,
                "long_cycle_days": args.long_cycle_days,
                "short_cycle_days": args.short_cycle_days,
                "outputs": [out_path.name, scaled_path.name],
            },
        )
    except OSError:
        for path in written:
            path.unlink()
        raise
    return EXIT_OK


# --- argument parsing ---

DEFAULT_T = 14


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cycle_days(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def _significance_level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")

    parser = argparse.ArgumentParser(
        prog="surrokit",
        description="Surrogate-index A/B-test pipeline: simulate, analyze, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"surrokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[jobs],
                           help="generate a synthetic experiment corpus")
    p_sim.add_argument("--config", required=True, help="SimConfig JSON file")
    p_sim.add_argument("--out-dir", required=True, help="corpus output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config's RNG seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", parents=[jobs],
                          help="estimate direct and surrogate effects")
    panel_group = p_an.add_mutually_exclusive_group(required=True)
    panel_group.add_argument("--panel", help="one panel CSV")
    panel_group.add_argument("--panel-dir", help="directory of panel CSVs")
    p_an.add_argument("--regime", required=True, choices=[s.value for s in ModelSource],
                      help="surrogate training regime")
    p_an.add_argument("--donor", default=None,
                      help="donor panel CSV (required for --regime similar)")
    order_group = p_an.add_mutually_exclusive_group()
    order_group.add_argument("--T", type=_positive_int, default=None,
                             help=f"surrogate model order (default {DEFAULT_T})")
    order_group.add_argument("--sweep-T", action="store_true",
                             help="emit records for every T in 1..horizon")
    p_an.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON,
                      help="long-term horizon in days")
    p_an.add_argument("--out", required=True,
                      help="output estimates file (--panel) or directory (--panel-dir)")
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("evaluate", help="decision-agreement report from estimate files")
    p_ev.add_argument("--estimates", required=True,
                      help="directory of *.estimates.json files")
    p_ev.add_argument("--out", required=True, help="report JSON path")
    p_ev.add_argument("--alpha", type=_significance_level, default=DEFAULT_ALPHA,
                      help="two-sided significance level")
    p_ev.add_argument("--long-cycle-days", type=_cycle_days, default=56.0,
                      help="long testing cycle length for capacity figures")
    p_ev.add_argument("--short-cycle-days", type=_cycle_days, default=14.0,
                      help="short testing cycle length for capacity figures")
    p_ev.set_defaults(func=cmd_evaluate)
    return parser


def _validate_analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    # --T defaults to None rather than DEFAULT_T: argparse treats an option
    # whose value is its default as absent, so "--sweep-T --T 14" would
    # otherwise slip past the exclusive group.
    if not args.sweep_T and args.T is None:
        args.T = DEFAULT_T
    if not args.sweep_T and args.T > args.horizon:
        parser.error(f"--T {args.T} exceeds --horizon {args.horizon}")
    if args.regime == ModelSource.SIMILAR_TEST and args.donor is None:
        parser.error("--regime similar requires --donor")
    if args.regime != ModelSource.SIMILAR_TEST and args.donor is not None:
        parser.error("--donor is only valid with --regime similar")


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # One write per line, so lines from concurrent pool workers do not interleave.
    sys.stderr.write(f"surrokit: warning: {message}\n")


def main(argv: list[str] | None = None) -> int:
    level = (os.environ.get("SURROKIT_LOG") or "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"surrokit: unknown SURROKIT_LOG level {level!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        _validate_analyze(parser, args)
    try:
        # Every statistic is checked for finiteness before it is written, so
        # numpy's overflow warnings would only repeat the error line. Other
        # warnings print as one line, also from the forked pool workers.
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except DataValidationError as exc:
        print(f"surrokit: data validation error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"surrokit: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"surrokit: io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an input too large to hold, such as a config's panel
        print(f"surrokit: out of memory: {str(exc) or 'an input is too large'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
