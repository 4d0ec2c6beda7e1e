"""Run the CLI matrix on two repository roots and report every difference.

    python3 tools/cli_matrix.py BASE CHANGE

BASE and CHANGE are repository roots. For each, one fresh interpreter with
that root's ``src`` first on the path runs, in-process and from its own
scratch directory with relative paths (so that messages compare equal):

- ``simulate`` of each corpus in CORPORA at ``--jobs 1`` and ``2``;
- ``analyze`` of the ``--jobs 1`` corpus under the pretest, similar and
  running-mean regimes, each at ``--T 7`` and ``--sweep-T``, at ``--jobs
  1`` and ``2``;
- ``evaluate`` of each ``analyze`` output at default flags and at
  ``--alpha 0.1 --long-cycle-days 63``;
- the edge commands of ``edge_commands``, which read day windows at the
  ends of a panel's range (a corpus without a pre-period, and horizons
  short of and past the last day of a corpus, and a donor shorter than the
  horizon) and the panels of ``BAD_PANELS``, each alone in a directory,
  which exit on a repeated cell, a missing day or a read of
  post-allocation days the panel lacks, a pretest read of ``HUGE_PRE``,
  whose fit exits 4, an ``analyze`` at ``--jobs 1`` and ``2`` of a
  directory holding ``COMPLETE_PANEL`` and a bad panel, which exits 3 and
  must leave no estimates of the complete panel, an ``evaluate`` whose
  capacity figures overflow, which exits 4, an ``analyze`` whose ``--out``
  is the corpus it reads, which exits 3 and leaves the corpus's manifest in
  place, an ``analyze`` whose ``--out`` names a panel of that corpus, which
  exits 3 and leaves it as it is, and an ``evaluate`` whose ``--out`` file
  lies in that corpus, which exits 3 and leaves it as it is.

The two roots' exit codes, stderr text, the bytes of every output file
and the fields of every ``*manifest.json`` but ``duration_seconds`` (a
timing) are compared. The tool prints one line per difference, naming the
fields of a manifest that differ, and exits 0 only when there is none, 1
otherwise. The interpreters run with one BLAS thread: fork-started pool
workers that inherit a threaded BLAS can spin for seconds on each small fit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Two small corpora: 2.5 treatment arms per experiment over 21 + 21 days,
# and 2 arms over 63 + 63 days.
CORPORA = {
    "arms2.5-h21": {"n_experiments": 2, "arms_per_experiment": 2.5, "users_per_arm": 30,
                    "horizon": 21, "pre_period": 21, "seed": 3},
    "arms2-h63": {"n_experiments": 2, "arms_per_experiment": 2, "users_per_arm": 40,
                  "horizon": 63, "pre_period": 63, "seed": 5},
}
# The edge commands' corpus: no pre-period, so the pretest regime exits 3.
EDGE_CORPUS = ("pre0-h14", {"n_experiments": 2, "arms_per_experiment": 2, "users_per_arm": 30,
                            "horizon": 14, "pre_period": 0, "seed": 7})
# Two-user panels that a read of days 1..3 refuses. The first three, over days
# 1..3, fail the loader's cell checks; the last loads but holds days -3..-1 only.
_HEADER = "experiment_id,user_id,arm,is_control,day,outcome\n"
BAD_PANELS = {
    # As many rows as cells: u1 repeats day 2 (lines 3 and 4) and day 1 (lines 2
    # and 6) and lacks day 3, u2 lacks day 2. Day 1 repeats first, so line 6 is named.
    "repeated-cell": _HEADER + "e,u1,c,true,1,1.0\ne,u1,c,true,2,2.0\ne,u1,c,true,2,2.5\n"
                     "e,u2,t,false,1,4.0\ne,u1,c,true,1,1.5\ne,u2,t,false,3,6.0\n",
    # A complete grid and one more row, repeating u2 day 1.
    "extra-row": _HEADER + "e,u1,c,true,1,1.0\ne,u1,c,true,2,2.0\ne,u1,c,true,3,3.0\n"
                 "e,u2,t,false,1,4.0\ne,u2,t,false,2,5.0\ne,u2,t,false,3,6.0\n"
                 "e,u2,t,false,1,4.5\n",
    # u2 lacks day 2.
    "missing-day": _HEADER + "e,u1,c,true,1,1.0\ne,u1,c,true,2,2.0\ne,u1,c,true,3,3.0\n"
                   "e,u2,t,false,1,4.0\ne,u2,t,false,3,6.0\n",
    "pre-only": _HEADER + "e,u1,c,true,-3,1.0\ne,u1,c,true,-2,2.0\ne,u1,c,true,-1,3.0\n"
                "e,u2,t,false,-3,4.0\ne,u2,t,false,-2,5.0\ne,u2,t,false,-1,6.0\n",
}
# Two control and two treatment users over days 1..3: a panel a read of days
# 1..3 accepts. The partial corpus of ``edge_commands`` pairs it with the
# missing-day panel, which sorts after it, so it is analyzed under every --jobs.
COMPLETE_PANEL = _HEADER + "".join(
    f"e,u{user},{'c' if user < 3 else 't'},{str(user < 3).lower()},{day},{user * (day + 0.5)}\n"
    for user in range(1, 5) for day in (1, 2, 3))
PARTIAL_CORPUS = {"complete": COMPLETE_PANEL, "missing-day": BAD_PANELS["missing-day"]}
# Three control and three treatment users over days -3..-1 and 1..3, with
# pre-period outcomes near 1e160: the sum of squares of a pretest feature
# overflows.
HUGE_PRE = _HEADER + "".join(
    f"e,u{user},{'c' if user < 3 else 't'},{str(user < 3).lower()},{day},"
    f"{(user + day + 7) * 1e160 if day < 0 else float(user)}\n"
    for user in range(6) for day in (-3, -2, -1, 1, 2, 3))
REGIMES = ("pretest", "similar", "running-mean")
ORDERS = {"T7": ["--T", "7"], "sweep": ["--sweep-T"]}
EVALUATE_FLAGS = {"default": [], "alpha0.1-long63": ["--alpha", "0.1", "--long-cycle-days", "63"]}


def matrix() -> list[list[str]]:
    """Every command of the matrix, as ``surrokit`` argv lists, in run order."""
    commands = []
    for corpus, config in CORPORA.items():
        horizon = ["--horizon", str(config["horizon"])]
        for jobs in ("1", "2"):
            commands.append(["simulate", "--config", f"{corpus}/config.json",
                             "--out-dir", f"{corpus}/sim-j{jobs}", "--jobs", jobs])
        panels = f"{corpus}/sim-j1"
        for regime in REGIMES:
            donor = ["--donor", f"{panels}/sim-00000.csv"] if regime == "similar" else []
            for order, order_flags in ORDERS.items():
                for jobs in ("1", "2"):
                    estimates = f"{corpus}/estimates/{regime}-{order}-j{jobs}"
                    commands.append(["analyze", "--panel-dir", panels, "--out", estimates,
                                     "--regime", regime, *donor, *order_flags, *horizon,
                                     "--jobs", jobs])
                    for name, flags in EVALUATE_FLAGS.items():
                        report = estimates.replace("/estimates/", "/reports/") + f"-{name}"
                        commands.append(["evaluate", "--estimates", estimates,
                                         "--out", f"{report}/report.json", *flags])
    return commands + edge_commands()


def edge_commands() -> list[list[str]]:
    """The commands at the day-window edges, as ``surrokit`` argv lists, in run order.

    On ``EDGE_CORPUS``: ``simulate``, a pretest ``analyze`` that exits 3
    (no pre-period) and a running-mean ``analyze --T 7`` with its
    ``evaluate``. On the horizon-21 corpus of ``CORPORA``: a pretest
    ``--sweep-T`` read at ``--horizon 14`` with its ``evaluate`` (windows
    that end before the panel does), pretest reads at ``--horizon 22``
    with ``--T 7`` and ``--sweep-T``, which exit 3 (windows past its end),
    and a similar read at ``--horizon 21`` whose donor is a panel of
    ``EDGE_CORPUS``, which exits 3 (a donor shorter than the horizon), and
    an ``evaluate`` of the running-mean read at ``--long-cycle-days 1e300
    --short-cycle-days 1e-300``, which exits 4 (a capacity gain past the
    float range). Last, a running-mean ``analyze`` of the directory
    ``bad/<name>`` of each panel of ``BAD_PANELS``, which holds that panel
    alone and exits 3 on its load error or its direct read, a pretest
    ``analyze`` of ``bad/huge-pre``, which holds ``HUGE_PRE`` alone, at
    ``--T 1``, which exits 4, a running-mean ``analyze`` of
    ``PARTIAL_CORPUS`` at ``--jobs 1`` and ``2``, which exits 3 on its
    missing-day panel, and a running-mean ``analyze`` of ``EDGE_CORPUS``
    into its own directory, which exits 3 on the ``simulate`` manifest
    there. After it, so that where they write no later command reads, an
    ``analyze`` of ``EDGE_CORPUS`` whose ``--out`` names a panel there,
    which exits 3 on an io error and leaves the panel as it is, and an
    ``evaluate`` whose report lies in that corpus, which exits 3 on the
    ``simulate`` manifest.
    """
    pre0, h21 = EDGE_CORPUS[0], "arms2.5-h21"
    t7, sweep = ORDERS["T7"], ORDERS["sweep"]
    # (corpus, output name, flags, whether the read succeeds and is evaluated)
    reads = [
        (pre0, "pretest-T7", ["--regime", "pretest", *t7, "--horizon", "14"], False),
        (pre0, "running-mean-T7", ["--regime", "running-mean", *t7, "--horizon", "14"], True),
        (h21, "pretest-sweep-h14", ["--regime", "pretest", *sweep, "--horizon", "14"], True),
        (h21, "pretest-T7-h22", ["--regime", "pretest", *t7, "--horizon", "22"], False),
        (h21, "pretest-sweep-h22", ["--regime", "pretest", *sweep, "--horizon", "22"], False),
        (h21, "similar-T7-donor-h14", ["--regime", "similar", "--donor",
                                       f"{pre0}/sim-j1/sim-00000.csv", *t7, "--horizon", "21"],
         False),
    ]
    commands = [["simulate", "--config", f"{pre0}/config.json",
                 "--out-dir", f"{pre0}/sim-j1", "--jobs", "1"]]
    for corpus, label, flags, succeeds in reads:
        estimates = f"{corpus}/estimates/edge-{label}"
        commands.append(["analyze", "--panel-dir", f"{corpus}/sim-j1", *flags,
                         "--out", estimates, "--jobs", "1"])
        if succeeds:
            commands.append(["evaluate", "--estimates", estimates,
                             "--out", f"{corpus}/reports/edge-{label}/report.json"])
    commands.append(["evaluate", "--estimates", f"{pre0}/estimates/edge-running-mean-T7",
                     "--out", f"{pre0}/reports/edge-capacity-overflow/report.json",
                     "--long-cycle-days", "1e300", "--short-cycle-days", "1e-300"])
    for name in BAD_PANELS:
        commands.append(["analyze", "--panel-dir", f"bad/{name}", "--regime", "running-mean",
                         "--T", "2", "--horizon", "3",
                         "--out", f"bad/estimates/{name}", "--jobs", "1"])
    commands.append(["analyze", "--panel-dir", "bad/huge-pre", "--regime", "pretest",
                     "--T", "1", "--horizon", "3",
                     "--out", "bad/estimates/huge-pre", "--jobs", "1"])
    for jobs in ("1", "2"):
        commands.append(["analyze", "--panel-dir", "bad/partial", "--regime", "running-mean",
                         "--T", "2", "--horizon", "3",
                         "--out", f"bad/estimates/partial-j{jobs}", "--jobs", jobs])
    commands.append(["analyze", "--panel-dir", f"{pre0}/sim-j1", "--regime", "running-mean",
                     *t7, "--horizon", "14", "--out", f"{pre0}/sim-j1", "--jobs", "1"])
    commands.append(["analyze", "--panel-dir", f"{pre0}/sim-j1", "--regime", "running-mean",
                     *t7, "--horizon", "14", "--out", f"{pre0}/sim-j1/sim-00001.csv",
                     "--jobs", "1"])
    commands.append(["evaluate", "--estimates", f"{pre0}/estimates/edge-running-mean-T7",
                     "--out", f"{pre0}/sim-j1/report.json"])
    return commands


def run_commands(commands: list[list[str]], results_path: str) -> None:
    """Run each command through ``surrokit.cli.main`` in this process and
    write ``[{"argv", "exit", "stderr"}, ...]`` as JSON to ``results_path``.

    stderr is captured at the file descriptor, so lines from forked pool
    workers are kept too.
    """
    from surrokit.cli import main

    for corpus, config in [*CORPORA.items(), EDGE_CORPUS]:
        Path(corpus).mkdir()
        Path(corpus, "config.json").write_text(json.dumps(config), encoding="utf-8")
    Path("bad", "partial").mkdir(parents=True)
    for name, text in {**BAD_PANELS, "huge-pre": HUGE_PRE}.items():
        Path("bad", name).mkdir()
        Path("bad", name, f"{name}.csv").write_text(text, encoding="utf-8")
    for name, text in PARTIAL_CORPUS.items():
        Path("bad", "partial", f"{name}.csv").write_text(text, encoding="utf-8")
    results = []
    saved = os.dup(2)
    for argv in commands:
        with tempfile.TemporaryFile() as captured:
            sys.stderr.flush()
            os.dup2(captured.fileno(), 2)
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
            finally:
                sys.stderr.flush()
                os.dup2(saved, 2)
            captured.seek(0)
            stderr = captured.read().decode("utf-8", "replace")
        results.append({"argv": argv, "exit": code, "stderr": stderr})
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def run_root(root: Path, work: Path) -> list[dict]:
    """The matrix's results for ``root``, run in a fresh interpreter in ``work``."""
    work.mkdir(parents=True)
    env = {key: value for key, value in os.environ.items() if key != "SURROKIT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]
    )
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    results_path = work.parent / f"{work.name}.results.json"
    script = ("import json, sys, cli_matrix; "
              "cli_matrix.run_commands(json.loads(sys.argv[1]), sys.argv[2])")
    subprocess.run([sys.executable, "-c", script, json.dumps(matrix()), str(results_path)],
                   cwd=work, env=env, check=True)
    return json.loads(results_path.read_text(encoding="utf-8"))


def output_files(work: Path) -> dict[str, bytes | dict]:
    """``{relative path: content}`` of every file under ``work``: its bytes, or
    for a manifest its fields but ``duration_seconds``."""
    files = {}
    for path in sorted(work.rglob("*")):
        if not path.is_file():
            continue
        if path.name.endswith("manifest.json"):
            content = json.loads(path.read_text(encoding="utf-8"))
            content.pop("duration_seconds")
        else:
            content = path.read_bytes()
        files[path.relative_to(work).as_posix()] = content
    return files


def compare(base_results: list[dict], change_results: list[dict],
            base_work: Path, change_work: Path) -> list[str]:
    """One line per difference between two roots' results and output trees."""
    lines = []
    for base, change in zip(base_results, change_results):
        command = " ".join(base["argv"])
        if base["exit"] != change["exit"]:
            lines.append(f"exit code of `{command}`: BASE {base['exit']}, CHANGE {change['exit']}")
        if base["stderr"] != change["stderr"]:
            lines.append(f"stderr of `{command}`: BASE {base['stderr']!r}, "
                         f"CHANGE {change['stderr']!r}")
    base_files, change_files = output_files(base_work), output_files(change_work)
    for path in sorted(base_files.keys() | change_files.keys()):
        if path not in change_files:
            lines.append(f"only in BASE: {path}")
        elif path not in base_files:
            lines.append(f"only in CHANGE: {path}")
        elif base_files[path] != change_files[path]:
            base, change = base_files[path], change_files[path]
            if isinstance(base, dict):
                fields = sorted(key for key in base.keys() | change.keys()
                                if key not in base or key not in change or base[key] != change[key])
                lines.append(f"manifest fields differ: {path}: {', '.join(fields)}")
            else:
                lines.append(f"bytes differ: {path}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(root, "src", "surrokit").is_dir() for root in argv):
        print("usage: python3 tools/cli_matrix.py BASE CHANGE "
              "(two repository roots, each with src/surrokit)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cli-matrix-") as scratch:
        works = [Path(scratch, "base"), Path(scratch, "change")]
        base, change = (run_root(Path(root).resolve(), work) for root, work in zip(argv, works))
        lines = compare(base, change, *works)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
