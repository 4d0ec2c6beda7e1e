"""surrokit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {pipeline,sweep,replicate} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` it times the workload untraced and reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced in-process operations and reports the
per-layer metrics. Every operation's outputs are checked against the
simulator oracle outside the timed region.

The output is a readable report, then one ``{"record": ...}`` line holding
every metric, the checks and the environment (``compare.py`` reads these),
then the result line: ``correct``, ``attempted``, ``failed`` and the
metrics. The exit code is 1 when any check failed, 2 on a usage error or
when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNIT_SUFFIXES = (
    ("per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("bytes", "bytes"),
    (".calls", "count"), (".spans", "count"), (".share", "ratio"), ("_ratio", "ratio"),
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
    }


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    raise ValueError(f"metric {name!r} has no unit suffix")


def time_setup(workload, workdir: Path) -> float:
    """Wall time of a fresh interpreter importing surrokit and building the
    workload's inputs under ``workdir``."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "prepare", workload.name,
         str(workload.seed), str(workdir)],
        check=True, env=workload.env,
    )
    return perf_counter() - start


def checked(workload, k: int) -> list[str]:
    """Output-check failures of operation ``k``; an unreadable output is one."""
    try:
        return workload.check(k)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"op {k}: outputs unreadable: {type(exc).__name__}: {exc}"]


def run_loop(workload, seconds: float, tracer=None, between=None) -> dict:
    """Closed loop, one client: operations back to back until their summed
    wall time reaches ``seconds``. With a tracer, operations alternate
    between untraced and traced, all in-process, and there are at least two.
    ``between(k)`` runs untimed after operation ``k``."""
    from surrokit import SurrokitError
    from workloads import StageFailed

    walls = {False: [], True: []}
    stages: dict[str, list[float]] = {}
    rss_kb, attempted, failed, failures, panels, output_bytes = 0, 0, 0, [], 0, 0
    elapsed, k = 0.0, 0
    while elapsed < seconds or (tracer is not None and k < 2):
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.run_id = len(walls[True])
            tracer.install()
        op_failures = []
        start = perf_counter()
        try:
            times, op_rss = workload.run(k, in_process=tracer is not None)
        except (StageFailed, SurrokitError) as exc:
            op_failures.append(f"op {k}: {exc}")
        finally:
            wall = perf_counter() - start
            if traced:
                tracer.uninstall()
        elapsed += wall
        attempted += 1
        if not op_failures:
            for stage, value in times.items():
                stages.setdefault(stage, []).append(value)
            rss_kb = max(rss_kb, op_rss)
            walls[traced].append(wall)
            op_failures = checked(workload, k)
            out = workload.analyze_out(k)
            if traced and out is not None:
                output_bytes += sum(p.stat().st_size for p in out.iterdir())
        if op_failures:
            failed += 1
            failures += op_failures
        else:
            panels += workload.panels_per_op
        workload.cleanup(k)
        if between is not None:
            between(k)
        k += 1
    # The checks over all operations count as one more attempt.
    final = workload.finish()
    return {
        "walls": walls, "stages": stages, "elapsed": elapsed, "panels": panels,
        "rss_kb": max(rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "attempted": attempted + 1, "failed": failed + bool(final),
        "failures": failures + final, "output_bytes": output_bytes,
    }


def end_to_end(loop: dict, setup_s: float) -> dict[str, float]:
    """Operation and stage times are the run's fastest: on a shared machine
    the load of other tenants drifts over minutes and slows every operation
    run meanwhile, so the median of one run mostly measures that load."""
    walls = loop["walls"][False] or [loop["elapsed"]]
    metrics = {
        "setup_s": setup_s,
        "wall_s": min(walls),
        "wall_median_s": statistics.median(walls),
        "panels_per_s": loop["panels"] / loop["elapsed"],
        "peak_rss_mb": loop["rss_kb"] / 1024,
        "failed_ratio": loop["failed"] / loop["attempted"],
    }
    for stage, values in loop["stages"].items():
        metrics[stage] = min(values)
    return metrics


def per_layer(loop: dict, tracer) -> dict[str, float]:
    from spans import layer_metrics

    traced, untraced = loop["walls"][True], loop["walls"][False]
    if not traced or not untraced:
        raise SystemExit("perfbench: --seconds too short for one traced and one untraced operation")
    metrics = layer_metrics(tracer, traced)
    metrics["cli.analyze.output_bytes"] = loop["output_bytes"] / len(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "surrokit" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    spec = load_spec()
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workload_cls(workdir, args.seed)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            workload.prepare()
            loop = run_loop(workload, args.seconds, tracer)
            metrics = per_layer(loop, tracer)
            tracer.write(OUT / f"spans-{args.workload}.jsonl")
            wanted = spec["per_layer"]
        else:
            # The first set-up builds the run's inputs; the others are spread
            # between the first operations, so that they meet the same
            # machine load as the run does.
            setup_times = [time_setup(workload, workdir)]

            def between(k: int) -> None:
                if len(setup_times) < SETUP_REPEATS:
                    setup_times.append(time_setup(workload, workdir / f"setup-{k}"))
                    shutil.rmtree(workdir / f"setup-{k}")

            loop = run_loop(workload, args.seconds, between=between)
            while len(setup_times) < SETUP_REPEATS:
                between(len(setup_times))
            metrics = end_to_end(loop, statistics.median(setup_times))
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = loop["failures"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop['failed']} of {loop['attempted']} attempts failed "
          f"({len(loop['walls'][False])} untraced and {len(loop['walls'][True])} traced "
          f"operations, plus the checks over all of them)")
    for name, value in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "failures": failures,
        "op_walls": loop["walls"][False],
        "attempted": loop["attempted"], "environment": environment(),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
