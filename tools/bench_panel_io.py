"""Time panel CSV serialisation and parsing on one README-shape panel.

The panel is the README corpus shape: a control and 2 treatment arms of 200
users each, 63 pre-allocation and 63 post-allocation days (600 users x 126
days, about 3.8 MB of CSV), simulated from seed ``SEED``. Each of the
``ROUNDS`` rounds writes the panel to a file with ``write_panel`` and loads
it back with ``load_panel``, so the two layers interleave and share the
same drift in host load. After
the timed rounds, one more write and one more load run under ``tracemalloc``
to record each call's peak of traced Python allocations.

Run it from the repository root::

    python3 tools/bench_panel_io.py --out BENCH.json
    python3 tools/bench_panel_io.py --out BENCH.json --src ../other/src --label parent

``--src`` is the ``src`` directory whose ``surrokit`` is imported, so one
copy of this script can measure two trees. The run is appended to the
``runs`` list of ``--out`` (created if absent) with min and median ms per
layer, the peaks, and the environment: ``nproc``, the BLAS thread variables
as found, the Python and numpy versions and the tree's git commit, marked
``-dirty`` when the tree has uncommitted edits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROUNDS = 9
SEED = 1
CONFIG = {
    "arms_per_experiment": 2,
    "users_per_arm": 200,
    "horizon": 63,
    "pre_period": 63,
    "effect_scale": 0.1,
    "effect_tail_df": 3.0,
    "novelty_floor": 0.85,
    "novelty_halflife": 10.0,
}


def _commit(src: Path) -> str | None:
    """The checkout's HEAD hash, with ``-dirty`` appended when it has uncommitted edits."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True, check=False)
        return done.stdout.strip()

    head = git("rev-parse", "HEAD")
    if not head:
        return None
    return head + "-dirty" if git("status", "--porcelain") else head


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _summary(times: list[float]) -> dict:
    return {"min_ms": min(times) * 1e3, "median_ms": statistics.median(times) * 1e3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to add this run to")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="directory holding the surrokit package to measure")
    parser.add_argument("--label", default="change", help="name of the measured tree")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import surrokit as sk

    panel = sk.simulate_experiment(sk.SimConfig(seed=SEED, **CONFIG), 0).panel
    write_s, load_s = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        for _ in range(ROUNDS):
            start = time.perf_counter()
            sk.write_panel(panel, path)
            write_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            loaded = sk.load_panel(path)
            load_s.append(time.perf_counter() - start)
            if loaded != panel:
                raise SystemExit("load_panel did not reproduce the written panel")
        write_peak = _peak_mib(lambda: sk.write_panel(panel, path))
        load_peak = _peak_mib(lambda: sk.load_panel(path))
        csv_bytes = path.stat().st_size

    run = {
        "label": args.label,
        "commit": _commit(src),
        "seed": SEED,
        "rounds": ROUNDS,
        "panel": {"users": panel.n_users, "days": len(panel.days), "csv_bytes": csv_bytes},
        "write_panel": {**_summary(write_s), "tracemalloc_peak_mib": write_peak},
        "load_panel": {**_summary(load_s), "tracemalloc_peak_mib": load_peak},
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            **{var: os.environ.get(var) for var in BLAS_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    document = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    document["runs"].append(run)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
