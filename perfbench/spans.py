"""Boundary tracing for the benchmark: wrappers around surrokit's public calls.

Spans are recorded by wrappers that this module installs at run time; no
file of the package is edited. A wrapper replaces a function wherever another
module (or the package namespace) has bound it, because ``from .panel import
load_panel`` copies the reference into the importing module. Calls a module
makes to its own functions are not layer boundaries and stay untraced.

Each span is ``(name, start, end, parent, run_id)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``run_id`` is the workload
operation the span belongs to. Spans are held in memory and written out once,
when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("simulator", "panel", "surrogate", "estimators", "evaluation", "cli")

# The cli layer's boundary is the subcommand, reached through ``args.func``.
CLI_COMMANDS = {"cmd_simulate": "simulate", "cmd_analyze": "analyze", "cmd_evaluate": "evaluate"}
# OutcomePanel methods other layers call; the rest are cached views.
PANEL_METHODS = ("from_matrix", "arm_mask")
# Span name -> index of the path argument whose file size is counted.
SIZED_ARGS = {"panel.load_panel": 0, "panel.write_panel": 1}


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.bytes: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = SIZED_ARGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if sized is not None and isinstance(args[sized], (str, os.PathLike)):
                self.bytes[name] += os.path.getsize(args[sized])
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary of the imported surrokit package."""
        package = importlib.import_module("surrokit")
        modules = {layer: importlib.import_module(f"surrokit.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            if layer == "cli":
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for namespace in namespaces:
                    if namespace is not module and vars(namespace).get(attr) is obj:
                        self._patch(namespace, attr, wrapper)
        panel_cls = modules["panel"].OutcomePanel
        for attr in PANEL_METHODS:
            raw = inspect.getattr_static(panel_cls, attr)
            if isinstance(raw, classmethod):
                self._patch(panel_cls, attr, classmethod(self.wrap(f"panel.{attr}", raw.__func__)))
            else:
                self._patch(panel_cls, attr, self.wrap(f"panel.{attr}", raw))
        cli = modules["cli"]
        for attr, command in CLI_COMMANDS.items():
            self._patch(cli, attr, self.wrap(f"cli.{command}", getattr(cli, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, op_walls: list[float]) -> dict[str, float]:
    """Per-operation means of span counts, totals, self times and byte counts.

    ``op_walls`` holds the wall time of each traced operation. Returns every
    ``<layer>.<function>.{calls,total_s,self_s}``, every ``<layer>.self_s``
    and share of wall, fit latency quantiles, the byte counters and
    ``trace.unattributed_s``: wall time outside every span.
    """
    ops = len(op_walls)
    own = self_times(tracer.spans)
    sums: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, parent, _), self_s in zip(tracer.spans, own):
        layer = name.split(".", 1)[0]
        sums[f"{name}.calls"] += 1
        sums[f"{name}.total_s"] += end - start
        sums[f"{name}.self_s"] += self_s
        sums[f"{layer}.self_s"] += self_s
        durations[name].append(end - start)
    for name, size in tracer.bytes.items():
        sums[f"{name}.bytes"] = size
    metrics = {key: value / ops for key, value in sums.items()}
    wall = statistics.fmean(op_walls)
    attributed = 0.0
    for layer in LAYERS:
        layer_self = metrics.setdefault(f"{layer}.self_s", 0.0)
        metrics[f"{layer}.share"] = layer_self / wall
        attributed += layer_self
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - attributed
    metrics["trace.spans"] = len(tracer.spans) / ops
    fits = durations.get("surrogate.fit_pretest")
    if fits and len(fits) >= 2:
        cuts = statistics.quantiles(fits, n=10)
        metrics["surrogate.fit_pretest.p50_ms"] = 1e3 * statistics.median(fits)
        metrics["surrogate.fit_pretest.p90_ms"] = 1e3 * cuts[8]
    return metrics
