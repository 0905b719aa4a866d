"""Span recorder and the wrappers that trace calls between pml modules.

The benchmark measures pml only from outside. ``installed(tracer)`` replaces
module attributes and class methods of pml with wrappers for the duration of
a ``with`` block and restores the originals on exit. There are three kinds
of wrapper:

* ``span``  -- records (name, start, end, parent, op) for a call that crosses
  a layer boundary. A call made while a span of the same name is open (a
  module calling into itself) opens no new span; its probe still runs.
* ``leaf``  -- per-object calls (``DensityMap`` construction): counted and
  timed in aggregate without a span record. The time is charged to the open
  span as child time, so self times still add up to the root span.
* ``count`` -- per-draw calls (``gaussian_pair``, ``uniform_block``): counted
  only, to keep tracing overhead low.

A span's self time is its duration minus the time its children cover. Spans
opened while no span is open are roots; each root starts a new op id.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory span list plus named counters, written out when a run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.covered: list[float] = []  # seconds of each span covered by children
        self.stack: list[int] = []
        self.op = -1
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.amounts: defaultdict[str, float] = defaultdict(float)
        self.leaf_s: defaultdict[str, float] = defaultdict(float)
        self.leaf_op_s: defaultdict[int, float] = defaultdict(float)  # leaf seconds per op

    def current(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self.op += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.op_ids.append(self.op)
        self.covered.append(0.0)
        self.ends.append(math.nan)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        if not self.stack or self.stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")
        self.stack.pop()
        self.ends[idx] = end
        parent = self.parents[idx]
        if parent >= 0:
            self.covered[parent] += end - self.starts[idx]

    def charge_leaf(self, name: str, seconds: float) -> None:
        self.counts[name] += 1
        self.leaf_s[name] += seconds
        self.leaf_op_s[self.op] += seconds
        if self.stack:
            self.covered[self.stack[-1]] += seconds

    def self_times(self) -> np.ndarray:
        return np.array(self.ends) - np.array(self.starts) - np.array(self.covered)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: span count, inclusive and self seconds (leaf layers too)."""
        out: dict[str, dict[str, float]] = {}
        self_s = self.self_times()
        durations = np.array(self.ends) - np.array(self.starts)
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += float(durations[i])
            row["self_s"] += float(self_s[i])
        for name, seconds in self.leaf_s.items():
            out[name] = {"spans": 0, "total_s": seconds, "self_s": seconds}
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op,self_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, s in enumerate(self.self_times()):
                fh.write(f"{i},{self.names[i]},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},{self.op_ids[i]},{s:.9f}\n")


def _span(tracer: Tracer, name: str, fn, probe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = tracer.current() != name
        if opened:
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        else:
            result = fn(*args, **kwargs)
        if probe is not None:
            probe(tracer, args, result, opened)
        return result

    return wrapper


def _leaf(tracer: Tracer, name: str, fn, probe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.charge_leaf(name, perf_counter() - t0)

    return wrapper


def _count(tracer: Tracer, name: str, fn, probe=None):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


# -- probes: run after the wrapped call returns, outside its span ------------

def _scene_points(t, args, scene, opened):
    t.amounts["synth.scene.points"] += len(scene.annotations)


def _forward_flops(t, args, result, opened):
    model, obs = args[0], args[1]
    batch, side = obs.shape[0], obs.shape[-1]
    # two 3x3 convolutions, each 9*C multiply-adds per pixel; 2 flops per multiply-add
    t.amounts["synth.forward.flop"] += 2.0 * 18 * model.channels * batch * side * side


def _clipped(t, args, result, opened):
    t.counts["synth.optim.clip_calls"] += 1
    t.counts["synth.optim.clipped"] += bool(result[2])


def _breakdown_guard(bd, t):
    if getattr(bd, "sigma_guarded", False):
        t.counts["loss.guard_hits"] += 1


def _loss_probe(t, args, result, opened):
    if opened:
        preds, gts = args[0], args[1]
        t.amounts["loss.input_bytes"] += sum(m.data.nbytes for m in preds) + sum(
            m.data.nbytes for m in gts)
    _breakdown_guard(result[0] if isinstance(result, tuple) else result, t)


def _l2_level_probe(t, args, result, opened):
    t.counts["loss.l2_level.calls"] += 1
    _loss_probe(t, args, result, opened)


def _read_bytes(t, args, result, opened):
    t.amounts["dmapio.read.bytes"] += os.path.getsize(args[0])


def _write_bytes(t, args, result, opened):
    t.amounts["dmapio.write.bytes"] += os.path.getsize(args[0])


def _cli_exit(t, args, code, opened):
    t.counts["cli.nonzero_exits"] += code != 0


_KINDS = {"span": _span, "leaf": _leaf, "count": _count}

_LOSS_ENTRIES = ("loss_value_and_gradient", "total_loss", "pml_loss", "l_diff_pair", "l_diff",
                 "loss_gradient")

# (owner, attribute, kind, name, probe). An owner is a module path, or a module
# path and a class name; imported names are patched where the caller looks them up.
PATCHES = (
    ("pml.metrics", "run_benchmark_cell", "span", "metrics.cell", None),
    ("pml.metrics", "train", "span", "synth.train", None),
    ("pml.metrics", "generate_scene", "span", "synth.scene", _scene_points),
    ("pml.metrics", "evaluate", "span", "metrics.test", None),
    ("pml.synth:TinyModel", "forward", "span", "metrics.test", None),
    ("pml.synth:TinyModel", "_forward_cache", "span", "synth.forward", _forward_flops),
    ("pml.synth:TinyModel", "_backward", "span", "synth.backward", None),
    ("pml.synth", "clip_by_global_norm", "span", "synth.optim", _clipped),
    ("pml.synth:Adam", "step", "span", "synth.optim", None),
    ("pml.synth", "_counting_errors", "span", "metrics.val", None),
    *(("pml.loss", attr, "span", "loss", _loss_probe) for attr in _LOSS_ENTRIES),
    ("pml.loss", "l2_level", "span", "loss", _l2_level_probe),
    ("pml.likelihood", "l_diff_pair", "span", "loss", _loss_probe),
    ("pml.likelihood", "l2_level", "span", "loss", _l2_level_probe),
    ("pml.cli", "pml_loss", "span", "loss", _loss_probe),
    ("pml.cli", "total_loss", "span", "loss", _loss_probe),
    ("pml.likelihood", "log_likelihood", "span", "likelihood", None),
    ("pml.likelihood", "verify_theorem", "span", "likelihood.theorem", None),
    ("pml.cli", "main", "span", "cli", _cli_exit),
    ("pml.cli", "build_pyramid", "span", "pyramid", None),
    ("pml.cli", "rasterize", "span", "pyramid", None),
    ("pml.dmapio", "read_dmap", "span", "dmapio.read", _read_bytes),
    ("pml.dmapio", "read_dmap_batch", "span", "dmapio.read", None),
    ("pml.dmapio", "read_points_csv", "span", "dmapio.read", _read_bytes),
    ("pml.dmapio", "write_dmap", "span", "dmapio.write", _write_bytes),
    ("pml.dmapio", "write_points_csv", "span", "dmapio.write", _write_bytes),
    ("pml.pyramid:DensityMap", "__init__", "leaf", "pyramid.densitymap", None),
    ("pml.rng:SplitMix64", "gaussian_pair", "count", "rng.gaussian_pair", None),
    ("pml.rng:SplitMix64", "uniform_block", "count", "rng.uniform_block", None),
)

LAYER_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [p[3] for p in PATCHES]))


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tracer: Tracer):
    """Wrap every patch point for the duration of the block, then restore."""
    saved = []
    try:
        for path, attr, kind, name, probe in PATCHES:
            owner = _owner(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _KINDS[kind](tracer, name, original, probe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# (metric, unit, layer that must be exercised, value from (layers, counts, amounts))
LAYER_METRICS = (
    ("synth.scene.calls", "count", "synth.scene", lambda L, c, a: L["synth.scene"]["spans"]),
    ("synth.scene.self_s", "s", "synth.scene", lambda L, c, a: L["synth.scene"]["self_s"]),
    ("synth.scene.accept_ratio", "ratio", "synth.scene",
     lambda L, c, a: a["synth.scene.points"] / c["rng.gaussian_pair"]),
    ("rng.gaussian_pair.calls", "count", "rng.gaussian_pair", lambda L, c, a: c["rng.gaussian_pair"]),
    ("synth.forward.calls", "count", "synth.forward", lambda L, c, a: L["synth.forward"]["spans"]),
    ("synth.forward.self_s", "s", "synth.forward", lambda L, c, a: L["synth.forward"]["self_s"]),
    ("synth.forward.gflop_per_s", "GFLOP/s", "synth.forward",
     lambda L, c, a: a["synth.forward.flop"] / L["synth.forward"]["self_s"] / 1e9),
    ("synth.backward.self_s", "s", "synth.backward", lambda L, c, a: L["synth.backward"]["self_s"]),
    ("synth.train.self_s", "s", "synth.train", lambda L, c, a: L["synth.train"]["self_s"]),
    ("metrics.val.self_s", "s", "metrics.val", lambda L, c, a: L["metrics.val"]["self_s"]),
    ("metrics.test.self_s", "s", "metrics.test", lambda L, c, a: L["metrics.test"]["self_s"]),
    ("metrics.cell.self_s", "s", "metrics.cell", lambda L, c, a: L["metrics.cell"]["self_s"]),
    ("synth.optim.self_s", "s", "synth.optim", lambda L, c, a: L["synth.optim"]["self_s"]),
    ("synth.optim.clipped_ratio", "ratio", "synth.optim",
     lambda L, c, a: c["synth.optim.clipped"] / c["synth.optim.clip_calls"]),
    ("loss.guard_hits", "count", "loss", lambda L, c, a: c["loss.guard_hits"]),
    ("loss.calls", "count", "loss", lambda L, c, a: L["loss"]["spans"]),
    ("loss.self_s", "s", "loss", lambda L, c, a: L["loss"]["self_s"]),
    ("loss.gbytes_per_s", "GB/s", "loss",
     lambda L, c, a: a["loss.input_bytes"] / L["loss"]["self_s"] / 1e9),
    ("likelihood.calls", "count", "likelihood", lambda L, c, a: L["likelihood"]["spans"]),
    ("likelihood.self_s", "s", "likelihood",
     lambda L, c, a: L["likelihood"]["self_s"] + L.get("likelihood.theorem", {}).get("self_s", 0.0)),
    ("likelihood.l2_level_per_call", "count/call", "likelihood",
     lambda L, c, a: c["loss.l2_level.calls"] / L["likelihood"]["spans"]),
    ("loss.l2_level.calls", "count", "loss", lambda L, c, a: c["loss.l2_level.calls"]),
    ("rng.uniform_block.calls", "count", "rng.uniform_block", lambda L, c, a: c["rng.uniform_block"]),
    ("pyramid.densitymap.count", "count", "pyramid.densitymap",
     lambda L, c, a: c["pyramid.densitymap"]),
    ("pyramid.densitymap.self_s", "s", "pyramid.densitymap",
     lambda L, c, a: L["pyramid.densitymap"]["self_s"]),
    ("dmapio.read.self_s", "s", "dmapio.read", lambda L, c, a: L["dmapio.read"]["self_s"]),
    ("dmapio.read.mb_per_s", "MB/s", "dmapio.read",
     lambda L, c, a: a["dmapio.read.bytes"] / L["dmapio.read"]["self_s"] / 1e6),
    ("dmapio.write.self_s", "s", "dmapio.write", lambda L, c, a: L["dmapio.write"]["self_s"]),
    ("dmapio.write.mb_per_s", "MB/s", "dmapio.write",
     lambda L, c, a: a["dmapio.write.bytes"] / L["dmapio.write"]["self_s"] / 1e6),
    ("cli.calls", "count", "cli", lambda L, c, a: L["cli"]["spans"]),
    ("cli.self_s", "s", "cli", lambda L, c, a: L["cli"]["self_s"]),
    ("cli.nonzero_exits", "count", "cli", lambda L, c, a: c["cli.nonzero_exits"]),
)


# measured by the runner from traced and untraced blocks of the same run
RUN_METRICS = (("trace.overhead_ratio", "ratio"), ("trace.self_coverage", "ratio"))
PER_LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS} | dict(RUN_METRICS)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric with its unit; None where the layer was not exercised."""
    layers = tracer.layers()
    counts, amounts = defaultdict(int, tracer.counts), defaultdict(float, tracer.amounts)
    out = {}
    for name, unit, layer, value in LAYER_METRICS:
        exercised = layers.get(layer, {}).get("spans", 0) > 0 or counts.get(layer, 0) > 0
        out[name] = (float(value(layers, counts, amounts)) if exercised else None, unit)
    return out


@contextmanager
def op_span(tracer: Tracer):
    """Root span around one benchmark op."""
    idx = tracer.open(ROOT_SPAN)
    try:
        yield
    finally:
        tracer.close(idx)
