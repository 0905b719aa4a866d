"""Self-tests for the benchmark: metric names, span nesting, and output checks."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, trace, workloads
from pml import dmapio, likelihood, loss, metrics
from pml.metrics import BenchmarkConfig, BenchmarkRun, MetricsSummary
from pml.synth import TraceRow, TrainingDiverged, TrainResult

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_valid_and_match_what_the_runner_prints():
    spec = _spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.PER_LAYER_UNITS


def _tiny_ops(tracer, tmp_path):
    """One traced op per layer family, on inputs small enough for a unit test."""
    cfg = BenchmarkConfig(steps=6, scenes_per_epoch=4, val_count=2, test_count=3, val_every=3)
    preds, gts, _ = workloads.scene_maps(3, 5, 2, 3, (4, 8))
    dmapio.write_dmap(tmp_path / "p.dmap", preds[0])
    dmapio.write_dmap(tmp_path / "g.dmap", gts[0])
    calls = [
        lambda: metrics.run_benchmark_cell(cfg, 5, "pml"),
        lambda: metrics.run_benchmark_cell(cfg, 5, "l2"),
        lambda: likelihood.verify_theorem(3, 9, 4, 2),
        lambda: workloads.LossLarge._op(preds, gts, 3),
        lambda: workloads.run_cli(["loss", "--pred", str(tmp_path / "p.dmap"),
                                   "--gt", str(tmp_path / "g.dmap"), "--json"]),
    ]
    with trace.installed(tracer):
        for call in calls:
            with trace.op_span(tracer):
                call()


def test_spans_nest_and_self_times_sum_to_each_root(tmp_path):
    originals = {p[:2]: trace._owner(p[0]).__dict__[p[1]] for p in trace.PATCHES}
    tracer = trace.Tracer()
    _tiny_ops(tracer, tmp_path)
    assert all(trace._owner(path).__dict__[attr] is fn for (path, attr), fn in originals.items())
    assert not tracer.stack

    starts, ends = np.array(tracer.starts), np.array(tracer.ends)
    parents, ops = np.array(tracer.parents), np.array(tracer.op_ids)
    for i, p in enumerate(parents):
        if p >= 0:
            assert starts[p] <= starts[i] <= ends[i] <= ends[p]
            assert ops[i] == ops[p]
    self_s = tracer.self_times()
    assert np.all(self_s >= -1e-9)
    roots = np.flatnonzero(parents < 0)
    assert len(roots) == 5 and all(tracer.names[r] == trace.ROOT_SPAN for r in roots)
    for r in roots:
        op = ops[r]
        total = self_s[ops == op].sum() + tracer.leaf_op_s[op]
        assert total == pytest.approx(ends[r] - starts[r], rel=1e-9, abs=1e-9)
    exercised = {name for name, (value, _) in trace.layer_metrics(tracer).items() if value is not None}
    assert {"synth.scene.calls", "likelihood.l2_level_per_call", "cli.calls",
            "dmapio.read.mb_per_s", "pyramid.densitymap.count"} <= exercised


def test_unexercised_layers_are_reported_as_missing_not_zero():
    tracer = trace.Tracer()
    with trace.installed(tracer), trace.op_span(tracer):
        likelihood.verify_theorem(2, 1, 4, 2)
    layer = trace.layer_metrics(tracer)
    assert layer["synth.forward.self_s"][0] is None
    assert layer["cli.nonzero_exits"][0] is None
    assert layer["likelihood.calls"][0] == 4.0


def _cell(losses, mae, kind="pml"):
    rows = tuple(TraceRow(i + 1, v, 1.0, False) for i, v in enumerate(losses))
    result = TrainResult(model=None, rows=rows)
    return BenchmarkRun(kind, True, 4, 1, MetricsSummary(mae, mae, ()), "h", result)


def test_train_pair_check_rejects_corrupted_cells():
    falling = list(np.linspace(5.0, 1.0, 1000))
    assert workloads.check_cell(_cell(falling, 1.9)) == []
    assert workloads.check_cell(_cell(falling[::-1], 1.9))
    assert workloads.check_cell(_cell(falling, math.nan))
    assert workloads.check_cell(TrainingDiverged(3, math.nan, {}))


def test_theorem_check_rejects_violations():
    theorem = workloads.Theorem()
    report = likelihood.verify_theorem(4, 11, theorem.LEVEL, theorem.NK, theorem.BATCH)
    task = workloads.Task("trials", 4, None)
    assert theorem.check({"min_diff": math.inf}, task, report) == (0, [])
    bad = replace(report, trials=(replace(report.trials[0], violated=True),) + report.trials[1:])
    assert theorem.check({"min_diff": math.inf}, task, bad)[0] == 1
    nan = replace(report, trials=(replace(report.trials[0], diff=math.nan),) + report.trials[1:])
    assert theorem.check({"min_diff": math.inf}, task, nan)[0] == 4


def test_loss_check_rejects_corrupted_terms():
    preds, gts, _ = workloads.scene_maps(4, 6, 3, 5, (10, 30))
    bd, ll = workloads.LossLarge._op(preds, gts, 4)
    ref = workloads.reference_terms(preds, gts, 4)
    assert workloads.check_loss_terms(bd, ll, *ref) == []
    ldiff = dict(bd.ldiff_per_pair)
    ldiff[(2, 3)] *= 1 + 1e-6
    assert workloads.check_loss_terms(replace(bd, ldiff_per_pair=ldiff), ll, *ref)
    l2 = dict(bd.l2_per_level)
    l2[6] *= 1 + 1e-6
    assert workloads.check_loss_terms(replace(bd, l2_per_level=l2), ll, *ref)
    assert workloads.check_loss_terms(bd, replace(ll, loglik=math.inf), *ref)


def test_cli_checks_reject_bad_exit_total_and_file(tmp_path):
    preds, gts, _ = workloads.scene_maps(5, 5, 2, 3, (4, 8))
    for name, maps in (("p", preds), ("g", gts)):
        (tmp_path / name).mkdir()
        for b, m in enumerate(maps):
            dmapio.write_dmap(tmp_path / name / f"{b}.dmap", m)
    total = loss.total_loss(preds, gts, 4).total
    out = workloads.run_cli(["loss", "--pred", str(tmp_path / "p"), "--gt", str(tmp_path / "g"),
                             "--json"])
    assert workloads.check_cli(out, workloads._expect_json_total(total)) == []
    assert workloads.check_cli(out, workloads._expect_json_total(total + 1e-9))
    assert workloads.check_cli(replace(out, code=1), workloads._expect_json_total(total))

    path = tmp_path / "g" / "0.dmap"
    expect = workloads._expect_files({path: gts[0].data})
    assert expect(out) == []
    lines = path.read_text().splitlines()
    lines[1] = " ".join(["7.5"] + lines[1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    assert expect(out)


def test_host_probe_samples_in_the_background_and_stops():
    with run.HostProbe() as probe:
        time.sleep(3 * run.PROBE_EVERY_S)
    assert not probe._thread.is_alive()
    assert probe.samples and all(min(cpu.values()) > 0 for _, cpu in probe.samples)
    assert probe.scale("interpreter") > 0 and probe.scale("blas") > 0


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theorem", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
