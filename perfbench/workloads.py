"""The four benchmark workloads: inputs from a seed, ops, and output checks.

Each workload builds its inputs in ``setup`` from the workload seed with the
program's own generators, hands the program only those generated inputs, and
splits its work into blocks of tasks. A task is one call into pml and counts
``ops`` units of work. ``check`` inspects one task's output and returns the
number of failed ops and a message per failure; it never times anything.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from pml import cli, dmapio, likelihood, loss, metrics
from pml.metrics import BenchmarkConfig, evaluate
from pml.pyramid import DensityMap, ResolutionSet, build_pyramid
from pml.rng import SplitMix64, derive_seed
from pml.synth import SceneConfig, TrainingDiverged, generate_scene


@dataclass(frozen=True)
class Task:
    kind: str
    ops: int
    run: Callable[[], Any]
    expected: Any = None  # what the check compares the output against


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def smooth_prediction(points: np.ndarray, level: int, rng: SplitMix64) -> np.ndarray:
    """A smooth, strictly positive density map with a real count error.

    Each point becomes a Gaussian of two cells' width that sums to one over the
    grid; the map is scaled by a count error of up to +-25% and a uniform
    floor adds 2% of the count on top.
    """
    side = 1 << level
    count = max(len(points), 1)
    coords = (np.arange(side) + 0.5) / side
    width = 2.0 / side
    gx = np.exp(-0.5 * ((coords[None, :] - points[:, 0:1]) / width) ** 2)
    gy = np.exp(-0.5 * ((coords[None, :] - points[:, 1:2]) / width) ** 2)
    gx /= gx.sum(axis=1, keepdims=True)
    gy /= gy.sum(axis=1, keepdims=True)
    scale = 1.0 + rng.uniform(-0.25, 0.25)
    return scale * (gy.T @ gx) + 0.02 * count / (side * side)


def scene_maps(seed: int, level: int, count: int, clusters: int, per_cluster: tuple[int, int]):
    """Scenes at ``level``: their ground-truth count maps, smooth predictions and points."""
    rng = SplitMix64(derive_seed(seed, level, count))
    gts, preds, points = [], [], []
    for b in range(count):
        scene = generate_scene(SceneConfig(
            seed=derive_seed(seed, level, b), num_clusters=clusters,
            points_per_cluster=per_cluster, noise_std=0.0, obs_level=level))
        gts.append(scene.gt_map)
        preds.append(DensityMap(level, smooth_prediction(scene.annotations.points, level, rng)))
        points.append(scene.annotations)
    return preds, gts, points


# -- train_pair ---------------------------------------------------------------

LOSS_WINDOW = 200  # steps averaged at each end of a cell's loss curve


def check_cell(run) -> list[str]:
    """Criterion-8b check on one trained cell: the loss went down, the test MAE is finite.

    One step's loss depends on which two scenes its batch drew, so the first
    and last ``LOSS_WINDOW`` steps are compared by their mean loss.
    """
    if isinstance(run, TrainingDiverged):
        return [f"training diverged: {run}"]
    errors = []
    losses = [row.loss for row in run.result.rows]
    first, last = float(np.mean(losses[:LOSS_WINDOW])), float(np.mean(losses[-LOSS_WINDOW:]))
    if not last < first:
        errors.append(f"{run.loss_kind} cell: mean loss of the last {LOSS_WINDOW} steps {last!r} "
                      f"not below the first {LOSS_WINDOW} {first!r}")
    if not math.isfinite(run.metrics.mae):
        errors.append(f"{run.loss_kind} cell: test MAE {run.metrics.mae!r} is not finite")
    return errors


class TrainPair:
    name = "train_pair"
    op_unit = "optimizer step"
    trace_blocks = 1
    carried = ("seen",)  # check tallies kept across set-ups
    probe_part = "interpreter"  # host-probe part whose slowdowns this workload follows

    def setup(self, seed: int, workdir: Path):
        cfg = BenchmarkConfig()
        # a short cell through every stage, so lazy initialisation is done before timing;
        # 64 steps (about 0.4 s) so that one scheduler hiccup does not dominate setup_s
        warm = replace(cfg, steps=64, scenes_per_epoch=32, val_count=4, test_count=4, val_every=8)
        metrics.run_benchmark_cell(warm, seed, "pml")
        return {"cfg": cfg, "seed": seed, "seen": []}

    def block(self, state, index: int) -> list[Task]:
        def cell(kind):
            try:
                return metrics.run_benchmark_cell(state["cfg"], state["seed"], kind)
            except TrainingDiverged as exc:
                return exc

        return [Task(kind, state["cfg"].steps, lambda kind=kind: cell(kind))
                for kind in ("pml", "l2")]

    def check(self, state, task: Task, run) -> tuple[int, list[str]]:
        errors = check_cell(run)
        if not isinstance(run, TrainingDiverged):
            state["seen"].append((task.kind, run.metrics.mae, run.stream_hash,
                                  _sha256(run.result.trace_csv())))
        return (task.ops if errors else 0), errors

    def report(self, state) -> dict:
        """Test MAEs and the determinism hashes (reported, not gated)."""
        out: dict = {}
        for kind, mae, stream_hash, trace_hash in state["seen"]:
            out.setdefault(f"test_mae_{kind}", mae)
            out.setdefault("stream_manifest_sha256", stream_hash)
            out.setdefault(f"trace_csv_sha256_{kind}", []).append(trace_hash)
        for key in [k for k in out if k.startswith("trace_csv_sha256_")]:
            if len(out[key]) > 1:
                out[key.replace("sha256", "identical")] = len(set(out[key])) == 1
        return out


# -- theorem ------------------------------------------------------------------

class Theorem:
    name = "theorem"
    op_unit = "theorem trial"
    trace_blocks = 10
    carried = ("min_diff",)  # check tallies kept across set-ups
    probe_part = "interpreter"  # host-probe part whose slowdowns this workload follows
    LEVEL, NK, BATCH = 5, 3, 2  # the criterion-3 shape
    CHUNK, CHUNKS_PER_BLOCK = 50, 10

    def setup(self, seed: int, workdir: Path):
        base = derive_seed(seed, 3) >> 2
        # 500 warm-up trials (about 0.4 s), long enough for a steady setup_s
        likelihood.verify_theorem(500, base ^ 1, self.LEVEL, self.NK, self.BATCH)
        return {"base": base, "min_diff": math.inf}

    def block(self, state, index: int) -> list[Task]:
        base, tasks = state["base"], []
        for c in range(self.CHUNKS_PER_BLOCK):
            first = base + (index * self.CHUNKS_PER_BLOCK + c) * self.CHUNK
            tasks.append(Task("trials", self.CHUNK, lambda first=first: likelihood.verify_theorem(
                self.CHUNK, first, self.LEVEL, self.NK, self.BATCH)))
        return tasks

    def check(self, state, task: Task, report) -> tuple[int, list[str]]:
        if len(report.trials) != task.ops or not all(math.isfinite(t.diff) for t in report.trials):
            return task.ops, ["theorem report is incomplete or has non-finite differences"]
        state["min_diff"] = min(state["min_diff"], *(t.diff for t in report.trials))
        bad = [t for t in report.trials if t.violated]
        return len(bad), [f"trial {t.trial} of chunk {task.kind}: dense set scores {t.diff!r} lower"
                   for t in bad]

    def report(self, state) -> dict:
        return {"min_dense_minus_sparse": state["min_diff"]}


# -- loss_large ---------------------------------------------------------------

def reference_terms(preds, gts, n: int) -> tuple[dict[int, float], dict[int, float]]:
    """Per-level l2 and residual-form l_diff from plain numpy, independent of pml.loss."""
    level = preds[0].level
    d = np.stack([p.data for p in preds]) - np.stack([g.data for g in gts])
    batch = d.shape[0]
    pooled, l2 = {}, {}
    for i in sorted(set(range(n + 1)) | {level}):
        f = 1 << (level - i)
        pooled[i] = d.reshape(batch, 1 << i, f, 1 << i, f).sum(axis=(2, 4))
        l2[i] = float(np.mean(np.sum(pooled[i] ** 2, axis=(1, 2))))
    ldiff = {}
    for j in range(1, n + 1):
        spread = 0.25 * pooled[j - 1].repeat(2, axis=1).repeat(2, axis=2)
        ldiff[j] = float(np.mean(np.sum((pooled[j] - spread) ** 2, axis=(1, 2))))
    return l2, ldiff


TERM_TOL = 1e-9  # allowed difference of a loss term, as a share of its level's l2


def check_loss_terms(bd, ll, ref_l2, ref_ldiff) -> list[str]:
    """Each term against the numpy reference, within ``TERM_TOL`` of that level's l2."""
    errors = []
    for i, want in ref_l2.items():
        got = bd.l2_per_level.get(i, math.nan)
        if not abs(got - want) <= TERM_TOL * want:
            errors.append(f"l2 level {i}: {got!r} vs reference {want!r}")
    for j, want in ref_ldiff.items():
        got = bd.ldiff_per_pair.get((j - 1, j), math.nan)
        if not abs(got - want) <= TERM_TOL * ref_l2[j]:
            errors.append(f"l_diff ({j - 1},{j}): {got!r} vs residual form {want!r}")
    if not math.isfinite(bd.total):
        errors.append(f"total loss {bd.total!r} is not finite")
    if not math.isfinite(ll.loglik):
        errors.append(f"log-likelihood {ll.loglik!r} is not finite")
    return errors


class LossLarge:
    name = "loss_large"
    op_unit = "loss+gradient and likelihood pair"
    trace_blocks = 8
    carried = ()  # check tallies kept across set-ups
    # numpy passes over 8-32 MiB arrays slow down on a busy host about as much as the probe's
    # matrix product and less than interpreter code (README.md)
    probe_part = "blas"
    # (level, maps, n): fixed for every seed so the array traffic is the same
    CONFIGS = ((9, 8, 6), (9, 4, 5), (8, 16, 6), (8, 8, 4))

    def setup(self, seed: int, workdir: Path):
        batches = [scene_maps(seed, level, maps, 8, (20, 60))[:2] + (n,)
                   for level, maps, n in self.CONFIGS]
        warm_preds, warm_gts, _ = scene_maps(seed, 6, 2, 5, (4, 24))
        self._op(warm_preds, warm_gts, 4)
        return {"batches": batches, "references": {}}

    @staticmethod
    def _op(preds, gts, n):
        bd, _ = loss.loss_value_and_gradient(preds, gts, n)
        ll = likelihood.log_likelihood(preds, gts, ResolutionSet.dense(n, preds[0].level))
        return bd, ll

    def block(self, state, index: int) -> list[Task]:
        return [Task(f"config{k}", 1, lambda b=b: self._op(*b))
                for k, b in enumerate(state["batches"])]

    def check(self, state, task: Task, output) -> tuple[int, list[str]]:
        k = int(task.kind[len("config"):])
        preds, gts, n = state["batches"][k]
        if k not in state["references"]:
            state["references"][k] = reference_terms(preds, gts, n)
        errors = check_loss_terms(*output, *state["references"][k])
        return (1 if errors else 0), errors

    def report(self, state) -> dict:
        return {"input_bytes_per_config": [
            sum(m.data.nbytes for m in preds) + sum(m.data.nbytes for m in gts)
            for preds, gts, _ in state["batches"]]}


# -- cli_io -------------------------------------------------------------------

@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    argv: tuple[str, ...]


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), tuple(argv))


def check_cli(output: CliOutput, expected) -> list[str]:
    """Exit code 0, plus the command's own expectation (a callable on the output)."""
    if output.code != 0:
        return [f"pml {' '.join(output.argv)} exited {output.code}"]
    return expected(output)


def _expect_json_total(total: float):
    def expected(out: CliOutput) -> list[str]:
        got = json.loads(out.stdout.strip().splitlines()[-1])["total"]
        return [] if got == total else [f"loss --json total {got!r} != in-process {total!r}"]
    return expected


def _expect_line(prefix: str, value: float):
    def expected(out: CliOutput) -> list[str]:
        lines = [ln for ln in out.stdout.splitlines() if ln.startswith(prefix)]
        got = float(lines[0][len(prefix):]) if lines else math.nan
        return [] if got == value else [f"{prefix.strip()} {got!r} != in-process {value!r}"]
    return expected


def _expect_files(files: dict[Path, np.ndarray]):
    def expected(out: CliOutput) -> list[str]:
        errors = []
        for path, want in files.items():
            got = dmapio.read_dmap(path).data
            if got.shape != want.shape or not np.array_equal(got, want):
                errors.append(f"{path.name} does not read back bit-exactly")
        return errors
    return expected


class CliIo:
    name = "cli_io"
    op_unit = "CLI call"
    trace_blocks = 12
    carried = ()  # check tallies kept across set-ups
    probe_part = "interpreter"  # host-probe part whose slowdowns this workload follows
    LEVEL, MAPS, N = 8, 4, 4
    PYRAMID_LEVELS = (0, 2, 4, 6, 8)

    def setup(self, seed: int, workdir: Path):
        root = workdir / f"cli_io-{seed}"
        shutil.rmtree(root, ignore_errors=True)
        for sub in ("preds", "gts", "points", "out"):
            (root / sub).mkdir(parents=True)
        preds, gts, points = scene_maps(seed, self.LEVEL, self.MAPS, 5, (10, 40))
        for b in range(self.MAPS):
            dmapio.write_dmap(root / "preds" / f"{b:02d}.dmap", preds[b])
            dmapio.write_dmap(root / "gts" / f"{b:02d}.dmap", gts[b])
            dmapio.write_points_csv(root / "points" / f"{b:02d}.csv", points[b])
        return {
            "root": root, "gts": gts,
            "total": loss.total_loss(preds, gts, self.N).total,
            "mae": evaluate(preds, gts).mae,
        }

    def block(self, state, index: int) -> list[Task]:
        root, k = state["root"], index % self.MAPS
        levels = ",".join(map(str, self.PYRAMID_LEVELS))
        gt = state["gts"][k]
        pyr = {root / "out" / f"level_{m.level}.dmap": m.data
               for m in build_pyramid(gt, self.PYRAMID_LEVELS)}
        raster = root / "out" / "raster.dmap"
        commands = (
            ("loss", ["loss", "--pred", str(root / "preds"), "--gt", str(root / "gts"),
                      "--n", str(self.N), "--json"], _expect_json_total(state["total"])),
            ("eval", ["eval", "--pred-dir", str(root / "preds"), "--gt-dir", str(root / "gts")],
             _expect_line("MAE = ", state["mae"])),
            ("pyramid", ["pyramid", "--map", str(root / "gts" / f"{k:02d}.dmap"),
                         "--levels", levels, "--out-dir", str(root / "out")], _expect_files(pyr)),
            ("rasterize", ["rasterize", "--points", str(root / "points" / f"{k:02d}.csv"),
                           "--scene-size", "1.0", "--level", str(self.LEVEL), "--out", str(raster)],
             _expect_files({raster: gt.data})),
        )
        return [Task(kind, 1, lambda argv=argv: run_cli(argv), expected)
                for kind, argv, expected in commands]

    def check(self, state, task: Task, output: CliOutput) -> tuple[int, list[str]]:
        errors = check_cli(output, task.expected)
        return (1 if errors else 0), errors

    def report(self, state) -> dict:
        return {"files_per_loss_call": 2 * self.MAPS, "map_level": self.LEVEL}

    def teardown(self, state) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainPair(), Theorem(), LossLarge(), CliIo())}
