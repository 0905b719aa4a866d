"""Command-line surface: one binary, flag-configured subcommands.

Exit codes: 0 success, 1 usage or input error, 2 validation/property failure
(gradient check over tolerance, theorem violations, a training run whose loss
stops being finite). Every run echoes its fully resolved configuration before
producing output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import dmapio
from .likelihood import verify_theorem
from .loss import fd_loss_gradient, loss_gradient, pml_loss, total_loss
from .metrics import BenchmarkConfig, ablation_run, compare_pml_vs_l2, evaluate, run_benchmark_cell
from .pyramid import build_pyramid, rasterize
from .rng import SplitMix64
from .synth import TrainingDiverged


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo(name: str, args: argparse.Namespace) -> None:
    pairs = sorted((k, v) for k, v in vars(args).items() if k != "func")
    print(f"# pml {name} " + " ".join(f"{k}={v}" for k, v in pairs))


# an optional sign, then ASCII digits: Python's int also takes 1_0, non-ASCII digits and spaces
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


# grad-check's finite differences make 4^level loss calls per map: level 8 took 131 s
# on one core of a 2-vCPU x86-64 host
_GRAD_CHECK_MAX_LEVEL = 8


def _grad_check_level(text: str) -> int:
    if not _INTEGER.fullmatch(text) or not 0 <= int(text) <= _GRAD_CHECK_MAX_LEVEL:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [0, {_GRAD_CHECK_MAX_LEVEL}], got {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    items = text.split(",")
    if not all(map(_INTEGER.fullmatch, items)):  # an empty item fails too
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return [int(item) for item in items]


def _number(text: str) -> float:
    """A float in the file readers' grammar, which rejects 1_0 and non-ASCII digits."""
    try:
        return dmapio.parse_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _tolerance(text: str) -> float:
    try:
        value = dmapio.parse_float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _cmd_rasterize(args) -> int:
    ann = dmapio.read_points_csv(args.points, args.scene_size)
    m = rasterize(ann, args.level)
    dmapio.write_dmap(args.out, m)
    print(f"wrote {args.out}: level {m.level}, total {m.total():.17g}")
    return 0


def _cmd_pyramid(args) -> int:
    m = dmapio.read_dmap(args.map)
    pyr = build_pyramid(m, args.levels)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for level_map in pyr:
        path = outdir / f"level_{level_map.level}.dmap"
        dmapio.write_dmap(path, level_map)
        print(f"level {level_map.level}: total {level_map.total():.17g} -> {path}")
    return 0


def _cmd_loss(args) -> int:
    preds = dmapio.read_dmap_batch(args.pred)
    gts = [g.require_nonnegative() for g in dmapio.read_dmap_batch(args.gt)]
    if args.no_reg:
        bd = pml_loss(preds, gts, args.n)
    else:
        bd = total_loss(preds, gts, args.n)
    flat = bd.to_flat_dict()
    if args.json:
        print(json.dumps(flat, sort_keys=True))
    else:
        for k in flat:
            print(f"{k} = {flat[k]:.17g}")
    return 0


def _cmd_grad_check(args) -> int:
    side = 1 << args.level
    batch = 2
    rng = SplitMix64(args.seed)
    pred, gt = rng.uniform_block(2 * batch * side * side).reshape(2, batch, side, side)
    analytic = loss_gradient(pred, gt, args.n)
    numeric = fd_loss_gradient(lambda ps: total_loss(ps, gt, args.n).total, pred)
    err = float(np.max(np.abs(analytic - numeric))) / float(np.max(np.abs(numeric)))
    print(f"max relative error: {err:.6e} (tolerance {args.tol:g})")
    if not err <= args.tol:  # a NaN error fails too
        print("grad-check: FAIL", file=sys.stderr)
        return 2
    print("grad-check: OK")
    return 0


def _cmd_verify_theorem(args) -> int:
    report = verify_theorem(args.trials, args.seed, args.level, args.nk)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.out}")
    print(f"violations: {report.violations}")
    return 2 if report.violations else 0


def _cmd_train_demo(args) -> int:
    cfg = BenchmarkConfig(steps=args.steps, lr=args.lr, clip_norm=args.clip, n=args.n)
    run = run_benchmark_cell(cfg, args.seed, args.loss)
    with open(args.out, "w") as fh:
        fh.write(run.result.trace_csv())
    first = run.result.rows[0].loss
    last = run.result.rows[-1].loss
    print(f"wrote {args.out}")
    print(f"loss: first {first:.17g} last {last:.17g}")
    print(f"test MAE {run.metrics.mae:.17g} MSE {run.metrics.mse:.17g}")
    return 0


def _cell(run) -> str:
    return f"n={run.n},reg={'on' if run.with_regularizer else 'off'}"


def _cmd_ablate(args) -> int:
    cfg = BenchmarkConfig(steps=args.steps)
    sweep = ablation_run(args.seed, args.n_values, repeats=args.repeats, cfg=cfg)
    by_cell: dict[str, list[float]] = {}
    with open(args.out, "w") as fh:
        fh.write("cell,repeat,mae,mse\n")
        for repeat, runs in enumerate(sweep):
            for run in runs:
                fh.write(f"{_cell(run)},{repeat},{run.metrics.mae:.17g},{run.metrics.mse:.17g}\n")
                by_cell.setdefault(_cell(run), []).append(run.metrics.mae)
    print(f"wrote {args.out}")
    print(f"{'cell':<14} {'mean MAE':>12} {'std MAE':>12}")
    for cell, maes in sorted(by_cell.items()):
        print(f"{cell:<14} {np.mean(maes):>12.4f} {np.std(maes):>12.4f}")
    return 0


def _cmd_compare(args) -> int:
    cfg = BenchmarkConfig(steps=args.steps, n=args.n)
    pairs = compare_pml_vs_l2(args.seeds, cfg)
    cols = ("mae_pml", "mse_pml", "mae_l2", "mse_l2")
    rows = [(pml.base_seed, (pml.metrics.mae, pml.metrics.mse, l2.metrics.mae, l2.metrics.mse))
            for pml, l2 in pairs]
    print(f"{'seed':>8} " + " ".join(f"{c:>10}" for c in cols))
    for seed, values in rows:
        print(f"{seed:>8} " + " ".join(f"{v:>10.3f}" for v in values))
    means = [np.mean(column) for column in zip(*(values for _, values in rows))]
    print(f"{'mean':>8} " + " ".join(f"{m:>10.3f}" for m in means))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("seed," + ",".join(cols) + "\n")
            for seed, values in rows:
                fh.write(f"{seed}," + ",".join(f"{v:.17g}" for v in values) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    preds = dmapio.read_dmap_batch(args.pred_dir)
    gts = [g.require_nonnegative() for g in dmapio.read_dmap_batch(args.gt_dir)]
    summary = evaluate(preds, gts)
    print(f"samples: {len(summary.per_sample)}")
    print(f"MAE = {summary.mae:.17g}")
    print(f"MSE = {summary.mse:.17g}")
    return 0


def _build_parser() -> _Parser:
    defaults = BenchmarkConfig()
    parser = _Parser(prog="pml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rasterize", help="count a point CSV into a density map")
    p.add_argument("--points", required=True)
    p.add_argument("--scene-size", type=_number, required=True)
    p.add_argument("--level", type=_integer, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rasterize)

    p = sub.add_parser("pyramid", help="write sum-downsamples of a map at given levels")
    p.add_argument("--map", required=True)
    p.add_argument("--levels", type=_int_list, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pyramid)

    p = sub.add_parser("loss", help="evaluate the loss between predictions and ground truth")
    p.add_argument("--pred", required=True, help=".dmap file or directory of them")
    p.add_argument("--gt", required=True)
    p.add_argument("--n", type=_integer, default=defaults.n)
    p.add_argument("--no-reg", action="store_true", help="drop the full-resolution L2 term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("grad-check", help="compare analytic and finite-difference gradients")
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--level", type=_grad_check_level, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-5)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("verify-theorem", help="randomized sparse-vs-dense likelihood comparison")
    p.add_argument("--trials", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--level", type=_integer, required=True)
    p.add_argument("--nk", type=_integer, required=True)
    p.add_argument("--out", default=None, help="write the per-trial CSV here")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("train-demo", help="train the synthetic benchmark once")
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--loss", choices=("pml", "l2"), required=True)
    p.add_argument("--n", type=_integer, default=defaults.n)
    p.add_argument("--lr", type=_number, default=defaults.lr)
    p.add_argument("--clip", type=_number, default=defaults.clip_norm, help="0 turns clipping off")
    p.add_argument("--out", required=True, help="metrics trace CSV")
    p.set_defaults(func=_cmd_train_demo)

    p = sub.add_parser("ablate", help="sweep n and the regularizer flag")
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--n-values", type=_int_list, default=[0, 1, 2, 3, 4, 5])
    p.add_argument("--repeats", type=_integer, default=1)
    p.add_argument("--steps", type=_integer, default=defaults.steps)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("compare", help="per-seed test MAE/MSE of the pml loss vs plain L2")
    p.add_argument("--seeds", type=_int_list, default=[101, 202, 303])
    p.add_argument("--steps", type=_integer, default=defaults.steps)
    p.add_argument("--n", type=_integer, default=defaults.n)
    p.add_argument("--out", default=None, help="write the per-seed CSV here")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("eval", help="counting MAE/MSE between two map directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    _echo(args.command, args)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
