import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pml
from conftest import traced_peak
from pml.cli import main
from pml.dmapio import read_dmap, write_dmap
from pml.metrics import BenchmarkConfig, run_benchmark_cell
from pml.pyramid import DensityMap, PointAnnotations, rasterize
from pml.rng import SplitMix64, derive_seed


def _write_map(path, level, seed):
    m = DensityMap(level, SplitMix64(seed).uniform_block(4 ** level).reshape(1 << level, 1 << level))
    write_dmap(path, m)
    return m


class TestLossCommand:
    def test_perfect_fit_total_is_log_guard(self, tmp_path, capsys):
        m = _write_map(tmp_path / "p.dmap", 2, 1)
        write_dmap(tmp_path / "g.dmap", m)
        code = main(["loss", "--pred", str(tmp_path / "p.dmap"), "--gt", str(tmp_path / "g.dmap"),
                     "--n", "0"])
        assert code == 0
        out = capsys.readouterr().out
        total = next(float(l.split("=")[1]) for l in out.splitlines() if l.startswith("total ="))
        assert total == pytest.approx(math.log(1e-12), rel=1e-12)

    def test_json_output(self, tmp_path, capsys):
        _write_map(tmp_path / "p.dmap", 2, 2)
        _write_map(tmp_path / "g.dmap", 2, 3)
        code = main(["loss", "--pred", str(tmp_path / "p.dmap"), "--gt", str(tmp_path / "g.dmap"),
                     "--n", "1", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])
        assert payload["total"] == pytest.approx(payload["pml"] + payload["regularizer"])

    def test_no_reg_drops_regularizer(self, tmp_path, capsys):
        _write_map(tmp_path / "p.dmap", 2, 2)
        _write_map(tmp_path / "g.dmap", 2, 3)
        main(["loss", "--pred", str(tmp_path / "p.dmap"), "--gt", str(tmp_path / "g.dmap"),
              "--n", "1", "--no-reg", "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["regularizer"] == 0.0

    def test_directory_batches(self, tmp_path, capsys):
        (tmp_path / "preds").mkdir()
        (tmp_path / "gts").mkdir()
        for i in range(3):
            _write_map(tmp_path / "preds" / f"{i}.dmap", 2, 10 + i)
            _write_map(tmp_path / "gts" / f"{i}.dmap", 2, 20 + i)
        code = main(["loss", "--pred", str(tmp_path / "preds"), "--gt", str(tmp_path / "gts"),
                     "--n", "2"])
        assert code == 0

    def test_negative_gt_rejected(self, tmp_path, capsys):
        _write_map(tmp_path / "p.dmap", 1, 1)
        write_dmap(tmp_path / "g.dmap", DensityMap(1, [[-1.0, 0.0], [0.0, 0.0]]))
        code = main(["loss", "--pred", str(tmp_path / "p.dmap"), "--gt", str(tmp_path / "g.dmap"),
                     "--n", "0"])
        assert code == 1
        assert "negative" in capsys.readouterr().err


    def test_directory_peak(self, tmp_path, capsys):
        # four level-8 pairs of density predictions and count-map ground truths, 4 MiB of
        # maps: the loss streams the residual, and each file is read line by line
        for sub in ("preds", "gts"):
            (tmp_path / sub).mkdir()
        rng = SplitMix64(40)
        for i in range(4):
            pred = rng.uniform_block(1 << 16, 0.0, 1e-3).reshape(256, 256)
            points = PointAnnotations(rng.uniform_block(60).reshape(30, 2), 1.0)
            write_dmap(tmp_path / "preds" / f"{i:02d}.dmap", DensityMap(8, pred))
            write_dmap(tmp_path / "gts" / f"{i:02d}.dmap", rasterize(points, 8))
        argv = ["loss", "--pred", str(tmp_path / "preds"), "--gt", str(tmp_path / "gts"),
                "--n", "4", "--json"]
        assert main(argv) == 0
        peak = traced_peak(lambda: main(argv)) / 2 ** 20
        capsys.readouterr()
        print(f"pml loss over four level-8 pairs: peak {peak:.2f} MiB")
        assert peak <= 5.0, f"pml loss over four level-8 pairs: peak {peak:.2f} MiB"


class TestGradCheckCommand:
    def test_passes_at_stated_tolerance(self, capsys):
        code = main(["grad-check", "--seed", "7", "--level", "3", "--n", "2", "--tol", "1e-5"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_impossible_tolerance_fails_with_code_2(self, capsys):
        code = main(["grad-check", "--seed", "7", "--level", "3", "--n", "2", "--tol", "1e-30"])
        assert code == 2

    def test_nan_error_fails_with_code_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "pml.cli.fd_loss_gradient", lambda f, preds: np.full_like(preds, np.nan)
        )
        code = main(["grad-check", "--seed", "7", "--level", "3", "--n", "2", "--tol", "1e-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "max relative error: nan" in captured.out
        assert "OK" not in captured.out
        assert "FAIL" in captured.err

    @pytest.mark.parametrize("seed, level, error", [
        (1, 2, "1.121846e-10"), (1, 3, "2.121045e-09"), (1, 4, "4.385494e-09"),
        (1, 5, "2.209440e-08"), (7, 2, "1.933250e-10"), (7, 3, "1.678474e-09"),
        (7, 4, "4.870514e-09"), (7, 5, "3.283249e-08"),
    ])
    def test_printed_error_is_pinned(self, capsys, seed, level, error):
        # both batches come from one draw of 2 * batch * side**2 values;
        # the same on both float64 dispatch levels
        code = main(["grad-check", "--seed", str(seed), "--level", str(level),
                     "--n", str(level - 1)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"max relative error: {error} (tolerance 1e-05)"

    @pytest.mark.parametrize("level", ["-1", "9", "20", "x", ""])
    def test_level_outside_zero_to_eight_is_a_usage_error(self, capsys, monkeypatch, level):
        # a negative level once reached the draw as "negative shift count", and the
        # finite differences cost 4^level loss calls per map (level 8 takes minutes)
        def no_draw(seed):
            raise AssertionError("the level was not checked before the draw")

        monkeypatch.setattr("pml.cli.SplitMix64", no_draw)
        code = main(["grad-check", "--seed", "1", "--level", level, "--n", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"usage error: argument --level: expected an integer in [0, 8], got {level!r}\n")

    @pytest.mark.parametrize("level", ["0", "8", "+8"])
    def test_levels_zero_to_eight_are_accepted(self, capsys, monkeypatch, level):
        # stand-in gradients keep level 8 as fast as level 0
        monkeypatch.setattr("pml.cli.loss_gradient", lambda preds, gt, n: np.ones_like(preds))
        monkeypatch.setattr("pml.cli.fd_loss_gradient", lambda f, preds: np.ones_like(preds))
        code = main(["grad-check", "--seed", "1", "--level", level, "--n", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert f" level={int(level)} " in out.splitlines()[0]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "x"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        code = main(["grad-check", "--seed", "7", "--level", "3", "--n", "2", "--tol", tol])
        assert code == 1
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err


class TestVerifyTheoremCommand:
    def test_no_violations(self, tmp_path, capsys):
        out_csv = tmp_path / "trials.csv"
        code = main(["verify-theorem", "--trials", "50", "--seed", "42", "--level", "4",
                     "--nk", "2", "--out", str(out_csv)])
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "trial,loglik_N,loglik_Nprime,diff,violated"
        assert len(lines) == 51

    def test_deterministic_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["verify-theorem", "--trials", "20", "--seed", "9", "--level", "4", "--nk", "2",
              "--out", str(a)])
        main(["verify-theorem", "--trials", "20", "--seed", "9", "--level", "4", "--nk", "2",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRasterizeCommand:
    def test_round_trip_bit_for_bit(self, tmp_path, capsys):
        pts = SplitMix64(5).uniform_block(40).reshape(20, 2) * 2.0
        csv = tmp_path / "pts.csv"
        csv.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts))
        out = tmp_path / "m.dmap"
        code = main(["rasterize", "--points", str(csv), "--scene-size", "2.0",
                     "--level", "3", "--out", str(out)])
        assert code == 0
        direct = rasterize(PointAnnotations(pts, 2.0), 3)
        assert np.array_equal(read_dmap(out).data, direct.data)
        assert read_dmap(out).total() == 20.0

    def test_output_path_is_a_directory(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("0.5,0.5\n")
        code = main(["rasterize", "--points", str(csv), "--scene-size", "1.0",
                     "--level", "2", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("size", ["nan", "-1", "0"])
    def test_invalid_scene_size_blames_the_size_not_a_point(self, tmp_path, capsys, size):
        # the size is checked before any point is compared with it, so no valid point is blamed
        csv, out = tmp_path / "p.csv", tmp_path / "o.dmap"
        csv.write_text("x,y\n0.5,0.5\n")
        assert main(["rasterize", "--points", str(csv), "--scene-size", size,
                     "--level", "2", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: scene_size must be finite and > 0, got {float(size)}\n")

    def test_parse_error_reports_line(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("0.5,0.5\nbroken\n")
        code = main(["rasterize", "--points", str(csv), "--scene-size", "1.0",
                     "--level", "2", "--out", str(tmp_path / "m.dmap")])
        assert code == 1
        assert ":2:" in capsys.readouterr().err


class TestPyramidCommand:
    def test_writes_levels(self, tmp_path, capsys):
        _write_map(tmp_path / "m.dmap", 3, 4)
        code = main(["pyramid", "--map", str(tmp_path / "m.dmap"), "--levels", "0,1,3",
                     "--out-dir", str(tmp_path / "pyr")])
        assert code == 0
        for lvl in (0, 1, 3):
            assert (tmp_path / "pyr" / f"level_{lvl}.dmap").exists()
        src = read_dmap(tmp_path / "m.dmap")
        coarse = read_dmap(tmp_path / "pyr" / "level_0.dmap")
        assert coarse.total() == pytest.approx(src.total(), rel=1e-12)


    def test_output_dir_is_a_file(self, tmp_path, capsys):
        _write_map(tmp_path / "m.dmap", 2, 4)
        code = main(["pyramid", "--map", str(tmp_path / "m.dmap"), "--levels", "0,1",
                     "--out-dir", str(tmp_path / "m.dmap")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_key_error_is_a_fault_not_an_input_error(self, tmp_path, monkeypatch):
        # no command raises KeyError from its input, so one is a bug and propagates
        def fault(*args):
            raise KeyError("fault")

        monkeypatch.setattr("pml.cli.build_pyramid", fault)
        _write_map(tmp_path / "m.dmap", 2, 4)
        with pytest.raises(KeyError, match="fault"):
            main(["pyramid", "--map", str(tmp_path / "m.dmap"), "--levels", "0",
                  "--out-dir", str(tmp_path / "pyr")])


class TestTrainDemoCommand:
    def test_writes_deterministic_trace(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["train-demo", "--seed", "1", "--steps", "6", "--loss", "pml", "--n", "2",
                "--lr", "1e-3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm,clipped,val_mae,val_mse"
        assert len(lines) == 7


    def test_defaults_come_from_the_benchmark_config(self, tmp_path, capsys):
        assert main(["train-demo", "--seed", "1", "--steps", "1", "--loss", "l2",
                     "--out", str(tmp_path / "t.csv")]) == 0
        echo = capsys.readouterr().out.splitlines()[0].split()
        assert "lr=0.001" in echo and "clip=10.0" in echo and "n=4" in echo


    @pytest.mark.parametrize("loss", ["l2", "pml"])
    def test_n_above_the_map_level_is_input_error(self, tmp_path, capsys, loss):
        out = tmp_path / "t.csv"
        assert main(["train-demo", "--seed", "1", "--steps", "1", "--loss", loss, "--n", "99",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "n = 99 exceeds prediction level 6" in capsys.readouterr().err

    def test_diverged_run_is_a_property_failure(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["train-demo", "--seed", "1", "--steps", "3", "--loss", "pml", "--lr", "1e300",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "error: non-finite loss inf at step 2" in capsys.readouterr().err

    def test_diverged_run_exits_2_without_a_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(pml.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pml.cli", "train-demo",
             "--seed", "1", "--steps", "3", "--loss", "pml", "--lr", "1e300",
             "--out", str(tmp_path / "t.csv")],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 2
        assert "error: non-finite loss inf at step 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--lr", "--clip"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
    def test_non_finite_or_negative_lr_and_clip_are_usage_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "t.csv"
        assert main(["train-demo", "--seed", "1", "--steps", "1", "--loss", "pml", flag, value,
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        if value == "x":
            assert f"argument {flag}: expected a number, got 'x'" in err
        else:
            name = {"--lr": "lr", "--clip": "clip_norm"}[flag]
            assert f"error: {name} must be finite and >= 0, got {float(value)}" in err


class TestAblateCommand:
    def test_writes_table(self, tmp_path, capsys):
        # the CSV and the summary hold exactly the metrics of the matching direct cells
        out = tmp_path / "ablate.csv"
        code = main(["ablate", "--seed", "3", "--n-values", "2,1", "--repeats", "2",
                     "--steps", "4", "--out", str(out)])
        assert code == 0
        cfg = BenchmarkConfig(steps=4)
        csv = ["cell,repeat,mae,mse"]
        maes = {}
        for repeat in range(2):
            for n in (2, 1):
                for kind, flag in (("pml", "on"), ("pml_noreg", "off")):
                    metrics = run_benchmark_cell(replace(cfg, n=n), derive_seed(3, repeat),
                                                 kind).metrics
                    csv.append(f"n={n},reg={flag},{repeat},{metrics.mae:.17g},{metrics.mse:.17g}")
                    maes.setdefault(f"n={n},reg={flag}", []).append(metrics.mae)
        assert out.read_text() == "\n".join(csv) + "\n"
        summary = [f"{'cell':<14} {'mean MAE':>12} {'std MAE':>12}"]
        for cell in ("n=1,reg=off", "n=1,reg=on", "n=2,reg=off", "n=2,reg=on"):
            summary.append(f"{cell:<14} {np.mean(maes[cell]):>12.4f} {np.std(maes[cell]):>12.4f}")
        assert capsys.readouterr().out.splitlines()[1:] == [f"wrote {out}"] + summary

    def test_zero_repeats_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "ablate.csv"
        code = main(["ablate", "--seed", "3", "--n-values", "0", "--repeats", "0",
                     "--steps", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "repeats must be >= 1" in capsys.readouterr().err


class TestCompareCommand:
    def test_writes_per_seed_table(self, tmp_path, capsys):
        # the CSV and the table hold exactly the metrics of the matching direct cells
        out = tmp_path / "compare.csv"
        code = main(["compare", "--seeds", "4,3", "--steps", "4", "--n", "2", "--out", str(out)])
        assert code == 0
        cfg = BenchmarkConfig(steps=4, n=2)
        rows = {}
        for seed in (4, 3):
            pml_metrics, l2_metrics = (run_benchmark_cell(cfg, seed, kind).metrics
                                       for kind in ("pml", "l2"))
            rows[seed] = (pml_metrics.mae, pml_metrics.mse, l2_metrics.mae, l2_metrics.mse)
        csv = ["seed,mae_pml,mse_pml,mae_l2,mse_l2"]
        csv += [f"{seed}," + ",".join(f"{v:.17g}" for v in rows[seed]) for seed in (4, 3)]
        assert out.read_text() == "\n".join(csv) + "\n"
        table = ["    seed    mae_pml    mse_pml     mae_l2     mse_l2"]
        table += [f"{seed:>8} " + " ".join(f"{v:>10.3f}" for v in rows[seed]) for seed in (4, 3)]
        table.append("    mean " + " ".join(f"{np.mean([rows[4][k], rows[3][k]]):>10.3f}"
                                          for k in range(4)))
        assert capsys.readouterr().out.splitlines()[1:] == table + [f"wrote {out}"]


class TestEvalCommand:
    def test_reports_counting_errors(self, tmp_path, capsys):
        (tmp_path / "preds").mkdir()
        (tmp_path / "gts").mkdir()
        write_dmap(tmp_path / "preds" / "0.dmap", DensityMap(0, [[10.0]]))
        write_dmap(tmp_path / "preds" / "1.dmap", DensityMap(0, [[12.0]]))
        write_dmap(tmp_path / "gts" / "0.dmap", DensityMap(0, [[11.0]]))
        write_dmap(tmp_path / "gts" / "1.dmap", DensityMap(0, [[11.0]]))
        code = main(["eval", "--pred-dir", str(tmp_path / "preds"), "--gt-dir", str(tmp_path / "gts")])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAE = 1" in out
        assert "MSE = 1" in out


class TestUsageAndConfigEcho:
    def test_unknown_flag_rejected(self, capsys):
        assert main(["loss", "--pred", "x", "--gt", "y", "--frobnicate"]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        (["pyramid", "--map", "m.dmap", "--out-dir", "out"], "--levels", "0,,2"),
        (["ablate", "--seed", "1", "--out", "a.csv"], "--n-values", "0,1,"),
        (["compare"], "--seeds", ",101"),
        (["compare"], "--seeds", ""),
    ], ids=["inner", "trailing", "leading", "only"])
    def test_empty_list_item_is_usage_error(self, tmp_path, monkeypatch, capsys, command, flag,
                                            value):
        monkeypatch.chdir(tmp_path)
        assert main(command + [flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: argument {flag}: expected comma-separated integers, got {value!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value, message", [
        (["pyramid", "--map", "m.dmap", "--out-dir", "out"], "--levels", "\u0663,1_0",
         "expected comma-separated integers"),
        (["ablate", "--seed", "1", "--out", "a.csv"], "--n-values", "0, 1", "expected comma-separated integers"),
        (["grad-check", "--level", "3", "--n", "2"], "--seed", "\u0661", "expected an integer"),
        (["grad-check", "--seed", "1", "--n", "2"], "--level", "\u0663",
         "expected an integer in [0, 8]"),
        (["grad-check", "--seed", "1", "--level", "3"], "--n", "\uff12", "expected an integer"),
        (["verify-theorem", "--seed", "1", "--level", "3", "--nk", "1"], "--trials", "1_0",
         "expected an integer"),
        (["compare"], "--steps", " 5", "expected an integer"),
        (["grad-check", "--seed", "1", "--level", "3", "--n", "2"], "--tol", "\u0661e-5",
         "tolerance must be finite and >= 0"),
        (["rasterize", "--points", "p.csv", "--level", "2", "--out", "m.dmap"], "--scene-size",
         "1_0", "expected a number"),
        (["train-demo", "--seed", "1", "--steps", "1", "--loss", "pml", "--out", "t.csv"], "--lr",
         "1_0e-3", "expected a number"),
        (["train-demo", "--seed", "1", "--steps", "1", "--loss", "pml", "--out", "t.csv"],
         "--clip", "\uff11", "expected a number"),
    ], ids=["levels", "n-values", "seed", "level", "n", "trials", "steps", "tol", "scene-size",
            "lr", "clip"])
    def test_numbers_outside_the_file_grammar_are_usage_errors(self, tmp_path, monkeypatch, capsys,
                                                               command, flag, value, message):
        # integers are an optional sign and ASCII digits, floats the file readers' np.loadtxt
        # grammar: Python's int and float would read 1_0, spaces and non-ASCII digits
        monkeypatch.chdir(tmp_path)
        assert main(command + [flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: argument {flag}: {message}, got {value!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_signed_and_float_spellings_the_grammar_shares(self, tmp_path, capsys):
        assert main(["grad-check", "--seed", "-3", "--level", "+2", "--n", "1", "--tol", "1E-5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "# pml grad-check command=grad-check level=2 n=1 seed=-3 tol=1e-05")
        csv = tmp_path / "pts.csv"
        csv.write_text("0.5,0.5\n")
        assert main(["rasterize", "--points", str(csv), "--scene-size", ".75e+1", "--level", "1",
                     "--out", str(tmp_path / "m.dmap")]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(" scene_size=7.5")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["launch-rockets"]) == 1

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["loss", "--pred", str(tmp_path / "nope.dmap"),
                     "--gt", str(tmp_path / "nope.dmap"), "--n", "0"]) == 1

    @pytest.mark.parametrize("args", [
        ["loss", "--pred", "p.dmap", "--gt", "g.dmap", "--n", "1", "--eps", "1e-12"],
        ["grad-check", "--seed", "7", "--level", "3", "--n", "2", "--eps", "1e-12"],
    ], ids=lambda args: args[0])
    def test_eps_flag_is_gone(self, capsys, args):
        # the log guard is the constant loss.DEFAULT_EPSILON, not a setting
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --eps 1e-12\n"

    @pytest.mark.parametrize("command, name", [
        (["rasterize", "--points", "p.csv", "--scene-size", "1", "--level", "20", "--out", "m.dmap"],
         "rasterize"),
        (["verify-theorem", "--trials", "1", "--seed", "1", "--level", "20", "--nk", "2",
          "--out", "t.csv"], "verify_theorem"),
    ], ids=["rasterize", "verify-theorem"])
    def test_memory_error_is_an_input_error_that_writes_nothing(self, tmp_path, monkeypatch,
                                                                 capsys, command, name):
        # a level-20 grid needs 8 TiB; the stand-in raises numpy's message without allocating
        message = "Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576)"

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(f"pml.cli.{name}", out_of_memory)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.csv").write_text("0.5,0.5\n")
        assert main(command) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_config_echo_header(self, tmp_path, capsys):
        _write_map(tmp_path / "p.dmap", 1, 1)
        _write_map(tmp_path / "g.dmap", 1, 2)
        main(["loss", "--pred", str(tmp_path / "p.dmap"), "--gt", str(tmp_path / "g.dmap"),
              "--n", "0"])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("# pml loss ")
        assert "n=0" in first

    @pytest.mark.parametrize("args", [
        ["rasterize", "--points", "nope.csv", "--scene-size", "1", "--level", "2", "--out", "r.dmap"],
        ["pyramid", "--map", "nope.dmap", "--levels", "0", "--out-dir", "out"],
        ["loss", "--pred", "nope.dmap", "--gt", "nope.dmap"],
        ["grad-check", "--seed", "1", "--level", "2", "--n", "5"],
        ["verify-theorem", "--trials", "0", "--seed", "1", "--level", "3", "--nk", "1"],
        ["train-demo", "--seed", "1", "--steps", "0", "--loss", "pml", "--out", "t.csv"],
        ["ablate", "--seed", "1", "--repeats", "0", "--out", "a.csv"],
        ["compare", "--steps", "0"],
        ["eval", "--pred-dir", "nope", "--gt-dir", "nope"],
    ], ids=lambda args: args[0])
    def test_echo_comes_before_the_command_checks(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 1
        assert capsys.readouterr().out.splitlines()[0].startswith(f"# pml {args[0]} ")
