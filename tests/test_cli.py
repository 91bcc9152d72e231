import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest

from hyperadapt.cli import RunConfig, main, parse_config
from hyperadapt.data import TileSet, save_tiles, synth_filter_bank, synth_spectral_task
from hyperadapt.decomp import load_decomps
from hyperadapt.errors import UsageError
from hyperadapt.filteradapt import decompress, load_adapted
from hyperadapt.nn import load_model
from hyperadapt.tensor import save_tensor


@pytest.fixture()
def bank_files(tmp_path):
    bank = synth_filter_bank(4, 5, seed=0)
    wpath = tmp_path / "bank.tns"
    bpath = tmp_path / "bias.tns"
    save_tensor(bank.weights, str(wpath))
    save_tensor(bank.bias, str(bpath))
    return bank, str(wpath), str(bpath)


def flip_gradient_sign(monkeypatch, block):
    """Make gradient_check see a backward pass whose ``block`` gradient has the wrong sign."""
    from hyperadapt.nn import gradcheck as gc

    real = gc.forward_backward

    def flipped(*args):
        loss, accuracy, grads = real(*args)
        grads[block] = -grads[block]
        return loss, accuracy, grads

    monkeypatch.setattr(gc, "forward_backward", flipped)


def write_config(tmp_path, **overrides):
    base = {
        "method": "cp",
        "rank": 2,
        "epochs": 2,
        "batch": 32,
        "synth_channels": 12,
        "synth_classes": 3,
        "synth_samples": 48,
        "synth_tile": 10,
        "bank_filters": 4,
        "bank_kernel": 3,
        "out_model": str(tmp_path / "model.mdl1"),
        "out_log": str(tmp_path / "log.csv"),
    }
    base.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


class TestDecomposeCmd:
    def test_rank_one_report(self, tmp_path, bank_files, capsys):
        _, wpath, bpath = bank_files
        out = tmp_path / "d.dcp"
        rc = main(["decompose", "--bank", wpath, "--kind", "cp", "--rank", "1",
                   "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "mean relative error" in captured
        _, decomps, errors = load_decomps(str(out))
        assert len(decomps) == 4
        assert errors.max() <= 1e-8  # noiseless synthetic bank is exactly rank one

    def test_tucker_full_rank(self, tmp_path, bank_files):
        _, wpath, _ = bank_files
        out = tmp_path / "d.dcp"
        rc = main(["decompose", "--bank", wpath, "--kind", "tucker", "--rank", "3",
                   "--out", str(out)])
        assert rc == 0
        _, _, errors = load_decomps(str(out))
        assert errors.max() <= 1e-10

    def test_rank_zero_is_usage_error(self, tmp_path, bank_files):
        _, wpath, _ = bank_files
        rc = main(["decompose", "--bank", wpath, "--kind", "cp", "--rank", "0",
                   "--out", str(tmp_path / "d.dcp")])
        assert rc == 2

    def test_negative_restarts_is_usage_error(self, tmp_path, bank_files, capsys):
        _, wpath, _ = bank_files
        rc = main(["decompose", "--bank", wpath, "--kind", "cp", "--rank", "1",
                   "--restarts", "-1", "--out", str(tmp_path / "d.dcp")])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_non_finite_bank_is_numerical_failure(self, tmp_path, capsys, kind):
        weights = synth_filter_bank(4, 5, seed=0).weights
        weights[1, 0, 2, 2] = np.inf
        wpath = tmp_path / "bank.tns"
        save_tensor(weights, str(wpath))
        assert main(["decompose", "--bank", str(wpath), "--kind", kind, "--rank", "2",
                     "--out", str(tmp_path / "d.dcp")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "d.dcp").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["decompose", "--bank", str(tmp_path / "nope.tns"), "--kind", "cp",
                   "--rank", "1", "--out", str(tmp_path / "d.dcp")])
        assert rc == 1


class TestAdaptCmd:
    def test_identity_adaptation_bytes(self, tmp_path, bank_files):
        _, wpath, _ = bank_files
        dcp = tmp_path / "d.dcp"
        adp = tmp_path / "a.adp"
        assert main(["decompose", "--bank", wpath, "--kind", "tucker", "--rank", "2",
                     "--out", str(dcp)]) == 0
        assert main(["adapt", "--decomp", str(dcp), "--channels", "3",
                     "--init", "interp", "--out", str(adp)]) == 0
        _, decomps, _ = load_decomps(str(dcp))
        layer = load_adapted(str(adp))
        source = np.stack([d.reconstruct() for d in decomps])
        assert decompress(layer).tobytes() == source.tobytes()

    def test_wide_adaptation_counts(self, tmp_path, bank_files):
        _, wpath, _ = bank_files
        dcp = tmp_path / "d.dcp"
        adp = tmp_path / "a.adp"
        main(["decompose", "--bank", wpath, "--kind", "cp", "--rank", "2",
              "--out", str(dcp)])
        assert main(["adapt", "--decomp", str(dcp), "--channels", "145",
                     "--out", str(adp)]) == 0
        layer = load_adapted(str(adp))
        assert layer.spectral.size == 4 * 2 * 145

    def test_missing_decomp_is_io_error(self, tmp_path):
        rc = main(["adapt", "--decomp", str(tmp_path / "nope.dcp"), "--channels", "8",
                   "--out", str(tmp_path / "a.adp")])
        assert rc == 1


class TestTrainCmd:
    def test_writes_model_and_log(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg]) == 0
        log = (tmp_path / "log.csv").read_text().splitlines()
        assert log[0] == "epoch,lr,train_loss,test_loss,test_accuracy"
        assert len(log) == 3
        model, meta = load_model(str(tmp_path / "model.mdl1"))
        assert meta["method"] == "cp"
        assert model.in_channels == 12

    def test_checkpoint_metadata_keys(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1, stride=2, padding=1, pool=2, seed=5)
        assert main(["train", "--config", cfg]) == 0
        _, meta = load_model(str(tmp_path / "model.mdl1"))
        assert meta == {"classes": "3", "init": "interp", "method": "cp", "padding": "1",
                        "pool_h": "2", "pool_w": "2", "rank": "2", "seed": "5", "stride": "2"}

    def test_gamma_one_constant_lr_column(self, tmp_path):
        cfg = write_config(tmp_path, gamma=1.0, epochs=3)
        assert main(["train", "--config", cfg]) == 0
        rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
        lrs = {row.split(",")[1] for row in rows}
        assert lrs == {"0.01"}

    def test_same_seed_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", cfg, "--seed", "5"])
        first = (tmp_path / "log.csv").read_bytes()
        main(["train", "--config", cfg, "--seed", "5"])
        assert (tmp_path / "log.csv").read_bytes() == first

    def test_empty_test_tiles_is_io_error(self, tmp_path):
        train_ts, test_ts = synth_spectral_task(6, 2, 8, seed=0, tile=8)
        train_path, test_path = tmp_path / "train.tls", tmp_path / "test.tls"
        save_tiles(train_ts, str(train_path))
        save_tiles(TileSet(test_ts.tiles[:0], test_ts.labels[:0], split="test"), str(test_path))
        cfg = write_config(tmp_path, train_tiles=train_path, test_tiles=test_path)
        assert main(["train", "--config", cfg]) == 1
        assert not (tmp_path / "model.mdl1").exists()

    @pytest.mark.parametrize("hostile", ["negative", "beyond_tile_count"])
    def test_hostile_labels_are_data_errors(self, tmp_path, capsys, hostile):
        train_ts, test_ts = synth_spectral_task(6, 2, 8, seed=0, tile=8)
        n = len(train_ts) + len(test_ts)
        labels = train_ts.labels.copy()
        labels[0] = -1 if hostile == "negative" else n  # n tiles show at most n classes
        train_path, test_path = tmp_path / "train.tls", tmp_path / "test.tls"
        save_tiles(TileSet(train_ts.tiles, labels, split="train"), str(train_path))
        save_tiles(test_ts, str(test_path))
        cfg = write_config(tmp_path, train_tiles=train_path, test_tiles=test_path)
        assert main(["train", "--config", cfg]) == 1
        assert f"labels must lie in [0, {n}) for {n} tiles" in capsys.readouterr().err
        assert not (tmp_path / "model.mdl1").exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("command", [
        ["train"], ["rank-sweep", "--ranks", "1", "--seeds", "1", "--out", "sweep.csv"],
    ], ids=["train", "rank-sweep"])
    def test_non_finite_tile_is_data_error(self, tmp_path, monkeypatch, capsys, command, split,
                                           value):
        monkeypatch.chdir(tmp_path)  # where a sweep would write
        files = {}
        for ts in synth_spectral_task(8, 2, 8, seed=0, tile=8):
            if ts.split == split:
                ts.tiles[3, 5, 1, 2] = value
            files[f"{ts.split}_tiles"] = tmp_path / f"{ts.split}.tls"
            save_tiles(ts, str(files[f"{ts.split}_tiles"]))
        cfg = write_config(tmp_path, **files)
        assert main([command[0], "--config", cfg, *command[1:]]) == 1
        err = capsys.readouterr().err
        want = {"train": "error: channels [5] hold non-finite tile values",
                "test": "error: test tile channels [5] hold non-finite values"}[split]
        assert err.startswith(want), err
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "test.tls", "train.tls"]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("methd = cp\n")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("option", [
        {"stride": 0}, {"padding": -1}, {"restarts": -1}, {"max_iters": 0},
    ])
    def test_bad_run_option_is_usage_error(self, tmp_path, capsys, option):
        cfg = write_config(tmp_path, **option)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
        assert not (tmp_path / "model.mdl1").exists()

    def test_non_finite_test_loss_is_numerical_failure(self, tmp_path, capsys):
        # One batch per epoch, so only the test loss sees the exploded weights.
        cfg = write_config(tmp_path, lr0=1e308, batch=128, epochs=1)
        assert main(["train", "--config", cfg]) == 3
        assert "numerical failure: non-finite test loss" in capsys.readouterr().err
        assert not (tmp_path / "log.csv").exists()
        assert not (tmp_path / "model.mdl1").exists()

    def test_diverging_run_prints_no_numpy_warnings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lr0=1e308, batch=128, epochs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_fewer_channels_than_classes_is_usage_error(self, tmp_path, capsys):
        # The synthetic task gives each class a channel of its own.
        cfg = write_config(tmp_path, synth_channels=2, synth_classes=3)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: synthetic task: need at least one channel per "
                              "class, got 2 channels for 3 classes"), err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_tile_smaller_than_kernel_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_tile=2, bank_kernel=3)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: the first layer's output is empty "
                              "(2x2 tiles, 3x3 kernel, stride 1, padding 0)"), err
        assert os.listdir(tmp_path) == ["run.cfg"]
        # One pixel of padding on each side makes room for the kernel.
        cfg = write_config(tmp_path, synth_tile=2, bank_kernel=3, padding=1, epochs=1)
        assert main(["train", "--config", cfg]) == 0

    @pytest.mark.parametrize("tiles", ["synthetic", "files"])
    def test_pool_larger_than_first_output_is_usage_error(self, tmp_path, capsys, tiles):
        # 10x10 tiles and a 3x3 kernel give an 8x8 first-layer output.
        files = {}
        if tiles == "files":
            for ts in synth_spectral_task(12, 3, 16, seed=0, tile=10):
                files[f"{ts.split}_tiles"] = tmp_path / f"{ts.split}.tls"
                save_tiles(ts, str(files[f"{ts.split}_tiles"]))
        cfg = write_config(tmp_path, pool=9, **files)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: pool (9) must be <= the first layer's output size 8x8")
        assert not (tmp_path / "model.mdl1").exists()
        cfg = write_config(tmp_path, pool=8, epochs=1, **files)
        assert main(["train", "--config", cfg]) == 0

    @pytest.mark.parametrize("command", [
        ["train"], ["rank-sweep", "--ranks", "1", "--seeds", "1", "--out", "sweep.csv"],
    ], ids=["train", "rank-sweep"])
    def test_tile_files_smaller_than_kernel_are_usage_errors(self, tmp_path, monkeypatch, capsys,
                                                             command):
        # 2x2 tiles and a 3x3 kernel leave the first layer no output.
        monkeypatch.chdir(tmp_path)  # where a sweep would write
        files = {}
        for ts in synth_spectral_task(12, 3, 16, seed=0, tile=2):
            files[f"{ts.split}_tiles"] = tmp_path / f"{ts.split}.tls"
            save_tiles(ts, str(files[f"{ts.split}_tiles"]))
        cfg = write_config(tmp_path, **files)
        assert main([command[0], "--config", cfg, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: the first layer's output is empty "
                              "(2x2 tiles, 3x3 kernel, stride 1, padding 0)"), err
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "test.tls", "train.tls"]

    def test_bad_epochs_override_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--epochs", "-1"]) == 2
        assert capsys.readouterr().err.startswith("usage error: epochs must be >= 0")

    def test_bad_method_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, method="pca")
        assert main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize("method", ["tucker", "reduce", "scratch"])
    def test_all_methods_run(self, tmp_path, method):
        cfg = write_config(tmp_path, method=method, epochs=1)
        assert main(["train", "--config", cfg]) == 0


# The sweep of TestRankSweepCmd._tile_config (ranks 1 and 2, two seeds each),
# recorded when every (rank, seed) run still reloaded the tiles and the bank.
SWEEP_DIGEST = "0c2a8ff1a44112af5006c1a0e4a6d557bf6dddcab78f7c84e4b9a9cb26e8c2ab"


class TestRankSweepCmd:
    def test_params_strictly_increasing(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "sweep.csv"
        assert main(["rank-sweep", "--config", cfg, "--ranks", "1,2,3",
                     "--seeds", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "rank,mean_accuracy,sem,trainable_params"
        params = [int(r.split(",")[3]) for r in rows[1:]]
        assert params == sorted(params) and len(set(params)) == 3

    def test_mean_and_sem_match_manual(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "sweep.csv"
        assert main(["rank-sweep", "--config", cfg, "--ranks", "2",
                     "--seeds", "3", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        accs = []
        for s in range(3):
            cfg_s = write_config(tmp_path, epochs=1, seed=s)
            main(["train", "--config", cfg_s])
            accs.append(float((tmp_path / "log.csv").read_text()
                              .splitlines()[-1].split(",")[4]))
        accs = np.array(accs)
        assert float(row[1]) == pytest.approx(accs.mean(), rel=1e-9)
        assert float(row[2]) == pytest.approx(accs.std(ddof=1) / np.sqrt(3), rel=1e-9)

    def _tile_config(self, tmp_path, bank_files):
        train_ts, test_ts = synth_spectral_task(6, 3, 24, seed=0, tile=8)
        save_tiles(train_ts, str(tmp_path / "train.tls"))
        save_tiles(test_ts, str(tmp_path / "test.tls"))
        _, wpath, bpath = bank_files
        return write_config(tmp_path, epochs=3, batch=8, padding=1,
                            train_tiles=tmp_path / "train.tls", test_tiles=tmp_path / "test.tls",
                            bank=wpath, bank_bias=bpath)

    @pytest.mark.recorded_blas
    def test_sweep_csv_is_pinned(self, tmp_path, bank_files):
        cfg = self._tile_config(tmp_path, bank_files)
        out = tmp_path / "sweep.csv"
        assert main(["rank-sweep", "--config", cfg, "--ranks", "1,2",
                     "--seeds", "2", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGEST

    def test_tiles_load_once_per_sweep(self, tmp_path, bank_files, monkeypatch):
        from hyperadapt import cli

        paths = []
        real = cli.load_tiles

        def counting(path):
            paths.append(path)
            return real(path)

        monkeypatch.setattr(cli, "load_tiles", counting)
        cfg = self._tile_config(tmp_path, bank_files)
        assert main(["rank-sweep", "--config", cfg, "--ranks", "1,2",
                     "--seeds", "2", "--out", str(tmp_path / "s.csv")]) == 0
        assert paths == [str(tmp_path / "train.tls"), str(tmp_path / "test.tls")]

    def test_duplicate_ranks_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["rank-sweep", "--config", cfg, "--ranks", "1,1",
                   "--seeds", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_reduce_method_rejected(self, tmp_path):
        cfg = write_config(tmp_path, method="reduce")
        rc = main(["rank-sweep", "--config", cfg, "--ranks", "1,2",
                   "--seeds", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    @pytest.mark.parametrize("ranks, message", [("1,x", "bad rank 'x'"), (",", "no ranks given")])
    def test_bad_rank_list_is_usage_error(self, tmp_path, capsys, ranks, message):
        cfg = write_config(tmp_path)
        rc = main(["rank-sweep", "--config", cfg, "--ranks", ranks,
                   "--seeds", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "s.csv").exists()


def read_pgm(path):
    with open(path, "rb") as f:
        assert f.readline().strip() == b"P5"
        w, h = map(int, f.readline().split())
        assert f.readline().strip() == b"255"
        return np.frombuffer(f.read(), dtype=np.uint8).reshape(h, w)


class TestExportFiltersCmd:
    def _train_model(self, tmp_path, **overrides):
        cfg = write_config(tmp_path, epochs=1, **overrides)
        assert main(["train", "--config", cfg]) == 0
        return str(tmp_path / "model.mdl1")

    def test_one_image_per_filter_plus_composite(self, tmp_path):
        model_path = self._train_model(tmp_path)
        out_dir = tmp_path / "imgs"
        assert main(["export-filters", "--model", model_path,
                     "--out-dir", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["composite.pgm", "filter_000.pgm", "filter_001.pgm",
                         "filter_002.pgm", "filter_003.pgm"]

    def test_zero_filter_is_mid_gray(self, tmp_path):
        model_path = self._train_model(tmp_path)
        model, meta = load_model(model_path)
        model.named_params()["first.spectral"].value[:] = 0.0
        from hyperadapt.nn import save_model

        zero_path = tmp_path / "zero.mdl1"
        save_model(model, str(zero_path), meta)
        out_dir = tmp_path / "zimgs"
        assert main(["export-filters", "--model", str(zero_path),
                     "--out-dir", str(out_dir)]) == 0
        img = read_pgm(out_dir / "filter_000.pgm")
        assert np.array_equal(img, np.full_like(img, 128))

    def test_rank_one_filter_proportional_to_outer_product(self, tmp_path):
        model_path = self._train_model(tmp_path, rank=1)
        model, _ = load_model(model_path)
        out_dir = tmp_path / "rimgs"
        assert main(["export-filters", "--model", model_path,
                     "--out-dir", str(out_dir)]) == 0
        img = read_pgm(out_dir / "filter_000.pgm").astype(np.float64) - 127.5
        x = model.named_params()["first.x"].value[0, :, 0]
        y = model.named_params()["first.y"].value[0, :, 0]
        pattern = np.outer(x, y).ravel()
        corr = np.corrcoef(img.ravel(), pattern)[0, 1]
        assert abs(corr) >= 0.999


class TestGradcheckCmd:
    def test_default_micro_model_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_sign_flip_hook_fails(self, monkeypatch, capsys):
        flip_gradient_sign(monkeypatch, "head.bias")
        assert main(["gradcheck"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_reports_worst_error_per_block(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        for block in ("first.spectral", "first.w1", "first.weight", "head.bias"):
            assert block in out

    def test_config_checks_only_its_method(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="tucker")
        assert main(["gradcheck", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "gradient check passed"
        assert {line.split()[0] for line in lines[:-1]} == {"tucker"}
        assert any("first.spectral" in line for line in lines)


@pytest.mark.parametrize("command", [
    ["train"],
    ["rank-sweep", "--ranks", "1", "--out", "s.csv"],
    ["gradcheck"],
], ids=lambda command: command[0])
def test_config_line_without_equals_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmethod cp\n")
    assert main(command[:1] + ["--config", str(path)] + command[1:]) == 2
    assert capsys.readouterr().err == f"usage error: {path}:2: expected key = value\n"


@pytest.mark.parametrize("argv", [
    ["decompose", "--bank", "b.tns", "--kind", "cp", "--rank", "1", "--out", "d.dcp",
     "--seed", "-1"],
    ["decompose", "--bank", "b.tns", "--kind", "cp", "--rank", "1", "--out", "d.dcp",
     "--tol", "nan"],
    ["adapt", "--decomp", "d.dcp", "--channels", "8", "--out", "a.adp", "--seed", "-1"],
    ["train", "--config", "run.cfg", "--seed", "-1"],
    ["rank-sweep", "--config", "run.cfg", "--ranks", "1", "--out", "s.csv", "--seeds", "0"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--eps", "0"],
    ["gradcheck", "--eps", "nan"],
    ["gradcheck", "--tol", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_bad_flag_is_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: must be" in err
    assert "Traceback" not in err


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nmethod = tucker  # inline\nrank = 3\n")
        cfg = parse_config(str(path))
        assert cfg.method == "tucker"
        assert cfg.rank == 3

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("rank = two\n")
        with pytest.raises(UsageError):
            parse_config(str(path))

    def test_tiles_must_come_in_pairs(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train_tiles = x.tls\n")
        with pytest.raises(UsageError):
            parse_config(str(path))


# Config values that reached the library and failed late (exit 1), crashed in
# numpy, or trained to a nan log; each must now be a usage error.
MUST_BE_USAGE_ERRORS = {
    ("bank_kernel", "0"), ("bank_filters", "0"), ("synth_channels", "0"),
    ("synth_classes", "0"), ("synth_samples", "0"), ("synth_tile", "0"),
    ("seed", "-1"), ("synth_seed", "-1"), ("bank_seed", "-1"),
    ("tol", "nan"), ("synth_noise", "-1"), ("hidden", "-1"),
    ("lr0", "nan"), ("lr0", "inf"),
}


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x"])
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_config_key_ends_in_a_named_outcome(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)  # relative output paths such as "x" land in the temp dir
    cfg = write_config(tmp_path, **{"epochs": 1, key: value})
    rc = main(["train", "--config", cfg])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if (key, value) in MUST_BE_USAGE_ERRORS:
        assert rc == 2, err
    if rc:
        assert err.startswith(("error:", "usage error:", "numerical failure:")), err
        assert os.listdir(tmp_path) == ["run.cfg"]
    else:
        rows = (tmp_path / parse_config(cfg).out_log).read_text().splitlines()[1:]
        losses = [float(v) for row in rows for v in row.split(",")[2:4]]
        assert all(math.isfinite(v) for v in losses)
