"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Every tolerance and runtime budget is pinned here.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hyperadapt.cli import main
from hyperadapt.data import (
    HyperCube,
    TileSet,
    apply_stats,
    normalize,
    preprocess_nearrange,
    synth_filter_bank,
    synth_spectral_task,
    tile_remote_sensing,
)
from hyperadapt.decomp import CpOptions, cp_decompose, decompose_bank, tucker1_decompose
from hyperadapt.filteradapt import (
    AdaptedLayer,
    adapt,
    decompress,
    span_residual,
)
from hyperadapt.nn import (
    Adam,
    CpFirstLayer,
    TrainConfig,
    TuckerFirstLayer,
    build_model,
    build_scratch,
    conv2d,
    count_trainable,
    first_layer_from_adapted,
    forward_backward,
    train,
)
from hyperadapt.nn.gradcheck import gradient_check
from hyperadapt.tensor import frobenius_norm, unfold


@contextmanager
def criterion(num, desc, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} {desc}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num:2d} {desc}: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded budget {budget_s}s"


def test_criterion_1_exact_recovery():
    with criterion(1, "exact recovery (CP R=1, Tucker R=3)", budget_s=5.0):
        rng = np.random.default_rng(0)
        bank = synth_filter_bank(100, 7, seed=1, noise=0.0)
        for o in range(100):
            assert cp_decompose(bank.weights[o], 1).relative_error <= 1e-8
        for _ in range(100):
            filt = rng.standard_normal((3, 7, 7))
            assert tucker1_decompose(filt, 3).relative_error <= 1e-10


def test_criterion_2_tucker_optimality():
    with criterion(2, "Tucker optimality vs singular tail and CP", budget_s=30.0):
        rng = np.random.default_rng(2)
        for _ in range(100):
            filt = rng.standard_normal((3, 7, 7))
            tk = tucker1_decompose(filt, 2)
            s = np.linalg.svd(unfold(filt, 0), compute_uv=False)
            expected = np.sqrt(s[2] ** 2 / (s ** 2).sum())
            assert abs(tk.relative_error - expected) <= 1e-9
            cp = cp_decompose(filt, 2, CpOptions(restarts=4))
            assert tk.relative_error <= cp.relative_error + 1e-9


def _random_adapted(rng, kind, c_out, channels, rank, k):
    spectral = rng.standard_normal((c_out, channels, rank))
    bias = rng.standard_normal(c_out)
    if kind == "cp":
        return AdaptedLayer(kind="cp", spectral=spectral,
                            x=rng.standard_normal((c_out, k, rank)),
                            y=rng.standard_normal((c_out, k, rank)), bias=bias)
    return AdaptedLayer(kind="tucker", spectral=spectral,
                        core=rng.standard_normal((c_out, rank, k, k)), bias=bias)


def test_criterion_3_pipeline_equivalence():
    with criterion(3, "separable pipelines match dense convolution", budget_s=60.0):
        rng = np.random.default_rng(3)
        for _ in range(50):
            kind = rng.choice(["cp", "tucker"])
            channels = int(rng.choice([3, 8, 64, 200]))
            rank = int(rng.choice([1, 2, 3]))
            c_out = int(rng.choice([2, 4]))
            k = int(rng.choice([3, 5, 7]))
            layer = _random_adapted(rng, kind, c_out, channels, rank, k)
            x = rng.uniform(-1.0, 1.0, (channels, 9, 9))
            first = CpFirstLayer(layer) if kind == "cp" else TuckerFirstLayer(layer)
            dense = conv2d(x, decompress(layer), layer.bias)
            assert np.abs(first.forward(x) - dense).max() <= 1e-9


def test_criterion_4_identity_adaptation():
    with criterion(4, "3-channel interp adaptation is the identity"):
        bank = synth_filter_bank(8, 5, seed=4, noise=0.05)
        for kind in ("cp", "tucker"):
            decomps, _ = decompose_bank(bank, kind, 2)
            layer = adapt(decomps, 3, init="interp")
            source = np.stack([d.reconstruct() for d in decomps])
            assert np.abs(decompress(layer) - source).max() <= 1e-12


def _micro_setup(method, seed=0):
    channels, c_out, k, rank = 8, 4, 5, 2
    bank = synth_filter_bank(c_out, k, seed=seed)
    if method in ("cp", "tucker"):
        decomps, _ = decompose_bank(bank, method, rank)
        first = first_layer_from_adapted(
            adapt(decomps, channels, init="interp", seed=seed, bias=bank.bias))
    elif method == "reduce":
        from hyperadapt.nn import build_reduce

        first = build_reduce(channels, bank, rank=rank, seed=seed)
    else:
        first = build_scratch(channels, bank, seed=seed)
    model = build_model(first, classes=3, pool=(1, 1), seed=seed)
    rng = np.random.default_rng([seed, 99])
    batch = rng.standard_normal((4, channels, 12, 12))
    labels = rng.integers(0, 3, 4)
    return model, batch, labels


def test_criterion_5_gradient_correctness():
    with criterion(5, "finite differences confirm every trainable block", budget_s=60.0):
        for method in ("cp", "tucker", "reduce", "scratch"):
            model, batch, labels = _micro_setup(method)
            worst = gradient_check(model, batch, labels, eps=1e-5)
            assert max(worst.values()) <= 1e-5, (method, worst)


def test_criterion_6_freeze_and_span_preservation():
    with criterion(6, "spatial parts frozen and spanning after 200 steps"):
        train_ts, test_ts = synth_spectral_task(8, 3, 64, seed=6, tile=12)
        train_n = normalize(train_ts)
        bank = synth_filter_bank(4, 5, seed=6)
        for kind in ("cp", "tucker"):
            decomps, _ = decompose_bank(bank, kind, 2)
            layer = adapt(decomps, 8, init="interp", bias=bank.bias)
            first = first_layer_from_adapted(layer)
            model = build_model(first, classes=3, pool=(1, 1), seed=6)
            frozen_before = {p.name: p.value.copy() for p in model.params()
                             if not p.trainable}
            opt = Adam(model.trainable_params())
            rng = np.random.default_rng(6)
            for step in range(200):
                idx = rng.integers(0, len(train_n), 16)
                forward_backward(model, train_n.tiles[idx], train_n.labels[idx])
                opt.step(0.01 * 0.95 ** (step // 4))
            for p in model.params():
                if not p.trainable:
                    assert np.array_equal(p.value, frozen_before[p.name]), p.name
            trained = first.to_adapted()
            for o in range(trained.out_channels):
                assert span_residual(trained, o) <= 1e-10


def _first_layer_trainables(model):
    return sum(p.value.size for p in model.first.params() if p.trainable)


def test_criterion_7_parameter_count_claims():
    with criterion(7, "trainable-parameter formulas"):
        rng = np.random.default_rng(7)
        assert 7 * 7 / 2 == 24.5
        for _ in range(20):
            c_out = int(rng.integers(2, 9))
            channels = int(rng.integers(4, 64))
            rank = int(rng.integers(1, 4))
            k = int(rng.choice([3, 5, 7]))
            bank_like = rng.standard_normal((c_out, 3, k, k))
            from hyperadapt.filteradapt import FilterBank

            scratch_model = build_model(
                build_scratch(channels, FilterBank(bank_like)), classes=3, pool=(1, 1))
            cp_model = build_model(
                first_layer_from_adapted(
                    _random_adapted(rng, "cp", c_out, channels, rank, k)),
                classes=3, pool=(1, 1))
            head = sum(p.value.size for p in cp_model.head.params())
            assert count_trainable(cp_model) - head == c_out * rank * channels
            scratch_first = count_trainable(scratch_model) - head
            cp_first = _first_layer_trainables(cp_model)
            assert scratch_first == _first_layer_trainables(scratch_model)
            assert scratch_first / cp_first == k * k / rank


def _training_setup(method, seed=0):
    train_ts, test_ts = synth_spectral_task(64, 4, 200, seed=seed)
    train_n = normalize(train_ts)
    test_n = apply_stats(test_ts, train_n.stats)
    bank = synth_filter_bank(8, 5, seed=seed)
    if method in ("cp", "tucker"):
        decomps, _ = decompose_bank(bank, method, 2)
        first = first_layer_from_adapted(
            adapt(decomps, 64, init="interp", seed=seed, bias=bank.bias))
    else:
        first = build_scratch(64, bank, seed=seed)
    model = build_model(first, classes=4, pool=(1, 1), seed=seed)
    return model, train_n, test_n


def test_criterion_8_end_to_end_learning():
    with criterion(8, "decomposed layers learn the synthetic task", budget_s=300.0):
        # feasibility oracle: the construction guarantees nearest class-mean
        # classification succeeds on held-out tiles
        train_ts, test_ts = synth_spectral_task(64, 4, 200, seed=0)
        train_n = normalize(train_ts)
        test_n = apply_stats(test_ts, train_n.stats)
        means = np.stack([train_n.tiles[train_n.labels == c].mean(axis=(0, 2, 3))
                          for c in range(4)])
        proj = test_n.tiles.mean(axis=(2, 3)) @ means.T
        assert (proj.argmax(axis=1) == test_n.labels).mean() >= 0.95

        cfg = TrainConfig(lr0=0.01, gamma=0.95, batch_size=128, epochs=40, seed=0)
        for method in ("cp", "tucker"):
            model, train_n, test_n = _training_setup(method)
            rows = train(model, train_n.tiles, train_n.labels,
                         test_n.tiles, test_n.labels, cfg)
            assert rows[-1][4] >= 0.95, (method, rows[-1])

        # determinism per seed, verified on a short prefix
        short = TrainConfig(lr0=0.01, gamma=0.95, batch_size=128, epochs=5, seed=0)
        runs = []
        for _ in range(2):
            model, train_n, test_n = _training_setup("cp")
            runs.append(train(model, train_n.tiles, train_n.labels,
                              test_n.tiles, test_n.labels, short))
        assert runs[0] == runs[1]


def test_criterion_9_overfitting_harness(tmp_path):
    with criterion(9, "loss-curve CSV harness and count factor"):
        base = {
            "rank": 2, "epochs": 3, "batch": 32,
            "synth_channels": 16, "synth_classes": 3, "synth_samples": 48,
            "synth_tile": 10, "bank_filters": 4, "bank_kernel": 5,
        }
        counts = {}
        for method in ("scratch", "cp"):
            cfg_path = tmp_path / f"{method}.cfg"
            model_path = tmp_path / f"{method}.mdl1"
            log_path = tmp_path / f"{method}.csv"
            lines = [f"{k} = {v}" for k, v in base.items()]
            lines += [f"method = {method}", f"out_model = {model_path}",
                      f"out_log = {log_path}"]
            cfg_path.write_text("\n".join(lines) + "\n")
            assert main(["train", "--config", str(cfg_path)]) == 0
            rows = log_path.read_text().splitlines()
            assert rows[0] == "epoch,lr,train_loss,test_loss,test_accuracy"
            assert len(rows) == base["epochs"] + 1
            for row in rows[1:]:
                fields = row.split(",")
                assert len(fields) == 5
                float(fields[2]), float(fields[3])  # loss columns parse
            from hyperadapt.nn import load_model

            model, _ = load_model(str(model_path))
            counts[method] = _first_layer_trainables(model)
        k, rank = base["bank_kernel"], base["rank"]
        assert counts["scratch"] / counts["cp"] == k * k / rank


def test_criterion_10_preprocessing_conformance():
    with criterion(10, "tiling, normalization and channel-drop protocols"):
        rng = np.random.default_rng(10)
        for h, w in ((32, 32), (41, 35), (11, 20)):
            labels = np.zeros((h, w), dtype=np.int32)
            cube = HyperCube(rng.standard_normal((3, h, w)), labels)
            ts = tile_remote_sensing(cube, tile=11, stride=3, resize_to=16)
            per_h = (h - 11) // 3 + 1
            per_w = (w - 11) // 3 + 1
            assert len(ts) == per_h * per_w

        tiles = TileSet(rng.standard_normal((30, 6, 5, 5)) * 4 - 2,
                        rng.integers(0, 3, 30), split="train")
        out = normalize(tiles)
        assert np.abs(out.tiles.mean(axis=(0, 2, 3))).max() <= 1e-10
        assert np.abs(out.tiles.std(axis=(0, 2, 3)) - 1.0).max() <= 1e-6

        cube = HyperCube(rng.standard_normal((204, 12, 12)))
        assert preprocess_nearrange(cube, drop_channels=(5, 5)).channels == 194
