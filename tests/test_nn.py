import hashlib

import numpy as np
import pytest

from hyperadapt.data import synth_filter_bank, synth_spectral_task
from hyperadapt.decomp import decompose_bank
from hyperadapt.errors import DataError, FormatError, NumericalError, ShapeError, UsageError
from hyperadapt.filteradapt import AdaptedLayer, adapt, decompress
from hyperadapt.nn import (
    Adam,
    CpFirstLayer,
    Param,
    TrainConfig,
    TuckerFirstLayer,
    build_model,
    build_reduce,
    build_scratch,
    conv2d,
    count_trainable,
    cross_entropy,
    evaluate,
    first_layer_from_adapted,
    forward_backward,
    load_model,
    reduce_hidden_width,
    save_model,
    train,
    write_log_csv,
)
from hyperadapt.nn.gradcheck import gradient_check


def random_adapted(kind, c_out, channels, rank, k, seed, bias=True):
    rng = np.random.default_rng(seed)
    spectral = rng.standard_normal((c_out, channels, rank))
    b = rng.standard_normal(c_out) if bias else None
    if kind == "cp":
        return AdaptedLayer(kind="cp", spectral=spectral,
                            x=rng.standard_normal((c_out, k, rank)),
                            y=rng.standard_normal((c_out, k, rank)), bias=b)
    return AdaptedLayer(kind="tucker", spectral=spectral,
                        core=rng.standard_normal((c_out, rank, k, k)), bias=b)


class TestPipelines:
    def test_rank_one_cp_equals_dense(self):
        layer = random_adapted("cp", 3, 5, 1, 5, seed=0)
        x = np.random.default_rng(1).standard_normal((5, 10, 10))
        dense = conv2d(x, decompress(layer), layer.bias)
        assert np.abs(CpFirstLayer(layer).forward(x) - dense).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_random_layer_equals_dense(self, kind):
        layer = random_adapted(kind, 4, 8, 2, 5, seed=2)
        x = np.random.default_rng(3).standard_normal((8, 16, 16))
        first = CpFirstLayer(layer) if kind == "cp" else TuckerFirstLayer(layer)
        dense = conv2d(x, decompress(layer), layer.bias)
        assert np.abs(first.forward(x) - dense).max() <= 1e-9

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_strided_padded_pipeline_equals_dense(self, kind):
        layer = random_adapted(kind, 2, 6, 2, 3, seed=4)
        x = np.random.default_rng(5).standard_normal((6, 11, 9))
        cls = CpFirstLayer if kind == "cp" else TuckerFirstLayer
        got = cls(layer, stride=2, padding=1).forward(x)
        dense = conv2d(x, decompress(layer), layer.bias, stride=2, padding=1)
        assert np.abs(got - dense).max() <= 1e-9

    def test_zero_spectral_gives_bias_only(self):
        layer = random_adapted("cp", 3, 4, 2, 3, seed=6)
        layer.spectral[:] = 0.0
        x = np.random.default_rng(7).standard_normal((4, 8, 8))
        out = CpFirstLayer(layer).forward(x)
        assert np.allclose(out, layer.bias[:, None, None])

    def test_tucker_identity_adaptation_matches_rgb_dense(self):
        bank = synth_filter_bank(4, 5, seed=8)
        decomps, _ = decompose_bank(bank, "tucker", 2)
        layer = adapt(decomps, 3, init="interp", bias=bank.bias)
        x = np.random.default_rng(9).standard_normal((3, 12, 12))
        recon = np.stack([d.reconstruct() for d in decomps])
        dense = conv2d(x, recon, bank.bias)
        assert np.abs(TuckerFirstLayer(layer).forward(x) - dense).max() <= 1e-10

    def test_tucker_rank_one_is_depthwise(self):
        layer = random_adapted("tucker", 3, 5, 1, 3, seed=10)
        x = np.random.default_rng(11).standard_normal((5, 8, 8))
        out = TuckerFirstLayer(layer).forward(x)
        assert out.shape == (3, 6, 6)

    def test_channel_mismatch(self):
        layer = random_adapted("cp", 2, 4, 1, 3, seed=12)
        with pytest.raises(ShapeError):
            CpFirstLayer(layer).forward(np.ones((5, 8, 8)))


class TestReduce:
    def test_hidden_width_formula(self):
        assert reduce_hidden_width(200, 64, 2) == 126

    def test_trainable_parameter_parity(self):
        bank = synth_filter_bank(64, 7, seed=0)
        layer = build_reduce(200, bank, rank=2)
        m = layer.hidden
        weight_count = 200 * m + m * 3
        target = 2 * 64 * 200
        assert abs(weight_count - target) / target <= 0.05

    def test_trainable_count(self):
        bank = synth_filter_bank(8, 5, seed=1)
        layer = build_reduce(20, bank, hidden=6)
        count = sum(p.value.size for p in layer.params() if p.trainable)
        assert count == 20 * 6 + 6 * 3 + 6 + 3  # weights plus both biases

    def test_identity_init_behaves_as_frozen_rgb(self):
        # with identity-ish pointwise weights and non-negative input, the
        # stack reproduces the plain RGB convolution
        bank = synth_filter_bank(4, 3, seed=2)
        layer = build_reduce(3, bank, hidden=3)
        layer.pw1.weight.value[:] = np.eye(3).reshape(3, 3, 1, 1)
        layer.pw1.bias.value[:] = 0.0
        layer.pw2.weight.value[:] = np.eye(3).reshape(3, 3, 1, 1)
        layer.pw2.bias.value[:] = 0.0
        x = np.abs(np.random.default_rng(3).standard_normal((3, 8, 8)))
        expected = conv2d(x, bank.weights, bank.bias)
        assert np.abs(layer.forward(x) - expected).max() <= 1e-12


class TestScratch:
    def test_count_and_ratio(self):
        bank = synth_filter_bank(64, 7, seed=0)
        layer = build_scratch(145, bank)
        assert layer.weight.value.shape == (64, 145, 7, 7)
        assert layer.weight.value.size == 454_720
        decomposed = 64 * 2 * 145
        assert layer.weight.value.size / decomposed == pytest.approx(49 / 2)

    def test_ratio_exact_over_shapes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c_out = int(rng.integers(2, 32))
            ch = int(rng.integers(4, 256))
            k = int(rng.choice([1, 3, 5, 7]))
            r = int(rng.integers(1, 4))
            scratch = c_out * ch * k * k
            decomposed = c_out * r * ch
            assert scratch / decomposed == k * k / r

    def test_init_bounds(self):
        bank = synth_filter_bank(4, 5, seed=5)
        layer = build_scratch(32, bank, seed=6)
        limit = np.sqrt(6.0 / (32 * 25))
        assert np.abs(layer.weight.value).max() <= limit


def micro_model(method, seed=0, channels=8, classes=3, stride=1, padding=0):
    bank = synth_filter_bank(4, 5, seed=seed)
    geometry = {"stride": stride, "padding": padding}
    if method in ("cp", "tucker"):
        decomps, _ = decompose_bank(bank, method, 2)
        layer = adapt(decomps, channels, init="interp", seed=seed, bias=bank.bias)
        first = first_layer_from_adapted(layer, **geometry)
    elif method == "reduce":
        first = build_reduce(channels, bank, rank=2, seed=seed, **geometry)
    else:
        first = build_scratch(channels, bank, seed=seed, **geometry)
    model = build_model(first, classes, pool=(1, 1), seed=seed)
    rng = np.random.default_rng([seed, 99])
    batch = rng.standard_normal((4, channels, 12, 12))
    labels = rng.integers(0, classes, 4)
    return model, batch, labels


class TestLossAndCounts:
    def test_uniform_logits_loss_is_log_k(self):
        loss, _, _ = cross_entropy(np.zeros((5, 7)), np.zeros(5, dtype=int))
        assert loss == pytest.approx(np.log(7.0), rel=1e-12)

    def test_label_out_of_range(self):
        model, batch, _ = micro_model("cp")
        with pytest.raises(DataError):
            forward_backward(model, batch, np.array([0, 1, 2, 3]))

    def test_decomposed_first_layer_count(self):
        model, _, _ = micro_model("cp")
        spectral = model.named_params()["first.spectral"]
        assert spectral.value.size == 4 * 2 * 8

    def test_full_model_count(self):
        model, _, _ = micro_model("tucker")
        features = 2 * 4 * 1 * 1
        expected = 4 * 2 * 8 + features * 3 + 3
        assert count_trainable(model) == expected


class TestAdam:
    def test_hand_computed_first_step(self):
        p = Param("w", np.array([1.0]), True)
        opt = Adam([p])
        p.grad = np.array([1.0])
        opt.step(0.1)
        assert p.value[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), rel=1e-12)

    def test_zero_gradient_no_change(self):
        p = Param("w", np.array([2.5, -1.0]), True)
        opt = Adam([p])
        p.grad = np.zeros(2)
        before = p.value.copy()
        opt.step(0.1)
        assert np.array_equal(p.value, before)

    def test_zero_lr_bit_identical(self):
        model, batch, labels = micro_model("cp")
        before = {p.name: p.value.copy() for p in model.params()}
        opt = Adam(model.trainable_params())
        forward_backward(model, batch, labels)
        opt.step(0.0)
        for p in model.params():
            assert np.array_equal(p.value, before[p.name])


class TestGradients:
    @pytest.mark.parametrize("method", ["cp", "tucker", "reduce", "scratch"])
    def test_finite_difference_agreement(self, method):
        model, batch, labels = micro_model(method)
        worst = gradient_check(model, batch, labels)
        assert max(worst.values()) <= 1e-5

    @pytest.mark.parametrize("method", ["cp", "tucker", "reduce", "scratch"])
    def test_strided_padded_finite_difference_agreement(self, method):
        model, batch, labels = micro_model(method, stride=2, padding=1)
        worst = gradient_check(model, batch, labels)
        assert max(worst.values()) <= 1e-5

    def test_sign_flip_hook_detected(self, monkeypatch):
        from hyperadapt.nn import gradcheck as gc

        model, batch, labels = micro_model("cp")
        real = gc.forward_backward

        def flipped(*args):
            loss, accuracy, grads = real(*args)
            grads["first.spectral"] = -grads["first.spectral"]
            return loss, accuracy, grads

        monkeypatch.setattr(gc, "forward_backward", flipped)
        worst = gc.gradient_check(model, batch, labels)
        assert worst["first.spectral"] > 1e-2


# SHA-256 over the logits and then each trainable gradient (name, then float64
# bytes) of one forward_backward on micro_model, recorded with numpy 2.4 before
# the groups == 1 einsums dropped their size-1 group axis. A change of any bit
# fails here, so every round-off change to the kernels is a deliberate one.
PASS_DIGESTS = {
    ("cp", 1, 0): "6394753bb361a59e4530bbc93aee62eb43b319775042ce90569961194fad62f4",
    ("cp", 2, 1): "276bb5801683949b413877bcd7a284ee4d696475411391acd1940f09f970bf88",
    ("tucker", 1, 0): "c7ab9cb9f8af4e39166dbcca672eddcd293276f72ab35bc385109ed46c0ba255",
    ("tucker", 2, 1): "aa7c2c49b239d2fc1a7b7f96f8440800be674bc39a8b9b85e287d6a88d919cd7",
    ("reduce", 1, 0): "e325ff8cc01eb2a46ac13987c393aea61d994a9693dc9819e6af96389d6ade48",
    ("reduce", 2, 1): "c4b1ce1df90472581609af9077d76742a3dbaca564ee9ffda7e651c89e164f45",
    ("scratch", 1, 0): "f5241c24d2b71f173e627300b9450dc443edfee2a7bfde1a7ec24b790d6e526b",
    ("scratch", 2, 1): "d6c17956f1c73a6158c3ee40645db90deddf3a711160b68b0e0cadd0f723f3f3",
}


class TestBitExactPass:
    # Other numpy releases bundle other BLAS and LAPACK builds (and an older
    # einsum), and other OpenBLAS kernels round differently; the digests hold
    # for numpy 2.4 on AVX-512 only (see conftest.py).
    @pytest.mark.recorded_blas
    @pytest.mark.parametrize("method,stride,padding", sorted(PASS_DIGESTS))
    def test_logits_and_gradients_are_pinned(self, method, stride, padding):
        model, batch, labels = micro_model(method, stride=stride, padding=padding)
        digest = hashlib.sha256(model.forward(batch).tobytes())
        _, _, grads = forward_backward(model, batch, labels)
        for name, grad in grads.items():
            digest.update(name.encode())
            digest.update(grad.tobytes())
        assert digest.hexdigest() == PASS_DIGESTS[method, stride, padding]

    @pytest.mark.parametrize("method", ["cp", "tucker", "reduce", "scratch"])
    def test_first_layer_skips_input_gradient(self, method, monkeypatch):
        from hyperadapt.nn import layers

        model, batch, labels = micro_model(method, stride=2, padding=1)
        calls = []
        real = layers.conv2d_backward

        def recording(x, w, dout, *args, need_dx=True, **kwargs):
            calls.append((x is batch, w is model.mid.weight.value, need_dx))
            return real(x, w, dout, *args, need_dx=need_dx, **kwargs)

        monkeypatch.setattr(layers, "conv2d_backward", recording)
        forward_backward(model, batch, labels)
        # Exactly one conv reads the input batch, and it skips dx; the mid
        # conv and the first layer's inner stages still propagate.
        assert [need_dx for reads_input, _, need_dx in calls if reads_input] == [False]
        assert [need_dx for _, is_mid, need_dx in calls if is_mid] == [True]
        assert all(need_dx for reads_input, _, need_dx in calls if not reads_input)
        out = model.first.forward(batch)
        assert model.first.backward(np.ones_like(out)) is None


class TestTraining:
    def _task(self, channels=8, classes=3, n=40):
        train_ts, test_ts = synth_spectral_task(channels, classes, n, seed=0, tile=12)
        return train_ts, test_ts

    @pytest.mark.parametrize("method", ["cp", "tucker", "reduce", "scratch"])
    def test_frozen_blocks_bit_identical_after_steps(self, method):
        model, _, _ = micro_model(method)
        train_ts, test_ts = self._task()
        frozen_before = {p.name: p.value.copy() for p in model.params() if not p.trainable}
        cfg = TrainConfig(lr0=0.01, gamma=0.95, batch_size=16, epochs=3, seed=1)
        train(model, train_ts.tiles, train_ts.labels, test_ts.tiles, test_ts.labels, cfg)
        for p in model.params():
            if not p.trainable:
                assert np.array_equal(p.value, frozen_before[p.name]), p.name

    def test_empty_tile_sets_are_data_errors(self):
        model, _, _ = micro_model("cp")
        train_ts, test_ts = self._task()
        cfg = TrainConfig(batch_size=16, epochs=1)
        with pytest.raises(DataError):
            evaluate(model, test_ts.tiles[:0], test_ts.labels[:0])
        with pytest.raises(DataError):
            train(model, train_ts.tiles[:0], train_ts.labels[:0],
                  test_ts.tiles, test_ts.labels, cfg)
        with pytest.raises(DataError):
            train(model, train_ts.tiles, train_ts.labels,
                  test_ts.tiles[:0], test_ts.labels[:0], cfg)

    def test_deterministic_given_seed(self):
        rows = []
        for _ in range(2):
            model, _, _ = micro_model("cp")
            train_ts, test_ts = self._task()
            cfg = TrainConfig(lr0=0.01, gamma=0.95, batch_size=16, epochs=3, seed=2)
            rows.append(train(model, train_ts.tiles, train_ts.labels,
                              test_ts.tiles, test_ts.labels, cfg))
        assert rows[0] == rows[1]

    def test_lr_schedule(self):
        model, _, _ = micro_model("cp")
        train_ts, test_ts = self._task()
        cfg = TrainConfig(lr0=0.5, gamma=0.5, batch_size=16, epochs=3, seed=3)
        rows = train(model, train_ts.tiles, train_ts.labels,
                     test_ts.tiles, test_ts.labels, cfg)
        assert [r[1] for r in rows] == [0.5, 0.25, 0.125]

    def test_gamma_one_constant_lr(self):
        model, _, _ = micro_model("cp")
        train_ts, test_ts = self._task()
        cfg = TrainConfig(lr0=0.01, gamma=1.0, batch_size=16, epochs=2, seed=4)
        rows = train(model, train_ts.tiles, train_ts.labels,
                     test_ts.tiles, test_ts.labels, cfg)
        assert [r[1] for r in rows] == [0.01, 0.01]

    def test_nan_loss_names_first_batch(self):
        model, _, _ = micro_model("cp")
        model.named_params()["head.weight"].value[0, 0] = np.nan
        train_ts, test_ts = self._task()
        cfg = TrainConfig(lr0=0.01, gamma=0.95, batch_size=16, epochs=1, seed=5)
        with pytest.raises(NumericalError, match="epoch 0, batch 0"):
            train(model, train_ts.tiles, train_ts.labels,
                  test_ts.tiles, test_ts.labels, cfg)

    @pytest.mark.parametrize("option", [
        {"lr0": float("nan")}, {"lr0": float("inf")}, {"gamma": 1.5}, {"seed": -1},
    ])
    def test_bad_config_is_usage_error(self, option):
        with pytest.raises(UsageError, match=next(iter(option))):
            TrainConfig(**option)

    def test_log_csv_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv([(0, 0.01, 1.0, 1.1, 0.5)], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,test_loss,test_accuracy"
        assert lines[1].startswith("0,0.01,")


class TestCheckpoint:
    @pytest.mark.parametrize("method", ["cp", "tucker", "reduce", "scratch"])
    def test_round_trip(self, tmp_path, method):
        model, batch, _ = micro_model(method)
        path = tmp_path / "m.mdl1"
        save_model(model, str(path), meta={"rank": "2"})
        loaded, meta = load_model(str(path))
        assert meta["method"] == getattr(model.first, "kind")
        assert meta["rank"] == "2"
        for a, b in zip(model.params(), loaded.params()):
            assert a.name == b.name
            assert a.trainable == b.trainable
            assert np.array_equal(a.value, b.value)
        assert np.allclose(loaded.forward(batch), model.forward(batch))

    def test_missing_spatial_block_is_format_error(self, tmp_path):
        model, _, _ = micro_model("cp")
        model.named_params()["first.y"].name = "first.z"
        path = tmp_path / "m.mdl1"
        save_model(model, str(path))
        with pytest.raises(FormatError, match="first.y"):
            load_model(str(path))

    def test_evaluate_consistency(self):
        model, batch, labels = micro_model("cp")
        loss, acc = evaluate(model, batch, labels, batch_size=2)
        loss_ref, _, acc_ref = cross_entropy(model.forward(batch), labels)
        assert loss == pytest.approx(loss_ref, rel=1e-12)
        assert acc == pytest.approx(acc_ref)
