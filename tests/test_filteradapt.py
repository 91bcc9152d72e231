import numpy as np
import pytest

from hyperadapt.data import synth_filter_bank
from hyperadapt.decomp import decompose_bank
from hyperadapt.errors import ShapeError, UnsupportedKindError
from hyperadapt.filteradapt import (
    AdaptedLayer,
    adapt,
    decompress,
    load_adapted,
    save_adapted,
    span_residual,
)


def interp_oracle(col, new_channels):
    """Closed-form linear interpolation at endpoint-aligned channel positions."""
    old = len(col)
    old_pos = np.linspace(0.0, 1.0, old)
    new_pos = np.linspace(0.0, 1.0, new_channels)
    out = np.empty(new_channels)
    for i, p in enumerate(new_pos):
        j = min(int(p * (old - 1)), old - 2)
        t = p * (old - 1) - j
        out[i] = col[j] * (1 - t) + col[j + 1] * t
    return out * (old / new_channels)


@pytest.fixture(scope="module")
def bank():
    return synth_filter_bank(4, 5, seed=0)


@pytest.fixture(scope="module")
def cp_decomps(bank):
    return decompose_bank(bank, "cp", 2)[0]


@pytest.fixture(scope="module")
def tucker_decomps(bank):
    return decompose_bank(bank, "tucker", 2)[0]


class TestAdapt:
    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_identity_adaptation(self, cp_decomps, tucker_decomps, kind):
        decomps = cp_decomps if kind == "cp" else tucker_decomps
        layer = adapt(decomps, 3, init="interp")
        source = np.stack([d.reconstruct() for d in decomps])
        assert np.abs(decompress(layer) - source).max() <= 1e-12

    def test_interp_matches_closed_form(self, cp_decomps):
        layer = adapt(cp_decomps, 6, init="interp")
        for o, d in enumerate(cp_decomps):
            for r in range(d.rank):
                assert np.allclose(layer.spectral[o, :, r],
                                   interp_oracle(d.spectral[:, r], 6), atol=1e-12)

    def test_interp_spec_column(self):
        # hand case: [1, 0, -1] widened to 6 channels
        expected = np.array([1.0, 0.6, 0.2, -0.2, -0.6, -1.0]) * 0.5
        assert np.allclose(interp_oracle(np.array([1.0, 0.0, -1.0]), 6), expected)

    def test_replicate_tiles_and_scales(self, cp_decomps):
        layer = adapt(cp_decomps, 6, init="replicate")
        d = cp_decomps[0]
        col = d.spectral[:, 0]
        assert np.allclose(layer.spectral[0, :, 0], np.tile(col, 2) * 0.5)

    def test_random_init_reproducible(self, cp_decomps):
        a = adapt(cp_decomps, 200, init="random", seed=42)
        b = adapt(cp_decomps, 200, init="random", seed=42)
        assert np.array_equal(a.spectral, b.spectral)
        c = adapt(cp_decomps, 200, init="random", seed=43)
        assert not np.array_equal(a.spectral, c.spectral)

    def test_random_init_sigma(self, cp_decomps):
        layer = adapt(cp_decomps, 5000, init="random", seed=0)
        d = cp_decomps[0]
        sigma = np.linalg.norm(d.spectral[:, 0]) / np.sqrt(5000)
        assert layer.spectral[0, :, 0].std() == pytest.approx(sigma, rel=0.1)

    def test_spatial_parts_bit_identical_and_frozen(self, cp_decomps):
        layer = adapt(cp_decomps, 16)
        assert np.array_equal(layer.x, np.stack([d.x for d in cp_decomps]))
        assert np.array_equal(layer.y, np.stack([d.y for d in cp_decomps]))
        with pytest.raises(ValueError):
            layer.x[0, 0, 0] = 1.0

    def test_tucker_narrow_channels_flagged(self, tucker_decomps):
        with pytest.warns(UserWarning, match="orthonormal"):
            layer = adapt(tucker_decomps, 1)
        assert layer.rank_warning

    @pytest.mark.parametrize("second", [("tucker", 2, 5), ("cp", 1, 5), ("cp", 3, 5),
                                        ("cp", 2, 7)],
                             ids=["kinds", "lower_rank", "higher_rank", "kernels"])
    def test_mixed_decomposition_list_rejected(self, second):
        def one(kind, rank, k):
            return decompose_bank(synth_filter_bank(1, k, seed=0), kind, rank)[0][0]

        with pytest.raises(ShapeError, match="decomposition 1"):
            adapt([one("cp", 2, 5), one(*second)], 8)

    def test_bad_channel_count(self, cp_decomps):
        with pytest.raises(ShapeError):
            adapt(cp_decomps, 0)

    def test_non_rgb_source_rejected(self):
        rng = np.random.default_rng(99)
        decomps = [decompose_bank(rng.standard_normal((2, 5, 3, 3)), "cp", 1)[0][0]]
        with pytest.raises(ShapeError, match="3-channel"):
            adapt(decomps, 8)

    def test_bias_carried_and_frozen(self, cp_decomps, bank):
        layer = adapt(cp_decomps, 8, bias=bank.bias)
        assert np.array_equal(layer.bias, bank.bias)
        with pytest.raises(ValueError):
            layer.bias[0] = 9.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedKindError, match="foo"):
            AdaptedLayer(kind="foo", spectral=np.zeros((2, 4, 1)), core=np.zeros((2, 1, 3, 3)))


class TestDecompress:
    def test_zero_spectral_gives_zero_bank(self, cp_decomps):
        layer = adapt(cp_decomps, 8)
        layer.spectral[:] = 0.0
        assert not decompress(layer).any()

    def test_linear_in_spectral(self, tucker_decomps):
        layer = adapt(tucker_decomps, 8, init="random", seed=1)
        doubled = AdaptedLayer(kind=layer.kind, spectral=2 * layer.spectral,
                               core=layer.core)
        assert np.allclose(decompress(doubled), 2 * decompress(layer), atol=1e-12)

    def test_matches_triple_loop(self, cp_decomps):
        layer = adapt(cp_decomps, 4, init="random", seed=2)
        out = decompress(layer)
        c_out, ch, rank = layer.spectral.shape
        k1, k2 = layer.kernel
        expected = np.zeros((c_out, ch, k1, k2))
        for o in range(c_out):
            for c in range(ch):
                for i in range(k1):
                    for j in range(k2):
                        expected[o, c, i, j] = sum(
                            layer.spectral[o, c, r] * layer.x[o, i, r] * layer.y[o, j, r]
                            for r in range(rank)
                        )
        assert np.allclose(out, expected, atol=1e-12)


class TestSpanResidual:
    def test_fresh_layer_in_span(self, cp_decomps):
        layer = adapt(cp_decomps, 16, init="random", seed=3)
        for o in range(layer.out_channels):
            assert span_residual(layer, o) <= 1e-10

    def test_perturbed_spatial_leaves_span(self, cp_decomps):
        layer = adapt(cp_decomps, 16, init="random", seed=4)
        x = layer.x.copy()
        x[0] += np.random.default_rng(0).standard_normal(x[0].shape)
        broken = AdaptedLayer(kind="cp", spectral=layer.spectral, x=layer.x, y=layer.y)
        # compare the true slices of the perturbed bank against the original basis
        slices = np.einsum("cr,ir,jr->cij", layer.spectral[0], x[0], layer.y[0])
        from hyperadapt.filteradapt import _span_residual

        basis = np.einsum("ir,jr->rij", layer.x[0], layer.y[0])
        assert _span_residual(slices, basis) > 1e-6
        assert span_residual(broken, 0) <= 1e-10  # unperturbed control

    def test_rank_one_slices_proportional(self, bank):
        decomps = decompose_bank(bank, "cp", 1)[0]
        layer = adapt(decomps, 8, init="random", seed=5)
        dense = decompress(layer)
        pattern = np.outer(layer.x[0, :, 0], layer.y[0, :, 0])
        for c in range(8):
            coef = layer.spectral[0, c, 0]
            assert np.allclose(dense[0, c], coef * pattern, atol=1e-12)

    def test_tucker_core_span(self, tucker_decomps):
        layer = adapt(tucker_decomps, 16, init="random", seed=6)
        for o in range(layer.out_channels):
            assert span_residual(layer, o) <= 1e-10


class TestAdaptedFile:
    @pytest.mark.parametrize("kind,with_bias", [("cp", True), ("cp", False),
                                                ("tucker", True), ("tucker", False)])
    def test_round_trip(self, tmp_path, bank, cp_decomps, tucker_decomps, kind, with_bias):
        decomps = cp_decomps if kind == "cp" else tucker_decomps
        layer = adapt(decomps, 12, init="random", seed=7,
                      bias=bank.bias if with_bias else None)
        path = tmp_path / "layer.adp"
        save_adapted(str(path), layer)
        loaded = load_adapted(str(path))
        assert loaded.kind == kind
        assert loaded.init == "random"
        assert loaded.seed == 7
        assert np.array_equal(loaded.spectral, layer.spectral)
        if kind == "cp":
            assert np.array_equal(loaded.x, layer.x)
            assert np.array_equal(loaded.y, layer.y)
        else:
            assert np.array_equal(loaded.core, layer.core)
        if with_bias:
            assert np.array_equal(loaded.bias, layer.bias)
        else:
            assert loaded.bias is None
