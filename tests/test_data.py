import numpy as np
import pytest

from hyperadapt.data import (
    HyperCube,
    Stats,
    TileSet,
    apply_stats,
    load_cube,
    load_tiles,
    normalize,
    preprocess_nearrange,
    resize_bilinear,
    save_cube,
    save_tiles,
    split_tiles,
    synth_filter_bank,
    synth_spectral_task,
    tile_remote_sensing,
)
from hyperadapt.decomp import cp_decompose, tucker1_decompose
from hyperadapt.errors import DataError, FormatError, ShapeError


class TestCubeFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 8, 9)).astype(np.float32).astype(np.float64)
        labels = rng.integers(-1, 4, (8, 9)).astype(np.int32)
        cube = HyperCube(data, labels)
        path = tmp_path / "c.hsc"
        save_cube(cube, str(path))
        loaded = load_cube(str(path))
        assert np.array_equal(loaded.data, data)
        assert np.array_equal(loaded.labels, labels)

    def test_round_trip_without_labels(self, tmp_path):
        data = np.ones((2, 3, 3), dtype=np.float32).astype(np.float64)
        path = tmp_path / "c.hsc"
        save_cube(HyperCube(data), str(path))
        assert load_cube(str(path)).labels is None

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "c.hsc"
        save_cube(HyperCube(np.ones((2, 4, 4))), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="expected"):
            load_cube(str(path))

    def test_zero_extent_rejected(self, tmp_path):
        import struct

        path = tmp_path / "c.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 0, 4, 4))
        with pytest.raises(ShapeError):
            load_cube(str(path))

    def test_partial_label_plane_rejected(self, tmp_path):
        path = tmp_path / "c.hsc"
        save_cube(HyperCube(np.ones((1, 2, 2))), str(path))
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(FormatError, match="label plane"):
            load_cube(str(path))


class TestResize:
    def test_constants_preserved_exactly(self):
        img = np.full((3, 5, 7), 2.5)
        out = resize_bilinear(img, 11, 4)
        assert np.array_equal(out, np.full((3, 11, 4), 2.5))

    def test_identity_at_same_size(self):
        img = np.random.default_rng(1).standard_normal((2, 6, 6))
        assert np.allclose(resize_bilinear(img, 6, 6), img)

    def test_monotone_for_2x2(self):
        img = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = resize_bilinear(img, 7, 7)
        assert out.min() >= 0.0 and out.max() <= 3.0
        assert np.all(np.diff(out, axis=0) >= 0)
        assert np.all(np.diff(out, axis=1) >= 0)


class TestTiling:
    def _cube(self, h=32, w=32, channels=4, label=1):
        data = np.random.default_rng(2).standard_normal((channels, h, w))
        labels = np.full((h, w), label, dtype=np.int32)
        return HyperCube(data, labels)

    def test_position_count(self):
        ts = tile_remote_sensing(self._cube(), tile=11, stride=3, resize_to=32)
        assert len(ts) == 8 * 8

    def test_all_unlabeled_gives_empty(self):
        ts = tile_remote_sensing(self._cube(label=-1), tile=11, stride=3)
        assert len(ts) == 0

    def test_constant_cube_gives_constant_tiles(self):
        cube = HyperCube(np.full((2, 20, 20), 4.0), np.zeros((20, 20), dtype=np.int32))
        ts = tile_remote_sensing(cube, tile=11, stride=3, resize_to=32)
        assert np.array_equal(ts.tiles, np.full_like(ts.tiles, 4.0))

    def test_center_pixel_label(self):
        labels = np.full((15, 15), -1, dtype=np.int32)
        labels[5, 5] = 3  # center of the tile at offset (0, 0)
        cube = HyperCube(np.zeros((1, 15, 15)), labels)
        ts = tile_remote_sensing(cube, tile=11, stride=3, resize_to=11)
        assert len(ts) == 1
        assert ts.labels[0] == 3

    def test_needs_labels(self):
        with pytest.raises(DataError):
            tile_remote_sensing(HyperCube(np.zeros((1, 20, 20))))

    @pytest.mark.parametrize("tile, stride", [(11, 0), (11, -1), (0, 3), (-2, 3)])
    def test_bad_tile_or_stride_is_shape_error(self, tile, stride):
        with pytest.raises(ShapeError, match=rf"tile \({tile}\) and stride \({stride}\)"):
            tile_remote_sensing(self._cube(), tile=tile, stride=stride)


class TestNearRange:
    def test_identity_up_to_channel_drop(self):
        rng = np.random.default_rng(3)
        cube = HyperCube(rng.standard_normal((10, 16, 16)))
        out = preprocess_nearrange(cube, crop=16, resize_to=16, drop_channels=(2, 3))
        assert out.data.shape == (5, 16, 16)
        assert np.allclose(out.data, cube.data[2:7])

    def test_channel_drop_count(self):
        cube = HyperCube(np.zeros((204, 8, 8)))
        out = preprocess_nearrange(cube, drop_channels=(5, 5))
        assert out.channels == 194

    def test_constant_image(self):
        cube = HyperCube(np.full((3, 100, 100), 1.5))
        out = preprocess_nearrange(cube, crop=80, resize_to=16)
        assert np.array_equal(out.data, np.full((3, 16, 16), 1.5))

    def test_crop_too_large(self):
        with pytest.raises(ShapeError):
            preprocess_nearrange(HyperCube(np.zeros((1, 8, 8))), crop=9)

    @pytest.mark.parametrize("pad", [-1, -5])
    def test_negative_pad_is_shape_error(self, pad):
        with pytest.raises(ShapeError, match=f"pad must be >= 0, got {pad}"):
            preprocess_nearrange(HyperCube(np.zeros((1, 8, 8))), pad=pad)

    def test_zero_padding(self):
        cube = HyperCube(np.ones((2, 70, 70)))
        out = preprocess_nearrange(cube, crop=70, resize_to=60, pad=2)
        assert out.data.shape == (2, 64, 64)
        assert not out.data[:, :2].any() and not out.data[:, -2:].any()
        assert np.allclose(out.data[:, 2:-2, 2:-2], 1.0)


class TestNormalize:
    def test_hand_case(self):
        tiles = np.array([1.0, 5.0]).reshape(2, 1, 1, 1)
        ts = normalize(TileSet(tiles, np.zeros(2, dtype=int), split="train"))
        assert np.allclose(ts.tiles.ravel(), [-1.0, 1.0])
        assert ts.stats.mean[0] == pytest.approx(3.0)
        assert ts.stats.std[0] == pytest.approx(2.0)

    def test_train_moments(self):
        rng = np.random.default_rng(4)
        ts = TileSet(rng.standard_normal((20, 5, 4, 4)) * 3 + 1,
                     rng.integers(0, 2, 20), split="train")
        out = normalize(ts)
        means = out.tiles.mean(axis=(0, 2, 3))
        stds = out.tiles.std(axis=(0, 2, 3))
        assert np.abs(means).max() <= 1e-10
        assert np.abs(stds - 1).max() <= 1e-6

    def test_already_normalized_near_identity(self):
        rng = np.random.default_rng(5)
        ts = normalize(TileSet(rng.standard_normal((30, 3, 4, 4)),
                               rng.integers(0, 2, 30), split="train"))
        again = normalize(ts)
        assert np.abs(again.tiles - ts.tiles).max() <= 1e-10

    def test_constant_channel_guard(self):
        tiles = np.zeros((4, 2, 3, 3))
        tiles[:, 0] = 7.0
        tiles[:, 1] = np.random.default_rng(6).standard_normal((4, 3, 3))
        out = normalize(TileSet(tiles, np.zeros(4, dtype=int), split="train"))
        assert np.isfinite(out.tiles).all()
        assert np.allclose(out.tiles[:, 0], 0.0)

    def test_test_tiles_use_train_stats_only(self):
        rng = np.random.default_rng(7)
        train_ts = TileSet(rng.standard_normal((10, 2, 3, 3)),
                           rng.integers(0, 2, 10), split="train")
        test_ts = TileSet(rng.standard_normal((10, 2, 3, 3)) * 100 + 50,
                          rng.integers(0, 2, 10), split="test")
        train_n = normalize(train_ts)
        test_n = apply_stats(test_ts, train_n.stats)
        expected = (test_ts.tiles - train_n.stats.mean[:, None, None]) \
            / train_n.stats.std[:, None, None]
        assert np.allclose(test_n.tiles, expected)
        # stats object is untouched by the test pass
        assert test_n.stats is train_n.stats


class TestSynthBank:
    def test_noiseless_filters_are_cp_rank_one(self):
        bank = synth_filter_bank(6, 7, seed=0, noise=0.0)
        for o in range(6):
            assert cp_decompose(bank.weights[o], 1).relative_error <= 1e-8

    def test_noiseless_filters_are_tucker_rank_one(self):
        bank = synth_filter_bank(6, 7, seed=1, noise=0.0)
        for o in range(6):
            assert tucker1_decompose(bank.weights[o], 1).relative_error <= 1e-8

    def test_seed_reproducible(self):
        a = synth_filter_bank(4, 5, seed=2)
        b = synth_filter_bank(4, 5, seed=2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_noise_breaks_rank_one(self):
        bank = synth_filter_bank(2, 7, seed=3, noise=0.3)
        errs = [cp_decompose(bank.weights[o], 1).relative_error for o in range(2)]
        assert max(errs) > 1e-4


class TestSynthTask:
    def test_zero_noise_nearest_mean_is_perfect(self):
        train_ts, test_ts = synth_spectral_task(16, 2, 40, seed=0, noise=0.0)
        means = np.stack([
            train_ts.tiles[train_ts.labels == k].mean(axis=(0, 2, 3)) for k in range(2)
        ])
        proj = test_ts.tiles.mean(axis=(2, 3)) @ means.T
        assert (proj.argmax(axis=1) == test_ts.labels).mean() == 1.0

    def test_seed_reproducible(self):
        a_train, a_test = synth_spectral_task(8, 3, 30, seed=4)
        b_train, b_test = synth_spectral_task(8, 3, 30, seed=4)
        assert np.array_equal(a_train.tiles, b_train.tiles)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_class_mean_spectra_well_separated(self):
        train_ts, _ = synth_spectral_task(64, 4, 200, seed=5)
        means = np.stack([
            train_ts.tiles[train_ts.labels == k].mean(axis=(0, 2, 3)) for k in range(4)
        ])
        unit = means / np.linalg.norm(means, axis=1, keepdims=True)
        cos = unit @ unit.T
        off = cos[~np.eye(4, dtype=bool)]
        assert np.degrees(np.arccos(np.clip(off, -1, 1))).min() >= 30.0

    def test_split_sizes_and_tags(self):
        train_ts, test_ts = synth_spectral_task(8, 2, 25, seed=6, test_samples=10)
        assert len(train_ts) == 25 and train_ts.split == "train"
        assert len(test_ts) == 10 and test_ts.split == "test"


class TestSplitAndTilesFile:
    def test_split_disjoint_union(self):
        rng = np.random.default_rng(8)
        ts = TileSet(rng.standard_normal((20, 2, 3, 3)), np.arange(20))
        train_ts, test_ts = split_tiles(ts, 0.5, seed=1)
        assert len(train_ts) == 10 and len(test_ts) == 10
        assert sorted(np.concatenate([train_ts.labels, test_ts.labels])) == list(range(20))
        again = split_tiles(ts, 0.5, seed=1)
        assert np.array_equal(train_ts.labels, again[0].labels)

    def test_tiles_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ts = TileSet(rng.standard_normal((6, 3, 4, 4)), rng.integers(0, 3, 6),
                     split="test", stats=Stats(np.arange(3.0), np.ones(3)))
        path = tmp_path / "t.tls"
        save_tiles(ts, str(path))
        loaded = load_tiles(str(path))
        assert loaded.split == "test"
        assert np.array_equal(loaded.tiles, ts.tiles)
        assert np.array_equal(loaded.labels, ts.labels)
        assert np.array_equal(loaded.stats.mean, ts.stats.mean)
        assert np.array_equal(loaded.stats.std, ts.stats.std)

    def test_tiles_round_trip_without_stats(self, tmp_path):
        ts = TileSet(np.zeros((2, 1, 2, 2)), np.zeros(2, dtype=int))
        path = tmp_path / "t.tls"
        save_tiles(ts, str(path))
        assert load_tiles(str(path)).stats is None
