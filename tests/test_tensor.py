import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperadapt.errors import FormatError, ShapeError
from hyperadapt.tensor import (
    as_tensor,
    fold,
    frobenius_norm,
    khatri_rao,
    load_tensor,
    mode_product,
    save_tensor,
    unfold,
)


def unfold_by_enumeration(t, mode):
    """Independent oracle: walk every index tuple and place it explicitly."""
    t = np.asarray(t)
    others = [ax for ax in range(t.ndim) if ax != mode]
    out = np.zeros((t.shape[mode], int(np.prod([t.shape[ax] for ax in others]))))
    for idx in np.ndindex(*t.shape):
        col = 0
        for ax in others:
            col = col * t.shape[ax] + idx[ax]
        out[idx[mode], col] = t[idx]
    return out


shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4)


@st.composite
def tensors(draw):
    shape = tuple(draw(shapes))
    n = int(np.prod(shape))
    data = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n))
    return np.array(data).reshape(shape)


class TestUnfold:
    def test_matrix_is_its_own_mode0_unfolding(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(unfold(t, 0), t)

    def test_first_row_of_mode0(self):
        t = np.arange(1.0, 13.0).reshape(3, 2, 2)
        u = unfold(t, 0)
        assert u.shape == (3, 4)
        assert np.array_equal(u[0], [1, 2, 3, 4])

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_index_enumeration(self, mode):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4, 5))
        assert np.array_equal(unfold(t, mode), unfold_by_enumeration(t, mode))

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            unfold(np.ones((2, 2)), 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tensors(), st.data())
    def test_fold_round_trip_bit_exact(self, t, data):
        mode = data.draw(st.integers(0, t.ndim - 1))
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


class TestModeProduct:
    def test_identity_matrix(self):
        t = np.random.default_rng(1).standard_normal((3, 2, 4))
        assert np.allclose(mode_product(t, np.eye(2), 1), t)

    def test_summation_row(self):
        t = np.ones((3, 2, 2))
        out = mode_product(t, np.ones((1, 3)), 0)
        assert out.shape == (1, 2, 2)
        assert np.allclose(out, 3.0)

    def test_matches_elementwise_definition(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 2))
        m = rng.standard_normal((5, 4))
        out = mode_product(t, m, 1)
        expected = np.zeros((3, 5, 2))
        for i in range(3):
            for a in range(5):
                for k in range(2):
                    expected[i, a, k] = sum(m[a, j] * t[i, j, k] for j in range(4))
        assert np.allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mode_product(np.ones((3, 2)), np.ones((2, 4)), 0)

    def test_commutes_across_distinct_modes(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 4))
        ab = mode_product(mode_product(t, a, 0), b, 1)
        ba = mode_product(mode_product(t, b, 1), a, 0)
        assert np.allclose(ab, ba, rtol=1e-12, atol=1e-12)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(tensors())
    def test_invariant_under_unfolding(self, t):
        n = frobenius_norm(t)
        for mode in range(t.ndim):
            m = np.linalg.norm(unfold(t, mode))
            assert m == pytest.approx(n, rel=1e-12, abs=1e-300)


class TestKhatriRao:
    def test_ones(self):
        out = khatri_rao(np.ones((2, 1)), np.ones((2, 1)))
        assert np.array_equal(out, np.ones((4, 1)))

    def test_hand_case(self):
        out = khatri_rao(np.array([[2.0], [3.0]]), np.array([[1.0], [0.0]]))
        assert np.array_equal(out.ravel(), [2.0, 0.0, 3.0, 0.0])

    def test_gram_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        kr = khatri_rao(a, b)
        assert np.allclose(kr.T @ kr, (a.T @ a) * (b.T @ b), atol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(ShapeError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    def test_stack_matches_each_pair(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3, 4, 2))
        b = rng.standard_normal((2, 3, 5, 2))
        kr = khatri_rao(a, b)
        assert kr.shape == (2, 3, 20, 2)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(kr[idx], khatri_rao(a[idx], b[idx]))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 4, 2), (3, 5, 2)), ((4, 2), (2, 5, 2)), ((4, 2), (5,)),
    ])
    def test_batch_mismatch(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            khatri_rao(np.ones(a_shape), np.ones(b_shape))


class TestValidation:
    def test_scalar_coerced_to_order_one(self):
        assert as_tensor(3.0).shape == (1,)

    def test_empty_extent_rejected(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((2, 0)))


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        t = np.random.default_rng(6).standard_normal((2, 3, 4))
        path = tmp_path / "t.tns"
        save_tensor(t, str(path))
        assert np.array_equal(load_tensor(str(path)), t)

    def test_truncated_file_names_byte_counts(self, tmp_path):
        t = np.ones((2, 2))
        path = tmp_path / "t.tns"
        save_tensor(t, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(FormatError, match=r"expected \d+ bytes"):
            load_tensor(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_tensor(str(path))

    def test_zero_extent_rejected(self, tmp_path):
        import struct

        path = tmp_path / "t.tns"
        path.write_bytes(b"TNS1" + struct.pack("<II", 1, 0))
        with pytest.raises(ShapeError):
            load_tensor(str(path))
