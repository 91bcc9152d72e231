import os

import numpy as np
import pytest


def _recorded_blas() -> bool:
    """Whether numpy's BLAS rounds as it did where the bit pins were recorded.

    The pins were recorded with numpy 2.4's OpenBLAS on its AVX-512 kernels.
    Its AVX2 kernels (Haswell, AMD Zen 2 and 3) give a GEMM row another
    rounding where a thread's share of the rows leaves one row over, so even
    an unsliced matmul's last bits depend on the thread count there.
    """
    if not np.__version__.startswith("2.4."):
        return False
    features = np._core._multiarray_umath.__cpu_features__
    return features.get("AVX512F", False) and "OPENBLAS_CORETYPE" not in os.environ


RECORDED_BLAS = _recorded_blas()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "recorded_blas: compares bits that hold only for numpy 2.4's "
                   "OpenBLAS on its AVX-512 kernels")


def pytest_runtest_setup(item):
    if item.get_closest_marker("recorded_blas") and not RECORDED_BLAS:
        pytest.skip("bits recorded with numpy 2.4's OpenBLAS on AVX-512 kernels")
