"""The canonical GEMM behind resumable plans, against its definition.

``_cgemm`` promises one fixed float32 summation order per output
element, ``((x0*w0) + x1*w1) + ...``.  The oracle here is the original
column-by-column axpy loop that spells that order out literally; the
kernel must match it bit for bit on every shape (both of its size
branches), on strided and sliced operand views, and — the properties
exact widening and ``ResumablePlan.subset`` rest on — under column
extension and row subsetting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slicing.resume import _SMALL_BLOCK, _cgemm


def _axpy_oracle(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.empty((x.shape[0], w.shape[0]), dtype=np.float32)
    for j, row in enumerate(w):
        acc = x[:, 0] * row[0]
        for k in range(1, row.shape[0]):
            acc += x[:, k] * row[k]
        out[:, j] = acc
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float32
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _operands(rng, m, k, n):
    x = rng.standard_normal((m, k)).astype(np.float32)
    w = rng.standard_normal((n, k)).astype(np.float32)
    return x, w


SHAPES = [
    (1, 1, 1), (1, 7, 1), (1, 40, 1), (5, 1, 3), (1, 64, 9), (9, 64, 1),
    (3, 5, 7), (32, 16, 4), (7, 64, 64), (31, 33, 32), (32, 32, 32),
    (4, 128, 3), (32, 128, 4), (1, 128, 128), (32, 16, 128), (8, 128, 130), (64, 3, 40),
]


def test_shapes_cover_both_branches():
    sizes = [m * n for m, _, n in SHAPES]
    assert min(sizes) < _SMALL_BLOCK <= max(sizes)


@pytest.mark.parametrize("m,k,n", SHAPES)
def test_bitwise_equal_to_axpy_oracle(m, k, n):
    x, w = _operands(np.random.default_rng(m * 10007 + k * 101 + n), m, k, n)
    _assert_bitwise(_cgemm(x, w), _axpy_oracle(x, w))


@pytest.mark.parametrize("m,k,n", [(6, 20, 5), (40, 24, 48)])
def test_strided_and_sliced_views(m, k, n):
    rng = np.random.default_rng(k)
    big_x = rng.standard_normal((2 * m, 3 * k)).astype(np.float32)
    big_w = rng.standard_normal((2 * n, 3 * k)).astype(np.float32)
    views = [
        (big_x[::2, ::3], big_w[::2, ::3]),             # strided both axes
        (big_x[1:m + 1, k:2 * k], big_w[:n, 2 * k:]),  # offset slices
        (np.asfortranarray(big_x[:m, :k]), big_w[n:, :k]),
        (np.ascontiguousarray(big_x[:m, :k].T).T,      # transposed storage
         np.ascontiguousarray(big_w[:n, :k].T).T),
    ]
    for x, w in views:
        assert x.shape == (m, k) and w.shape == (n, k)
        _assert_bitwise(_cgemm(x, w), _axpy_oracle(x, w))


def test_signed_zeros_and_cancellation():
    x = np.array([[-0.0, 1.0, -1.0], [0.0, 1e30, -1e30]], dtype=np.float32)
    w = np.array([[1.0, 1e-30, 1e-30], [-1.0, 0.0, 0.0]], dtype=np.float32)
    _assert_bitwise(_cgemm(x, w), _axpy_oracle(x, w))
    # K=1: -0.0 * 1.0 must stay -0.0 (no addition to a +0.0 seed).
    one = _cgemm(x[:, :1], w[:, :1])
    assert np.signbit(one[0, 0]) and not np.signbit(one[1, 0])


@pytest.mark.parametrize("m,k,n", [(12, 40, 24), (48, 40, 96)])
def test_column_extension_reproduces_prefix(m, k, n):
    x, w = _operands(np.random.default_rng(n), m, k, n)
    full = _cgemm(x, w)
    for cols in (1, n // 3, n - 1):
        _assert_bitwise(_cgemm(x, w[:cols]), full[:, :cols])
        # The tail computed on its own grafts on bitwise, as in widen().
        _assert_bitwise(np.concatenate(
            [_cgemm(x, w[:cols]), _cgemm(x, w[cols:])], axis=1), full)


@pytest.mark.parametrize("m,k,n", [(12, 40, 24), (48, 40, 96)])
def test_row_subset_reproduces_rows(m, k, n):
    rng = np.random.default_rng(m)
    x, w = _operands(rng, m, k, n)
    full = _cgemm(x, w)
    for rows in (np.array([0]), np.array([m - 1, 2, 5]),
                 np.sort(rng.choice(m, m // 2, replace=False)),
                 rng.random(m) < 0.3):
        _assert_bitwise(_cgemm(x[rows], w), full[rows])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 40), k=st.integers(1, 160), n=st.integers(1, 48),
       seed=st.integers(0, 2**16))
def test_random_shapes_match_oracle(m, k, n, seed):
    x, w = _operands(np.random.default_rng(seed), m, k, n)
    _assert_bitwise(_cgemm(x, w), _axpy_oracle(x, w))
