"""Matrix primitives against hand values and naive oracles."""

import numpy as np
import pytest

from mrtl.linalg import (
    frobenius_sq,
    normalize_columns_l1,
    normalize_rows_l1,
    safe_ratio_sqrt,
)


def test_safe_ratio_sqrt_fixed_point():
    rng = np.random.default_rng(4)
    A = rng.random((4, 3)) + 0.5
    assert np.array_equal(safe_ratio_sqrt(A, A), np.ones_like(A))


def test_safe_ratio_sqrt_hand():
    got = safe_ratio_sqrt(np.array([[4.0]]), np.array([[1.0]]))
    assert np.array_equal(got, np.array([[2.0]]))


def test_safe_ratio_sqrt_zero_denominator():
    got = safe_ratio_sqrt(np.array([[1.0]]), np.array([[0.0]]))
    assert got[0, 0] == pytest.approx(1e6, rel=1e-12)


def test_safe_ratio_sqrt_closure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        shape = tuple(rng.integers(1, 8, size=2))
        num = rng.random(shape) * rng.choice([0.0, 1.0, 1e6], size=shape)
        den = rng.random(shape) * rng.choice([0.0, 1.0, 1e-14], size=shape)
        out = safe_ratio_sqrt(num, den)
        assert np.all(out >= 0) and np.all(np.isfinite(out))


def test_frobenius_sq_trivials():
    assert frobenius_sq(np.zeros((3, 5))) == 0.0
    assert frobenius_sq(np.array([[3.0, 4.0]])) == 25.0


def test_frobenius_sq_oracle():
    rng = np.random.default_rng(6)
    A = rng.random((6, 6))
    want = sum(A[i, j] ** 2 for i in range(6) for j in range(6))
    assert abs(frobenius_sq(A) - want) <= 1e-12


def test_normalize_columns_hand():
    got = normalize_columns_l1(np.array([[0.2], [0.3]]))
    assert np.allclose(got, np.array([[0.4], [0.6]]), rtol=0, atol=1e-15)


def test_normalize_columns_zero_column_uniform():
    X = np.zeros((4, 2))
    X[:, 1] = [1.0, 1.0, 1.0, 1.0]
    got = normalize_columns_l1(X)
    assert np.array_equal(got[:, 0], np.full(4, 0.25))
    assert np.array_equal(got[:, 1], np.full(4, 0.25))


def test_normalize_rows_hand_and_zero_row():
    got = normalize_rows_l1(np.array([[1.0, 3.0], [0.0, 0.0]]))
    assert np.allclose(got[0], [0.25, 0.75], rtol=0, atol=1e-15)
    assert np.array_equal(got[1], [0.5, 0.5])


def test_normalize_idempotent():
    rng = np.random.default_rng(7)
    A = rng.random((6, 5))
    once = normalize_columns_l1(A)
    assert np.max(np.abs(normalize_columns_l1(once) - once)) <= 1e-15
    wide = rng.random((5, 6))
    ronce = normalize_rows_l1(wide)
    assert np.max(np.abs(normalize_rows_l1(ronce) - ronce)) <= 1e-15


def test_normalize_preserves_column_order():
    rng = np.random.default_rng(8)
    A = rng.random((10, 4)) + 0.01
    out = normalize_columns_l1(A)
    for j in range(4):
        assert np.array_equal(np.argsort(A[:, j]), np.argsort(out[:, j]))


@pytest.mark.parametrize("normalize, axis", [
    (normalize_columns_l1, -2), (normalize_rows_l1, -1),
], ids=["columns", "rows"])
def test_stacked_normalize_takes_each_matrix_alone(normalize, axis):
    # sums run over the matrix axes, never over the stack, and an all-zero
    # line becomes uniform over its own matrix's lines, not 1/P
    rng = np.random.default_rng(9)
    P, rows, cols = 3, 7, 4
    stack = rng.random((P, rows, cols))
    if axis == -2:
        stack[1, :, 2] = 0.0
    else:
        stack[1, 5, :] = 0.0
    before = stack.copy()
    want = [normalize(a) for a in before]
    got = normalize(stack)
    assert np.array_equal(stack, before)
    in_place = stack.copy()
    assert normalize(in_place, out=in_place) is in_place
    for p in range(P):
        assert np.array_equal(got[p], want[p])
        assert np.array_equal(in_place[p], want[p])
    uniform = got[1, :, 2] if axis == -2 else got[1, 5, :]
    assert np.array_equal(uniform, np.full(uniform.shape, 1.0 / before.shape[axis]))
