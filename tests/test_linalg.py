"""Matrix primitives against hand values and naive oracles, and the sparse
corpus against scipy.sparse, bit for bit."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mrtl.linalg
from mrtl.data import normalize_input
from mrtl.linalg import (
    GRAM_MAX_RATIO_CSC,
    GRAM_MAX_RATIO_DENSE,
    SparseCorpus,
    _column_reduce,
    as_corpus,
    frobenius_sq,
    gram,
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


def scipy_cases():
    """CSC arrays with empty columns, one-entry columns, dense columns and
    entries over many magnitudes, with 32-bit and with 64-bit indices."""
    rng = np.random.default_rng(23)
    out = []
    for M, n, density in [(40, 30, 0.1), (25, 60, 0.3), (12, 9, 1.0), (5, 4, 0.0)]:
        A = rng.random((M, n)) * 10.0 ** rng.uniform(-8, 8, (M, n))
        A *= rng.random((M, n)) < density
        if n > 4:
            A[:, 1] = 0.0  # an empty column
            A[:, 2] = 0.0
            A[M // 2, 2] = 7.0  # a one-entry column
        S = sp.csc_array(A)
        out.append(S)
        wide = S.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        out.append(wide)
    return out


@pytest.mark.parametrize("chunk", [mrtl.linalg.GRAM_CHUNK_PAIRS, 5])
@pytest.mark.parametrize("S", scipy_cases())
def test_sparse_corpus_products_equal_scipys(S, chunk, monkeypatch):
    # a chunk of 5 pairs splits every row of entries across chunks
    monkeypatch.setattr(mrtl.linalg, "GRAM_CHUNK_PAIRS", chunk)
    X = as_corpus(S)
    assert isinstance(X, SparseCorpus) and X.indices.dtype == np.intp
    M, n = S.shape
    rng = np.random.default_rng(M * n)
    for k in (1, 3):
        D, E = rng.random((n, k)), rng.random((M, k))
        assert np.array_equal(X @ D, S @ D)
        assert np.array_equal(X @ D.T.copy().T, S @ D)  # F-ordered
        assert np.array_equal(X.T @ E, S.T @ E)
    assert np.array_equal(X.T @ X, (S.T @ S).toarray())
    assert np.array_equal(X.toarray(), S.toarray())
    assert np.array_equal(X[:, 1:n - 1], S[:, 1:n - 1].toarray())
    assert X.nnz == S.nnz and X.ndim == 2


def test_gram_is_formed_up_to_its_ratio_of_the_stored_entries():
    # n^2 = ratio * stored entries forms X^T X; one instance more does not.
    # A dense corpus stores all M n entries, zeros too (ratio 1: n = M); a
    # sparse one its nonzero values (ratio 4: n = 4 with 4 entries, the
    # instance past it stores none)
    assert (GRAM_MAX_RATIO_DENSE, GRAM_MAX_RATIO_CSC) == (1, 4)
    dense = np.zeros((4, 5))
    dense[:, :4] = np.eye(4) + 0.5
    assert np.array_equal(gram(dense[:, :4]), dense[:, :4].T @ dense[:, :4])
    assert gram(dense) is None
    X = SparseCorpus.from_entries([0, 2, 1, 0], [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0],
                                  (3, 4))
    assert np.array_equal(gram(X), X.T @ X)
    assert np.array_equal(gram(X), X.toarray().T @ X.toarray())
    wide = SparseCorpus(X.data, X.indices, [*X.indptr, X.nnz], (3, 5))
    assert gram(wide) is None


@pytest.mark.parametrize("S", scipy_cases())
def test_column_sums_and_maxima_equal_scipys(S):
    assert np.array_equal(_column_reduce(np.add, S.data, S.indptr), S.sum(axis=0))
    assert np.array_equal(_column_reduce(np.maximum, S.data, S.indptr),
                          S.max(axis=0).toarray())


def scipy_normalize_input(S):
    """normalize_input's sparse branch as it was written on scipy.sparse."""
    X = sp.csc_array(S, dtype=np.float64)
    with np.errstate(over="ignore"):
        sums = X.sum(axis=0)
    M, n = X.shape
    counts = np.diff(X.indptr)
    huge = sums == np.inf
    if huge.any():
        peaks = np.where(huge, X.max(axis=0).toarray(), 1.0)
        X.data = X.data / np.repeat(peaks, counts)
        sums = np.where(huge, X.sum(axis=0), sums)
    positive = sums > 0.0
    X.data = X.data / np.repeat(np.where(positive, sums, 1.0), counts)
    empty = np.flatnonzero(~positive)
    if empty.size:
        X = X + sp.csc_array(
            (np.full(M * empty.size, 1.0 / M),
             (np.tile(np.arange(M), empty.size), np.repeat(empty, M))),
            shape=(M, n),
        )
    return X


@pytest.mark.parametrize("S", scipy_cases())
def test_normalize_input_equals_scipys(S):
    A = S.toarray()
    A[:2, 0] = 1e308  # the first column's sum passes the float64 range
    index = S.indices.dtype
    S = sp.csc_array(A)
    S.indices, S.indptr = S.indices.astype(index), S.indptr.astype(index)
    with np.errstate(over="ignore"):
        sums, want = _column_reduce(np.add, S.data, S.indptr), S.sum(axis=0)
    assert sums[0] == np.inf and np.array_equal(sums, want)
    got, want = normalize_input(S), scipy_normalize_input(S)
    assert isinstance(got, SparseCorpus)
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("data, indices, indptr", [
    ([1.0, 2.0], [0, 1], [0, 2]),  # indptr one short
    ([1.0, 2.0], [0, 1], [0, 1, 2, 2]),  # indptr one long
    ([1.0, 2.0], [0, 7], [0, 1, 2]),  # an index past M
    ([1.0, 2.0], [-1, 0], [0, 1, 2]),  # a negative index
    ([1.0, 2.0, 3.0], [0, 1], [0, 1, 2]),  # data longer than indptr[-1]
    ([1.0, 2.0], [0, 1, 2], [0, 1, 2]),  # indices longer than indptr[-1]
    ([1.0, 2.0], [0, 1], [1, 1, 2]),  # indptr not starting at 0
    ([1.0, 2.0], [0, 1], [0, 2, 1]),  # indptr decreasing
    ([1.0, 2.0], [0.0, 1.0], [0, 1, 2]),  # float indices
    ([1.0, 2.0], [0, 1], [0.0, 1.0, 2.0]),  # float indptr
    ([[1.0, 2.0]], [[0, 1]], [0, 1, 2]),  # 2-d data and indices
], ids=["indptr-short", "indptr-long", "index-past-M", "index-negative",
        "data-long", "indices-long", "indptr-start", "indptr-falls",
        "float-indices", "float-indptr", "2-d"])
def test_sparse_corpus_refuses_arrays_of_another_shape(data, indices, indptr):
    with pytest.raises(ValueError, match="of an 3 x 2 array"):
        SparseCorpus(data, indices, indptr, (3, 2))


def test_from_entries_refuses_entries_out_of_column_order():
    with pytest.raises(ValueError, match="3 x 2 corpus must come column by column"):
        SparseCorpus.from_entries([0, 1], [1, 0], [1.0, 2.0], (3, 2))
    with pytest.raises(ValueError, match="of an 3 x 2 array"):  # a column past n
        SparseCorpus.from_entries([0, 1], [0, 2], [1.0, 2.0], (3, 2))
    X = SparseCorpus.from_entries([2, 0, 1], [0, 2, 2], [1.0, 2.0, 3.0], (3, 3))
    assert np.array_equal(X.toarray(), [[0, 0, 2], [0, 0, 3], [1, 0, 0]])
    assert X.indices.dtype == X.indptr.dtype == np.intp


@pytest.mark.parametrize("product, shape, rows, seen", [
    (lambda X, D: X @ D, (4, 1), 3, (4, 1)),
    (lambda X, D: X @ D, (3,), 3, (3,)),
    (lambda X, D: X.T @ D, (3, 2), 4, (3, 2)),
    (lambda X, D: X.T @ D, (1, 4, 1), 4, (1, 4, 1)),
], ids=["X@D-rows", "X@D-1d", "XT@D-rows", "XT@D-3d"])
def test_sparse_products_refuse_a_factor_of_another_shape(product, shape, rows, seen):
    X = SparseCorpus([1.0, 2.0], [0, 2], [0, 1, 2, 2], (4, 3))
    with pytest.raises(ValueError, match=re.escape(
            f"takes a 2-d array of {rows} rows, got shape {seen}")):
        product(X, np.ones(shape))


def test_a_sparse_corpus_is_never_a_right_factor():
    # the product layout of linalg's docstring: a corpus enters a product
    # only as X @ D, X.T @ D or X.T @ X
    X = SparseCorpus([1.0, 2.0], [0, 2], [0, 1, 2, 2], (4, 3))
    for D, corpus in ((np.ones((2, 4)), X), (np.ones((2, 3)), X.T)):
        with pytest.raises(TypeError):
            D @ corpus
    assert not hasattr(SparseCorpus, "__rmatmul__")


@pytest.mark.parametrize("key", [
    (slice(None), 1), (slice(0, 2), slice(None)), (slice(None), slice(0, 3, 2)),
    (slice(None), [0, 1]), (0, slice(None)),
])
def test_sparse_corpus_takes_only_column_slices(key):
    X = SparseCorpus([1.0, 2.0], [0, 2], [0, 1, 2, 2], (4, 3))
    with pytest.raises(IndexError, match=r"only as X\[:, a:b\]"):
        X[key]


def test_only_linalg_reads_the_sparse_format():
    # SparseCorpus's arrays have one owner: a module that read them would
    # have to change with the format
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(Path(mrtl.linalg.__file__).parent.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in {"indptr", "indices", "columns"}
    ]
    assert readers == []
