"""Matrix primitives shared by the factorization code.

Factors are 2-d float64 numpy arrays; a corpus may also be a scipy sparse
CSC array, which as_corpus, stored_entries, frobenius_sq and residual_sq
accept. The multiplicative update rules only ever divide by denominators
floored at EPSILON, so the helpers here are written to preserve
nonnegativity and never emit NaN/Inf on nonnegative input.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# A factored squared error below this fraction of the magnitudes it is summed
# from has lost too many digits to cancellation and is recomputed from the
# residual itself. A default 100-iteration fit and the converged fit of the
# KKT acceptance check stay at or above 5.7e-3; an exact reconstruction
# measures about 3e-17 and a noise-free fit falls to 1e-5.
CANCELLATION_GUARD = 1e-4

# The floor of every denominator in a multiplicative update, MRTL's and NMF's.
EPSILON = 1e-12

# residual_sq's fallback forms the residual X - B W^T in column blocks of
# about this many bytes, so it never holds an M x n array beside the corpus.
RESIDUAL_BLOCK_BYTES = 1 << 20

# Every piece of blocks() starts at a multiple of this many lines; see blocks.
BLOCK_ALIGN = 64


def as_corpus(a):
    """a as float64: a scipy sparse input becomes a CSC array, anything else
    a numpy array. Shapes are the caller's to check."""
    if sp.issparse(a):
        return sp.csc_array(a, dtype=np.float64)
    return np.asarray(a, dtype=np.float64)


def stored_entries(a) -> np.ndarray:
    """The entries a holds: a sparse array's stored values, or a itself."""
    return a.data if sp.issparse(a) else a


def safe_ratio_sqrt(num, den) -> np.ndarray:
    """Elementwise sqrt(num / den) with the denominator floored at EPSILON.

    Both operands must be nonnegative arrays of identical shape (the engine
    passes its own products); the floor keeps every ratio finite, so the
    result is always a finite nonnegative matrix. This is the multiplicative
    step factor used by all update rules.
    """
    step = np.maximum(den, EPSILON)
    np.divide(num, step, out=step)
    return np.sqrt(step, out=step)


def frobenius_sq(a) -> float:
    """Sum of squared entries, i.e. the squared Frobenius norm."""
    a = a.data if sp.issparse(a) else np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def residual_sq(X, xx: float, B, W, XW, G) -> float:
    """||X - B W^T||^2 without forming the M x n product B W^T.

    X is M x n (dense or sparse) with xx = ||X||^2, B is M x r, W is n x r,
    and the caller passes XW = X @ W and G = W^T W, which it may share
    between terms. The value is xx - 2 <X W, B> + <B^T B, W^T W> (Lee &
    Seung, NIPS 2000), which adds only the r x r Gram matrix of B. When it
    falls below CANCELLATION_GUARD of xx + 2 |<X W, B>| + <B^T B, W^T W> it
    is taken again directly from the residual X - B W^T, in column blocks
    of about RESIDUAL_BLOCK_BYTES; near an exact fit that keeps the value
    accurate. It is exactly 0 when X was formed as B @ W.T and BLAS forms
    each column block of that product as it forms the whole. OpenBLAS 0.3.31
    does, except for a ragged last block at some widths: at M >= 500 and
    n = 300, 700 or 1500, for one, that block differs in the last bit, and
    the value comes out below 1e-34 of ||X||^2 instead of 0.
    """
    cross = float(np.sum(XW * B))
    gram = float(np.sum((B.T @ B) * G))
    value = xx - 2.0 * cross + gram
    if value >= CANCELLATION_GUARD * (xx + 2.0 * abs(cross) + gram):
        return value
    total = 0.0
    for cols in blocks(X.shape[1], X.shape[0], RESIDUAL_BLOCK_BYTES):
        X_cols = X[:, cols]
        if sp.issparse(X_cols):
            X_cols = X_cols.toarray()
        total += frobenius_sq(X_cols - B @ W[cols].T)
    return total


def blocks(count: int, width: int, nbytes: int) -> list:
    """Slices covering 0..count in pieces of about nbytes of float64 lines
    (rows or columns) width long.

    Each piece starts at a multiple of BLOCK_ALIGN lines and the last one
    takes what is left over, so no piece is a lone line, which BLAS takes as
    a matrix-vector product. A product formed piece by piece then keeps the
    tiling of the product formed whole: for the products the engine blocks,
    an M x c factor times a c x k one, OpenBLAS 0.3.31 gives the same bits
    either way for every k up to 195 (wider ones may differ in the last
    bit).
    """
    size = max(nbytes // (8 * max(width, 1)) // BLOCK_ALIGN, 1) * BLOCK_ALIGN
    bounds = [*range(0, max(count // size, 1) * size, size), count]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def normalize_columns_l1(a, out=None) -> np.ndarray:
    """Rescale each column to sum 1; an all-zero column becomes uniform.

    Degenerate columns are mapped to the uniform distribution 1/rows rather
    than left at zero so downstream multiplicative updates can still move
    them. Nonnegative input is assumed. In a stack of matrices each is taken
    alone. The result goes into out when given (a itself, to normalize in
    place), else into a new array.
    """
    return _normalize_l1(a, -2, out)


def normalize_rows_l1(a, out=None) -> np.ndarray:
    """Rescale each row to sum 1; an all-zero row becomes uniform 1/cols.
    Stacks and out as in normalize_columns_l1."""
    return _normalize_l1(a, -1, out)


def _normalize_l1(a, axis: int, out) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing sum is taken again below
        sums = a.sum(axis=axis, keepdims=True)
    if 0.0 < sums.min(initial=np.inf) and sums.max(initial=0.0) < np.inf:
        return np.divide(a, sums, out=out)
    huge = sums == np.inf
    if huge.any():  # such a line, divided by its largest entry, sums in range
        a = a / np.where(huge, a.max(axis=axis, keepdims=True), 1.0)
        sums = np.where(huge, a.sum(axis=axis, keepdims=True), sums)
    positive = sums > 0.0
    result = np.divide(a, np.where(positive, sums, 1.0), out=out)
    np.copyto(result, 1.0 / a.shape[axis], where=~positive)
    return result
