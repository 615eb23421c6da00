"""Matrix primitives shared by the factorization code.

Factors are 2-d float64 numpy arrays; a corpus may also be a scipy sparse
CSC array, which as_corpus, stored_entries, frobenius_sq and residual_sq
accept. The multiplicative update rules only ever divide by epsilon-floored
denominators, so the helpers here are written to preserve nonnegativity and
never emit NaN/Inf on nonnegative input.
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


class ShapeMismatchError(ValueError):
    """Two operands have incompatible shapes for the requested operation."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got array of ndim {a.ndim}")
    return a


def as_corpus(a):
    """a as float64: a scipy sparse input becomes a CSC array, anything else
    a numpy array. Shapes are the caller's to check."""
    if sp.issparse(a):
        return sp.csc_array(a, dtype=np.float64)
    return np.asarray(a, dtype=np.float64)


def stored_entries(a) -> np.ndarray:
    """The entries a holds: a sparse array's stored values, or a itself."""
    return a.data if sp.issparse(a) else a


def safe_ratio_sqrt(num, den, epsilon: float) -> np.ndarray:
    """Elementwise sqrt(num / den) with the denominator floored at epsilon.

    Both operands must be nonnegative and of identical shape; the floor keeps
    every ratio finite, so the result is always a finite nonnegative matrix.
    This is the multiplicative step factor used by all update rules.
    """
    num = _as_matrix(num)
    den = _as_matrix(den)
    if num.shape != den.shape:
        raise ShapeMismatchError(
            f"ratio needs equal shapes, got {num.shape[0]}x{num.shape[1]} "
            f"and {den.shape[0]}x{den.shape[1]}"
        )
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return np.sqrt(num / np.maximum(den, epsilon))


def frobenius_sq(a) -> float:
    """Sum of squared entries, i.e. the squared Frobenius norm."""
    a = a.data if sp.issparse(a) else _as_matrix(a)
    return float(np.sum(a * a))


def residual_sq(X, xx: float, B, W, reconstruct) -> float:
    """||X - B W^T||^2 without forming the M x n product B W^T.

    X is M x n (dense or sparse) with xx = ||X||^2, B is M x r and W is
    n x r. The value is xx - 2 <X W, B> + <B^T B, W^T W> (Lee & Seung, NIPS
    2000), which costs one X @ W and two r x r Gram matrices. When it falls
    below CANCELLATION_GUARD of xx + 2 |<X W, B>| + <B^T B, W^T W> it is
    taken again directly from X - reconstruct(), reconstruct returning
    B W^T as a dense array; near an exact fit that keeps the value accurate
    (exactly 0 on an exact reconstruction).
    """
    cross = float(np.sum((X @ W) * B))
    gram = float(np.sum((B.T @ B) * (W.T @ W)))
    value = xx - 2.0 * cross + gram
    if value < CANCELLATION_GUARD * (xx + 2.0 * abs(cross) + gram):
        return frobenius_sq(X - reconstruct())
    return value


def normalize_columns_l1(a) -> np.ndarray:
    """Rescale each column to sum 1; an all-zero column becomes uniform.

    Degenerate columns are mapped to the uniform distribution 1/rows rather
    than left at zero so downstream multiplicative updates can still move
    them. Nonnegative input is assumed.
    """
    a = _as_matrix(a)
    sums = a.sum(axis=0, keepdims=True)
    positive = sums > 0.0
    return np.where(positive, a / np.where(positive, sums, 1.0), 1.0 / a.shape[0])


def normalize_rows_l1(a) -> np.ndarray:
    """Rescale each row to sum 1; an all-zero row becomes uniform 1/cols."""
    a = _as_matrix(a)
    sums = a.sum(axis=1, keepdims=True)
    positive = sums > 0.0
    return np.where(positive, a / np.where(positive, sums, 1.0), 1.0 / a.shape[1])
