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

    Both operands must be nonnegative arrays of identical shape and epsilon
    positive (the engine passes its own products and a Hyperparams epsilon);
    the floor keeps every ratio finite, so the result is always a finite
    nonnegative matrix. This is the multiplicative step factor used by all
    update rules.
    """
    return np.sqrt(num / np.maximum(den, epsilon))


def frobenius_sq(a) -> float:
    """Sum of squared entries, i.e. the squared Frobenius norm."""
    a = a.data if sp.issparse(a) else np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def residual_sq(X, xx: float, B, W) -> float:
    """||X - B W^T||^2 without forming the M x n product B W^T.

    X is M x n (dense or sparse) with xx = ||X||^2, B is M x r and W is
    n x r. The value is xx - 2 <X W, B> + <B^T B, W^T W> (Lee & Seung, NIPS
    2000), which costs one X @ W and two r x r Gram matrices. When it falls
    below CANCELLATION_GUARD of xx + 2 |<X W, B>| + <B^T B, W^T W> it is
    taken again directly from the residual X - B W^T; near an exact fit that
    keeps the value accurate (exactly 0 when X was formed as B @ W.T).
    """
    cross = float(np.sum((X @ W) * B))
    gram = float(np.sum((B.T @ B) * (W.T @ W)))
    value = xx - 2.0 * cross + gram
    if value < CANCELLATION_GUARD * (xx + 2.0 * abs(cross) + gram):
        return frobenius_sq(X - B @ W.T)
    return value


def normalize_columns_l1(a) -> np.ndarray:
    """Rescale each column to sum 1; an all-zero column becomes uniform.

    Degenerate columns are mapped to the uniform distribution 1/rows rather
    than left at zero so downstream multiplicative updates can still move
    them. Nonnegative input is assumed.
    """
    a = np.asarray(a, dtype=np.float64)
    sums = a.sum(axis=0, keepdims=True)
    positive = sums > 0.0
    return np.where(positive, a / np.where(positive, sums, 1.0), 1.0 / a.shape[0])


def normalize_rows_l1(a) -> np.ndarray:
    """Rescale each row to sum 1; an all-zero row becomes uniform 1/cols."""
    a = np.asarray(a, dtype=np.float64)
    sums = a.sum(axis=1, keepdims=True)
    positive = sums > 0.0
    return np.where(positive, a / np.where(positive, sums, 1.0), 1.0 / a.shape[1])
