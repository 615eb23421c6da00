"""Dense matrix primitives shared by the factorization code.

Everything operates on 2-d float64 numpy arrays. The multiplicative update
rules only ever divide by epsilon-floored denominators, so the helpers here
are written to preserve nonnegativity and never emit NaN/Inf on nonnegative
input.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Two operands have incompatible shapes for the requested operation."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got array of ndim {a.ndim}")
    return a


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
    a = _as_matrix(a)
    return float(np.sum(a * a))


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
