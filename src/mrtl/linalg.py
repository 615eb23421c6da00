"""Matrix primitives shared by the factorization code.

Factors are 2-d float64 numpy arrays; a corpus may also be a SparseCorpus,
mrtl's compressed sparse column array, which as_corpus, stored_entries,
frobenius_sq and residual_sq accept. Every multiplicative update divides
by a denominator floored at EPSILON, so the helpers keep nonnegative input
nonnegative and never emit NaN/Inf on it.

engine, baselines and this module take every product in one layout: a
corpus X (M x n) is only a left factor (X @ D, X.T @ D or X.T @ X), and a
product whose left factor has M or n rows takes a C-contiguous right factor,
not a transposed view, which kept the bits the same at one and two OpenBLAS
threads at the sizes the tests and the bench run. residual_sq's fallback
B @ W[cols].T is the one exception: it forms B W^T as a caller forms
X = B @ W.T, so that an exact fit measures 0.
"""

from __future__ import annotations

import sys

import numpy as np

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

# SparseCorpus forms X^T X from at most about this many pairs of stored
# entries at a time, so the pair arrays stay near 8 MiB on a dense corpus.
GRAM_CHUNK_PAIRS = 1 << 18


class SparseCorpus:
    """An M x n corpus in compressed sparse column (CSC) form.

    Column j holds the values data[indptr[j]:indptr[j + 1]] at the rows
    indices[indptr[j]:indptr[j + 1]] (np.intp); only this module reads those
    arrays. It offers what mrtl takes of a corpus: shape, ndim, nnz,
    toarray(), normalized(), a dense block of columns X[:, a:b], and the
    products X @ D, X.T @ D and X.T @ X for a dense 2-d D, the module's
    layout. Each product adds its terms in the order the kernels of
    scipy.sparse add them (csc_matvecs, csr_matvecs and csr_matmat), so it
    equals scipy's result to the bit on a CSC array with sorted indices.
    """

    __array_ufunc__ = None  # numpy raises TypeError on D @ X and on ufuncs
    ndim = 2

    def __init__(self, data, indices, indptr, shape):
        M, n = self.shape = (int(shape[0]), int(shape[1]))
        self.data = np.asarray(data, dtype=np.float64)
        indices, indptr = np.asarray(indices), np.asarray(indptr)
        if not (min(M, n) >= 0 and indices.dtype.kind in "iu"
                and indptr.dtype.kind in "iu" and indptr.shape == (n + 1,)
                and indptr[0] == 0 and np.all(indptr[1:] >= indptr[:-1])
                and self.data.shape == indices.shape == (indptr[-1],)
                and np.all((0 <= indices) & (indices < M))):
            raise ValueError(f"not the CSC arrays of an {M} x {n} array: indptr "
                             f"must rise from 0 to len(indices) == len(data) in "
                             f"{n + 1} integers, and every index lie in [0, {M})")
        self.indices = indices.astype(np.intp, copy=False)
        self.indptr = indptr.astype(np.intp, copy=False)
        # the column of each stored entry
        self.columns = np.repeat(np.arange(n), np.diff(self.indptr))

    @classmethod
    def from_entries(cls, rows, cols, values, shape) -> SparseCorpus:
        """values[e] at (rows[e], cols[e]), with the entries given column by
        column and by increasing row within a column."""
        if np.any(np.diff(cols) < 0):
            raise ValueError(f"the entries of a {shape[0]} x {shape[1]} corpus "
                             "must come column by column")
        return cls(values, rows, np.searchsorted(cols, np.arange(shape[1] + 1)), shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def T(self):
        return _Transposed(self)

    def toarray(self) -> np.ndarray:
        return self[:, :]

    def normalized(self) -> SparseCorpus:
        """Each column scaled to sum 1, as normalize_columns_l1 scales a
        dense one: a column whose sum passes the float64 range is divided by
        its largest value first, and an all-zero column becomes the M
        entries 1/M, in place of any zeros it stored."""
        data, at, col = self.data, self.indptr, self.columns
        with np.errstate(over="ignore"):  # an overflowing sum is taken again below
            sums = _column_reduce(np.add, data, at)
        huge = sums == np.inf
        if huge.any():
            data = data / np.where(huge, _column_reduce(np.maximum, data, at), 1.0)[col]
            sums = np.where(huge, _column_reduce(np.add, data, at), sums)
        positive = sums > 0.0
        data = data / np.where(positive, sums, 1.0)[col]
        if positive.all():
            return SparseCorpus(data, self.indices, at, self.shape)
        M, kept, empty = self.shape[0], positive[col], np.flatnonzero(~positive)
        cols = np.concatenate([col[kept], np.repeat(empty, M)])
        order = np.argsort(cols, kind="stable")  # keeps each column's rows in order
        rows = np.concatenate([self.indices[kept], np.tile(np.arange(M), empty.size)])
        values = np.concatenate([data[kept], np.full(M * empty.size, 1.0 / M)])
        return self.from_entries(rows[order], cols[order], values[order], self.shape)

    def __getitem__(self, key) -> np.ndarray:
        """X[:, a:b]: the columns a..b - 1 as a dense M x (b - a) array."""
        rows, cols = key
        if (rows != slice(None) or not isinstance(cols, slice)
                or cols.step not in (None, 1)):
            raise IndexError("a SparseCorpus is indexed only as X[:, a:b]")
        lo, hi, _ = cols.indices(self.shape[1])
        at = slice(self.indptr[lo], self.indptr[hi])
        out = np.zeros((self.shape[0], hi - lo))
        np.add.at(out, (self.indices[at], self.columns[at] - lo), self.data[at])
        return out

    def __matmul__(self, D) -> np.ndarray:
        # csc_matvecs: row i of the result adds data[e] * D[column e] over
        # the entries e at row i, in storage order
        return _products(self.indices, self.shape[0], self.data, D, self.columns,
                         self.shape[1])

    def _gram(self) -> np.ndarray:
        """X.T @ X as a dense n x n array.

        csr_matmat adds to entry (i, k) the term X[j, i] X[j, k] for each row
        j of column i, in storage order, which sorted indices make row
        order. So every pair of entries that share a row is taken, row after
        row, and np.add.at adds each pair's term in that order.
        """
        M, n = self.shape
        gram = np.zeros((n, n))
        if self.nnz == 0:
            return gram
        order = np.argsort(self.indices, kind="stable")  # row by row
        cols, vals = self.columns[order], self.data[order]
        per_row = np.bincount(self.indices, minlength=M)
        # Entry e pairs with every entry of its row, its own included, in row
        # order. Its pairs are numbered starts[e] up to ends[e], and pair p
        # joins it to entry p + shift[e]. A chunk (maybe empty) ends between
        # two entries.
        partners = np.repeat(per_row, per_row)
        ends = np.cumsum(partners)
        starts = ends - partners
        shift = np.repeat(np.cumsum(per_row) - per_row, per_row) - starts
        cuts = np.searchsorted(ends, np.arange(GRAM_CHUNK_PAIRS, ends[-1],
                                               GRAM_CHUNK_PAIRS), side="right")
        bounds = [0, *cuts, self.nnz]
        for e0, e1 in zip(bounds[:-1], bounds[1:]):
            count = partners[e0:e1]
            first = np.repeat(np.arange(e0, e1), count)
            second = np.repeat(shift[e0:e1], count) + np.arange(
                starts[e0], starts[e0] + first.size)
            np.add.at(gram.reshape(-1), cols[first] * n + cols[second],
                      vals[first] * vals[second])
        return gram


class _Transposed:
    """X.T for a SparseCorpus X, as a left factor: X.T @ D and X.T @ X."""

    __array_ufunc__ = None

    def __init__(self, X: SparseCorpus):
        self.X = X
        self.shape = X.shape[::-1]

    def __matmul__(self, D) -> np.ndarray:
        X = self.X
        if D is X:
            return X._gram()
        # csr_matvecs over X's arrays read as CSR: row i of the result adds
        # data[e] * D[row e] over column i's entries, in storage order
        return _products(X.columns, X.shape[1], X.data, D, X.indices, X.shape[0])


def _column_reduce(ufunc, data, indptr) -> np.ndarray:
    """ufunc reduced over each column's stored values, 0 for an empty column.
    This is scipy's _minor_reduce, whose reduceat adds by numpy's pairwise
    rule, so the sums are scipy's to the bit."""
    out = np.zeros(indptr.size - 1)
    full = np.flatnonzero(np.diff(indptr))
    out[full] = ufunc.reduceat(data, indptr[full])
    return out


def _products(at, size: int, data, D, gather, inner: int) -> np.ndarray:
    """The size x k array whose row r adds data[e] * D[gather[e]] over the
    entries e with at[e] == r, in storage order, one bincount per column of
    D; bincount adds in its input's order, starting from 0, as the scipy
    kernels do."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != inner:
        raise ValueError(
            f"matmul: a sparse corpus with {inner} columns to contract takes a "
            f"2-d array of {inner} rows, got shape {D.shape}"
        )
    # k x nnz, each row contiguous; np.take gathers far faster than D[gather]
    terms = np.take(D.T, gather, axis=1)
    terms *= data
    out = np.empty((size, D.shape[1]))
    for v, weights in enumerate(terms):
        out[:, v] = np.bincount(at, weights, minlength=size)
    return out


def as_corpus(a):
    """a as float64: a SparseCorpus as it is, a scipy sparse array converted
    to one as a CSC array, anything else a numpy array. A scipy array can
    exist only once scipy.sparse is loaded, so mrtl never imports it. Shapes
    are the caller's to check."""
    if isinstance(a, SparseCorpus):
        return a
    scipy_sparse = sys.modules.get("scipy.sparse")
    if scipy_sparse is not None and scipy_sparse.issparse(a):
        a = scipy_sparse.csc_array(a, dtype=np.float64)
        return SparseCorpus(a.data, a.indices, a.indptr, a.shape)
    return np.asarray(a, dtype=np.float64)


def stored_entries(a) -> np.ndarray:
    """The entries a holds: a sparse corpus's stored values, or a itself."""
    return a.data if isinstance(a, SparseCorpus) else a


def first_bad_entry(a):
    """(row, column, value) of the first entry of the 2-d array or sparse
    corpus a, in column order (a sparse corpus's storage order), that is not
    finite and nonnegative, or None. A good a costs a min and a max, and no
    temporary of its size."""
    values = stored_entries(a)
    if values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) < np.inf:
        return None
    e = int(np.argmax(~((values >= 0.0) & (values < np.inf)).ravel(order="F")))
    if isinstance(a, SparseCorpus):
        return int(a.indices[e]), int(a.columns[e]), float(values[e])
    col, row = divmod(e, a.shape[0])
    return row, col, float(a[row, col])


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
    a = np.asarray(stored_entries(a), dtype=np.float64)
    return float(np.sum(a * a))


def cross_and_gram(B, XW, G) -> tuple:
    """<X W, B> and <B^T B, W^T W>, the two inner products of residual_sq,
    of one M x r B or of each matrix of a stack of them, from XW = X @ W and
    G = W^T W (each of the stack's shape, or one matrix for all)."""
    return (np.sum(XW * B, axis=(-2, -1)),
            np.sum((B.mT @ B) * G, axis=(-2, -1)))


def residual_sq(X, xx: float, B, W, cross, gram) -> float:
    """||X - B W^T||^2 without forming the M x n product B W^T.

    X is M x n (dense or sparse) with xx = ||X||^2, B is M x r, W is n x r,
    and the caller passes cross = <X W, B> and gram = <B^T B, W^T W>
    (cross_and_gram), which it may form for many terms at once. The value is
    xx - 2 cross + gram (Lee & Seung, NIPS 2000), which adds only the r x r
    Gram matrix of B. When it falls below CANCELLATION_GUARD of
    xx + 2 |cross| + gram it is taken again directly from the residual
    X - B W^T, in column blocks of about RESIDUAL_BLOCK_BYTES; near an exact
    fit that keeps the value accurate. It is exactly 0 when X was formed as
    B @ W.T and BLAS forms each column block of that product as it forms
    the whole (hence the layout's one transposed right factor). OpenBLAS
    0.3.31 does, except for a ragged last block at some widths: at M >= 500
    and n = 300, 700 or 1500, for one, that block differs in the last bit,
    and the value comes out below 1e-34 of ||X||^2 instead of 0.
    """
    cross, gram = float(cross), float(gram)
    value = xx - 2.0 * cross + gram
    if value >= CANCELLATION_GUARD * (xx + 2.0 * abs(cross) + gram):
        return value
    total = 0.0
    for cols in blocks(X.shape[1], X.shape[0], RESIDUAL_BLOCK_BYTES):
        total += frobenius_sq(X[:, cols] - B @ W[cols].T)
    return total


def blocks(count: int, width: int, nbytes: int) -> list:
    """Slices covering 0..count in pieces of about nbytes of float64 lines
    (rows or columns) width long.

    Each piece starts at a multiple of BLOCK_ALIGN lines and the last one
    takes what is left over, so no piece is a lone line, which BLAS takes as
    a matrix-vector product. Formed so, the engine's blocked products, an
    M x c factor times a contiguous c x k one, kept the whole product's bits
    on OpenBLAS 0.3.31 for every k up to 192 at c <= 15 (three pairs, M =
    200, 777, 1000 and 8000); wider k, and k >= 9 at c >= 16, may differ.
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
