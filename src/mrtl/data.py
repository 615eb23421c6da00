"""Corpus file format, input normalization, synthetic problems, accuracy.

The corpus format is a sparse text format: a header line ``M n c`` followed
by exactly n instance records ``label idx:val idx:val ...`` with 1-based,
strictly increasing feature indices, finite nonnegative values, and label 0
meaning unlabeled. A file is either fully labeled or fully unlabeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import InvalidConfigError, ProblemData
from .linalg import as_corpus, normalize_columns_l1

# A loaded corpus with at most this share of nonzero entries is held as a
# scipy sparse CSC array, and as a dense array otherwise. X @ W and X.T @ R,
# the products the fit and the logistic regression spend their time in, take
# 0.22, 0.56, 0.84 and 2.08 times their dense time in CSC at 10, 20, 30 and
# 70% density (M=4000, n=500, c=2).
SPARSE_MAX_DENSITY = 0.25


class CorpusFormatError(ValueError):
    """A corpus file violates the format; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_corpus(lines) -> tuple:
    """Parse the sparse corpus format from an iterable of lines.

    Returns (X, Y): the dense M x n float matrix and the n x c one-hot label
    matrix, or Y = None when the file is unlabeled (all labels 0). Raises
    CorpusFormatError naming the offending line for a malformed header, a
    feature index out of [1, M], indices not strictly increasing, a negative
    or non-finite value, a label outside [0, c], mixed labeled/unlabeled
    records, or a record count different from the header's n.
    """
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise CorpusFormatError(1, "missing header line") from None
    parts = header.split()
    if len(parts) != 3:
        raise CorpusFormatError(
            1, f"malformed header, expected 'M n c', got {header.strip()!r}"
        )
    try:
        M, n, c = (int(tok) for tok in parts)
    except ValueError:
        raise CorpusFormatError(
            1, f"malformed header, expected three integers, got {header.strip()!r}"
        ) from None
    if M < 1 or n < 1 or c < 1:
        raise CorpusFormatError(
            1, f"header values must be positive, got M={M} n={n} c={c}"
        )

    X = np.zeros((M, n))
    labels = np.zeros(n, dtype=np.int64)
    saw_labeled = False
    saw_unlabeled = False
    count = 0
    lineno = 1
    for raw in it:
        lineno += 1
        if raw.strip() == "" :
            # tolerate trailing blank lines, reject blanks between records
            for extra in it:
                if extra.strip() != "":
                    raise CorpusFormatError(
                        lineno, "blank line between records"
                    )
                lineno += 1
            break
        if count >= n:
            raise CorpusFormatError(
                lineno, f"more than the {n} records announced in the header"
            )
        tokens = raw.split()
        try:
            label = int(tokens[0])
        except ValueError:
            raise CorpusFormatError(
                lineno, f"malformed label {tokens[0]!r}"
            ) from None
        if label < 0 or label > c:
            raise CorpusFormatError(
                lineno, f"label {label} outside [0, {c}]"
            )
        if label == 0:
            saw_unlabeled = True
        else:
            saw_labeled = True
        if saw_labeled and saw_unlabeled:
            raise CorpusFormatError(
                lineno, "mixed labeled and unlabeled records in one file"
            )
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise CorpusFormatError(
                    lineno, f"malformed entry {tok!r}, expected idx:val"
                ) from None
            if idx < 1 or idx > M:
                raise CorpusFormatError(
                    lineno, f"feature index {idx} outside [1, {M}]"
                )
            if idx <= prev_idx:
                raise CorpusFormatError(
                    lineno,
                    f"feature indices must be strictly increasing, "
                    f"{idx} follows {prev_idx}",
                )
            if not 0.0 <= val < math.inf:
                kind = "negative" if math.isfinite(val) else "non-finite"
                raise CorpusFormatError(
                    lineno, f"{kind} value {val_s} at feature {idx}"
                )
            X[idx - 1, count] = val
            prev_idx = idx
        labels[count] = label
        count += 1
    if count != n:
        raise CorpusFormatError(
            lineno, f"header announced {n} records but the file has {count}"
        )

    if saw_labeled:
        Y = np.zeros((n, c))
        Y[np.arange(n), labels - 1] = 1.0
        return X, Y
    return X, None


def serialize_corpus(X, c: int, labels=None) -> str:
    """Inverse of parse_corpus. Values keep 12 significant digits.

    labels is an iterable of 1-based integer labels, or None for an
    unlabeled file (every record gets label 0). Zero entries are omitted.
    A negative or non-finite entry, which parse_corpus would reject, raises
    InvalidConfigError naming its instance and feature.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidConfigError("X must be a 2-d matrix")
    M, n = X.shape
    bad = np.argwhere(~((X >= 0.0) & (X < np.inf)).T)
    if bad.size:
        i, j = bad[0]
        raise InvalidConfigError(
            f"instance {i + 1} has value {float(X[j, i])} at feature {j + 1}; "
            f"corpus values must be finite and nonnegative"
        )
    if c < 1:
        raise InvalidConfigError(f"class count must be positive, got {c}")
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if labels.shape[0] != n:
            raise InvalidConfigError(
                f"{labels.shape[0]} labels for {n} instances"
            )
        if labels.min() < 1 or labels.max() > c:
            raise InvalidConfigError(f"labels must lie in [1, {c}]")
    out = [f"{M} {n} {c}"]
    for i in range(n):
        parts = [str(int(labels[i]))]
        for j in np.nonzero(X[:, i])[0]:
            parts.append(f"{j + 1}:{X[j, i]:.12g}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def load_corpus(path) -> tuple:
    """parse_corpus over the lines of a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_corpus(fh)


def compact_corpus(X):
    """A parsed M x n corpus as it is held from then on: a CSC array when at
    most SPARSE_MAX_DENSITY of its entries are nonzero, X itself otherwise."""
    X = np.asarray(X, dtype=np.float64)
    if np.count_nonzero(X) <= SPARSE_MAX_DENSITY * X.size:
        return sp.csc_array(X)
    return X


def normalize_input(X):
    """Column-L1 normalization: each instance becomes a distribution over
    features; an all-zero instance becomes uniform. A scipy sparse corpus
    comes back as a CSC array with the same values as the dense result."""
    if not sp.issparse(X):
        return normalize_columns_l1(X)
    X = as_corpus(X)
    M, n = X.shape
    sums = X.sum(axis=0)
    positive = sums > 0.0
    X.data = X.data / np.repeat(np.where(positive, sums, 1.0), np.diff(X.indptr))
    empty = np.flatnonzero(~positive)
    if empty.size:
        # an all-zero instance holds only zeros, so adding 1/M makes it uniform
        X = X + sp.csc_array(
            (np.full(M * empty.size, 1.0 / M),
             (np.tile(np.arange(M), empty.size), np.repeat(empty, M))),
            shape=(M, n),
        )
    return X


def accuracy(predicted, true_labels) -> float:
    """Fraction of positions where the two 1-d label arrays agree."""
    p = np.asarray(predicted).ravel()
    t = np.asarray(true_labels).ravel()
    if p.shape[0] != t.shape[0]:
        raise ValueError(
            f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} labels"
        )
    if p.shape[0] == 0:
        raise ValueError("cannot score empty label arrays")
    return float(np.mean(p == t))


@dataclass(frozen=True)
class SynthSpec:
    """Description of a seeded synthetic multi-domain problem.

    M features, c classes, one source corpus of n_s instances and P target
    corpora of n_t instances each. The generating dictionary has k1
    clusters whose class meaning is common to all domains and k2 - k1
    whose meaning is domain-specific. domain_shift in [0, 1] sets how far
    the specific clusters' class allegiance rotates in the targets; at 0
    the targets are distributed exactly like the source. noise sets the
    relative level of additive nonnegative noise. The rules are checked
    when an instance is built, dataclasses.replace included.
    """

    M: int
    c: int
    P: int
    n_s: int
    n_t: int
    k1: int = 10
    k2: int = 50
    noise: float = 0.0
    domain_shift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.M < 1 or self.n_s < 1 or self.n_t < 1:
            raise InvalidConfigError(
                f"M, n_s, n_t must be positive, got {self.M}, {self.n_s}, {self.n_t}"
            )
        if self.c < 2:
            raise InvalidConfigError(f"need at least 2 classes, got {self.c}")
        if self.P < 1:
            raise InvalidConfigError(f"need at least 1 target, got {self.P}")
        if self.k1 < 1:
            raise InvalidConfigError(f"k1 must be a positive integer, got {self.k1}")
        if self.k2 < self.k1:
            raise InvalidConfigError(
                f"k1 must not exceed k2, got k1={self.k1}, k2={self.k2}"
            )
        if self.k2 > self.M:
            raise InvalidConfigError(
                f"k2={self.k2} exceeds the number of features M={self.M}"
            )
        if self.noise < 0:
            raise InvalidConfigError(f"noise must be nonnegative, got {self.noise}")
        if not 0.0 <= self.domain_shift <= 1.0:
            raise InvalidConfigError(
                f"domain_shift must lie in [0, 1], got {self.domain_shift}"
            )


# fraction of every class signature carried by the common clusters. Near
# the equal-share-per-cluster point k1/k2 the rotated specific channel
# carries real weight; pushed toward 0.5 the concentrated common channel
# drowns it out in least-squares terms
_COMMON_WEIGHT = 0.3
# fraction of features active per cluster; denser clusters overlap more and
# shrink the margins between class signatures
_DENSITY = 0.15
# per-instance cluster mixing under noise > 0: each column wanders this far
# from its class signature toward a random cluster mixture
_MIXTURE = 0.25


def _dictionary(rng, M: int, k: int) -> np.ndarray:
    # sparse nonnegative clusters, each active on a random subset of features
    D = np.zeros((M, k))
    keep = max(1, int(round(_DENSITY * M)))
    for j in range(k):
        rows = rng.choice(M, size=keep, replace=False)
        D[rows, j] = 1.0 - rng.random(keep)
    return normalize_columns_l1(D)


def _block_association(k: int, c: int, offset: int = 0) -> np.ndarray:
    # cluster j serves class (j + offset) mod c only; columns sum to 1
    A = np.zeros((k, c))
    for j in range(k):
        A[j, (j + offset) % c] = 1.0
    return normalize_columns_l1(A) if k else A


def generate_synthetic(spec: SynthSpec) -> tuple:
    """Build a seeded multi-domain problem with known target labels.

    All domains draw from one dictionary of k1 common plus k2 - k1 specific
    feature clusters; class signatures are convex combinations of clusters
    with disjoint cluster-to-class blocks, each cluster carrying an equal
    share. The targets reuse the source's clusters, but under domain_shift
    the specific clusters rotate their class allegiance: a cluster serving
    class y in the source increasingly serves the next class over in the
    targets, the way discriminative vocabulary changes sides between
    domains while still looking the same. The common clusters keep their
    allegiance everywhere, so past shift 0.5 classifiers carried over from
    the source unchanged start losing their majority vote. noise > 0
    additionally mixes each instance away from its class signature. Labels
    cycle 1..c, so class counts differ by at most one. Returns
    (ProblemData, truth) where truth holds one 1-based label array per
    target. At noise 0 every instance equals its class signature exactly,
    so a nearest-class-signature rule is exact.
    """
    rng = np.random.default_rng(spec.seed)
    ks = spec.k2 - spec.k1

    common = _dictionary(rng, spec.M, spec.k1)
    source_specific = _dictionary(rng, spec.M, ks)

    assoc_common = _block_association(spec.k1, spec.c)
    assoc_source = _block_association(ks, spec.c)
    # the targets reuse the source's feature clusters, but the specific
    # clusters' class allegiance rotates with the shift while the common
    # clusters' allegiance stays put: shifted domains agree on what the
    # patterns look like and disagree on what they mean
    assoc_target = (
        (1.0 - spec.domain_shift) * assoc_source
        + spec.domain_shift * _block_association(ks, spec.c, 1)
    )
    def stack(assoc_specific):
        if not ks:
            return assoc_common
        return np.vstack(
            [_COMMON_WEIGHT * assoc_common, (1.0 - _COMMON_WEIGHT) * assoc_specific]
        )

    def corpus(dictionary_specific, association, n):
        labels = np.arange(n) % spec.c + 1
        weights = association[:, labels - 1]
        if spec.noise > 0:
            # instances wander from their class signature but stay convex
            # combinations of clusters
            spill = rng.dirichlet(np.ones(association.shape[0]), size=n).T
            weights = (1.0 - _MIXTURE) * weights + _MIXTURE * spill
        dictionary = (
            np.hstack([common, dictionary_specific]) if ks else common
        )
        clean = dictionary @ weights
        if spec.noise > 0:
            X = clean + spec.noise * clean.mean() * np.abs(
                rng.standard_normal(clean.shape)
            )
        else:
            X = clean
        return normalize_input(np.maximum(X, 0.0)), labels

    X_s, labels_s = corpus(source_specific, stack(assoc_source), spec.n_s)
    Y_s = np.zeros((spec.n_s, spec.c))
    Y_s[np.arange(spec.n_s), labels_s - 1] = 1.0
    targets = []
    truth = []
    for p in range(spec.P):
        X_t, labels_t = corpus(source_specific, stack(assoc_target), spec.n_t)
        targets.append(X_t)
        truth.append(labels_t)
    return ProblemData(X_s=X_s, Y_s=Y_s, targets=tuple(targets)), truth
