"""Corpus file format, input normalization, synthetic problems, accuracy.

The corpus format is a sparse text format: a header line ``M n c`` followed
by exactly n instance records ``label idx:val idx:val ...`` with 1-based,
strictly increasing feature indices, finite nonnegative values, and label 0
meaning unlabeled. A file is either fully labeled or fully unlabeled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import (
    Hyperparams,
    InvalidConfigError,
    ProblemData,
    check_clusters_fit,
    check_corpus,
    check_count,
    check_finite_nonnegative,
)
from .linalg import RESIDUAL_BLOCK_BYTES, SparseCorpus, blocks, normalize_columns_l1

# A loaded corpus with at most this share of nonzero entries is held as a
# linalg.SparseCorpus, and as a dense array otherwise. X @ W and X.T @ R,
# the products the fit and the logistic regression spend their time in, take
# 0.6, 1.0, 1.9 and 3.5 times their dense time as a SparseCorpus at 5, 10, 20
# and 30% density (M=4000, n=500, c=2, one BLAS thread). The share was set
# where scipy.sparse's compiled kernels, about three times as fast per
# entry, cross over with dense products.
SPARSE_MAX_DENSITY = 0.25


class CorpusFormatError(ValueError):
    """A corpus file violates the format; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _header_zeros(shape, what: str) -> np.ndarray:
    """np.zeros(shape) for an array whose size the header sets; one that
    cannot be allocated is a fault of line 1."""
    try:
        return np.zeros(shape)
    except (ValueError, MemoryError):  # numpy: too big, or no memory for it
        raise CorpusFormatError(
            1, f"cannot allocate the {what} the header announces") from None


def parse_corpus(lines) -> tuple:
    """Parse the sparse corpus format from an iterable of lines.

    Returns (X, Y): the dense M x n float matrix and the n x c one-hot label
    matrix, or Y = None when the file is unlabeled (all labels 0). Tokens are
    separated by whitespace as str.split() finds it; the header and the
    labels are Python int literals, and each entry is ``idx:val`` with idx a
    Python int literal and val a Python float literal, exactly what int()
    and float() accept, so neither accepts the lone surrogate load_corpus
    makes of a byte that is not UTF-8. Lines are read one at a time; their
    entries are queued and converted in blocks of about BLOCK_BYTES, so the
    text held at once is one block, not the file. A block takes one of two
    routes: plain decimals in Clinger's fast path are read in numpy passes,
    as exact int64 index and mantissa pairs, and any other block entry by
    entry. Raises CorpusFormatError naming the first offending line in file
    order (a queued entry's fault is raised in place of a later line's or of
    an error lines raises) for a malformed header or one announcing
    matrices too large to allocate, a malformed token, a feature index out
    of [1, M], indices not strictly increasing, a negative or non-finite
    value, a label outside [0, c], mixed labeled/unlabeled records, or a
    record count unlike the header's n.
    """
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise CorpusFormatError(1, "missing header line") from None
    parts = header.split()
    if len(parts) != 3:
        raise CorpusFormatError(
            1, f"malformed header, expected 'M n c', got {header.strip()!r}")
    try:
        M, n, c = (int(tok) for tok in parts)
    except ValueError:
        raise CorpusFormatError(
            1, f"malformed header, expected three integers, got {header.strip()!r}"
        ) from None
    if M < 1 or n < 1 or c < 1:
        raise CorpusFormatError(
            1, f"header values must be positive, got M={M} n={n} c={c}")

    X = _header_zeros((M, n), f"M={M} x n={n} matrix")
    labels = np.zeros(n, dtype=np.int64)
    # (entries text, line, column) of each record not yet in X, and their size
    queued, size = [], 0
    count = 0
    lineno = 1
    try:
        for raw in it:
            lineno += 1
            parts = raw.split(None, 1)
            if not parts:
                # tolerate trailing blank lines, reject blanks between records
                for extra in it:
                    if extra.strip() != "":
                        raise CorpusFormatError(lineno, "blank line between records")
                    lineno += 1
                break
            if count >= n:
                raise CorpusFormatError(
                    lineno, f"more than the {n} records announced in the header")
            try:
                label = int(parts[0])
            except ValueError:
                raise CorpusFormatError(
                    lineno, f"malformed label {parts[0]!r}") from None
            if label < 0 or label > c:
                raise CorpusFormatError(lineno, f"label {label} outside [0, {c}]")
            # the first record sets whether the file is labeled
            if count and (label == 0) != (labels[0] == 0):
                raise CorpusFormatError(
                    lineno, "mixed labeled and unlabeled records in one file")
            if len(parts) == 2:
                queued.append((parts[1], lineno, count))
                size += len(parts[1]) + 1
                if size >= BLOCK_BYTES:
                    # emptied first, so a fault it raises is not met again below
                    block, queued, size = queued, [], 0
                    _convert(X, block)
            labels[count] = label
            count += 1
    except Exception:
        # the queued entries come from earlier lines: a fault among them comes
        # first in the file, before a later line's fault or read error
        _convert(X, queued)
        raise
    _convert(X, queued)
    if count != n:
        raise CorpusFormatError(
            lineno, f"header announced {n} records but the file has {count}")

    if labels[0] == 0:
        return X, None
    Y = _header_zeros((n, c), f"n={n} x c={c} label matrix")
    Y[np.arange(n), labels - 1] = 1.0
    return X, Y


def _entry(tok: str, M: int, prev: int, lineno: int) -> tuple:
    """The per-entry rule: (idx, val) of one ``idx:val`` token, or the
    CorpusFormatError it earns. prev is the index of the record's previous
    entry, 0 for its first."""
    idx_s, _, val_s = tok.partition(":")
    try:
        idx = int(idx_s)
        val = float(val_s)
    except ValueError:
        raise CorpusFormatError(
            lineno, f"malformed entry {tok!r}, expected idx:val") from None
    if idx < 1 or idx > M:
        raise CorpusFormatError(lineno, f"feature index {idx} outside [1, {M}]")
    if idx <= prev:
        raise CorpusFormatError(
            lineno,
            f"feature indices must be strictly increasing, "
            f"{idx} follows {prev}")
    if not 0.0 <= val < math.inf:
        kind = "negative" if math.isfinite(val) else "non-finite"
        raise CorpusFormatError(lineno, f"{kind} value {val_s} at feature {idx}")
    return idx, val


# Record entries are converted into X in blocks of at least this many
# characters (a block ends with the record that reaches it), which are bytes
# in every block the numpy passes read. At 256 KiB those passes cost far more
# than setting them up, and the text and the per-byte and per-event arrays of
# one block stay small beside a dense corpus.
BLOCK_BYTES = 256 * 1024

# The kind of each byte of a block: 0 for a digit, and for any other byte
# an event of the token check, _OTHER for one that _PLAIN refuses
_SPACE, _COLON, _DOT, _EXP, _SIGN, _OTHER = range(1, 7)
_WHITESPACE = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"  # what str.split() splits on in ASCII
_KINDS = bytes(next(
    (kind for kind, chars in enumerate(
        (b"0123456789", _WHITESPACE, b":", b".", b"eE", b"+-")) if b in chars),
    _OTHER) for b in range(256))
# what the int64 read reads: whitespace, colons, e and E become spaces,
# fromstring's separator, and dots are deleted
_INT_TEXT = bytes.maketrans(b":eE" + _WHITESPACE, b" " * (3 + len(_WHITESPACE)))
_MAX_DIGITS = 18  # an int64 holds every number of up to 18 digits


def _grammar(allowed: dict) -> bytes:
    """A translate table that maps to 1 the code of each event whose pair
    of kinds (written as two bytes of those kinds) allowed gives its class
    of digits, and any other code to 0."""
    codes = {32 * prev + 4 * kind + int(digits)
             for pair, classes in allowed.items() for digits in classes
             for prev, kind in [pair.encode().translate(_KINDS)]}
    return bytes(code in codes for code in range(256))


# a token of a space run, 1 to 18 index digits, a colon and a value
# digits[.digits][e[sign]digits], with up to 18 digits after the e and
# before it (there a count checked at the dot)
_PLAIN = _grammar({"  ": "0", " :": "1", ": ": "1", ":e": "1", ":.": "01",
                   ". ": "01", ".e": "01", "e+": "0", "e ": "1", "+ ": "1"})
# Clinger's fast path ("How to Read Floating Point Numbers Accurately", PLDI
# 1990), which strtod takes first: for m <= 2**53 and |q| <= 22, m and
# 10**|q| are doubles exactly, so one correctly rounded multiply or divide
# gives the double nearest m * 10**q, the one float() reads
_POW10 = np.array([float(10**q) for q in range(23)])


def _convert(X, queued) -> None:
    """Write the entries of the queued (entries text, line, column) records
    into X, or raise the CorpusFormatError of the first faulty one."""
    if not queued:
        return
    texts, _, cols = zip(*queued)
    # every record, the last too, ends in "\n"
    data = "\n".join([*texts, ""]).encode("utf-8", "surrogatepass")
    sizes = np.array([len(text) + 1 for text in texts])
    if _convert_block(X, data, np.cumsum(sizes) - sizes, np.array(cols)):
        return
    # the scalar rule in file order raises at the first faulty entry, or
    # else converts every one
    M = X.shape[0]
    for text, lineno, col in queued:
        prev = 0
        for tok in text.split():
            idx, val = _entry(tok, M, prev, lineno)
            X[idx - 1, col] = val
            prev = idx


def _convert_block(X, data: bytes, starts, cols) -> bool:
    """Write the entries of a block into X in numpy passes over its bytes
    and return True, or write nothing and return False.

    data holds the records' entries, each record ending in "\n"; record r
    starts at byte starts[r] and goes to column cols[r]. Each byte but a
    digit is an event, coded 32 * the previous event's kind + 4 * its kind
    + its class of digits since (none, 1 to 18, more); a translate of the
    codes checks them against the _PLAIN grammar. A block of _PLAIN tokens
    is read by _exact_entries; any other token, or a failed read or check,
    leaves the block to _entry.
    """
    M = X.shape[0]
    kind = np.frombuffer(data.translate(_KINDS), dtype=np.uint8)
    at = np.flatnonzero(kind != 0)
    kind, at = kind[at], at.astype(np.int32)
    # a space before the block is the event before the first
    gap = np.diff(at, prepend=np.int32(-1)) - 1
    code = (np.insert(kind[:-1], 0, _SPACE) * np.uint8(32) + kind * np.uint8(4)
            + (gap > 0).view(np.uint8) + (gap > _MAX_DIGITS).view(np.uint8))
    if 0 in code.tobytes().translate(_PLAIN):
        return False
    colon = np.flatnonzero(kind == _COLON)
    entries = _exact_entries(data, kind, gap, colon)
    if entries is None:
        return False
    idx, val = entries
    rec = np.searchsorted(starts, at[colon], side="right") - 1
    prev = np.concatenate(([0], np.where(rec[1:] == rec[:-1], idx[:-1], 0)))
    if np.any((idx <= prev) | (idx > M) | ~((val >= 0.0) & (val < np.inf))):
        return False
    X[idx - 1, cols[rec]] = val
    return True


def _exact_entries(data: bytes, kind, gap, colon):
    """(idx, val) of a block of _PLAIN tokens: index, m and, after an e,
    exponent read as int64 (an empty m leaves the count short), each value
    m * 10**q with q the exponent less the digits after the dot; or None
    where a value is not one or a read fails."""
    dot = kind[colon + 1] == _DOT
    end = colon + 1 + dot  # the event after the digits before any e
    frac, exp = gap[end] * dot, kind[end] == _EXP
    ints = _read_values(data.translate(_INT_TEXT, b"."),
                        2 * colon.size + np.count_nonzero(exp))
    if ints is None:
        return None
    first = 2 * np.arange(colon.size) + np.cumsum(exp) - exp
    idx, m, q = ints[first], ints[first + 1], -frac.astype(np.int64)
    q[exp] += ints[first[exp] + 2]
    if not np.all((gap[colon + 1] + frac <= _MAX_DIGITS) & (m <= 2**53)
                  & (np.abs(q) < _POW10.size)):
        return None
    power = _POW10[np.abs(q)]
    return idx, np.where(q < 0, m / power, m * power)


def _read_values(text: bytes, count: int):
    """The count numbers in text, between spaces, as int64, or None unless
    fromstring reads that many: a number of up to 18 digits as int() reads
    it, and any other number stops it short of the space (unmatched data)
    or, if empty, leaves the count short."""
    with warnings.catch_warnings():
        # numpy before 2.3 warns on unmatched data where later ones raise
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=np.int64, sep=" ")
        except (DeprecationWarning, ValueError):
            return None
    return values if values.size == count else None


def serialize_corpus(X, c: int, labels=None) -> str:
    """Inverse of parse_corpus. Values keep 12 significant digits.

    X is a dense matrix or a sparse corpus (see linalg.as_corpus), read a
    block of columns at a time. labels is an iterable of n 1-based labels
    of an integer dtype, or None for an unlabeled file (every record gets
    label 0). Zero entries are omitted. A corpus parse_corpus would reject,
    with no features, no instances or a negative or non-finite entry,
    raises InvalidConfigError naming X and any bad entry (check_corpus).
    """
    X = check_corpus(X, "X")
    M, n = X.shape
    check_count(c, "c")
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = np.asarray(labels).ravel()
        if labels.shape[0] != n:
            raise InvalidConfigError(f"{labels.shape[0]} labels for {n} instances")
        if not np.issubdtype(labels.dtype, np.integer):
            raise InvalidConfigError(f"labels must be integers, got {labels.dtype}")
        if labels.min() < 1 or labels.max() > c:
            raise InvalidConfigError(f"labels must lie in [1, {c}]")
    out = [f"{M} {n} {c}"]
    for cols in blocks(n, M, RESIDUAL_BLOCK_BYTES):
        for label, col in zip(labels[cols].tolist(), X[:, cols].T):
            nz = np.flatnonzero(col)
            # one format call per record: the label, then index and value pairs
            fields = [label] * (2 * nz.size + 1)
            fields[1::2] = (nz + 1).tolist()
            fields[2::2] = col[nz].tolist()
            out.append(("%d" + " %d:%.12g" * nz.size) % tuple(fields))
    return "\n".join(out) + "\n"


def load_corpus(path) -> tuple:
    """parse_corpus over the lines of a UTF-8 text file; a byte that is not
    UTF-8 reads as a lone surrogate, which the format refuses. A format
    error names the file after its line, as a label file's does."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            return parse_corpus(fh)
        except CorpusFormatError as exc:
            raise CorpusFormatError(exc.line, f"{exc.message} in {path}") from None


def compact_corpus(X):
    """A parsed M x n corpus as it is held from then on: a SparseCorpus when
    at most SPARSE_MAX_DENSITY of its entries are nonzero, X itself
    otherwise. One byte mask of the nonzero entries gives their count and
    their positions in column-major order, CSC's order, so the values are
    those of scipy's csc_array(X) to the bit, in the same order."""
    X = np.asarray(X, dtype=np.float64)
    nonzero = X != 0
    if np.count_nonzero(nonzero) > SPARSE_MAX_DENSITY * X.size:
        return X
    cols, rows = np.divmod(np.flatnonzero(nonzero.T), X.shape[0])
    return SparseCorpus.from_entries(rows, cols, X[rows, cols], X.shape)


def normalize_input(X):
    """Column-L1 normalization: each instance becomes a distribution over
    features; an all-zero instance becomes uniform, and one whose sum passes
    the float64 range is divided by its largest value first. A sparse corpus
    (a SparseCorpus or a scipy sparse array) comes back as a SparseCorpus
    with the same values as the dense result (SparseCorpus.normalized). X
    must be a 2-d matrix of finite, nonnegative values with at least one
    feature and one instance; otherwise InvalidConfigError names X and any
    bad entry (check_corpus)."""
    X = check_corpus(X, "X")
    return X.normalized() if isinstance(X, SparseCorpus) else normalize_columns_l1(X)


def accuracy(predicted, true_labels) -> float:
    """Fraction of positions where the two 1-d label arrays agree."""
    p = np.asarray(predicted).ravel()
    t = np.asarray(true_labels).ravel()
    if p.shape[0] != t.shape[0]:
        raise ValueError(
            f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} labels")
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
    relative level of additive nonnegative noise. The rules are checked when
    an instance is built, dataclasses.replace included.
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
        for name, least in (("M", 1), ("c", 2), ("P", 1), ("n_s", 1), ("n_t", 1)):
            check_count(getattr(self, name), name, least)
        # k1, k2 and seed follow the solver's rules
        Hyperparams(k1=self.k1, k2=self.k2, seed=self.seed)
        check_clusters_fit(self.k2, self.M)
        check_finite_nonnegative(self.noise, "noise")
        if not 0.0 <= self.domain_shift <= 1.0:
            raise InvalidConfigError(
                f"domain_shift must lie in [0, 1], got {self.domain_shift}",
                "domain_shift")


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
    # at k1 = k2 the dictionary is common and the associations assoc_common
    dictionary = np.hstack([common, source_specific])
    source_assoc, target_assoc = (
        np.vstack([_COMMON_WEIGHT * assoc_common,
                   (1.0 - _COMMON_WEIGHT) * assoc_specific])
        if ks else assoc_common
        for assoc_specific in (assoc_source, assoc_target)
    )

    def corpus(association, n):
        labels = np.arange(n) % spec.c + 1
        weights = association[:, labels - 1]
        if spec.noise > 0:
            # instances wander from their class signature but stay convex
            # combinations of clusters
            spill = rng.dirichlet(np.ones(association.shape[0]), size=n).T
            weights = (1.0 - _MIXTURE) * weights + _MIXTURE * spill
        X = dictionary @ weights
        if spec.noise > 0:
            X = X + spec.noise * X.mean() * np.abs(rng.standard_normal(X.shape))
        return normalize_input(np.maximum(X, 0.0)), labels

    X_s, labels_s = corpus(source_assoc, spec.n_s)
    targets, truth = zip(*(corpus(target_assoc, spec.n_t) for _ in range(spec.P)))
    Y_s = np.eye(spec.c)[labels_s - 1]
    return ProblemData(X_s=X_s, Y_s=Y_s, targets=targets), list(truth)
