"""The block parser against a scalar reference, across block boundaries,
and within a memory bound."""

import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mrtl.data
from conftest import refuse_to_allocate
from mrtl.data import (
    BLOCK_BYTES, CorpusFormatError, compact_corpus, load_corpus, parse_corpus,
    serialize_corpus,
)
from mrtl.linalg import SparseCorpus


def scalar_parse(lines) -> tuple:
    """Reference parser: the corpus format read one line and one entry at a
    time with int() and float() into a dense matrix, as mrtl parsed it
    before the block pass, which compact_corpus then holds as mrtl holds a
    corpus. parse_corpus must give the same (X, Y) bit for bit, or the same
    error."""
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
        if raw.strip() == "":
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
        return compact_corpus(X), Y
    return compact_corpus(X), None


def corpus_bytes(X):
    """The bytes of a corpus as it is held: a dense matrix's, or the shape
    and CSC arrays of a SparseCorpus."""
    if isinstance(X, SparseCorpus):
        return X.shape, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes()
    return X.tobytes()


def outcome(parse, lines):
    """(X bytes, Y bytes or None) of a parse, or (line, message) of its error."""
    try:
        X, Y = parse(lines)
    except CorpusFormatError as err:
        return err.line, str(err)
    return corpus_bytes(X), None if Y is None else Y.tobytes()


def assert_same_as_scalar(text):
    for lines in (text.splitlines(), io.StringIO(text, newline="")):
        lines = list(lines)
        assert outcome(parse_corpus, lines) == outcome(scalar_parse, lines)


# Odd spellings next to the canonical ones: what int() and float() accept
# outside plain digits and decimals, and what neither accepts.
ODD_INDICES = ["+{i}", "0{i}", "{i}_0", "{i}.0", "-{i}", "٣", "", "{i}e1", "x"]
ODD_VALUES = [
    "+5", "01", "1_0", "1e5", ".5", "5.", "-0", "inf", "-inf", "nan", "1.2.3",
    "", "1:2", "٣", "1e309", "4.9e-324", "2.5e-320", "-1.5", "e5", "1e",
    "--1", "1e+-5", "+.5", ".", "-.5e-3", "1.e5", "0x10", "1e5.5", "1.5-",
    "5E+05", "1E-400", "Infinity",
]
ODD_TOKENS = ["nonsense", ":5", "2:", "1:2:3", ":", "3:4:"]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\x1f", "\xa0", "　"]


@st.composite
def value_text(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(ODD_VALUES))
    v = draw(st.one_of(
        st.floats(0.0, 1e300), st.floats(0.0, 1e-300), st.integers(0, 10**20),
    ))
    fmt = draw(st.sampled_from(["{!r}", "{:.12g}", "{:e}", "{:E}", "{:.3f}", "{:.0f}"]))
    return fmt.format(v)


@st.composite
def record(draw, M, label):
    indices = sorted(draw(st.sets(st.integers(1, M), max_size=M)))
    if indices and draw(st.integers(0, 5)) == 0:
        indices[draw(st.integers(0, len(indices) - 1))] = draw(st.integers(-1, M + 2))
    tokens = [label]
    for i in indices:
        kind = draw(st.integers(0, 19))
        if kind == 0:
            tokens.append(draw(st.sampled_from(ODD_TOKENS)))
            continue
        idx = draw(st.sampled_from(ODD_INDICES)) if kind == 1 else "{i}"
        tokens.append(idx.format(i=i) + ":" + draw(value_text()))
    out = tokens[0]
    for tok in tokens[1:]:
        out += draw(st.sampled_from(SEPARATORS)) + tok
    return out + draw(st.sampled_from(["", "", " ", "\t"]))


@st.composite
def corpus_text(draw):
    M, n, c = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    labeled = draw(st.booleans())
    label = st.integers(1, c) if labeled else st.just(0)
    lines = [f"{M} {n} {c}"]
    for _ in range(n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))):
        if draw(st.integers(0, 15)) == 0:
            tag = draw(st.sampled_from(["+1", "01", "x", "-1", str(c + 1), "0", "1"]))
        else:
            tag = str(draw(label))
        lines.append(draw(record(M, tag)))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \n"]))


@settings(max_examples=400)
@given(corpus_text())
def test_block_parser_matches_scalar_reference(text):
    assert_same_as_scalar(text)


@pytest.mark.parametrize("text", [
    "3 1 2\n1 1:1e309\n",
    "3 1 2\n1 1:4.9e-324 2:-0 3:+.5\n",
    "3 2 2\n1 +1:5 2:1_0\n2 ٣:7\n",
    "3 1 2\n1 1:1.0\xa02:2.0　3:3.0\n",
    "3 1 2\n1 1:2:3\n",
    "3 2 2\n1 3:1.0 2:1.0\nx 1:1.0\n",
    "3 1 2\n1 00000000000000000000002:1.5\n",
    "3 1 2\n1 99999999999999999999:1.5\n",
])
def test_odd_tokens_match_scalar_reference(text):
    assert_same_as_scalar(text)


PLAIN = "1:5 2:1E-5 3:5. 4:0.25e+3"
SIGNED = "5:+.5 6:-0 007:-1e-400"
RARE = "8:1_0 +9:2 10:\u0663"


def test_plain_tokens_are_read_in_bulk(monkeypatch):
    # odd but plain spellings never reach the scalar rule; a block holding
    # a signed value or any other token goes through it whole
    seen = []
    entry = mrtl.data._entry

    def spy(tok, *args):
        seen.append(tok)
        return entry(tok, *args)

    monkeypatch.setattr(mrtl.data, "_entry", spy)
    for tokens, scalar in [(PLAIN, []), *((f"{PLAIN} {odd}", f"{PLAIN} {odd}".split())
                                          for odd in (SIGNED, RARE))]:
        seen.clear()
        text = f"20 1 2\n1 {tokens}\n"
        assert outcome(parse_corpus, text.splitlines()) == outcome(
            scalar_parse, text.splitlines())
        assert seen == scalar


@pytest.mark.parametrize("last", [
    "11:1e", "11:.", "11:5+", "11:+-5", "11:1.2.3", "11:e5", "11:", "11:-",
    "11:5e+", "11:1.e", "11:-.e1", "11:1e5.", "11:.5.", "11:1e5+5", "11:5-3",
    "11:+1.5e-5-5", "1+1:5", "1e1:5", "11:1e400",
])
def test_faulty_token_of_plain_bytes_is_named(last):
    text = f"20 2 2\n1 {PLAIN} {RARE}\n2 7:1 {last}\n"
    expected = outcome(scalar_parse, text.splitlines())
    assert outcome(parse_corpus, text.splitlines()) == expected
    assert expected[0] == 3


@pytest.fixture
def reads(monkeypatch):
    """(tokens _entry reads, one INT per int64 read) from here on."""
    tokens, dtypes = [], []
    entry, read_values = mrtl.data._entry, mrtl.data._read_values

    def spy_entry(tok, *args):
        tokens.append(tok)
        return entry(tok, *args)

    def spy_read(text, count):
        dtypes.append(INT)
        return read_values(text, count)

    monkeypatch.setattr(mrtl.data, "_entry", spy_entry)
    monkeypatch.setattr(mrtl.data, "_read_values", spy_read)
    return tokens, dtypes


# the routes a block takes, in order: the int64 read, then the per-entry rule
INT, ENTRY = np.int64, "entry"


@pytest.mark.parametrize("values, dtypes", [
    # m at and past 2**53; 18 and 19 digits before the e
    ("9007199254740992", [INT]),
    ("9007199254740993", [INT, ENTRY]),
    ("0.00000000000000005 000000000000000007", [INT]),
    ("0.000000000000000005", [INT, ENTRY]),
    ("123456789012345678", [INT, ENTRY]),
    ("1234567890123456789", [ENTRY]),
    # q = +-22 and +-23, the digits after the dot counted
    ("1e22 1e-22 1.5e23 1.5e-21 7e+22", [INT]),
    ("1e23", [INT, ENTRY]),
    ("1e-23", [INT, ENTRY]),
    ("1.5e24", [INT, ENTRY]),
    ("1.5e-22", [INT, ENTRY]),
    # an exponent that a 32-bit q would wrap to -5, and ones past 18 digits
    ("1e-4294967301", [INT, ENTRY]),
    ("1e0000000000000000000005", [ENTRY]),
    ("1e-99999999999999999999", [ENTRY]),
    ("1e99999999999999999999", [ENTRY]),
    ("5. .5 1.e5 0.e0 00.50", [INT]),
    ("4.9e-324", [INT, ENTRY]),
    ("-0", [ENTRY]),  # its sign bit kept
    ("0.25 9007199254740993 3e-5", [INT, ENTRY]),
    ("0.25 -0 3e-5 +.5", [ENTRY]),
])
def test_exact_route_edges_match_scalar_reference(values, dtypes, reads):
    # a block is read by the int64 read alone where every m and q allow,
    # and otherwise entry by entry, the rule that also names a fault
    tokens, read = reads
    entries = " ".join(f"{j}:{v}" for j, v in enumerate(values.split(), 1))
    text = f"6 1 2\n1 {entries}\n".splitlines()
    expected = outcome(scalar_parse, text)
    tokens.clear()
    assert outcome(parse_corpus, text) == expected
    assert read == [route for route in dtypes if route is INT]
    assert tokens == (entries.split() if ENTRY in dtypes else [])


def test_written_corpora_take_the_int64_read(reads):
    # what serialize_corpus writes at magnitudes 1e-9 to 1e9, and the
    # benchmark's spellings, a dense normalized .12g record set and .0f word
    # counts, are read by the int64 read alone: entry by entry, each such
    # block would cost about three and a half times as much
    tokens, read = reads
    rng = np.random.default_rng(3)
    X = 10.0 ** rng.uniform(-9, 9, size=(300, 40))
    X[rng.random(X.shape) < 0.3] = 0.0
    dense = rng.random((1000, 24))
    dense /= dense.sum(axis=0)
    counts = rng.multinomial(100, np.full(2000, 1 / 2000), size=30).T

    def records(X, fmt):
        return "\n".join([f"{X.shape[0]} {X.shape[1]} 2"] + [" ".join(["0"] + [
            f"{j + 1}:{v:{fmt}}" for j, v in enumerate(col.tolist()) if v])
            for col in X.T])

    texts = [serialize_corpus(X, 2, np.arange(40) % 2 + 1),
             records(counts, ".0f"), records(dense, ".12g")]
    for text in texts:
        read.clear()
        parsed = parse_corpus(text.splitlines())[0]
        assert corpus_bytes(parsed) == corpus_bytes(scalar_parse(text.splitlines())[0])
        assert read and tokens == []
    assert len(read) > 1  # the dense records span blocks


FROMSTRING = np.fromstring


def fromstring_before_2_3(text, dtype=float, sep=" "):
    """np.fromstring as numpy before 2.3 has it: unmatched data warns and
    ends the read, with the numbers read up to there."""
    try:
        return FROMSTRING(text, dtype=dtype, sep=sep)
    except ValueError:
        pass

    def reads_one(word):
        try:
            return FROMSTRING(word + b" ", dtype=dtype, sep=" ").size == 1
        except ValueError:
            return False

    read = []
    for word in text.split():
        # the longest head of the word that is a number, as strtod takes it
        head = next((word[:k] for k in range(len(word), 0, -1) if reads_one(word[:k])), b"")
        read += [head] if head else []
        if head != word:
            break
    warnings.warn("string or file could not be read to its end due to unmatched "
                  "data", DeprecationWarning, stacklevel=2)
    return FROMSTRING(b" ".join(read) + b" ", dtype=dtype, sep=sep) if read else \
        np.zeros(0, dtype)


@pytest.mark.parametrize("last", [
    "11:5+", "11:1e5+5", "11:1.5-", "11:1.2.3", "11:1e", "11:.", "11:+1.5e-5-5",
    "11:1e5.", "11:0.5", "11:+.5", "11:1e23", "11:-0",
])
def test_numpy_that_warns_on_unmatched_data_parses_alike(last, monkeypatch):
    # a faulty last value leaves such a numpy short of nothing but the
    # warning; the int64 read runs under it, though the grammar leaves it
    # no unmatched data to meet
    text = f"20 2 2\n1 1:5 2:0.25 4:3e-5\n2 7:1 {last}\n".splitlines()
    expected = outcome(scalar_parse, text)
    monkeypatch.setattr(mrtl.data.np, "fromstring", fromstring_before_2_3)
    with warnings.catch_warnings():
        # as outside a test run, where a DeprecationWarning raises no error
        warnings.simplefilter("ignore", DeprecationWarning)
        assert outcome(parse_corpus, text) == expected
    with pytest.warns(DeprecationWarning):
        read = mrtl.data.np.fromstring(b"1 2 5+ ", dtype=INT, sep=" ")
    assert read.tolist() == [1, 2, 5] and read.dtype == INT


def multi_block_corpus():
    """(header, records, boundary): a labeled corpus whose text spans at
    least three blocks, and the index of the first record of the second."""
    rng = np.random.default_rng(0)
    M, n = 60, 1200
    records = []
    for i in range(n):
        x = rng.random(M)
        scale = 10.0 ** rng.integers(-8, 3)
        records.append(" ".join([str(i % 2 + 1)] + [
            f"{j + 1}:{v * scale:.12g}" for j, v in enumerate(x.tolist()) if v > 0.2
        ]))
    size, boundary = 0, None
    for r, line in enumerate(records):
        size += len(line.split(None, 1)[1]) + 1
        if size >= BLOCK_BYTES:
            boundary = r + 1
            break
    assert sum(map(len, records)) > 3 * BLOCK_BYTES
    return f"{M} {n} 2", records, boundary


# each turns the tokens of a valid record into a faulty one
FAULTS = {
    "negative": lambda tokens: tokens[:2] + [tokens[2].replace(":", ":-")] + tokens[3:],
    "order": lambda tokens: tokens[:1] + tokens[:0:-1],
    "malformed": lambda tokens: tokens + ["7"],
    "label": lambda tokens: ["x"] + tokens[1:],
}


def faulted(header, records, faults):
    records = list(records)
    for r, kind in faults:
        records[r] = " ".join(FAULTS[kind](records[r].split()))
    return "\n".join([header] + records) + "\n"


@pytest.mark.parametrize("faults", [
    [(-1, "negative")],
    [(0, "order")],
    [(-1, "malformed"), (0, "negative")],
    [(0, "negative"), (1, "label")],
    [(-1, "order"), (0, "label")],
    [(-2, "label"), (1, "malformed")],
    [(-1, "negative"), (2, "negative")],
])
def test_first_fault_across_block_boundary_is_named(faults, tmp_path):
    # offsets from the boundary, taken on both sides of it: where exactly a
    # block ends differs by a byte per record between a file's lines, which
    # keep their "\n", and splitlines()
    header, records, boundary = multi_block_corpus()
    text = faulted(header, records, [(boundary + r, kind) for r, kind in faults])
    first = boundary + min(r for r, _ in faults) + 2  # 1-based, after the header
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    expected = outcome(scalar_parse, text.splitlines())
    assert expected[0] == first
    assert outcome(parse_corpus, text.splitlines()) == expected
    # the file's reader names it after the line
    assert outcome(lambda _: load_corpus(path), None) == \
        (expected[0], f"{expected[1]} in {path}")


def test_scalar_rule_reads_only_the_blocks_that_need_it(monkeypatch):
    # a rare value in the first record sends the first block through _entry;
    # every record from the second block on is still read in bulk
    header, records, boundary = multi_block_corpus()
    label, first, rest = records[0].split(None, 2)
    idx, _, val = first.partition(":")
    assert len(val) >= 3  # padded to its length, so the block ends where it did
    records = [f"{label} {idx}:{'1_0'.rjust(len(val), '0')} {rest}", *records[1:]]
    text = "\n".join([header] + records) + "\n"
    seen = []
    entry = mrtl.data._entry

    def spy(tok, *args):
        seen.append(tok)
        return entry(tok, *args)

    monkeypatch.setattr(mrtl.data, "_entry", spy)
    assert outcome(parse_corpus, text.splitlines()) == outcome(
        scalar_parse, text.splitlines())
    assert seen == [tok for r in records[:boundary] for tok in r.split()[1:]]


def test_file_and_lines_parse_alike_across_blocks(tmp_path):
    header, records, _ = multi_block_corpus()
    text = "\n".join([header] + records) + "\n"
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    X, Y = load_corpus(path)
    X2, Y2 = parse_corpus(text.splitlines())
    assert corpus_bytes(X) == corpus_bytes(X2) and Y.tobytes() == Y2.tobytes()
    assert outcome(scalar_parse, text.splitlines()) == (corpus_bytes(X), Y.tobytes())


# spellings of a value: plain ones the int64 read takes, explicit zeros, and
# signed ones that send their block to the scalar rule
HELD_VALUES = ["1", "2.5", "7", "1e-3", "0", "0.0", "-0", "+3", "-0.0"]


@st.composite
def held_corpus_text(draw):
    """(text, block size): a valid corpus of any density from none to full,
    which may open with full records and close with empty ones, whose
    entries may be explicit zeros or signed, read in blocks of a drawn
    size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, n = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.25, 0.3, 0.6, 1.0]))
    head = draw(st.integers(0, n))
    tail = draw(st.integers(0, n - head))
    odd = draw(st.sampled_from([0.0, 0.1, 0.5]))  # share of zeros and signs
    label = draw(st.sampled_from(["0", "1"]))
    lines = [f"{M} {n} 2"]
    for j in range(n):
        keep = np.ones(M, bool) if j < head else rng.random(M) < density * (j < n - tail)
        values = np.where(rng.random(M) < odd, rng.choice(HELD_VALUES[4:], M),
                          rng.choice(HELD_VALUES[:4], M))
        lines.append(" ".join([label] + [f"{i + 1}:{values[i]}"
                                         for i in np.flatnonzero(keep)]))
    return "\n".join(lines) + "\n", draw(st.sampled_from([1, 16, 64, BLOCK_BYTES]))


@settings(max_examples=300)
@given(held_corpus_text())
def test_parse_holds_the_corpus_as_compact_corpus_does(case):
    # as runs, or dense once the records read so far are more than a quarter
    # nonzero: either way the same type, values and CSC arrays as the dense
    # reference compacted, explicit zeros not stored
    text, block = case
    with mock.patch.object(mrtl.data, "BLOCK_BYTES", block):
        assert_same_as_scalar(text)


QUARTER = ["1:1 2:1 3:1 4:1", "5:1 6:1 7:1 8:1"]  # 8 of the 32 entries of 8 x 4


@pytest.mark.parametrize("records, held", [
    (QUARTER + ["", ""], SparseCorpus),
    (QUARTER + ["1:2", ""], np.ndarray),
    (QUARTER + ["1:0 2:-0 3:0.0", "4:+0"], SparseCorpus),
    (QUARTER + ["1:0 2:-0 3:+1e0", ""], np.ndarray),
], ids=["quarter", "past-quarter", "quarter-and-zeros", "past-quarter-signed"])
def test_parse_holds_a_quarter_nonzero_sparse_and_more_dense(records, held):
    text = "\n".join(["8 4 2"] + [f"1 {r}".strip() for r in records]) + "\n"
    X, _ = parse_corpus(text.splitlines())
    assert type(X) is held
    lines = text.splitlines()
    assert outcome(parse_corpus, lines) == outcome(scalar_parse, lines)


def test_dense_first_records_go_dense_and_end_sparse(monkeypatch):
    # full first blocks are held dense at once, and compacted at the end
    # once the empty records leave the file a quarter nonzero: a refusal of
    # the dense matrix shows when it is allocated
    text = "\n".join(["4 8 2"] + ["1 1:1 2:1 3:1 4:1"] * 2 + ["2"] * 6) + "\n"
    X, _ = parse_corpus(text.splitlines())  # one block
    assert isinstance(X, SparseCorpus) and X.nnz == 8
    for block in (1, BLOCK_BYTES):
        with mock.patch.object(mrtl.data, "BLOCK_BYTES", block):
            assert outcome(parse_corpus, text.splitlines()) == outcome(
                scalar_parse, text.splitlines())
    refuse_to_allocate(monkeypatch, (4, 8))
    assert isinstance(parse_corpus(text.splitlines())[0], SparseCorpus)
    monkeypatch.setattr(mrtl.data, "BLOCK_BYTES", 1)
    assert outcome(parse_corpus, text.splitlines()) == (
        1, "line 1: cannot allocate the M=4 x n=8 matrix the header announces")


def test_load_sparse_corpus_memory_follows_its_entries(tmp_path, monkeypatch):
    # a 1%-dense word-count file whose dense M x n matrix (153 MiB) cannot
    # be allocated, as a refusal simulates, is held in memory proportional
    # to its stored entries
    M, n = 50_000, 400
    rng = np.random.default_rng(4)
    path = tmp_path / "words.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M} {n} 2\n")
        for i in range(n):
            rows = np.sort(rng.choice(M, size=M // 100, replace=False)) + 1
            counts = rng.integers(1, 5, size=rows.size)
            fh.write(" ".join([str(i % 2 + 1)] + [
                f"{r}:{v}" for r, v in zip(rows.tolist(), counts.tolist())]) + "\n")
    refuse_to_allocate(monkeypatch, (M, n))
    tracemalloc.start()
    try:
        X, _ = load_corpus(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(X, SparseCorpus) and X.nnz == n * (M // 100)
    assert peak < 64 * X.nnz + 4 * 2**20, f"peak {peak / X.nnz:.1f} bytes per entry"


def test_load_corpus_memory_stays_near_the_dense_matrix(tmp_path):
    # the file is read in blocks: the text of the whole file (about 8.5 MB
    # here) is never held at once
    M, n = 1000, 500
    rng = np.random.default_rng(1)
    path = tmp_path / "dense.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M} {n} 2\n")
        for i in range(n):
            fh.write(" ".join([str(i % 2 + 1)] + [
                f"{j + 1}:{v:.12g}" for j, v in enumerate(rng.random(M).tolist())
            ]) + "\n")
    tracemalloc.start()
    try:
        X, _ = load_corpus(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (M, n) and np.all(X > 0)
    assert peak < 8 * M * n + 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


READ_VALUES = mrtl.data._read_values


def negated_values(text, count):
    values = READ_VALUES(text, count)
    return None if values is None else -values


@pytest.mark.parametrize("read", [lambda text, count: None, negated_values])
def test_block_read_by_scalar_rule_where_numpy_reads_values_otherwise(read, monkeypatch):
    # should numpy ever read the plain values differently, whether it reads
    # none or ones a bulk check flags though _entry finds them valid, the
    # block goes through the scalar rule instead: same X, same first error
    header, records, _ = multi_block_corpus()
    good = "\n".join([header] + records) + "\n"
    bad = faulted(header, records, [(3, "negative"), (5, "label")])
    expected = [outcome(parse_corpus, t.splitlines()) for t in (good, bad)]
    monkeypatch.setattr(mrtl.data, "_read_values", read)
    assert [outcome(parse_corpus, t.splitlines()) for t in (good, bad)] == expected
    assert expected[1][0] == 5


@pytest.mark.parametrize("read", [lambda text, count: None, negated_values])
def test_float_read_faults_also_reach_the_scalar_rule(read, monkeypatch):
    # the same faults where a "+" before every value leaves each block to
    # the scalar rule, which never calls the int64 read
    header, records, _ = multi_block_corpus()
    records = [record.replace(":", ":+") for record in records]
    good = "\n".join([header] + records) + "\n"
    bad = faulted(header, records, [(3, "order"), (5, "label")])
    expected = [outcome(parse_corpus, t.splitlines()) for t in (good, bad)]
    monkeypatch.setattr(mrtl.data, "_read_values", read)
    assert [outcome(parse_corpus, t.splitlines()) for t in (good, bad)] == expected
    assert expected[1][0] == 5


@pytest.mark.parametrize("index", [
    "7", "10", "99", "300", "999", "1000", "10000", "90000", "4294967296",
    "123456789012345678", "999999999999999999", "000000000000000300",
])
def test_indices_of_many_digits_are_read_in_bulk(index, monkeypatch):
    # every index of up to 18 digits is read whole by the int64 read,
    # whatever the dtype rules of the numpy release: 300 must not wrap as in
    # a byte; a "+" before the value sends the block entry by entry
    M = 100_000
    for value in ["2", "+2"]:
        text = f"{M} 1 2\n1 5:1 {index}:{value}\n".splitlines()
        expected = outcome(scalar_parse, text)
        with monkeypatch.context() as patch:
            if int(index) <= M:
                assert scalar_parse(text)[0].toarray()[int(index) - 1, 0] == 2.0
                if value == "2":
                    patch.setattr(mrtl.data, "_entry", None)  # all of it in bulk
            assert outcome(parse_corpus, text) == expected


def test_three_digit_indices_parse_as_written(monkeypatch):
    M = 1000
    rng = np.random.default_rng(2)
    records = []
    for i in range(4):
        rows = np.sort(rng.choice(np.arange(100, M + 1), size=200, replace=False))
        records.append(" ".join(["0"] + [f"{j}:{j / 7:.12g}" for j in rows.tolist()]))
    text = "\n".join([f"{M} 4 2"] + records) + "\n"
    monkeypatch.setattr(mrtl.data, "_entry", None)  # all of it in bulk
    X, Y = parse_corpus(text.splitlines())
    assert Y is None
    assert corpus_bytes(X) == corpus_bytes(scalar_parse(text.splitlines())[0])


def test_entry_fault_comes_before_a_later_read_error(tmp_path):
    # the file is decoded ahead of the parse; an invalid UTF-8 byte read
    # while a faulty entry of an earlier line is still queued loses to it
    good = "1 " + " ".join(f"{j}:0.5" for j in range(1, 61))
    lines = ["60 2000 2", "1 3:1 2:1"] + [good] * 300
    raw = ("\n".join(lines) + "\n").encode() + b"1 1:\xff\n"
    assert len(raw) > 100_000 and len(raw) < BLOCK_BYTES
    path = tmp_path / "corpus.txt"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        expected = outcome(scalar_parse, fh)
    assert expected == (2, "line 2: feature indices must be strictly increasing, 2 follows 3")
    # the file's reader names it after the line
    assert outcome(lambda _: load_corpus(path), None) == \
        (expected[0], f"{expected[1]} in {path}")


def test_entry_fault_comes_before_an_error_the_lines_raise():
    # the lines raise after a faulty entry's line, while that entry is still
    # queued: its fault is raised in place of an Exception, never of a
    # KeyboardInterrupt, and a queue without fault lets the error through
    def lines(first, error):
        yield "60 5 2\n"
        yield first
        yield "1 1:0.5\n"
        raise error

    assert outcome(parse_corpus, lines("1 3:1 2:1\n", OSError("read failed"))) == (
        2, "line 2: feature indices must be strictly increasing, 2 follows 3")
    with pytest.raises(KeyboardInterrupt):
        parse_corpus(lines("1 3:1 2:1\n", KeyboardInterrupt()))
    with pytest.raises(OSError, match="read failed"):
        parse_corpus(lines("1 2:1 3:1\n", OSError("read failed")))
