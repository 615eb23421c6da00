"""The block parser against a scalar reference, across block boundaries,
and within a memory bound."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mrtl.data
from mrtl.data import BLOCK_BYTES, CorpusFormatError, load_corpus, parse_corpus


def scalar_parse(lines) -> tuple:
    """Reference parser: the corpus format read one line and one entry at a
    time with int() and float(), as mrtl parsed it before the block pass.
    parse_corpus must give the same (X, Y) bit for bit, or the same error."""
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
        return X, Y
    return X, None


def outcome(parse, lines):
    """(X bytes, Y bytes or None) of a parse, or (line, message) of its error."""
    try:
        X, Y = parse(lines)
    except CorpusFormatError as err:
        return err.line, str(err)
    return X.tobytes(), None if Y is None else Y.tobytes()


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


PLAIN = "1:5 2:+.5 3:1E-5 4:5. 5:-0 6:0.25e+3 007:-1e-400"
RARE = "8:1_0 +9:2 10:\u0663"


def test_plain_tokens_are_read_in_bulk(monkeypatch):
    # odd but plain spellings never reach the scalar rule; a block holding
    # any other token goes through it whole
    seen = []
    entry = mrtl.data._entry

    def spy(tok, *args):
        seen.append(tok)
        return entry(tok, *args)

    monkeypatch.setattr(mrtl.data, "_entry", spy)
    for tokens, scalar in [(PLAIN, []), (f"{PLAIN} {RARE}", f"{PLAIN} {RARE}".split())]:
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
    assert X.tobytes() == X2.tobytes() and Y.tobytes() == Y2.tobytes()
    assert outcome(scalar_parse, text.splitlines()) == (X.tobytes(), Y.tobytes())


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


@pytest.mark.parametrize("index", [
    "7", "10", "99", "300", "999", "1000", "10000", "90000", "4294967296",
    "123456789012345678", "999999999999999999", "000000000000000300",
])
def test_indices_of_many_digits_are_read_in_bulk(index):
    # every digit times its power of ten in int64, whatever the dtype rules
    # of the numpy release: 3 * 100 must not wrap in the text's uint8
    text = np.frombuffer(bytearray(f" 5:1 {index}:2 ".encode()), dtype=np.uint8)
    begin, colon = np.array([1, 5]), np.array([2, 5 + len(index)])
    idx, digits = mrtl.data._read_indices(text, begin, colon)
    assert idx.tolist() == [5, int(index)] and digits.all()


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
    assert Y is None and X.tobytes() == scalar_parse(text.splitlines())[0].tobytes()


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
