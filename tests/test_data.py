"""Corpus format, normalization, accuracy, synthetic generator."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mrtl.data import (
    CorpusFormatError,
    SynthSpec,
    accuracy,
    generate_synthetic,
    normalize_input,
    parse_corpus,
    serialize_corpus,
)
from mrtl.engine import InvalidConfigError


def parse_text(text):
    return parse_corpus(text.splitlines())


def test_parse_labeled_example():
    X, Y = parse_text("3 2 2\n1 1:1.0 3:2.0\n2 2:0.5\n")
    assert np.array_equal(X, [[1.0, 0.0], [0.0, 0.5], [2.0, 0.0]])
    assert np.array_equal(Y, [[1.0, 0.0], [0.0, 1.0]])


def test_parse_unlabeled_file():
    X, Y = parse_text("2 2 3\n0 1:1.0\n0 2:2.0\n")
    assert Y is None
    assert np.array_equal(X, [[1.0, 0.0], [0.0, 2.0]])


def test_parse_empty_record_gives_zero_column():
    X, Y = parse_text("3 2 2\n1 1:1.0\n2\n")
    assert np.array_equal(X[:, 1], [0.0, 0.0, 0.0])


def test_parse_trailing_blank_lines_ok():
    X, _ = parse_text("2 1 2\n1 1:1.0\n\n\n")
    assert X[0, 0] == 1.0


def test_parse_blank_line_between_records():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("2 2 2\n1 1:1.0\n\n2 2:1.0\n")
    assert err.value.line == 3


def test_parse_malformed_header():
    for text in ("", "3 2\n", "a b c\n", "0 2 2\n"):
        with pytest.raises(CorpusFormatError) as err:
            parse_text(text)
        assert err.value.line == 1


# matrices numpy refuses at once: too big for its index type, or a PiB and
# more, past the address space, so no kernel grants them lazily
@pytest.mark.parametrize("text, shown", [
    ("1000000000000 1000000000000 2\n1 1:1\n", "M=1000000000000 x n=1000000000000"),
    ("33554432 4194304 2\n1 1:1\n", "M=33554432 x n=4194304"),
    ("1 1 1000000000000000\n1 1:1\n", "n=1 x c=1000000000000000"),
], ids=["size-overflow", "PiB-matrix", "PiB-label-matrix"])
def test_parse_header_too_large_to_allocate(text, shown):
    with pytest.raises(CorpusFormatError) as err:
        parse_text(text)
    assert err.value.line == 1
    assert f"cannot allocate the {shown}" in str(err.value)


def test_parse_index_zero():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 1 2\n1 0:1.0\n")
    assert err.value.line == 2
    assert "0" in str(err.value)


def test_parse_index_beyond_m():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 1 2\n1 4:1.0\n")
    assert err.value.line == 2


def test_parse_non_increasing_indices():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 1 2\n1 2:1.0 2:2.0\n")
    assert err.value.line == 2
    with pytest.raises(CorpusFormatError):
        parse_text("3 1 2\n1 3:1.0 1:2.0\n")


def test_parse_negative_value():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 2 2\n1 1:1.0\n2 2:-0.5\n")
    assert err.value.line == 3


def test_parse_label_out_of_range():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 1 2\n5 1:1.0\n")
    assert err.value.line == 2
    with pytest.raises(CorpusFormatError):
        parse_text("3 1 2\n-1 1:1.0\n")


def test_parse_mixed_labels():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 2 2\n1 1:1.0\n0 2:1.0\n")
    assert err.value.line == 3


def test_parse_record_count_mismatch():
    with pytest.raises(CorpusFormatError):
        parse_text("3 3 2\n1 1:1.0\n2 2:1.0\n")
    with pytest.raises(CorpusFormatError):
        parse_text("3 1 2\n1 1:1.0\n2 2:1.0\n")


def test_parse_malformed_entry():
    with pytest.raises(CorpusFormatError) as err:
        parse_text("3 1 2\n1 1:abc\n")
    assert err.value.line == 2
    with pytest.raises(CorpusFormatError):
        parse_text("3 1 2\n1 nonsense\n")


def test_round_trip_labeled():
    rng = np.random.default_rng(0)
    X = rng.random((12, 9))
    X[rng.random(X.shape) < 0.4] = 0.0
    labels = rng.integers(1, 4, size=9)
    X2, Y2 = parse_text(serialize_corpus(X, 3, labels=labels))
    assert np.max(np.abs(X2 - X)) <= 1e-12
    assert np.array_equal(np.argmax(Y2, axis=1) + 1, labels)


def test_round_trip_unlabeled():
    rng = np.random.default_rng(1)
    X = rng.random((8, 5)) * 0.01
    X2, Y2 = parse_text(serialize_corpus(X, 2))
    assert Y2 is None
    assert np.max(np.abs(X2 - X)) <= 1e-12


@st.composite
def corpora(draw):
    """(X, c, labels): a nonnegative finite matrix with some all-zero
    columns, and 1-based labels or None."""
    M, n, c = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    values = st.one_of(st.just(0.0), st.floats(0.0, 1e12, allow_subnormal=False))
    X = draw(arrays(np.float64, (M, n), elements=values))
    X[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    labels = draw(st.none() | st.lists(st.integers(1, c), min_size=n, max_size=n))
    return X, c, labels


@given(corpora())
def test_round_trip_property(corpus):
    X, c, labels = corpus
    X2, Y2 = parse_text(serialize_corpus(X, c, labels=labels))
    assert X2.shape == X.shape
    assert np.array_equal(X2 == 0.0, X == 0.0)
    # 12 significant digits: half a unit in the 12th digit, plus the parse's
    # own rounding to the nearest double
    assert np.all(np.abs(X2 - X) <= 5e-12 * X + np.spacing(X))
    if labels is None:
        assert Y2 is None
    else:
        assert np.array_equal(np.argmax(Y2, axis=1) + 1, labels)


@pytest.mark.parametrize("value, shown", [
    (np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan"), (-0.5, "-0.5"),
])
def test_serialize_rejects_values_the_parser_rejects(value, shown):
    X = np.ones((3, 4))
    X[2, 1] = value
    with pytest.raises(InvalidConfigError) as err:
        serialize_corpus(X, 2)
    assert f"instance 2 has value {shown} at feature 3" in str(err.value)


def test_serialize_rejects_bad_labels():
    X = np.ones((2, 3))
    with pytest.raises(InvalidConfigError):
        serialize_corpus(X, 2, labels=[1, 2])
    with pytest.raises(InvalidConfigError):
        serialize_corpus(X, 2, labels=[1, 2, 3])


def test_normalize_input_hand_cases():
    got = normalize_input(np.array([[1.0], [3.0]]))
    assert np.allclose(got, [[0.25], [0.75]], rtol=0, atol=1e-15)
    got = normalize_input(np.zeros((4, 1)))
    assert np.array_equal(got, np.full((4, 1), 0.25))


def test_normalize_input_idempotent_and_stochastic():
    rng = np.random.default_rng(2)
    X = rng.random((10, 6))
    once = normalize_input(X)
    assert np.max(np.abs(once.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(normalize_input(once) - once)) <= 1e-15


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_normalize_input_scales_a_sum_past_the_float64_range(kind):
    # finite values whose sum overflows used to normalize to an all-zero
    # column, with a numpy warning
    X, _ = parse_text("3 3 2\n1 1:1e308 2:1e308\n2 1:1 2:3\n1\n")
    if kind == "csc":
        X = sp.csc_array(X)
        before = X.data.copy()
    got = normalize_input(X)
    if kind == "csc":
        assert np.array_equal(X.data, before)  # the input is left as it was
        got = got.toarray()
    assert np.array_equal(got[:, 0], [0.5, 0.5, 0.0])
    assert np.array_equal(got[:, 1:], [[0.25, 1 / 3], [0.75, 1 / 3], [0.0, 1 / 3]])


def test_accuracy_values():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 1], [2, 2]) == 0.0
    assert accuracy([1, 2, 2, 1], [1, 2, 1, 1]) == 0.75


def test_accuracy_errors():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        accuracy([], [])


def small_spec(**kw):
    base = dict(M=40, c=2, P=2, n_s=24, n_t=18, k1=3, k2=8,
                noise=0.0, domain_shift=0.0, seed=0)
    base.update(kw)
    return SynthSpec(**base)


def test_synthetic_deterministic():
    a_data, a_truth = generate_synthetic(small_spec(noise=0.5, domain_shift=0.4))
    b_data, b_truth = generate_synthetic(small_spec(noise=0.5, domain_shift=0.4))
    assert np.array_equal(a_data.X_s, b_data.X_s)
    for ta, tb in zip(a_data.targets, b_data.targets):
        assert np.array_equal(ta, tb)
    for ta, tb in zip(a_truth, b_truth):
        assert np.array_equal(ta, tb)


def test_synthetic_shapes_and_balance():
    spec = small_spec(c=3, n_s=25, n_t=17, P=3)
    data, truth = generate_synthetic(spec)
    assert data.X_s.shape == (40, 25)
    assert len(data.targets) == 3
    assert all(t.shape == (40, 17) for t in data.targets)
    # class counts differ from n/c by at most 1
    for labels, n in [(np.argmax(data.Y_s, axis=1) + 1, 25)] + [
        (t, 17) for t in truth
    ]:
        counts = np.bincount(labels, minlength=4)[1:]
        assert np.max(counts) - np.min(counts) <= 1
        assert labels.min() >= 1 and labels.max() <= 3


def test_synthetic_columns_are_distributions():
    data, _ = generate_synthetic(small_spec(noise=0.8, domain_shift=0.6))
    for X in (data.X_s,) + data.targets:
        assert np.all(X >= 0)
        assert np.max(np.abs(X.sum(axis=0) - 1.0)) <= 1e-12


def test_synthetic_noiseless_nearest_signature_oracle():
    # at noise 0 every instance equals its class signature, so matching
    # against per-class mean columns classifies everything correctly
    for shift in (0.0, 0.5, 1.0):
        data, truth = generate_synthetic(small_spec(domain_shift=shift))
        for X_t, labels in zip(data.targets, truth):
            sigs = np.stack(
                [X_t[:, labels == c].mean(axis=1) for c in (1, 2)], axis=1
            )
            d = ((X_t[:, :, None] - sigs[:, None, :]) ** 2).sum(axis=0)
            got = np.argmin(d, axis=1) + 1
            assert np.array_equal(got, labels)


def test_synthetic_zero_shift_targets_match_source_signatures():
    data, truth = generate_synthetic(small_spec())
    src_labels = np.argmax(data.Y_s, axis=1) + 1
    for c in (1, 2):
        src_sig = data.X_s[:, src_labels == c][:, 0]
        tgt_cols = data.targets[0][:, truth[0] == c]
        assert np.max(np.abs(tgt_cols - src_sig[:, None])) <= 1e-12


def test_synthetic_rejects_invalid_spec():
    with pytest.raises(InvalidConfigError):
        generate_synthetic(small_spec(k1=9, k2=8))
    with pytest.raises(InvalidConfigError):
        generate_synthetic(small_spec(domain_shift=1.5))
    with pytest.raises(InvalidConfigError):
        generate_synthetic(small_spec(noise=-0.1))
    with pytest.raises(InvalidConfigError):
        generate_synthetic(small_spec(c=1))
    with pytest.raises(InvalidConfigError):
        generate_synthetic(small_spec(k2=41))


@pytest.mark.parametrize("name, value", [
    ("M", 40.5), ("c", 2.5), ("P", 1.5), ("n_s", 6.5), ("n_t", 18.5),
    ("k1", 2.5), ("k2", 8.5), ("seed", 1.5),
])
def test_synth_spec_rejects_non_integer_counts(name, value):
    # unchecked, a float count reaches numpy or range and ends in a
    # TypeError or IndexError inside generate_synthetic
    with pytest.raises(InvalidConfigError,
                       match=f"{name} must be an integer, got {value}"):
        small_spec(**{name: value})
    assert small_spec(**{name: np.int64(round(value))})
