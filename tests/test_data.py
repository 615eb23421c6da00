"""Corpus format, normalization, accuracy, synthetic generator."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import mrtl.data
from conftest import refuse_to_allocate
from mrtl.baselines import LogRegModel, logreg_predict_proba, logreg_train, nmf_fit
from mrtl.data import (
    CorpusFormatError,
    SynthSpec,
    accuracy,
    generate_synthetic,
    normalize_input,
    parse_corpus,
    serialize_corpus,
)
from mrtl.engine import Hyperparams, InvalidConfigError, ProblemData
from mrtl.linalg import SparseCorpus, as_corpus


def parse_text(text):
    """parse_corpus's (X, Y), X dense however the parser holds it."""
    X, Y = parse_corpus(text.splitlines())
    return X.toarray() if isinstance(X, SparseCorpus) else X, Y


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


# arrays numpy refuses at once: too big for its index type, or a PiB and
# more, past the address space, so no kernel grants them lazily. The dense
# M x n matrix is allocated only for entries that need it, here three of six
# nonzero, so its refusal is simulated.
@pytest.mark.parametrize("text, shown", [
    ("1 4611686018427387904 2\n1 1:1\n", "n=4611686018427387904 label vector"),
    ("1 1000000000000000000 2\n1 1:1\n", "n=1000000000000000000 label vector"),
    ("1 1 1000000000000000\n1 1:1\n", "n=1 x c=1000000000000000 label matrix"),
    ("3 2 2\n1 1:1 3:1\n2 2:1\n", "M=3 x n=2 matrix"),
], ids=["size-overflow", "PiB-label-vector", "PiB-label-matrix", "dense-matrix"])
def test_parse_header_too_large_to_allocate(text, shown, monkeypatch):
    refuse_to_allocate(monkeypatch, (3, 2))
    with pytest.raises(CorpusFormatError) as err:
        parse_text(text)
    assert err.value.line == 1
    assert str(err.value) == f"line 1: cannot allocate the {shown} the header announces"


def test_parse_holds_a_sparse_corpus_of_a_huge_header_sparse():
    # the dense size of this header, 8e15 bytes, is never asked for
    text = "1000000000000000 2 2\n1 1:1 5:2\n2 999999999999999:3\n"
    X, Y = parse_corpus(text.splitlines())
    assert isinstance(X, SparseCorpus) and X.shape == (10**15, 2) and X.nnz == 3
    assert (X.data.tolist(), X.indices.tolist(), X.indptr.tolist()) == (
        [1.0, 2.0, 3.0], [0, 4, 10**15 - 2], [0, 2, 3])
    assert np.array_equal(Y, [[1.0, 0.0], [0.0, 1.0]])


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
    """(X, c, labels): a nonnegative finite matrix, possibly with no rows or
    no columns, with some all-zero columns, and 1-based labels or None."""
    M, n, c = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(1, 4))
    values = st.one_of(st.just(0.0), st.floats(0.0, 1e12, allow_subnormal=False))
    X = draw(arrays(np.float64, (M, n), elements=values))
    X[:, draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))] = 0.0
    labels = draw(st.none() | st.lists(st.integers(1, c), min_size=n, max_size=n))
    return X, c, labels


@given(corpora())
def test_round_trip_property(corpus):
    X, c, labels = corpus
    if X.size == 0:
        # parse_corpus refuses a header with a zero size, so the writer must too
        with pytest.raises(InvalidConfigError, match=r"^X has no (features|instances)$"):
            serialize_corpus(X, c, labels=labels)
        return
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


GOOD = np.ones((4, 3))
GOOD_LABELS = np.eye(2)[[0, 1, 0]]
# each entry point that takes a corpus, dense or sparse, called on X, with
# the name its refusal gives X
CORPUS_ENTRY_POINTS = {
    "ProblemData-X_s": (
        lambda X: ProblemData(X_s=X, Y_s=GOOD_LABELS, targets=(GOOD,)), "X_s"),
    "ProblemData-target": (
        lambda X: ProblemData(X_s=GOOD, Y_s=GOOD_LABELS, targets=(GOOD, X)),
        "target 2"),
    "normalize_input": (normalize_input, "X"),
    "logreg_train": (lambda X: logreg_train(X, GOOD_LABELS, steps=3), "X"),
    "logreg_predict_proba": (
        lambda X: logreg_predict_proba(LogRegModel(np.zeros((5, 2))), X), "X"),
    "nmf_fit": (lambda X: nmf_fit(X, k=2, iters=3, seed=0), "X"),
    "serialize_corpus": (lambda X: serialize_corpus(X, 2), "X"),
}


@pytest.mark.parametrize("entry, kind, value", [
    (entry, kind, value) for entry in CORPUS_ENTRY_POINTS
    for kind in ("dense", "sparse") for value in (np.inf, np.nan, -1.0)
])
def test_every_corpus_entry_point_names_the_first_bad_value(entry, kind, value):
    # an inf or a NaN used to end in a numpy warning, a refusal as negative,
    # a uniform column or NaN results, depending on the entry point
    call, name = CORPUS_ENTRY_POINTS[entry]
    X = GOOD.copy()
    X[2, 1] = value
    X[3, 2] = -2.0  # a later bad entry in column order
    with pytest.raises(InvalidConfigError) as err:
        call(X if kind == "dense" else as_corpus(sp.csc_array(X)))
    assert str(err.value) == (
        f"{name}: instance 2 has value {value} at feature 3; corpus values must be "
        f"finite and nonnegative")


@pytest.mark.parametrize("entry", list(CORPUS_ENTRY_POINTS))
def test_every_corpus_entry_point_refuses_a_1d_array(entry):
    call, name = CORPUS_ENTRY_POINTS[entry]
    with pytest.raises(InvalidConfigError, match=f"^{name} must be a 2-d matrix$"):
        call(np.ones(4))


@pytest.mark.parametrize("entry, kind, shape, missing", [
    (entry, kind, shape, missing) for entry in CORPUS_ENTRY_POINTS
    for kind in ("dense", "sparse")
    for shape, missing in (((4, 0), "instances"), ((0, 3), "features"))
])
def test_every_corpus_entry_point_refuses_an_empty_corpus(entry, kind, shape, missing):
    # an empty corpus used to end in a ZeroDivisionError (normalize_input), a
    # header parse_corpus refuses (serialize_corpus) or a numpy error
    call, name = CORPUS_ENTRY_POINTS[entry]
    X = np.zeros(shape)
    with pytest.raises(InvalidConfigError, match=f"^{name} has no {missing}$"):
        call(X if kind == "dense" else as_corpus(sp.csc_array(X)))


# each entry point that takes a one-hot label matrix for GOOD, called on Y,
# with the name its refusal gives Y
LABEL_ENTRY_POINTS = {
    "ProblemData": (
        lambda Y: ProblemData(X_s=GOOD, Y_s=Y, targets=(GOOD,)), "Y_s"),
    "logreg_train": (lambda Y: logreg_train(GOOD, Y, steps=3), "Y"),
}
ONE_HOT = "; label rows must be one-hot (a single 1, rest 0)"
# (case, labels, the refusal after the name); GOOD_LABELS is
# [[1, 0], [0, 1], [1, 0]]
LABEL_CASES = [
    ("1-d", GOOD_LABELS[:, 0], " must be a 2-d matrix"),
    ("row count", GOOD_LABELS[:2], " has 2 rows for 3 instances"),
    ("0.5", np.array([[1, 0], [0.5, 1], [1, 0]]),
     ": instance 2 has labels [0.5, 1.0]" + ONE_HOT),
    ("nan", np.array([[1, 0], [0, 1], [1, np.nan]]),
     ": instance 3 has labels [1.0, nan]" + ONE_HOT),
    ("two 1s", np.array([[1, 0], [0, 1], [1, 1]]),
     ": instance 3 has labels [1.0, 1.0]" + ONE_HOT),
    ("zeros", np.array([[1, 0], [0, 0], [1, 0]]),
     ": instance 2 has labels [0.0, 0.0]" + ONE_HOT),
]


@pytest.mark.parametrize("entry", list(LABEL_ENTRY_POINTS))
@pytest.mark.parametrize("labels, refusal", [case[1:] for case in LABEL_CASES],
                         ids=[case[0] for case in LABEL_CASES])
def test_every_label_entry_point_refuses_a_matrix_that_is_not_one_hot(
        entry, labels, refusal):
    # logreg_train used to take a row with two 1s or none
    call, name = LABEL_ENTRY_POINTS[entry]
    with pytest.raises(InvalidConfigError) as err:
        call(labels)
    assert str(err.value) == name + refusal


def test_serialize_writes_a_sparse_corpus_as_its_dense_form(monkeypatch):
    # a sparse corpus used to end in a TypeError; 64-column blocks (the
    # least blocks() makes) read the 150 columns in three blocks
    monkeypatch.setattr(mrtl.data, "RESIDUAL_BLOCK_BYTES", 1)
    rng = np.random.default_rng(5)
    X = rng.integers(1, 1000, size=(7, 150)) / 8.0  # exact in 12 digits
    X[rng.random(X.shape) < 0.7] = 0.0
    X[:, 70] = 0.0  # an empty instance
    S = as_corpus(sp.csc_array(X))
    labels = rng.integers(1, 4, size=150)
    for given in (None, labels):
        text = serialize_corpus(S, 3, labels=given)
        assert text == serialize_corpus(S.toarray(), 3, labels=given)
        X2, Y2 = parse_text(text)
        assert np.array_equal(X2, S.toarray())
        if given is None:
            assert Y2 is None
        else:
            assert np.array_equal(np.argmax(Y2, axis=1) + 1, labels)


def test_serialize_rejects_bad_labels():
    X = np.ones((2, 3))
    with pytest.raises(InvalidConfigError):
        serialize_corpus(X, 2, labels=[1, 2])
    with pytest.raises(InvalidConfigError):
        serialize_corpus(X, 2, labels=[1, 2, 3])
    # labels that are not integers used to be truncated (1.7 wrote 1, True
    # wrote 1) or, for a NaN, end in a numpy error
    for labels, dtype in (([1.7, 2.2], "float64"), ([True, True], "bool"),
                          ([1.0, np.nan], "float64")):
        with pytest.raises(InvalidConfigError,
                           match=f"^labels must be integers, got {dtype}$"):
            serialize_corpus(np.ones((2, 2)), 2, labels=labels)


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


# each owner of integer settings, called with one of them given
INTEGER_OWNERS = {
    "Hyperparams": Hyperparams,
    "SynthSpec": small_spec,
    "nmf_fit": lambda **kw: nmf_fit(GOOD, **({"k": 2, "iters": 3, "seed": 0} | kw)),
    "logreg_train": lambda **kw: logreg_train(GOOD, GOOD_LABELS, **kw),
    "serialize_corpus": lambda **kw: serialize_corpus(GOOD, **({"c": 2} | kw)),
}
# (owner, setting, least value) for every integer setting
INTEGER_SETTINGS = [
    *(("Hyperparams", name, least) for name, least in
      [("k1", 1), ("k2", 1), ("maxiter", 1), ("seed", 0)]),
    *(("SynthSpec", name, least) for name, least in
      [("M", 1), ("c", 2), ("P", 1), ("n_s", 1), ("n_t", 1),
       ("k1", 1), ("k2", 1), ("seed", 0)]),
    ("nmf_fit", "k", 1),
    ("nmf_fit", "iters", 1),
    ("nmf_fit", "seed", 0),
    ("logreg_train", "steps", 1),
    ("serialize_corpus", "c", 1),
]
INTEGER_CASES = [(*setting, value) for setting in INTEGER_SETTINGS
                 for value in (setting[2] - 1, 2.5)]


@pytest.mark.parametrize("owner, name, least, value", INTEGER_CASES,
                         ids=[f"{o}-{n}-{v}" for o, n, _, v in INTEGER_CASES])
def test_every_integer_setting_is_refused_in_one_wording(owner, name, least, value):
    # the rule used to read in four wordings; an unchecked float count ended
    # in a TypeError inside numpy or range
    build = INTEGER_OWNERS[owner]
    calls = [lambda: build(**{name: value})]
    if owner in ("Hyperparams", "SynthSpec"):  # also as dataclasses.replace
        calls.append(lambda: replace(build(), **{name: value}))
        assert replace(build(), **{name: np.int64(getattr(build(), name))})
    for call in calls:
        with pytest.raises(InvalidConfigError) as err:
            call()
        assert str(err.value) == (
            f"{name} must be an integer of at least {least}, got {value!r}")
        assert err.value.field == name
