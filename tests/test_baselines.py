"""NMF and logistic-regression baselines."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import mrtl.baselines as baselines
from mrtl.baselines import (
    LogRegModel,
    logreg_predict_proba,
    logreg_train,
    nmf_fit,
    nmf_predict_labels,
)
from mrtl.data import compact_corpus
from mrtl.engine import InvalidConfigError
from mrtl.linalg import SparseCorpus
from conftest import blas_threads_env, logreg_train_primal, one_hot


def test_nmf_recovers_rank_one():
    rng = np.random.default_rng(0)
    for seed in range(5):
        w = rng.random(8) + 0.5
        h = rng.random(6) + 0.5
        X = np.outer(w, h)
        W, H = nmf_fit(X, k=1, iters=500, seed=seed)
        rel = np.linalg.norm(X - W @ H) / np.linalg.norm(X)
        assert rel < 1e-3


def test_nmf_does_not_depend_on_the_blas_thread_count():
    # At 1000 x 500 OpenBLAS splits a product across two threads, and one
    # with a transposed right factor, such as X @ H.T, can then take other
    # bits than at one thread. In linalg's layout, X.T @ W and X @ Ht with
    # Ht contiguous, nmf_fit's bits do not depend on the thread count.
    code = ("import hashlib, json, numpy as np\n"
            "from mrtl.baselines import nmf_fit\n"
            "X = np.random.default_rng(0).random((1000, 500))\n"
            "errs = []\n"
            "W, H = nmf_fit(X, 2, 7, 0, lambda i, e: errs.append(e))\n"
            "print(json.dumps({name: hashlib.sha256(np.ascontiguousarray(a))"
            ".hexdigest() for name, a in (('W', W), ('H', H), ('errs', errs))}))\n")
    one, two = (json.loads(subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=blas_threads_env(threads),
        capture_output=True, text=True, timeout=60, check=True).stdout)
        for threads in ("1", "2"))
    assert one == two


def test_nmf_zero_matrix():
    W, H = nmf_fit(np.zeros((4, 3)), k=2, iters=5, seed=0)
    assert np.linalg.norm(np.zeros((4, 3)) - W @ H) == 0.0


def test_nmf_error_non_increasing():
    rng = np.random.default_rng(1)
    X = rng.random((10, 8))
    errs = []
    nmf_fit(X, k=3, iters=200, seed=4, on_iteration=lambda i, e: errs.append(e))
    errs = np.array(errs)
    assert len(errs) == 200
    assert np.all(errs[1:] <= errs[:-1] * (1 + 1e-9))


def test_nmf_nonnegative_output():
    rng = np.random.default_rng(2)
    X = rng.random((7, 9))
    W, H = nmf_fit(X, k=4, iters=30, seed=1)
    assert np.all(W >= 0) and np.all(H >= 0)
    assert np.all(np.isfinite(W)) and np.all(np.isfinite(H))


def test_nmf_rejects_invalid_k():
    X = np.ones((4, 3))
    with pytest.raises(InvalidConfigError):
        nmf_fit(X, k=0, iters=5, seed=0)
    with pytest.raises(InvalidConfigError):
        nmf_fit(X, k=5, iters=5, seed=0)


def test_nmf_predict_labels_rules():
    assert np.array_equal(nmf_predict_labels(np.array([[0.9], [0.1]])), [1])
    assert np.array_equal(nmf_predict_labels(np.array([[0.5], [0.5]])), [1])
    assert np.array_equal(nmf_predict_labels(np.eye(3)), [1, 2, 3])


def test_nmf_predict_labels_rejects_an_encoding_with_no_rows():
    with pytest.raises(InvalidConfigError,
                       match=r"^H has no rows; it needs one per class$"):
        nmf_predict_labels(np.zeros((0, 3)))


def test_logreg_separable_toy():
    # two well-separated 1-d clusters
    X = np.array([[0.1, 0.2, 0.15, 0.9, 0.95, 0.85]])
    labels = np.array([1, 1, 1, 2, 2, 2])
    Y = one_hot(labels, 2)
    model = logreg_train(X, Y)
    proba = logreg_predict_proba(model, X)
    assert np.array_equal(np.argmax(proba, axis=1) + 1, labels)


def test_logreg_identical_instances_balanced():
    X = np.ones((3, 4)) * 0.2
    Y = one_hot([1, 2, 1, 2], 2)
    model = logreg_train(X, Y)
    proba = logreg_predict_proba(model, X)
    assert np.max(np.abs(proba - 0.5)) <= 0.05


def test_logreg_huge_l2_gives_uniform():
    rng = np.random.default_rng(3)
    X = rng.random((5, 8))
    Y = one_hot(rng.integers(1, 4, size=8), 3)
    model = logreg_train(X, Y, l2=1e6)
    proba = logreg_predict_proba(model, X)
    assert np.max(np.abs(proba - 1.0 / 3.0)) <= 0.05


def test_logreg_proba_rows_stochastic_and_positive():
    rng = np.random.default_rng(4)
    X = rng.random((6, 10))
    Y = one_hot(rng.integers(1, 3, size=10), 2)
    model = logreg_train(X, Y, steps=50)
    proba = logreg_predict_proba(model, rng.random((6, 20)))
    assert np.max(np.abs(proba.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(proba > 0)


def test_logreg_zero_weight_model_uniform():
    model = LogRegModel(weights=np.zeros((5, 3)))
    proba = logreg_predict_proba(model, np.random.default_rng(5).random((4, 7)))
    assert np.allclose(proba, 1.0 / 3.0, rtol=0, atol=1e-14)


def test_logreg_loss_non_increasing():
    rng = np.random.default_rng(6)
    X = rng.random((8, 30))
    Y = one_hot(rng.integers(1, 3, size=30), 2)
    losses = []
    logreg_train(X, Y, steps=200, on_step=lambda i, v: losses.append(v))
    losses = np.array(losses)
    assert np.all(losses[1:] <= losses[:-1] + 1e-12)


def test_logreg_deterministic():
    rng = np.random.default_rng(7)
    X = rng.random((6, 12))
    Y = one_hot(rng.integers(1, 3, size=12), 2)
    # the CSC case stores more than n^2 / 4 entries, so it forms its Gram
    # matrix through a sparse product
    for corpus in (X, sp.csc_array(X * (X > 0.3))):
        m1 = logreg_train(corpus, Y)
        m2 = logreg_train(corpus, Y)
        assert np.array_equal(m1.weights, m2.weights)


def test_logreg_duplicated_opposite_instances_get_zero_weights():
    # every empty document normalizes to the same uniform column; two of
    # them with opposite labels get equal and opposite coefficients, which
    # must cancel exactly in the weights, dense or CSC
    X = np.full((5, 2), 0.2)
    Y = one_hot([1, 2], 2)
    for corpus in (X, sp.csc_array(X)):
        assert not np.any(logreg_train(corpus, Y).weights)


def test_logreg_rejects_degenerate_input():
    with pytest.raises(InvalidConfigError):
        logreg_train(np.ones((3, 0)), np.ones((0, 2)))


@pytest.mark.parametrize("name, value", [
    ("l2", np.nan), ("l2", np.inf), ("l2", -1.0),
    ("l2", True), ("l2", False), ("l2", np.True_),
])
def test_logreg_rejects_non_finite_or_out_of_range_settings(name, value):
    # l2 = nan used to return all-zero weights, l2 = inf a numpy warning,
    # and a bool was taken as 0 or 1
    rng = np.random.default_rng(10)
    X = rng.random((5, 6))
    Y = one_hot(rng.integers(1, 3, size=6), 2)
    with pytest.raises(InvalidConfigError, match=f"{name} must be finite"):
        logreg_train(X, Y, **{name: value})


@pytest.mark.parametrize("label", [0.5, 2.0, -1.0, np.nan])
def test_logreg_rejects_a_label_entry_other_than_0_or_1(label):
    # the loss takes log p where an entry is 1 and log(1 - p) where it is 0
    rng = np.random.default_rng(10)
    X = rng.random((5, 6))
    Y = one_hot(rng.integers(1, 3, size=6), 2)
    Y[2, 0] = label
    with pytest.raises(InvalidConfigError,
                       match=r"^Y: instance 3 has labels .*; label rows must be one-hot"):
        logreg_train(X, Y)


def test_expit_matches_scipy_without_warnings():
    from scipy.special import expit as scipy_expit

    # -800 overflows exp(-x); the result must still be 0 with no warning
    x = np.linspace(-800.0, 800.0, 16001)
    got = baselines.expit(x)
    assert np.max(np.abs(got - scipy_expit(x))) <= 2.3e-16
    assert got[0] == 0.0 and got[-1] == 1.0


def test_logreg_predict_rejects_wrong_features():
    rng = np.random.default_rng(8)
    X = rng.random((6, 10))
    Y = one_hot(rng.integers(1, 3, size=10), 2)
    model = logreg_train(X, Y, steps=10)
    with pytest.raises(InvalidConfigError):
        logreg_predict_proba(model, rng.random((4, 10)))


@pytest.mark.parametrize("weights", [np.zeros(3), np.zeros((3, 0)), np.zeros((1, 2)),
                                     np.zeros((3, 2, 1))],
                         ids=["1-d", "no-classes", "no-features", "3-d"])
def test_logreg_predict_rejects_weights_that_are_not_a_weight_matrix(weights):
    # each used to end in numpy's AxisError, an n x 0 "probability" matrix,
    # a model "expecting 0 features" or a 3-d "probability" array
    with pytest.raises(InvalidConfigError) as err:
        logreg_predict_proba(LogRegModel(weights), np.ones((2, 2)))
    assert str(err.value) == (
        f"model weights have shape {weights.shape}; they must be an (M + 1) x c "
        f"matrix with M >= 1 and c >= 1")


def test_logreg_one_forward_pass_per_step(monkeypatch):
    # the accepted step's forward pass is reused as the next step's, so a
    # step that needs no step-size halving costs one expit call
    calls = []
    real_expit = baselines.expit
    monkeypatch.setattr(baselines, "expit",
                        lambda z: calls.append(1) or real_expit(z))
    rng = np.random.default_rng(9)
    X = rng.random((8, 30))
    Y = one_hot(rng.integers(1, 3, size=30), 2)
    after_step = []
    logreg_train(X, Y, steps=50, on_step=lambda i, v: after_step.append(len(calls)))
    assert after_step == list(range(2, 52))


def rel(got, want):
    """Largest absolute difference relative to the largest entry of want."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@st.composite
def logreg_problems(draw):
    """A dense or CSC corpus, one-hot labels, l2 and a step count. With
    n <= M a dense corpus always forms its Gram matrix and a CSC one does at
    full density; with n >= 8M neither does, so both products are drawn."""
    M = draw(st.integers(1, 8))
    tall = draw(st.booleans())
    n = draw(st.integers(8 * M, 10 * M) if tall else st.integers(1, M))
    c = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.random((M, n))
    if draw(st.booleans()):
        X = sp.csc_array(X * (rng.random((M, n)) < draw(st.sampled_from([0.3, 1.0]))))
    Y = one_hot(rng.integers(1, c + 1, size=n), c)
    return X, Y, draw(st.sampled_from([0.0, 1e-3, 1e6])), draw(st.integers(1, 60))


@settings(max_examples=60)
@given(logreg_problems())
def test_logreg_dual_descent_matches_primal(problem):
    X, Y, l2, steps = problem
    got_losses, want_losses = [], []
    got = logreg_train(X, Y, l2=l2, steps=steps,
                       on_step=lambda i, v: got_losses.append(v))
    want = logreg_train_primal(X, Y, l2=l2, steps=steps,
                               on_step=lambda i, v: want_losses.append(v))
    assert len(got_losses) == len(want_losses)
    assert np.all(np.abs(np.subtract(got_losses, want_losses))
                  <= 1e-12 * np.abs(want_losses))
    assert rel(got.weights, want.weights) <= 1e-12
    assert rel(logreg_predict_proba(got, X), logreg_predict_proba(want, X)) <= 1e-12


def test_logreg_tall_corpus_never_forms_the_gram_matrix():
    # X^T X would take 72 MB here against X's 480 kB
    rng = np.random.default_rng(11)
    X = rng.random((20, 3000))
    Y = one_hot(rng.integers(1, 3, size=3000), 2)
    tracemalloc.start()
    try:
        logreg_train(X, Y, steps=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * X.nbytes


def test_logreg_tall_sparse_corpus_never_forms_the_gram_matrix():
    # n^2 = 9e6 passes 4 times the ~6000 stored entries, so X^T X, 72 MB
    # here, is not formed; the bound is the dense test's, twice X's dense
    # size, which the n x c coefficient arrays stay within
    rng = np.random.default_rng(11)
    dense = rng.random((20, 3000)) * (rng.random((20, 3000)) < 0.1)
    X = compact_corpus(dense)
    assert isinstance(X, SparseCorpus)
    Y = one_hot(rng.integers(1, 3, size=3000), 2)
    tracemalloc.start()
    try:
        logreg_train(X, Y, steps=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dense.nbytes
