"""Sparse (CSC) corpora against the same problems held dense.

Every property draws a small random problem whose corpora are mostly zeros,
one target carrying an all-zero document, and holds it twice: as dense
arrays and as scipy sparse CSC arrays. The library must compute the same
numbers from both, and the factored objective must equal the residual form.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    num_den_per_term,
    one_hot,
    random_state,
    reconstructions,
    tiny_hp,
)
from hypothesis import given, settings, strategies as st

import mrtl.cli as cli
from mrtl.baselines import (
    logreg_predict_proba,
    logreg_train,
    nmf_fit,
    nmf_predict_labels,
)
from mrtl.data import (
    SPARSE_MAX_DENSITY,
    compact_corpus,
    load_corpus,
    normalize_input,
    serialize_corpus,
)
from mrtl.engine import (
    Hyperparams,
    ProblemData,
    _num_den,
    _v_products,
    fit,
    objective,
    predict,
    run_iteration,
)
from mrtl.linalg import frobenius_sq, normalize_rows_l1

BLOCKS = (
    "U_common", "U_target", "U_source", "V",
    "Theta_common", "Theta_target", "Theta_source",
    "shared.Theta_common", "shared.Theta_specific",
)
RTOL = 1e-12

# sparse inputs must not be densified or written into behind the caller's
# back, which scipy reports as a SparseEfficiencyWarning
pytestmark = pytest.mark.filterwarnings("error")


def rel(got, want):
    """Largest absolute difference relative to the largest entry of want."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


def sparse_counts(rng, M, n, density):
    """M x n nonnegative counts with about density of the entries nonzero."""
    X = rng.integers(1, 6, size=(M, n)) * (rng.random((M, n)) < density)
    return X.astype(np.float64)


@st.composite
def problems(draw):
    """(dense ProblemData, the same as CSC, v_init, hp, rng)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = draw(st.integers(5, 12))
    c = draw(st.integers(2, 3))
    n_s = draw(st.integers(c, 8))
    n_t = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    density = draw(st.floats(0.05, SPARSE_MAX_DENSITY))
    X_s = sparse_counts(rng, M, n_s, density)
    targets = [sparse_counts(rng, M, n, density) for n in n_t]
    targets[0][:, -1] = 0.0  # an all-zero document
    Y_s = one_hot(np.arange(n_s) % c + 1, c)
    dense = ProblemData(
        X_s=normalize_input(X_s), Y_s=Y_s,
        targets=tuple(normalize_input(X) for X in targets),
    )
    csc = ProblemData(
        X_s=normalize_input(sp.csc_array(X_s)), Y_s=Y_s,
        targets=tuple(normalize_input(sp.csc_array(X)) for X in targets),
    )
    k2 = draw(st.integers(2, min(5, M)))
    hp = tiny_hp(k1=draw(st.integers(1, k2 - 1)), k2=k2,
                 lam=draw(st.sampled_from([0.0, 1.0, 10.0])))
    v_init = [normalize_rows_l1(rng.random((n, c)) + 0.05) for n in n_t]
    return dense, csc, v_init, hp, rng


@given(problems())
def test_sparse_inputs_are_held_as_csc_with_dense_values(problem):
    dense, csc, _, _, _ = problem
    for D, S in zip((dense.X_s, *dense.targets), (csc.X_s, *csc.targets)):
        assert isinstance(S, sp.csc_array)
        assert rel(S.toarray(), D) <= RTOL
    # the all-zero document became uniform
    assert np.all(csc.targets[0].toarray()[:, -1] == 1.0 / csc.M)
    assert rel(csc.sq_norms, dense.sq_norms) <= RTOL


@given(problems())
def test_objective_and_kernel_equal_on_dense_and_csc(problem):
    dense, csc, _, hp, rng = problem
    factors, shared = random_state(rng, dense, hp)
    assert rel(objective(csc, factors, shared, hp),
               objective(dense, factors, shared, hp)) <= RTOL
    for p, f in enumerate(factors):
        for block in BLOCKS:
            for got, want in zip(_num_den(block, csc, p, f, shared, hp.lam,
                                          _v_products(csc, p, f.V)),
                                 _num_den(block, dense, p, f, shared, hp.lam,
                                          _v_products(dense, p, f.V))):
                assert rel(got, want) <= RTOL, block
    got_factors, got_shared = run_iteration(csc, factors, shared, hp)
    want_factors, want_shared = run_iteration(dense, factors, shared, hp)
    for got, want in zip(got_factors, want_factors):
        for name in vars(want):
            assert rel(getattr(got, name), getattr(want, name)) <= RTOL, name
    for name in vars(want_shared):
        assert rel(getattr(got_shared, name), getattr(want_shared, name)) <= RTOL


@given(problems())
def test_folded_kernel_matches_per_term_formulas(problem):
    # the kernel folds each weight into a small factor and shares X @ W
    # between terms; only rounding may separate it from the term-by-term sum
    dense, csc, _, hp, rng = problem
    factors, shared = random_state(rng, dense, hp)
    for data in (dense, csc):
        for p, f in enumerate(factors):
            for block in BLOCKS:
                got = _num_den(block, data, p, f, shared, hp.lam,
                               _v_products(data, p, f.V))
                want = num_den_per_term(block, data, p, f, shared, hp.lam)
                for g, w in zip(got, want):
                    assert g.shape == w.shape, block
                    assert rel(g, w) <= RTOL, block


@given(problems())
def test_factored_objective_matches_residual_form(problem):
    dense, csc, _, hp, rng = problem
    factors, shared = random_state(rng, dense, hp)
    direct = 0.0
    for p, f in enumerate(factors):
        X_t = dense.targets[p]
        rec_t, rec_s, rec_sh = reconstructions(dense, p, f, shared)
        direct += (frobenius_sq(X_t - rec_t) + frobenius_sq(dense.X_s - rec_s)
                   + hp.lam * frobenius_sq(X_t - rec_sh))
    for data in (dense, csc):
        assert rel(objective(data, factors, shared, hp), direct) <= RTOL


@settings(max_examples=25)  # 500 descent steps per fit
@given(problems())
def test_logreg_equal_on_dense_and_csc(problem):
    dense, csc, _, _, _ = problem
    want = logreg_train(dense.X_s, dense.Y_s)
    got = logreg_train(csc.X_s, csc.Y_s)
    assert rel(got.weights, want.weights) <= RTOL
    for D, S in zip(dense.targets, csc.targets):
        assert rel(logreg_predict_proba(got, S), logreg_predict_proba(want, D)) <= RTOL


@given(problems())
def test_nmf_equal_on_dense_and_csc(problem):
    dense, csc, _, _, _ = problem
    X = csc.targets[0]
    errs = {}
    W_d, H_d = nmf_fit(dense.targets[0], k=2, iters=20, seed=0,
                       on_iteration=lambda i, e: errs.setdefault("dense", []).append(e))
    W_s, H_s = nmf_fit(X, k=2, iters=20, seed=0,
                       on_iteration=lambda i, e: errs.setdefault("csc", []).append(e))
    assert rel(W_s, W_d) <= RTOL and rel(H_s, H_d) <= RTOL
    assert rel(errs["csc"], errs["dense"]) <= RTOL
    assert rel(errs["csc"][-1], frobenius_sq(X.toarray() - W_s @ H_s)) <= RTOL


def test_compact_corpus_switches_to_csc_at_a_quarter_nonzero():
    X = np.zeros((8, 4))
    X.flat[:8] = 1.0  # 8 of 32 entries: exactly a quarter
    held = compact_corpus(X)
    assert isinstance(held, sp.csc_array)
    assert np.array_equal(held.toarray(), X)
    X.flat[8] = 1.0
    assert isinstance(compact_corpus(X), np.ndarray)


# the command line on a corpus held sparse


def write_sparse_problem(out, seed=0, M=60, n_s=24, n_t=(14, 12), c=2):
    """Word-count corpora about 12% dense whose classes use distinct words."""
    rng = np.random.default_rng(seed)
    out.mkdir()

    def corpus(n):
        labels = np.arange(n) % c + 1
        X = sparse_counts(rng, M, n, 0.06)
        # each class adds counts on its own third of the vocabulary
        for i, y in enumerate(labels):
            rows = rng.choice(M // 3, size=4, replace=False) + (y - 1) * (M // 3)
            X[rows, i] += 3.0
        return X, labels

    X_s, y_s = corpus(n_s)
    (out / "source.txt").write_text(serialize_corpus(X_s, c, labels=y_s))
    for p, n in enumerate(n_t, start=1):
        X_t, y_t = corpus(n)
        (out / f"target_{p}.txt").write_text(serialize_corpus(X_t, c))
        (out / f"truth_{p}.txt").write_text("\n".join(str(v) for v in y_t) + "\n")
    return out


def run_flags(src):
    return [
        "--source", str(src / "source.txt"),
        "--target", str(src / "target_1.txt"),
        "--target", str(src / "target_2.txt"),
        "--truth", str(src / "truth_1.txt"),
        "--truth", str(src / "truth_2.txt"),
        "--k1", "2", "--k2", "5", "--maxiter", "15", "--seed", "3",
    ]


def dense_library_problem(src):
    """The problem as the library sees it with every corpus held dense."""
    X_s, Y_s = load_corpus(src / "source.txt")
    targets = tuple(normalize_input(load_corpus(src / f"target_{p}.txt")[0])
                    for p in (1, 2))
    truth = [np.loadtxt(src / f"truth_{p}.txt", dtype=np.int64) for p in (1, 2)]
    return ProblemData(X_s=normalize_input(X_s), Y_s=Y_s, targets=targets), truth


def read_predictions(path):
    return np.array([int(v) for v in path.read_text().split()])


@pytest.fixture(scope="module")
def sparse_problem(tmp_path_factory):
    src = write_sparse_problem(tmp_path_factory.mktemp("sparse") / "data")
    data, truth = dense_library_problem(src)
    model = logreg_train(data.X_s, data.Y_s)
    v_init = [logreg_predict_proba(model, X_t) for X_t in data.targets]
    return src, data, truth, v_init


def test_cli_holds_a_sparse_corpus_as_csc(sparse_problem):
    src, dense, _, _ = sparse_problem
    args = cli.build_parser().parse_args(["train", *run_flags(src), "--out", "unused"])
    data, _ = cli._load_problem(args)
    for D, S in zip((dense.X_s, *dense.targets), (data.X_s, *data.targets)):
        assert isinstance(S, sp.csc_array)
        assert np.count_nonzero(D) <= SPARSE_MAX_DENSITY * D.size
        assert rel(S.toarray(), D) <= RTOL


def test_cli_train_on_sparse_corpus_matches_dense_library(sparse_problem, tmp_path):
    src, data, truth, v_init = sparse_problem
    hp = Hyperparams(k1=2, k2=5, maxiter=15, seed=3)
    factors, _, _ = fit(data, hp, v_init)
    want = {
        "mrtl": [predict(f) for f in factors],
        "nmf": [nmf_predict_labels(nmf_fit(X_t, k=data.c, iters=15, seed=3)[1])
                for X_t in data.targets],
        "logreg": [np.argmax(v, axis=1) + 1 for v in v_init],
    }
    for baseline, preds in want.items():
        out = tmp_path / baseline
        rc = cli.main(["train", *run_flags(src), "--baseline", baseline,
                       "--out", str(out)])
        assert rc == 0, baseline
        for p, pred in enumerate(preds, start=1):
            got = read_predictions(out / f"predictions_{p}.txt")
            assert np.array_equal(got, pred), (baseline, p)
    # the fit is not a coin toss on this problem
    assert np.mean(want["mrtl"][0] == truth[0]) >= 0.75


def test_cli_sweep_on_sparse_corpus_matches_dense_library(sparse_problem, tmp_path):
    src, data, truth, v_init = sparse_problem
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", *run_flags(src), "--sweep-lambda", "0,10",
                   "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    for lam, row in zip((0.0, 10.0), rows):
        factors, _, _ = fit(data, Hyperparams(k1=2, k2=5, lam=lam, maxiter=15, seed=3),
                            v_init)
        accs = [float(np.mean(predict(f) == t)) for f, t in zip(factors, truth)]
        assert [float(v) for v in row.split(",")[1:-1]] == accs
