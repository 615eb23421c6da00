"""Shared builders for engine-level tests."""

import os
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import settings

import mrtl
from mrtl import engine
from mrtl.baselines import LogRegModel, expit
from mrtl.engine import (
    Hyperparams,
    ProblemData,
    SharedFactors,
    TargetFactors,
    _Stack,
)
from mrtl.linalg import as_corpus, normalize_columns_l1, normalize_rows_l1

# hypothesis's pytest plugin imports libcst to report a failing example, from
# a report hook outside the test's warning filters. Under a module's "error"
# filter the DeprecationWarning of that first import aborts the session with
# INTERNALERROR instead of reporting the failure; imported once here, libcst
# raises nothing later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def blas_threads_env(threads: str) -> dict:
    """The environment of a child interpreter that runs this tree's mrtl
    with every BLAS library set to threads threads before numpy loads."""
    src = os.path.dirname(os.path.dirname(mrtl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                              "VECLIB_MAXIMUM_THREADS"), threads))
    return env


def refuse_to_allocate(monkeypatch, shape) -> None:
    """For the rest of the test, np.zeros refuses an array of shape (a
    tuple) as numpy refuses one that memory cannot hold."""
    zeros = np.zeros

    def refusing(size, *args, **kwargs):
        if size == shape:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(size, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)


# Pair p's objective, once. Each row
# (w, X, ||X||^2, ((U_a, Theta_a), (U_b, Theta_b)), W) stands for
# w * ||X - U_a Theta_a W^T - U_b Theta_b W^T||^2; factor blocks are named by
# their TargetFactors field, "shared." + their SharedFactors field, or "Y_s".
def _terms(data: ProblemData, p: int, lam: float) -> tuple:
    X_t, xx_t = data.targets[p], data.sq_norms[p + 1]
    return (
        (1.0, X_t, xx_t,
         (("U_common", "Theta_common"), ("U_target", "Theta_target")), "V"),
        (1.0, data.X_s, data.sq_norms[0],
         (("U_common", "Theta_common"), ("U_source", "Theta_source")), "Y_s"),
        (lam, X_t, xx_t,
         (("U_common", "shared.Theta_common"), ("U_target", "shared.Theta_specific")),
         "V"),
    )


def _blocks(data: ProblemData, f: TargetFactors, shared: SharedFactors) -> dict:
    return {
        **vars(f),
        "Y_s": data.Y_s,
        "shared.Theta_common": shared.Theta_common,
        "shared.Theta_specific": shared.Theta_specific,
    }


def _association(b: dict, pairs) -> np.ndarray:
    """B = U_a Theta_a + U_b Theta_b (M x c) of the term with these pairs."""
    (u_a, t_a), (u_b, t_b) = pairs
    return b[u_a] @ b[t_a] + b[u_b] @ b[t_b]


def reconstructions(data: ProblemData, p: int, f: TargetFactors,
                    shared: SharedFactors) -> tuple:
    """The three current model estimates B W^T for pair p.

    Returns (rec_target, rec_source, rec_shared): the target matrix through
    the pair associations, the source matrix through the pair associations,
    and the target matrix through the shared associations. The objective is
    the sum of squared errors of these against X_t^p, X_s and X_t^p.
    """
    b = _blocks(data, f, shared)
    return tuple(_association(b, pairs) @ b[W].T
                 for _, _, _, pairs, W in _terms(data, p, 1.0))


def objective_grad_u_target(data, p: int, f: TargetFactors,
                            shared: SharedFactors, hp: Hyperparams) -> np.ndarray:
    """Analytic gradient of the objective with respect to U_target.

    2 * (rec_target - X_t) @ V @ Theta_target.T
    + 2 * lam * (rec_shared - X_t) @ V @ Theta_specific.T.
    Used by tests to cross-check the update rules against finite differences.
    """
    X_t = data.targets[p]
    rec_t, _, rec_sh = reconstructions(data, p, f, shared)
    return 2.0 * ((rec_t - X_t) @ (f.V @ f.Theta_target.T)) + 2.0 * hp.lam * (
        (rec_sh - X_t) @ (f.V @ shared.Theta_specific.T)
    )


def num_den_per_term(name: str, data: ProblemData, p: int, f: TargetFactors,
                     shared: SharedFactors, lam: float) -> tuple:
    """The kernel's numerator and denominator for one block, summed term by
    term over the table of _terms:

        U_i:     num = w (X W) Theta_i^T    den = w B (W^T W Theta_i^T)
        Theta_i: num = w U_i^T (X W)        den = w (U_i^T B) W^T W
        W:       num = w X^T B              den = w W (B^T B)

    Every term builds its own B and X @ W; the reference for the folded
    table of engine._terms (num_den below).
    """
    b = _blocks(data, f, shared)
    num = den = 0.0
    for w, X, _, pairs, W_name in _terms(data, p, lam):
        W = b[W_name]
        B = _association(b, pairs)
        held = [(u, t) for u, t in pairs if name in (u, t)]
        if name == W_name:
            n, d = X.T @ B, W @ (B.T @ B)
        elif not held:
            continue
        elif name == held[0][0]:
            t = b[held[0][1]]
            n, d = (X @ W) @ t.T, B @ ((W.T @ W) @ t.T)
        else:
            U = b[held[0][0]]
            n, d = U.T @ (X @ W), (U.T @ B) @ (W.T @ W)
        num, den = num + w * n, den + w * d
    return num, den


def num_den(name: str, data: ProblemData, p: int, f: TargetFactors,
            shared: SharedFactors, lam: float) -> tuple:
    """Pair p's numerator and denominator of the step on block name, from
    the engine's folded table: engine._terms over a one-pair stack of a copy
    of f, summed over all rows, and for V its X_t^T R and V H."""
    solo = replace(data, targets=(data.targets[p],))
    stack = _Stack.of(solo, [f])
    terms = engine._terms(name, solo, stack, shared, lam)
    if name == "V":
        R, H = terms
        return solo.targets[0].T @ R[0], stack.V[0] @ H[0]
    return tuple(engine._rows_sum(t)[0] for t in terms)


def stepped(step, data: ProblemData, factors, shared: SharedFactors,
            hp: Hyperparams) -> _Stack:
    """The pairs after one in-place step, taken on a fresh stack of copies of
    factors, so that factors keeps the values a result is compared with."""
    stack = _Stack.of(data, factors)
    step(data, stack, shared, hp)
    return stack


def _scores(XT, W) -> np.ndarray:
    """n x c linear scores of the rows of XT (the instances) under weights
    W, whose last row is the bias."""
    return XT @ W[:-1] + W[-1]


def logreg_train_primal(X, Y, l2: float = 1e-3, steps: int = 500,
                        lr: float = 0.1, on_step=None) -> LogRegModel:
    """baselines.logreg_train's descent written on the weights W themselves:
    each step forms the gradient X @ R and the next forward pass X^T @ W.

    The reference for the dual-coefficient loop, which must give the same
    iterates up to rounding. Arguments are not checked.
    """
    X = as_corpus(X)
    Y = np.asarray(Y, dtype=np.float64)
    M, n = X.shape
    c = Y.shape[1]

    W = np.zeros((M + 1, c))
    grad = np.empty((M + 1, c))
    # a CSC corpus transposes to a CSR array over the same arrays, no copy
    XT = X.T

    def loss_of(Wc):
        """(loss, unclipped probabilities) at weights Wc: one forward pass."""
        probs = expit(_scores(XT, Wc))
        clipped = np.clip(probs, 1e-15, 1.0 - 1e-15)
        nll = -(Y * np.log(clipped) + (1.0 - Y) * np.log(1.0 - clipped)).sum() / n
        # the bias row is not penalized
        return nll + 0.5 * l2 * float(np.sum(Wc[:M] * Wc[:M])), probs

    # the accepted step's forward pass is the next gradient's
    cur, probs = loss_of(W)
    step_size = lr
    for step in range(1, steps + 1):
        residual = probs - Y
        np.divide(X @ residual, n, out=grad[:M])
        grad[:M] += l2 * W[:M]
        np.divide(residual.sum(axis=0), n, out=grad[M])
        accepted = False
        while step_size >= 1e-18:
            W_new = W - step_size * grad
            new, new_probs = loss_of(W_new)
            if new <= cur:
                accepted = True
                break
            step_size *= 0.5
        if not accepted:
            break
        W, cur, probs = W_new, new, new_probs
        if on_step is not None:
            on_step(step, cur)
    return LogRegModel(weights=W)


def one_hot(labels, c):
    labels = np.asarray(labels, dtype=np.int64)
    Y = np.zeros((labels.shape[0], c))
    Y[np.arange(labels.shape[0]), labels - 1] = 1.0
    return Y


def random_problem(rng, M=8, n_s=6, n_t=(5, 4), c=2):
    """Random strictly positive problem with column-normalized corpora."""
    X_s = normalize_columns_l1(rng.random((M, n_s)) + 0.05)
    Y_s = one_hot(rng.integers(1, c + 1, size=n_s), c)
    targets = tuple(normalize_columns_l1(rng.random((M, n)) + 0.05) for n in n_t)
    data = ProblemData(X_s=X_s, Y_s=Y_s, targets=targets)
    v_init = [normalize_rows_l1(rng.random((n, c)) + 0.05) for n in n_t]
    return data, v_init


def random_state(rng, data, hp):
    """Strictly positive factors of the right shapes, not a fixed point."""
    ks = hp.k2 - hp.k1
    factors = []
    for X_t in data.targets:
        factors.append(
            TargetFactors(
                U_common=normalize_columns_l1(rng.random((data.M, hp.k1)) + 0.05),
                U_target=normalize_columns_l1(rng.random((data.M, ks)) + 0.05),
                U_source=normalize_columns_l1(rng.random((data.M, ks)) + 0.05),
                V=normalize_rows_l1(rng.random((X_t.shape[1], data.c)) + 0.05),
                Theta_common=rng.random((hp.k1, data.c)) + 0.05,
                Theta_target=rng.random((ks, data.c)) + 0.05,
                Theta_source=rng.random((ks, data.c)) + 0.05,
            )
        )
    shared = SharedFactors(
        Theta_common=rng.random((hp.k1, data.c)) + 0.05,
        Theta_specific=rng.random((ks, data.c)) + 0.05,
    )
    return factors, shared


def exact_problem(rng, M=7, n_s=5, n_t=(4, 6), c=2, k1=2, ks=2):
    """Problem whose corpora equal the model reconstructions exactly.

    Every pair carries the same factor blocks and the shared associations
    equal the pair ones, so all three residual terms are zero bitwise. The
    corpora are built from the association products the engine forms
    (reconstructions above) to avoid last-ulp grouping differences.
    """
    U_common = normalize_columns_l1(rng.random((M, k1)) + 0.1)
    U_target = normalize_columns_l1(rng.random((M, ks)) + 0.1)
    U_source = normalize_columns_l1(rng.random((M, ks)) + 0.1)
    Theta_common = rng.random((k1, c)) + 0.1
    Theta_target = rng.random((ks, c)) + 0.1
    Theta_source = rng.random((ks, c)) + 0.1
    Y_s = one_hot(np.arange(n_s) % c + 1, c)
    factors = []
    for n in n_t:
        factors.append(
            TargetFactors(
                U_common=U_common.copy(),
                U_target=U_target.copy(),
                U_source=U_source.copy(),
                V=normalize_rows_l1(rng.random((n, c)) + 0.1),
                Theta_common=Theta_common.copy(),
                Theta_target=Theta_target.copy(),
                Theta_source=Theta_source.copy(),
            )
        )
    shared = SharedFactors(
        Theta_common=Theta_common.copy(),
        Theta_specific=Theta_target.copy(),
    )
    # placeholder corpora just to reach the reconstruction products
    dummy = ProblemData(
        X_s=np.zeros((M, n_s)),
        Y_s=Y_s,
        targets=tuple(np.zeros((M, n)) for n in n_t),
    )
    targets = []
    X_s = None
    for p, f in enumerate(factors):
        rec_t, rec_s, rec_sh = reconstructions(dummy, p, f, shared)
        assert np.array_equal(rec_t, rec_sh)
        targets.append(rec_t)
        X_s = rec_s
    data = ProblemData(X_s=X_s, Y_s=Y_s, targets=tuple(targets))
    return data, factors, shared


def tiny_hp(**kw):
    kw.setdefault("k1", 2)
    kw.setdefault("k2", 4)
    return Hyperparams(**kw)


# Property tests draw the same examples on every run, keep no example
# database and are never timed out: tier-1 stays deterministic on a slow or
# busy host.
settings.register_profile("mrtl", derandomize=True, deadline=None, database=None)
settings.load_profile("mrtl")
