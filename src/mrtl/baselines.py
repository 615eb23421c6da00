"""Reference baselines: plain NMF and a one-vs-rest logistic regression.

The logistic regression doubles as the initializer for the target soft
assignments: it is trained on the labeled source corpus and its predicted
class probabilities on a target corpus form a row-stochastic matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    InvalidConfigError,
    check_corpus,
    check_count,
    check_finite_nonnegative,
    check_labels,
)
from .linalg import (
    EPSILON,
    SparseCorpus,
    cross_and_gram,
    frobenius_sq,
    residual_sq,
    stored_entries,
)


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    The formula of scipy.special.expit, without the start-up cost of
    importing scipy.special. Below x = -709, exp(-x) overflows to inf and
    the result is exactly 0, the right limit, so the overflow is not
    reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def nmf_fit(X, k: int, iters: int, seed: int, on_iteration=None) -> tuple:
    """Factor X (M x n, nonnegative) as W @ H by multiplicative updates.

    X may be dense or sparse (see linalg.as_corpus). W is M x k and H is
    k x n, both initialized uniformly on (0, 1] from the seed. Each
    iteration updates H then W with the classic Frobenius rules,
    denominators floored at EPSILON, so ||X - WH||^2 never increases. When
    given, on_iteration(i, err) receives the squared error after iteration
    i, taken in factored form (see residual_sq).
    """
    X = check_corpus(X, "X")
    M, n = X.shape
    check_count(k, "k")
    if k > min(M, n):
        raise InvalidConfigError(
            f"k must be an integer in [1, min(M, n)] = [1, {min(M, n)}], got {k!r}")
    check_count(iters, "iters")
    check_count(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    W = 1.0 - rng.random((M, k))
    Ht = (1.0 - rng.random((k, n))).T.copy()  # H^T, in linalg's layout
    xx = frobenius_sq(X)
    for i in range(1, iters + 1):
        Ht *= (X.T @ W) / np.maximum(Ht @ (W.T @ W), EPSILON)
        XH, HH = X @ Ht, Ht.T @ Ht
        W *= XH / np.maximum(W @ HH, EPSILON)
        if on_iteration is not None:
            on_iteration(i, residual_sq(X, xx, W, Ht, *cross_and_gram(W, XH, HH)))
    return W, Ht.T


def nmf_predict_labels(H) -> np.ndarray:
    """1-based labels from an encoding whose k rows are the c classes.

    Requires the factorization rank to equal the class count; each instance
    (column) gets the argmax row, lowest index winning ties. H must be a
    2-d matrix with at least one row; otherwise InvalidConfigError.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise InvalidConfigError("H must be a 2-d matrix")
    if H.shape[0] < 1:
        raise InvalidConfigError("H has no rows; it needs one per class")
    return np.argmax(H, axis=0).astype(np.int64) + 1


# logreg_train forms the Gram matrix K = X^T X (n x n) once when n^2 is at
# most this many times the entries X stores (M*n dense, nnz sparse);
# otherwise each product by K is taken in two passes over X, so K never
# outgrows X by more than a constant factor. Timed over logreg_train's 500
# steps at c = 2 on a 2-core host, the Gram form ran 1.3-2.1x faster on
# dense X at n = M (M = 200, 500, 1000) but 0.62-1.14x at n = 2M; on a
# SparseCorpus at M = 8000 with 100 entries per instance it ran 5.4-8.7x
# faster at n^2 / nnz = 1-5, 2.4x at 10 and 1.5x at 20, so there the ratio
# bounds K's memory more than its time. Per stored entry a sparse pass costs
# several times a dense one.
GRAM_MAX_RATIO_DENSE = 1
GRAM_MAX_RATIO_CSC = 4

# the step size logreg_train starts from, before any halving
LOGREG_STEP_SIZE = 0.1


@dataclass(frozen=True)
class LogRegModel:
    """Weights of a one-vs-rest logistic regression, bias in the last row."""

    weights: np.ndarray  # (M + 1) x c


def logreg_train(X, Y, l2: float = 1e-3, steps: int = 500,
                 on_step=None) -> LogRegModel:
    """Fit c independent binary logistic regressions by full-batch descent.

    X is M x n with instances as columns, dense or sparse (check_corpus),
    and Y the n x c one-hot label matrix (check_labels). Weights start at
    zero (deterministic). The loss is the mean per-instance cross entropy
    summed over classes plus (l2 / 2) * ||W||^2 excluding the bias row. The
    step size starts at LOGREG_STEP_SIZE. Whenever a step would increase the
    loss the step size is halved and the step retried, and the halved size
    is kept for later steps, so the loss sequence never increases; training
    stops early if the step size underflows. on_step(i, loss) receives the
    loss after each accepted step.

    The descent runs on dual coefficients. The weights start at zero and
    each step adds X times an n x c matrix, so W = X @ A for an n x c matrix
    A at every step (the representer theorem: Schoelkopf, Herbrich & Smola,
    COLT 2001). A step is A <- (1 - s l2) A - (s / n) R with R the residual,
    the scores are K @ A + b with K = X^T X, and the penalty is
    (l2 / 2) <A, K @ A>. K @ A moves by the same rule, from one product
    K @ R per step, so a retried step multiplies nothing. The weights X @ A
    are built once at the end. These are the primal iterates up to
    rounding, at the cost of one n x n product per step instead of two
    passes over X per forward pass. K is formed only within the bound of
    GRAM_MAX_RATIO_DENSE or GRAM_MAX_RATIO_CSC; else K @ R is X^T (X @ R).
    """
    X = check_corpus(X, "X")
    n = X.shape[1]
    Y = check_labels(Y, n, "Y")
    ones = Y == 1.0
    c = Y.shape[1]
    check_finite_nonnegative(l2, "l2")
    check_count(steps, "steps")

    ratio = (GRAM_MAX_RATIO_CSC if isinstance(X, SparseCorpus)
             else GRAM_MAX_RATIO_DENSE)
    K = X.T @ X if n * n <= ratio * stored_entries(X).size else None

    def loss_of(A, b, KA):
        """(loss, unclipped probabilities) at coefficients A and bias b, with
        KA = K @ A: one forward pass."""
        probs = expit(KA + b)
        clipped = np.clip(probs, 1e-15, 1.0 - 1e-15)
        # one log per entry: of p where the label is 1, of 1 - p where it is 0
        nll = -np.log(np.where(ones, clipped, 1.0 - clipped)).sum() / n
        # the bias is not penalized
        return nll + 0.5 * l2 * float(np.vdot(A, KA)), probs

    A, KA, b = np.zeros((n, c)), np.zeros((n, c)), np.zeros(c)
    # the accepted step's forward pass is the next gradient's
    cur, probs = loss_of(A, b, KA)
    step_size = LOGREG_STEP_SIZE
    for step in range(1, steps + 1):
        residual = probs - Y
        bias_grad = residual.sum(axis=0) / n
        K_residual = X.T @ (X @ residual) if K is None else K @ residual
        accepted = False
        while step_size >= 1e-18:
            shrink, move = 1.0 - step_size * l2, step_size / n
            A_new = shrink * A - move * residual
            KA_new = shrink * KA - move * K_residual
            b_new = b - step_size * bias_grad
            new, new_probs = loss_of(A_new, b_new, KA_new)
            if new <= cur:
                accepted = True
                break
            step_size *= 0.5
        if not accepted:
            break
        A, KA, b, cur, probs = A_new, KA_new, b_new, new, new_probs
        if on_step is not None:
            on_step(step, cur)
    # A is only defined up to the null space of X: duplicated instances with
    # opposite residuals (every empty document normalizes to one uniform
    # column) get equal and opposite coefficients. The positive and negative
    # parts are taken through X apart so that on a nonnegative corpus these
    # cancel exactly, as the weights they stand for do, whatever order a
    # product sums in.
    weights = X @ np.maximum(A, 0.0) - X @ np.maximum(-A, 0.0)
    return LogRegModel(weights=np.vstack([weights, b]))


def logreg_predict_proba(model: LogRegModel, X) -> np.ndarray:
    """Row-stochastic n x c class probabilities for the columns of X.

    Per-class sigmoid scores normalized across classes; every entry is
    strictly positive and each row sums to 1. model's weights must be an
    (M + 1) x c matrix with M >= 1 and c >= 1, and X an M x n corpus
    (check_corpus); otherwise InvalidConfigError names the shape.
    """
    X = check_corpus(X, "X")
    W = np.asarray(model.weights, order="C")
    if W.ndim != 2 or min(W.shape[0] - 1, W.shape[1]) < 1:
        raise InvalidConfigError(
            f"model weights have shape {W.shape}; they must be an (M + 1) x c "
            f"matrix with M >= 1 and c >= 1")
    M = W.shape[0] - 1
    if X.shape[0] != M:
        raise InvalidConfigError(f"model expects {M} features, got {X.shape[0]}")
    scores = expit(X.T @ W[:-1] + W[-1])
    scores = np.maximum(scores, 1e-300)  # keep rows strictly positive
    return scores / scores.sum(axis=1, keepdims=True)
