"""Reference baselines: plain NMF and a one-vs-rest logistic regression.

The logistic regression doubles as the initializer for the target soft
assignments: it is trained on the labeled source corpus and its predicted
class probabilities on a target corpus form a row-stochastic matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .engine import InvalidConfigError
from .linalg import as_corpus, frobenius_sq, residual_sq, stored_entries

_EPS = 1e-12


def nmf_fit(X, k: int, iters: int, seed: int, on_iteration=None) -> tuple:
    """Factor X (M x n, nonnegative) as W @ H by multiplicative updates.

    X may be dense or scipy sparse. W is M x k and H is k x n, both
    initialized uniformly on (0, 1] from the seed. Each iteration updates H
    then W with the classic Frobenius rules, denominators floored at 1e-12,
    so ||X - WH||^2 never increases. When given, on_iteration(i, err)
    receives the squared error after iteration i, taken in factored form
    (see residual_sq).
    """
    X = as_corpus(X)
    if X.ndim != 2:
        raise InvalidConfigError("X must be a 2-d matrix")
    if not np.all(stored_entries(X) >= 0):
        raise InvalidConfigError("X must be nonnegative")
    M, n = X.shape
    if not 1 <= k <= min(M, n):
        raise InvalidConfigError(
            f"k must lie in [1, min(M, n)] = [1, {min(M, n)}], got {k}"
        )
    if iters < 1:
        raise InvalidConfigError(f"iters must be at least 1, got {iters}")

    rng = np.random.default_rng(seed)
    W = 1.0 - rng.random((M, k))
    H = 1.0 - rng.random((k, n))
    xx = frobenius_sq(X)
    for i in range(1, iters + 1):
        H *= (W.T @ X) / np.maximum((W.T @ W) @ H, _EPS)
        W *= (X @ H.T) / np.maximum(W @ (H @ H.T), _EPS)
        if on_iteration is not None:
            on_iteration(i, residual_sq(X, xx, W, H.T))
    return W, H


def nmf_predict_labels(H) -> np.ndarray:
    """1-based labels from an encoding whose k rows are the c classes.

    Requires the factorization rank to equal the class count; each instance
    (column) gets the argmax row, lowest index winning ties.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise InvalidConfigError("H must be a 2-d matrix")
    return np.argmax(H, axis=0).astype(np.int64) + 1


def _scores(X, W) -> np.ndarray:
    """n x c linear scores of the columns of X under weights W, whose last
    row is the bias."""
    return X.T @ W[:-1] + W[-1]


@dataclass(frozen=True)
class LogRegModel:
    """Weights of a one-vs-rest logistic regression, bias in the last row."""

    weights: np.ndarray  # (M + 1) x c
    n_classes: int


def logreg_train(X, Y, l2: float = 1e-3, steps: int = 500,
                 lr: float = 0.1, on_step=None) -> LogRegModel:
    """Fit c independent binary logistic regressions by full-batch descent.

    X is M x n with instances as columns, dense or scipy sparse, and Y the
    n x c one-hot label matrix. Weights start at zero (deterministic). The
    loss is the mean per-instance cross entropy summed over classes plus
    (l2 / 2) * ||W||^2 excluding the bias row. Whenever a step would
    increase the loss the step size is halved and the step retried, so the
    loss sequence never increases; training stops early if the step size
    underflows. on_step(i, loss) receives the loss after each accepted step.
    """
    X = as_corpus(X)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise InvalidConfigError("X and Y must be 2-d matrices")
    M, n = X.shape
    if n < 1:
        raise InvalidConfigError("cannot train on an empty corpus")
    if Y.shape[0] != n:
        raise InvalidConfigError(
            f"Y has {Y.shape[0]} rows but X has {n} instances"
        )
    c = Y.shape[1]
    if l2 < 0:
        raise InvalidConfigError(f"l2 must be nonnegative, got {l2}")
    if steps < 1:
        raise InvalidConfigError(f"steps must be at least 1, got {steps}")
    if not lr > 0:
        raise InvalidConfigError(f"lr must be positive, got {lr}")

    W = np.zeros((M + 1, c))

    def loss_of(Wc):
        """(loss, unclipped probabilities) at weights Wc: one forward pass."""
        probs = expit(_scores(X, Wc))
        clipped = np.clip(probs, 1e-15, 1.0 - 1e-15)
        nll = -(Y * np.log(clipped) + (1.0 - Y) * np.log(1.0 - clipped)).sum() / n
        # the bias row is not penalized
        return nll + 0.5 * l2 * float(np.sum(Wc[:M] * Wc[:M])), probs

    # the accepted step's forward pass is the next gradient's
    cur, probs = loss_of(W)
    step_size = lr
    for step in range(1, steps + 1):
        residual = probs - Y
        grad = np.vstack([X @ residual / n + l2 * W[:M], residual.sum(axis=0) / n])
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
    return LogRegModel(weights=W, n_classes=c)


def logreg_predict_proba(model: LogRegModel, X) -> np.ndarray:
    """Row-stochastic n x c class probabilities for the columns of X.

    Per-class sigmoid scores normalized across classes; every entry is
    strictly positive and each row sums to 1.
    """
    X = as_corpus(X)
    if X.ndim != 2:
        raise InvalidConfigError("X must be a 2-d matrix")
    M = model.weights.shape[0] - 1
    if X.shape[0] != M:
        raise InvalidConfigError(
            f"model expects {M} features, got {X.shape[0]}"
        )
    scores = expit(_scores(X, model.weights))
    scores = np.maximum(scores, 1e-300)  # keep rows strictly positive
    return scores / scores.sum(axis=1, keepdims=True)
