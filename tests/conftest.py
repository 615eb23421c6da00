"""Shared builders for engine-level tests."""

import numpy as np
from hypothesis import settings

from mrtl.engine import (
    Hyperparams,
    ProblemData,
    SharedFactors,
    TargetFactors,
    reconstructions,
)
from mrtl.linalg import normalize_columns_l1, normalize_rows_l1


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
    corpora are taken from the engine's own reconstruction products to avoid
    last-ulp grouping differences.
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
