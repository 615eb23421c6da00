"""Seeded input corpora for the benchmark's generated workloads.

Imports numpy only, never mrtl, so two commits of the program are fed
byte-identical files for the same seed. Both generators follow the setting
mrtl solves: one labeled source and P unlabeled targets over one vocabulary,
drawn from shared feature clusters ("topics"). Clusters 0..k1-1 mean the same
class everywhere; the remaining clusters serve one class in the source and,
in the targets, lean by ``shift`` toward the next class over.

Files are written in the corpus format of the README (header ``M n c``, then
one ``label idx:val ...`` record per instance) plus ``truth_<p>.txt``.
"""

from __future__ import annotations

import os

import numpy as np

K1 = 10  # clusters whose class meaning is shared by all domains
K2 = 50  # all clusters
COMMON_WEIGHT = 0.3  # share of a class signature carried by the K1 clusters
# The clusters are the same for every seed; the workload seed draws only the
# instances. Accuracy then differs between seeds by sampling alone, not by how
# separable a freshly drawn dictionary happens to be.
CLUSTER_SEED = 0


def _clusters(rng, M: int, active: float) -> np.ndarray:
    """M x K2 nonnegative clusters, each on a random subset of features,
    columns summing to 1."""
    D = np.zeros((M, K2))
    keep = max(1, int(round(active * M)))
    for j in range(K2):
        rows = rng.choice(M, size=keep, replace=False)
        D[rows, j] = 1.0 - rng.random(keep)
    return D / D.sum(axis=0)


def _class_weights(c: int, shift: float) -> np.ndarray:
    """K2 x c cluster weights of each class signature; columns sum to 1."""
    common = np.zeros((K1, c))
    specific = np.zeros((K2 - K1, c))
    for j in range(K1):
        common[j, j % c] = 1.0
    for j in range(K2 - K1):
        specific[j, j % c] += 1.0 - shift
        specific[j, (j + 1) % c] += shift
    return np.vstack([
        COMMON_WEIGHT * common / common.sum(axis=0),
        (1.0 - COMMON_WEIGHT) * specific / specific.sum(axis=0),
    ])


def _write_corpus(path: str, X: np.ndarray, c: int, labels, fmt: str) -> None:
    """X is M x n with instances as columns; labels None writes label 0."""
    M, n = X.shape
    lines = [f"{M} {n} {c}"]
    for i in range(n):
        col = X[:, i]
        idx = np.flatnonzero(col)
        tokens = [str(0 if labels is None else int(labels[i]))]
        tokens += [f"{j + 1}:{v:{fmt}}" for j, v in zip(idx.tolist(), col[idx].tolist())]
        lines.append(" ".join(tokens))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_problem(out: str, corpora, c: int, fmt: str) -> None:
    """corpora: [(X_source, labels_source), (X_target_1, labels_1), ...]."""
    os.makedirs(out, exist_ok=True)
    X_s, y_s = corpora[0]
    _write_corpus(os.path.join(out, "source.txt"), X_s, c, y_s, fmt)
    for p, (X_t, y_t) in enumerate(corpora[1:], start=1):
        _write_corpus(os.path.join(out, f"target_{p}.txt"), X_t, c, None, fmt)
        with open(os.path.join(out, f"truth_{p}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(int(v)) for v in y_t) + "\n")


def dense_problem(out: str, seed: int, M: int, n_s: int, n_t: int, P: int,
                  c: int = 2, shift: float = 0.2, noise: float = 0.5,
                  mix: float = 0.25, active: float = 0.15) -> None:
    """Dense real-valued corpora: each instance is its class signature mixed
    by ``mix`` toward a random cluster mixture, plus half-normal noise of
    relative level ``noise``. Every entry is nonzero."""
    D = _clusters(np.random.default_rng(CLUSTER_SEED), M, active)
    rng = np.random.default_rng(seed)

    def corpus(weights, n):
        labels = np.arange(n) % c + 1
        mixture = rng.dirichlet(np.ones(K2), size=n).T
        X = D @ ((1.0 - mix) * weights[:, labels - 1] + mix * mixture)
        X += noise * X.mean() * np.abs(rng.standard_normal(X.shape))
        return X / X.sum(axis=0), labels

    corpora = [corpus(_class_weights(c, 0.0), n_s)]
    corpora += [corpus(_class_weights(c, shift), n_t) for _ in range(P)]
    _write_problem(out, corpora, c, ".12g")


def text_problem(out: str, seed: int, M: int, n_s: int, n_t: int, P: int,
                 c: int = 2, doc_len: int = 100, shift: float = 0.2,
                 mix: float = 0.25, active: float = 0.02) -> None:
    """Word-count corpora: each document draws ``doc_len`` tokens from its
    class signature mixed by ``mix`` toward a random cluster mixture, so a
    document has at most doc_len distinct words of the M-word vocabulary."""
    D = _clusters(np.random.default_rng(CLUSTER_SEED), M, active)
    rng = np.random.default_rng(seed)

    def corpus(weights, n):
        labels = np.arange(n) % c + 1
        mixture = rng.dirichlet(np.ones(K2), size=n).T
        probs = D @ ((1.0 - mix) * weights[:, labels - 1] + mix * mixture)
        X = np.empty((M, n))
        for i in range(n):
            X[:, i] = rng.multinomial(doc_len, probs[:, i] / probs[:, i].sum())
        return X, labels

    corpora = [corpus(_class_weights(c, 0.0), n_s)]
    corpora += [corpus(_class_weights(c, shift), n_t) for _ in range(P)]
    _write_problem(out, corpora, c, ".0f")
