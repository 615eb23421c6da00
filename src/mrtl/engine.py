"""Joint nonnegative tri-factorization for transfer to multiple targets.

One labeled source corpus and P unlabeled target corpora over a shared
vocabulary of M features are factorized together. Each source-target pair p
owns a feature-cluster subspace split into a part common to both domains
(U_common), a target-only part (U_target) and a source-only part (U_source),
plus pair-level association matrices mapping clusters to the c classes. All
pairs additionally share one global pair of association matrices, weighted by
lam, which is what couples the P targets to each other. Source labels enter
as a fixed one-hot assignment; each target's soft assignment V is free and
its row argmax is the predicted class.

The model is written down once, as the term table of _terms. Pair p adds
three weighted terms w * ||X - B W^T||^2 to the objective, each with its
own association product B = U_a Theta_a + U_b Theta_b (M x c, formed by
_association): the target through the pair associations (w = 1, X_t,
W = V), the source through the pair associations (w = 1, X_s, W = Y_s) and
the target through the shared associations (w = lam, X_t, W = V).
reconstructions, objective and the one update kernel, _num_den, read the
table and are written in B alone. For any named block the kernel sums,
over the terms that hold the block, the numerator and denominator of the
multiplicative step x <- x * sqrt(num / den), where num - den is minus half
the gradient:

    U_i:     num = w (X W) Theta_i^T    den = w B (W^T W Theta_i^T)
    Theta_i: num = w U_i^T (X W)        den = w (U_i^T B) W^T W
    W:       num = w X^T B              den = w W (B^T B)

This is the factored form of Lee & Seung (NIPS 2000) and Ding et al. (KDD
2006): besides X @ W it only multiplies by B and c x c Gram matrices, so no
step forms an M x n matrix. The step preserves nonnegativity. The public
update_* functions apply it block by block in a fixed order, each pair's
steps followed by L1 normalization of the cluster matrices (columns) and
the assignment (rows).

The objective is factored the same way: a term is
w * (||X||^2 - 2 <X W, B> + <B^T B, W^T W>), where ||X||^2 is computed once
per corpus by ProblemData. The sum cancels badly near an exact fit, so a
term that comes out below CANCELLATION_GUARD (1e-4) of
||X||^2 + 2 |<X W, B>| + <B^T B, W^T W> is taken again from its residual
X - B W^T; that keeps the objective exactly 0 on an exact reconstruction
and within the monotonicity bounds the fit is held to.

Since the corpora enter only through X @ W, X.T @ B and ||X||^2, each may
be a dense array or a scipy sparse CSC array; the code is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    as_corpus,
    frobenius_sq,
    normalize_columns_l1,
    normalize_rows_l1,
    residual_sq,
    safe_ratio_sqrt,
    stored_entries,
)


class InvalidConfigError(ValueError):
    """Hyperparameters or problem shapes that cannot be run."""


class NumericalDivergenceError(RuntimeError):
    """A factor matrix picked up a non-finite entry while fitting."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite factor entries at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class Hyperparams:
    """Solver settings. Defaults are the tuned operating point.

    k1 common and k2 total feature clusters per pair (k1 == k2 is allowed and
    leaves no domain-specific clusters), lam weights the shared-association
    term, epsilon floors update denominators, convergence_tol stops early on
    relative objective change when positive, and verbatim_v_update switches
    the assignment update to a variant whose numerator drops lam from the
    shared term while the denominator keeps it (kept for reproducibility;
    the default rule is consistent with the objective's gradient). The
    rules are checked when an instance is built, dataclasses.replace
    included, so every Hyperparams in existence is valid.
    """

    k1: int = 10
    k2: int = 50
    lam: float = 10.0
    maxiter: int = 100
    epsilon: float = 1e-12
    seed: int = 0
    convergence_tol: float = 0.0
    verbatim_v_update: bool = False

    def __post_init__(self):
        if self.k1 < 1:
            raise InvalidConfigError(f"k1 must be a positive integer, got {self.k1}")
        if self.k2 < self.k1:
            raise InvalidConfigError(
                f"k1 must not exceed k2, got k1={self.k1}, k2={self.k2}"
            )
        if self.lam < 0:
            raise InvalidConfigError(f"lambda must be nonnegative, got {self.lam}")
        if self.maxiter < 1:
            raise InvalidConfigError(f"maxiter must be at least 1, got {self.maxiter}")
        if not self.epsilon > 0:
            raise InvalidConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.convergence_tol < 0:
            raise InvalidConfigError(
                f"convergence_tol must be nonnegative, got {self.convergence_tol}"
            )


@dataclass(frozen=True)
class ProblemData:
    """A labeled source corpus plus P unlabeled target corpora.

    X_s is M x n_s, Y_s is the n_s x c one-hot label matrix, and each entry
    of targets is an M x n_p matrix over the same M features. A corpus may
    be a dense array or a scipy sparse array, which is held as CSC. All
    matrices must be nonnegative. Callers normally pass column-normalized
    corpora (each instance a distribution over features). sq_norms holds
    ||X_s||^2 followed by each target's squared Frobenius norm.
    """

    X_s: np.ndarray
    Y_s: np.ndarray
    targets: tuple
    sq_norms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X_s = as_corpus(self.X_s)
        Y_s = np.asarray(self.Y_s, dtype=np.float64)
        targets = tuple(as_corpus(t) for t in self.targets)
        if X_s.ndim != 2 or Y_s.ndim != 2:
            raise InvalidConfigError("X_s and Y_s must be 2-d matrices")
        if len(targets) < 1:
            raise InvalidConfigError("at least one target corpus is required")
        if any(t.ndim != 2 for t in targets):
            raise InvalidConfigError("every target must be a 2-d matrix")
        if Y_s.shape[0] != X_s.shape[1]:
            raise InvalidConfigError(
                f"Y_s has {Y_s.shape[0]} rows but X_s has {X_s.shape[1]} instances"
            )
        if Y_s.shape[1] < 2:
            raise InvalidConfigError(
                f"need at least 2 classes, got {Y_s.shape[1]}"
            )
        for p, t in enumerate(targets):
            if t.shape[0] != X_s.shape[0]:
                raise InvalidConfigError(
                    f"target {p + 1} has {t.shape[0]} features but the source "
                    f"has {X_s.shape[0]}"
                )
        if not np.all(stored_entries(X_s) >= 0):
            raise InvalidConfigError("X_s must be nonnegative")
        if any(not np.all(stored_entries(t) >= 0) for t in targets):
            raise InvalidConfigError("target matrices must be nonnegative")
        one_hot = np.all((Y_s == 0.0) | (Y_s == 1.0)) and np.all(Y_s.sum(axis=1) == 1.0)
        if not one_hot:
            raise InvalidConfigError("Y_s rows must be one-hot (a single 1, rest 0)")
        object.__setattr__(self, "X_s", X_s)
        object.__setattr__(self, "Y_s", Y_s)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(
            self, "sq_norms", tuple(frobenius_sq(X) for X in (X_s, *targets))
        )

    @property
    def M(self) -> int:
        return self.X_s.shape[0]

    @property
    def n_s(self) -> int:
        return self.X_s.shape[1]

    @property
    def c(self) -> int:
        return self.Y_s.shape[1]

    @property
    def P(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class TargetFactors:
    """All per-pair factors for one source-target pair.

    U_common (M x k1), U_target and U_source (M x (k2-k1)) hold feature
    clusters; Theta_common/Theta_target/Theta_source (k1 x c resp.
    (k2-k1) x c) associate those clusters with classes at the pair level;
    V (n_p x c) is the target's soft class assignment.
    """

    U_common: np.ndarray
    U_target: np.ndarray
    U_source: np.ndarray
    V: np.ndarray
    Theta_common: np.ndarray
    Theta_target: np.ndarray
    Theta_source: np.ndarray


@dataclass(frozen=True)
class SharedFactors:
    """Association matrices shared by every pair: common (k1 x c) and
    specific ((k2-k1) x c) cluster blocks."""

    Theta_common: np.ndarray
    Theta_specific: np.ndarray


@dataclass(frozen=True)
class TraceRecord:
    """One fitting iteration: objective after the shared update, plus
    per-target accuracy when true labels were supplied."""

    iteration: int
    objective: float
    per_target_accuracy: tuple | None = None


def init_factors(data: ProblemData, hp: Hyperparams, v_init) -> tuple:
    """Seeded uniform initialization of all factors for every pair.

    U and Theta blocks are drawn uniformly from (0, 1]; U columns are then
    L1-normalized. One set of blocks is drawn and shared by every pair, and
    the global associations start as copies of the per-pair ones, so all
    pairs start from the same point, the pooled associations refer to
    consistently aligned clusters, and the globally weighted term initially
    pulls in the same direction as the per-pair terms instead of toward an
    unrelated random labeling. V is taken from v_init (one row-stochastic
    n_p x c matrix per target, e.g. classifier probabilities) and
    row-normalized. The draw order is fixed, so identical (data shapes,
    hp.seed, v_init) give bitwise identical factors.
    """
    if hp.k2 > data.M:
        raise InvalidConfigError(
            f"k2={hp.k2} exceeds the number of features M={data.M}"
        )
    if len(v_init) != data.P:
        raise InvalidConfigError(
            f"v_init has {len(v_init)} matrices for {data.P} targets"
        )
    v_init = [np.asarray(v, dtype=np.float64) for v in v_init]
    for p, (v, t) in enumerate(zip(v_init, data.targets)):
        want = (t.shape[1], data.c)
        if v.shape != want:
            raise InvalidConfigError(
                f"v_init[{p}] has shape {v.shape}, expected {want}"
            )
        if not np.all(v >= 0):
            raise InvalidConfigError(f"v_init[{p}] must be nonnegative")

    rng = np.random.default_rng(hp.seed)
    ks = hp.k2 - hp.k1

    def draw(rows, cols):
        # uniform on (0, 1]: keeps every initial entry strictly positive
        return 1.0 - rng.random((rows, cols))

    u_common = normalize_columns_l1(draw(data.M, hp.k1))
    u_target = normalize_columns_l1(draw(data.M, ks))
    u_source = normalize_columns_l1(draw(data.M, ks))
    theta_common = draw(hp.k1, data.c)
    theta_target = draw(ks, data.c)
    theta_source = draw(ks, data.c)
    factors = [
        TargetFactors(
            U_common=u_common.copy(),
            U_target=u_target.copy(),
            U_source=u_source.copy(),
            V=normalize_rows_l1(v_init[p]),
            Theta_common=theta_common.copy(),
            Theta_target=theta_target.copy(),
            Theta_source=theta_source.copy(),
        )
        for p in range(data.P)
    ]
    shared = SharedFactors(
        Theta_common=theta_common.copy(),
        Theta_specific=theta_target.copy(),
    )
    return factors, shared


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


def objective(data: ProblemData, factors, shared: SharedFactors,
              hp: Hyperparams) -> float:
    """Joint squared reconstruction error over all pairs.

    Sum over p of ||X_t^p - rec_target||^2 + ||X_s - rec_source||^2
    + lam * ||X_t^p - rec_shared||^2. Each term is taken in factored form,
    without the M x n reconstruction, unless cancellation would cost it its
    accuracy; then it is taken on the residual itself (see residual_sq).
    """
    total = 0.0
    for p, f in enumerate(factors):
        b = _blocks(data, f, shared)
        for w, X, xx, pairs, W in _terms(data, p, hp.lam):
            total += w * residual_sq(X, xx, _association(b, pairs), b[W])
    return total


def _num_den(name: str, data: ProblemData, p: int, f: TargetFactors,
             shared: SharedFactors, lam: float) -> tuple:
    """Numerator and denominator of the multiplicative step on one block.

    Sums over pair p's terms that hold the block named name, with the
    shared term weighted by lam; num - den is minus half the gradient of
    pair p's objective in that block. Every product goes through the term's
    association product B and c x c Gram matrices, so no M x n matrix is
    formed.
    """
    b = _blocks(data, f, shared)
    num = den = 0.0
    for w, X, _, pairs, W_name in _terms(data, p, lam):
        W = b[W_name]
        B = _association(b, pairs)
        if name == W_name:
            num += w * (X.T @ B)
            den += w * (W @ (B.T @ B))
            continue
        for u, t in pairs:
            if name == u:
                num += w * ((X @ W) @ b[t].T)
                den += w * (B @ ((W.T @ W) @ b[t].T))
            elif name == t:
                num += w * (b[u].T @ (X @ W))
                den += w * ((b[u].T @ B) @ (W.T @ W))
    return num, den


def _scaled(factors, field: str, num, den, epsilon: float):
    """factors with block field multiplied by sqrt(num / den)."""
    step = safe_ratio_sqrt(num, den, epsilon)
    return replace(factors, **{field: getattr(factors, field) * step})


def _pair_step(name: str, data, p: int, f: TargetFactors,
               shared: SharedFactors, hp: Hyperparams) -> TargetFactors:
    num, den = _num_den(name, data, p, f, shared, hp.lam)
    return _scaled(f, name, num, den, hp.epsilon)


def update_u_target(data, p: int, f: TargetFactors, shared: SharedFactors,
                    hp: Hyperparams) -> TargetFactors:
    """Multiplicative step on the target-specific clusters U_target."""
    return _pair_step("U_target", data, p, f, shared, hp)


def update_u_source(data, p: int, f: TargetFactors, shared: SharedFactors,
                    hp: Hyperparams) -> TargetFactors:
    """Multiplicative step on the source-specific clusters U_source."""
    return _pair_step("U_source", data, p, f, shared, hp)


def update_u_common(data, p: int, f: TargetFactors, shared: SharedFactors,
                    hp: Hyperparams) -> TargetFactors:
    """Multiplicative step on the common clusters U_common.

    Pulls three gradients at once: the pair's target and source fits plus
    the lam-weighted shared fit of the target.
    """
    return _pair_step("U_common", data, p, f, shared, hp)


def update_v(data, p: int, f: TargetFactors, shared: SharedFactors,
             hp: Hyperparams) -> TargetFactors:
    """Multiplicative step on the target's soft class assignment V.

    The default numerator carries lam on the shared term, matching the
    objective's gradient. With hp.verbatim_v_update the numerator's shared
    term is unweighted while the denominator keeps lam; at lam = 0 the
    shared term is absent from the objective, so both variants coincide.
    """
    num, den = _num_den("V", data, p, f, shared, hp.lam)
    if hp.verbatim_v_update and hp.lam > 0:
        num, _ = _num_den("V", data, p, f, shared, 1.0)
    return _scaled(f, "V", num, den, hp.epsilon)


def update_pair_associations(data, p: int, f: TargetFactors,
                             shared: SharedFactors,
                             hp: Hyperparams) -> TargetFactors:
    """Multiplicative steps on the three pair-level association matrices.

    Theta_common first (it sees both corpora), then Theta_target and
    Theta_source, each against the factors updated so far.
    """
    for name in ("Theta_common", "Theta_target", "Theta_source"):
        f = _pair_step(name, data, p, f, shared, hp)
    return f


def update_shared_associations(data, factors, shared: SharedFactors,
                               hp: Hyperparams) -> SharedFactors:
    """Multiplicative steps on the two association matrices shared by all pairs.

    Numerators and denominators are summed over every pair before the ratio
    is taken (the denominator floor applies to the summed value). The
    specific block is updated against the fresh common block.
    """
    for field in ("Theta_common", "Theta_specific"):
        num = den = 0.0
        for p, f in enumerate(factors):
            # lam weighs the one term that holds the block, so it cancels
            # from the ratio; unit weight keeps the rule defined at lam = 0
            n, d = _num_den("shared." + field, data, p, f, shared, 1.0)
            num, den = num + n, den + d
        shared = _scaled(shared, field, num, den, hp.epsilon)
    return shared


def normalize_all(f: TargetFactors) -> TargetFactors:
    """L1-normalize the cluster matrices by column and V by row.

    Association matrices are never normalized. Idempotent up to float
    rounding.
    """
    return replace(
        f,
        U_common=normalize_columns_l1(f.U_common),
        U_target=normalize_columns_l1(f.U_target),
        U_source=normalize_columns_l1(f.U_source),
        V=normalize_rows_l1(f.V),
    )


def run_iteration(data: ProblemData, factors, shared: SharedFactors,
                  hp: Hyperparams) -> tuple:
    """One full sweep over all factors; the loop body of fit.

    Per pair: U_target, U_source, U_common, the pair associations, V, then
    normalization. After all pairs, the shared associations. Each step sees
    the freshest factors. Pairs never read each other's factors and see the
    iteration-start shared snapshot, so the sweep over pairs is
    order-independent.
    """
    new_factors = []
    for p in range(data.P):
        f = factors[p]
        f = update_u_target(data, p, f, shared, hp)
        f = update_u_source(data, p, f, shared, hp)
        f = update_u_common(data, p, f, shared, hp)
        f = update_pair_associations(data, p, f, shared, hp)
        f = update_v(data, p, f, shared, hp)
        f = normalize_all(f)
        new_factors.append(f)
    shared = update_shared_associations(data, new_factors, shared, hp)
    return new_factors, shared


def _all_finite(factors, shared: SharedFactors) -> bool:
    for f in factors:
        for a in (f.U_common, f.U_target, f.U_source, f.V,
                  f.Theta_common, f.Theta_target, f.Theta_source):
            if not np.isfinite(a).all():
                return False
    return np.isfinite(shared.Theta_common).all() and np.isfinite(
        shared.Theta_specific
    ).all()


def fit(data: ProblemData, hp: Hyperparams, v_init, truth=None) -> tuple:
    """Run the alternating updates and return (factors, shared, trace).

    v_init supplies one row-stochastic n_p x c matrix per target (typically
    source-classifier probabilities). Runs exactly hp.maxiter iterations, or
    stops early once the relative objective change drops below
    hp.convergence_tol when that is positive. One TraceRecord is appended
    per completed iteration, with the objective measured after the shared
    update; when truth (one integer label array per target) is given each
    record also carries per-target accuracy. Raises NumericalDivergenceError
    naming the iteration if any factor entry becomes non-finite. Identical
    inputs and seed reproduce the run exactly.
    """
    factors, shared = init_factors(data, hp, v_init)
    if truth is not None:
        truth = [np.asarray(t).ravel() for t in truth]
        if len(truth) != data.P:
            raise InvalidConfigError(
                f"truth has {len(truth)} label arrays for {data.P} targets"
            )
        for p, t in enumerate(truth):
            if t.shape[0] != data.targets[p].shape[1]:
                raise InvalidConfigError(
                    f"truth[{p}] has {t.shape[0]} labels for "
                    f"{data.targets[p].shape[1]} instances"
                )
    trace = []
    prev_obj = None
    for iteration in range(1, hp.maxiter + 1):
        factors, shared = run_iteration(data, factors, shared, hp)
        obj = objective(data, factors, shared, hp)
        if not _all_finite(factors, shared) or not np.isfinite(obj):
            raise NumericalDivergenceError(iteration)
        accs = None
        if truth is not None:
            accs = tuple(
                float(np.mean(predict(factors[p]) == truth[p]))
                for p in range(data.P)
            )
        trace.append(
            TraceRecord(iteration=iteration, objective=obj, per_target_accuracy=accs)
        )
        if hp.convergence_tol > 0 and prev_obj is not None:
            scale = max(abs(prev_obj), np.finfo(np.float64).tiny)
            if abs(prev_obj - obj) / scale < hp.convergence_tol:
                break
        prev_obj = obj
    return factors, shared, trace


def predict(f: TargetFactors) -> np.ndarray:
    """1-based class labels: per-row argmax of V, lowest index wins ties."""
    return np.argmax(f.V, axis=1).astype(np.int64) + 1


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
