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

Pair p adds three weighted terms w * ||X - B W^T||^2 to the objective, each
with its own association product B (M x c):

    target:  w = 1,   X = X_t, W = V,   B_t = U_c Theta_c + U_t Theta_t
    source:  w = 1,   X = X_s, W = Y_s, B_s = U_c Theta_c + U_s Theta_s
    shared:  w = lam, X = X_t, W = V,   B_g = U_c Theta^g_c + U_t Theta^g_s

where U_c, U_t, U_s are U_common, U_target, U_source, Theta_c, Theta_t,
Theta_s the pair associations, and Theta^g_c, Theta^g_s the shared ones.
The multiplicative step on a block x is x <- x * sqrt(num / den), where
num - den is minus half the gradient. tests/conftest.py sums num and den
term by term as the reference; _num_den writes out the folded sums below,
in which a weight scales only a c x k, c x c or M x c factor and the target
and shared terms share one X_t V. With G = V^T V, XV = X_t V and the fixed
XY = X_s Y_s and YY = Y_s^T Y_s that ProblemData holds:

    U_t:        num = XV (Theta_t + lam Theta^g_s)^T
                den = B_t (G Theta_t^T) + B_g (lam G Theta^g_s^T)
    U_s:        num = XY Theta_s^T
                den = B_s (YY Theta_s^T)
    U_c:        num = XV (Theta_c + lam Theta^g_c)^T + XY Theta_c^T
                den = B_t (G Theta_c^T) + B_g (lam G Theta^g_c^T)
                      + B_s (YY Theta_c^T)
    Theta_t:    num = U_t^T XV              den = U_t^T (B_t G)
    Theta_s:    num = U_s^T XY              den = U_s^T (B_s YY)
    Theta_c:    num = U_c^T (XV + XY)       den = U_c^T (B_t G + B_s YY)
    Theta^g_c:  num = U_c^T (lam XV)        den = U_c^T (B_g (lam G))
    Theta^g_s:  num = U_t^T (lam XV)        den = U_t^T (B_g (lam G))
    V:          num = X_t^T (B_t + lam B_g)
                den = V (B_t^T B_t + lam B_g^T B_g)

This is the factored form of Lee & Seung (NIPS 2000) and Ding et al. (KDD
2006): no step forms an M x n matrix. The step preserves nonnegativity, and
every denominator is floored at linalg.EPSILON (1e-12); the new block is
written into the step factor's own buffer. The public update_* functions
apply it block by block in a fixed order, each pair's steps followed by L1
normalization of the cluster matrices (columns) and the assignment (rows).
fit frees each pair's old factors as soon as the sweep has taken them, and
the sweep holds the pair in work once, so beyond the P live pairs a step
adds at most three arrays of its block's size.

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


def _is_int(x) -> bool:
    """x is a Python or numpy integer, so it can count steps or columns."""
    return isinstance(x, (int, np.integer))


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
    term, and convergence_tol stops early on relative objective change when
    positive; lam and convergence_tol must be finite, and the counts k1, k2,
    maxiter and seed integers. The rules are checked when an instance is
    built, dataclasses.replace included, so every Hyperparams in existence
    is valid.
    """

    k1: int = 10
    k2: int = 50
    lam: float = 10.0
    maxiter: int = 100
    seed: int = 0
    convergence_tol: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "maxiter", "seed"):
            if not _is_int(getattr(self, name)):
                raise InvalidConfigError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.k1 < 1:
            raise InvalidConfigError(f"k1 must be a positive integer, got {self.k1}")
        if self.k2 < self.k1:
            raise InvalidConfigError(
                f"k1 must not exceed k2, got k1={self.k1}, k2={self.k2}"
            )
        if not 0 <= self.lam < np.inf:
            raise InvalidConfigError(
                f"lambda must be finite and nonnegative, got {self.lam}"
            )
        if self.maxiter < 1:
            raise InvalidConfigError(f"maxiter must be at least 1, got {self.maxiter}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.convergence_tol < np.inf:
            raise InvalidConfigError(
                "convergence_tol must be finite and nonnegative, got "
                f"{self.convergence_tol}"
            )


@dataclass(frozen=True)
class ProblemData:
    """A labeled source corpus plus P unlabeled target corpora.

    X_s is M x n_s, Y_s is the n_s x c one-hot label matrix, and each entry
    of targets is an M x n_p matrix over the same M features; every corpus
    holds at least one instance. A corpus may be a dense array or a scipy
    sparse array, which is held as CSC. All matrices must be nonnegative.
    Callers normally pass column-normalized
    corpora (each instance a distribution over features). sq_norms holds
    ||X_s||^2 followed by each target's squared Frobenius norm, XY_s the
    fixed M x c product X_s @ Y_s and YY_s the fixed c x c Gram matrix
    Y_s^T Y_s.
    """

    X_s: np.ndarray
    Y_s: np.ndarray
    targets: tuple
    sq_norms: tuple = field(init=False, repr=False, compare=False)
    XY_s: np.ndarray = field(init=False, repr=False, compare=False)
    YY_s: np.ndarray = field(init=False, repr=False, compare=False)

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
        if X_s.shape[1] < 1:
            raise InvalidConfigError("the source corpus has no instances")
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
            if t.shape[1] < 1:
                raise InvalidConfigError(f"target {p + 1} has no instances")
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
        object.__setattr__(self, "XY_s", X_s @ Y_s)
        object.__setattr__(self, "YY_s", Y_s.T @ Y_s)

    @property
    def M(self) -> int:
        return self.X_s.shape[0]

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


def objective(data: ProblemData, factors, shared: SharedFactors,
              hp: Hyperparams) -> float:
    """Joint squared reconstruction error over all pairs: the sum over p of
    the target, source and lam-weighted shared terms. Each is taken in
    factored form unless cancellation would cost it its accuracy (see
    residual_sq). X_t V, V^T V and U_c Theta_c are built once per pair.
    """
    X_s, xx_s = data.X_s, data.sq_norms[0]
    total = 0.0
    for p, f in enumerate(factors):
        X_t, xx_t, V = data.targets[p], data.sq_norms[p + 1], f.V
        XV, G = X_t @ V, V.T @ V
        UcTc = f.U_common @ f.Theta_common
        B_g = f.U_common @ shared.Theta_common + f.U_target @ shared.Theta_specific
        total += residual_sq(X_t, xx_t, UcTc + f.U_target @ f.Theta_target, V, XV, G)
        total += residual_sq(X_s, xx_s, UcTc + f.U_source @ f.Theta_source,
                             data.Y_s, data.XY_s, data.YY_s)
        total += hp.lam * residual_sq(X_t, xx_t, B_g, V, XV, G)
    return total


def _num_den(name: str, data: ProblemData, p: int, f: TargetFactors,
             shared: SharedFactors, lam: float) -> tuple:
    """Numerator and denominator of the multiplicative step on one block.

    name is a TargetFactors field or "shared." + a SharedFactors field. Each
    branch is the block's row of the module docstring's folded table: it sums
    pair p's terms that hold the block, the shared one weighted by lam, and
    builds only what it reads. num - den is minus half the gradient.
    """
    X_t, V, XY, YY = data.targets[p], f.V, data.XY_s, data.YY_s
    Uc, Ut, Us = f.U_common, f.U_target, f.U_source
    Tc, Tt, Ts = f.Theta_common, f.Theta_target, f.Theta_source
    Sc, Ss = shared.Theta_common, shared.Theta_specific
    if name == "V":
        B_t, B_g = Uc @ Tc + Ut @ Tt, Uc @ Sc + Ut @ Ss
        return X_t.T @ (B_t + lam * B_g), V @ (B_t.T @ B_t + lam * (B_g.T @ B_g))
    if name == "U_source":
        return XY @ Ts.T, (Uc @ Tc + Us @ Ts) @ (YY @ Ts.T)
    if name == "Theta_source":
        return Us.T @ XY, Us.T @ ((Uc @ Tc + Us @ Ts) @ YY)
    XV, G = X_t @ V, V.T @ V
    if name == "Theta_target":
        return Ut.T @ XV, Ut.T @ ((Uc @ Tc + Ut @ Tt) @ G)
    if name == "Theta_common":
        UcTc = Uc @ Tc
        den = (UcTc + Ut @ Tt) @ G
        den += (UcTc + Us @ Ts) @ YY
        return Uc.T @ (XV + XY), Uc.T @ den
    B_g = Uc @ Sc + Ut @ Ss
    if name == "shared.Theta_common":
        return Uc.T @ (lam * XV), Uc.T @ (B_g @ (lam * G))
    if name == "shared.Theta_specific":
        return Ut.T @ (lam * XV), Ut.T @ (B_g @ (lam * G))
    if name == "U_target":
        den = (Uc @ Tc + Ut @ Tt) @ (G @ Tt.T)
        den += B_g @ (lam * (G @ Ss.T))
        return XV @ (Tt + lam * Ss).T, den
    if name == "U_common":
        UcTc = Uc @ Tc
        num = XV @ (Tc + lam * Sc).T
        num += XY @ Tc.T
        den = (UcTc + Ut @ Tt) @ (G @ Tc.T)
        den += B_g @ (lam * (G @ Sc.T))
        den += (UcTc + Us @ Ts) @ (YY @ Tc.T)
        return num, den
    raise ValueError(f"no factor block named {name!r}")


def _scaled(factors, field: str, num, den):
    """factors with block field multiplied by sqrt(num / den), written into
    the step's own buffer."""
    step = safe_ratio_sqrt(num, den)
    return replace(
        factors, **{field: np.multiply(getattr(factors, field), step, out=step)}
    )


def _pair_step(name: str, data, p: int, f: TargetFactors,
               shared: SharedFactors, hp: Hyperparams) -> TargetFactors:
    num, den = _num_den(name, data, p, f, shared, hp.lam)
    return _scaled(f, name, num, den)


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
    """Multiplicative step on the target's soft class assignment V."""
    return _pair_step("V", data, p, f, shared, hp)


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
        shared = _scaled(shared, field, num, den)
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

    factors is any iterable of exactly the P pairs' TargetFactors, taken
    once in pair order and never modified; the new factors come back as a
    list. Per pair: U_target, U_source, U_common, the pair associations, V,
    then normalization. After all pairs, the shared associations. Each step
    sees the freshest factors. Pairs never read each other's factors and see
    the iteration-start shared snapshot, so the sweep over pairs is
    order-independent.
    """
    # next() rather than zip: zip keeps its last result tuple for reuse, and
    # that tuple would hold the handed-over pair through the whole of its
    # sweep, a second copy of the pair in work
    given = iter(factors)
    new_factors = []
    for p in range(data.P):
        f = next(given, None)
        if f is None:
            raise InvalidConfigError(f"factors holds {p} pairs for {data.P} targets")
        f = update_u_target(data, p, f, shared, hp)
        f = update_u_source(data, p, f, shared, hp)
        f = update_u_common(data, p, f, shared, hp)
        f = update_pair_associations(data, p, f, shared, hp)
        f = update_v(data, p, f, shared, hp)
        f = normalize_all(f)
        new_factors.append(f)
    if next(given, None) is not None:
        raise InvalidConfigError(f"factors holds more than {data.P} pairs")
    shared = update_shared_associations(data, new_factors, shared, hp)
    return new_factors, shared


def _handed_over(factors: list):
    """Yield the entries of factors in order, taking each out of the list as
    it is handed over, so the consumer holds the only reference to it."""
    factors.reverse()
    while factors:
        yield factors.pop()


def _all_finite(factors, shared: SharedFactors) -> bool:
    return all(np.isfinite(a).all() for f in (*factors, shared)
               for a in vars(f).values())


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
        factors, shared = run_iteration(data, _handed_over(factors), shared, hp)
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

