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
term by term as the reference; _terms writes out the folded sums below,
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
every denominator is floored at linalg.EPSILON (1e-12). A U block's rows
are independent: row i of its num and den reads row i of the M x c products
(XV, XY, B_t, B_g, B_s) alone. So _pair_step takes a U block's num, den,
step factor and new rows one block of rows (ROW_BLOCK_BYTES of U) at a
time, straight into the new U, and its M x k temporaries stay in cache; any
other block it takes in one piece. XV and G change only with V, and every
step is handed them: run_iteration builds them right after a pair is
normalized, for the shared step, the objective and the next sweep's first
four steps, and fit carries them between sweeps; only objective and
run_iteration build them when none are given. run_iteration calls the
public update_* steps by their module names, in a fixed order, each pair's
steps followed by L1 normalization of the cluster matrices (columns) and
the assignment (rows). fit frees each pair's old factors as soon as the
sweep has taken them, and the sweep holds the pair in work once, so beyond
the P live pairs a step adds its new block and at most three arrays of one
piece's size.

The objective is factored the same way: a term is
w * (||X||^2 - 2 <X W, B> + <B^T B, W^T W>), where ||X||^2 is computed once
per corpus by ProblemData. The sum cancels badly near an exact fit, so a
term that comes out below CANCELLATION_GUARD (1e-4) of
||X||^2 + 2 |<X W, B>| + <B^T B, W^T W> is taken again from its residual
X - B W^T, a block of columns at a time (linalg.residual_sq); that keeps
the objective 0 on an exact reconstruction and within the monotonicity
bounds the fit is held to.

Since the corpora enter only through X @ W, X.T @ B and ||X||^2, each may
be a dense array or a scipy sparse CSC array; the code is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    as_corpus,
    blocks,
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

    drawn = {
        "U_common": normalize_columns_l1(draw(data.M, hp.k1)),
        "U_target": normalize_columns_l1(draw(data.M, ks)),
        "U_source": normalize_columns_l1(draw(data.M, ks)),
        "Theta_common": draw(hp.k1, data.c),
        "Theta_target": draw(ks, data.c),
        "Theta_source": draw(ks, data.c),
    }
    shared = SharedFactors(
        Theta_common=drawn["Theta_common"].copy(),
        Theta_specific=drawn["Theta_target"].copy(),
    )
    # the first pair takes the drawn blocks, every other pair a copy
    factors = [
        TargetFactors(V=normalize_rows_l1(v_init[p]),
                      **(drawn if p == 0 else {k: a.copy() for k, a in drawn.items()}))
        for p in range(data.P)
    ]
    return factors, shared


def objective(data: ProblemData, factors, shared: SharedFactors,
              hp: Hyperparams, products=None) -> float:
    """Joint squared reconstruction error over all pairs: the sum over p of
    the target, source and lam-weighted shared terms. Each is taken in
    factored form unless cancellation would cost it its accuracy (see
    residual_sq). Each pair's X_t V and V^T V come from products when it is
    given and are built here otherwise; U_c Theta_c is built once per pair.
    """
    X_s, xx_s = data.X_s, data.sq_norms[0]
    total = 0.0
    for p, f in enumerate(factors):
        X_t, xx_t, V = data.targets[p], data.sq_norms[p + 1], f.V
        XV, G = _v_products(data, p, V) if products is None else products[p]
        UcTc = f.U_common @ f.Theta_common
        B_g = f.U_common @ shared.Theta_common + f.U_target @ shared.Theta_specific
        total += residual_sq(X_t, xx_t, UcTc + f.U_target @ f.Theta_target, V, XV, G)
        total += residual_sq(X_s, xx_s, UcTc + f.U_source @ f.Theta_source,
                             data.Y_s, data.XY_s, data.YY_s)
        total += hp.lam * residual_sq(X_t, xx_t, B_g, V, XV, G)
    return total


def _v_products(data: ProblemData, p: int, V) -> tuple:
    """(X_t V, V^T V) for target p's assignment V: what every step but those
    of V and the source-only blocks reads of V."""
    return data.targets[p] @ V, V.T @ V


def _terms(name: str, data: ProblemData, p: int, f: TargetFactors,
           shared: SharedFactors, lam: float, products: tuple) -> tuple:
    """Block name's step numerator and denominator, each a list of terms
    (L, R) standing for the sum of the products L @ R: the block's row of
    the module docstring's folded table. name is a TargetFactors field or
    "shared." + a SharedFactors field; the terms are pair p's that hold the
    block, the shared one weighted by lam, and only what they read is
    built. products is (X_t V, V^T V) for f.V. A U block's L are M x c and
    its R c x k, so row i of a sum reads row i of each L alone."""
    (XV, G), XY, YY = products, data.XY_s, data.YY_s
    Uc, Ut, Us = f.U_common, f.U_target, f.U_source
    Tc, Tt, Ts = f.Theta_common, f.Theta_target, f.Theta_source
    Sc, Ss = shared.Theta_common, shared.Theta_specific
    if name == "U_target":
        return ([(XV, (Tt + lam * Ss).T)],
                [(Uc @ Tc + Ut @ Tt, G @ Tt.T), (Uc @ Sc + Ut @ Ss, lam * (G @ Ss.T))])
    if name == "U_source":
        return [(XY, Ts.T)], [(Uc @ Tc + Us @ Ts, YY @ Ts.T)]
    if name == "U_common":
        UcTc = Uc @ Tc
        return ([(XV, (Tc + lam * Sc).T), (XY, Tc.T)],
                [(UcTc + Ut @ Tt, G @ Tc.T), (Uc @ Sc + Ut @ Ss, lam * (G @ Sc.T)),
                 (UcTc + Us @ Ts, YY @ Tc.T)])
    if name == "V":
        B_t, B_g = Uc @ Tc + Ut @ Tt, Uc @ Sc + Ut @ Ss
        return ([(data.targets[p].T, B_t + lam * B_g)],
                [(f.V, B_t.T @ B_t + lam * (B_g.T @ B_g))])
    if name == "Theta_source":
        return [(Us.T, XY)], [(Us.T, (Uc @ Tc + Us @ Ts) @ YY)]
    if name == "Theta_target":
        return [(Ut.T, XV)], [(Ut.T, (Uc @ Tc + Ut @ Tt) @ G)]
    if name == "Theta_common":
        UcTc = Uc @ Tc
        return ([(Uc.T, XV + XY)],
                [(Uc.T, (UcTc + Ut @ Tt) @ G + (UcTc + Us @ Ts) @ YY)])
    if name == "shared.Theta_common":
        return [(Uc.T, lam * XV)], [(Uc.T, (Uc @ Sc + Ut @ Ss) @ (lam * G))]
    if name == "shared.Theta_specific":
        return [(Ut.T, lam * XV)], [(Ut.T, (Uc @ Sc + Ut @ Ss) @ (lam * G))]
    raise ValueError(f"no factor block named {name!r}")


def _rows_sum(terms, rows=...) -> np.ndarray:
    """The sum of L @ R over terms, in their order, over rows rows (a slice)
    of each L, or over all rows for ..., the default. All rows take each L
    whole: slicing would copy a sparse L (V's numerator reads X_t^T)."""
    if rows is not ...:
        terms = [(L[rows], R) for L, R in terms]
    (L, R), *rest = terms
    total = L @ R
    for L, R in rest:
        total += L @ R
    return total


def _num_den(name: str, data: ProblemData, p: int, f: TargetFactors,
             shared: SharedFactors, lam: float, products: tuple) -> tuple:
    """Numerator and denominator of the multiplicative step on one block:
    its _terms summed over all rows. num - den is minus half the gradient."""
    num, den = _terms(name, data, p, f, shared, lam, products)
    return _rows_sum(num), _rows_sum(den)


# A U step is taken over blocks of rows of about this many bytes of U
# (linalg.blocks), so its numerator, denominator and step factor stay in
# cache between the passes that build and read them. The three U steps of
# one pair (M=8000, c=2, k=10/40/40, CSC corpora) took a median 10.2, 9.8,
# 7.4, 6.6 and 6.7 ms at 16, 32, 64, 128 and 256 KiB, and 8.3 ms in one
# block of all rows; smaller blocks pay Python's per-call cost. At 256 KiB
# the last block, which takes the remainder, held 1232 of M=2000 rows, and
# the fit's tracemalloc peak outgrew test_fit_peak_is_the_pairs_and_one_step
# (P + 1.65 pair-factor sets against P + 1.22 at 64 and 128 KiB).
ROW_BLOCK_BYTES = 128 * 1024


def _pair_step(name: str, data, p: int, f: TargetFactors,
               shared: SharedFactors, hp: Hyperparams,
               products: tuple) -> TargetFactors:
    """f after the multiplicative step on block name, taken straight into
    the new block: a U block one row block at a time, any other block in
    one piece. products is (X_t V, V^T V) for f.V."""
    num, den = _terms(name, data, p, f, shared, hp.lam, products)
    x = getattr(f, name)
    new = np.empty_like(x)
    pieces = blocks(*x.shape, ROW_BLOCK_BYTES) if name.startswith("U_") else [...]
    for rows in pieces:
        step = safe_ratio_sqrt(_rows_sum(num, rows), _rows_sum(den, rows))
        np.multiply(x[rows], step, out=new[rows])
    return replace(f, **{name: new})


def update_u_target(data, p: int, f: TargetFactors, shared: SharedFactors,
                    hp: Hyperparams, products: tuple) -> TargetFactors:
    """Multiplicative step on the target-specific clusters U_target.
    products is (X_t V, V^T V) for f.V."""
    return _pair_step("U_target", data, p, f, shared, hp, products)


def update_u_source(data, p: int, f: TargetFactors, shared: SharedFactors,
                    hp: Hyperparams, products: tuple) -> TargetFactors:
    """Multiplicative step on the source-specific clusters U_source."""
    return _pair_step("U_source", data, p, f, shared, hp, products)


def update_u_common(data, p: int, f: TargetFactors, shared: SharedFactors,
                    hp: Hyperparams, products: tuple) -> TargetFactors:
    """Multiplicative step on the common clusters U_common.

    Pulls three gradients at once: the pair's target and source fits plus
    the lam-weighted shared fit of the target. products is (X_t V, V^T V)
    for f.V.
    """
    return _pair_step("U_common", data, p, f, shared, hp, products)


def update_v(data, p: int, f: TargetFactors, shared: SharedFactors,
             hp: Hyperparams, products: tuple) -> TargetFactors:
    """Multiplicative step on the target's soft class assignment V."""
    return _pair_step("V", data, p, f, shared, hp, products)


def update_pair_associations(data, p: int, f: TargetFactors,
                             shared: SharedFactors, hp: Hyperparams,
                             products: tuple) -> TargetFactors:
    """Multiplicative steps on the three pair-level association matrices.

    Theta_common first (it sees both corpora), then Theta_target and
    Theta_source, each against the factors updated so far. products is
    (X_t V, V^T V) for f.V.
    """
    for name in ("Theta_common", "Theta_target", "Theta_source"):
        f = _pair_step(name, data, p, f, shared, hp, products)
    return f


def update_shared_associations(data, factors, shared: SharedFactors,
                               hp: Hyperparams, products) -> SharedFactors:
    """Multiplicative steps on the two association matrices shared by all pairs.

    Numerators and denominators are summed over every pair before the ratio
    is taken (the denominator floor applies to the summed value). The
    specific block is updated against the fresh common block. products
    holds each pair's (X_t V, V^T V).
    """
    for field in ("Theta_common", "Theta_specific"):
        num = den = 0.0
        for p, f in enumerate(factors):
            # lam weighs the one term that holds the block, so it cancels
            # from the ratio; unit weight keeps the rule defined at lam = 0
            n, d = _num_den("shared." + field, data, p, f, shared, 1.0, products[p])
            num, den = num + n, den + d
        step = safe_ratio_sqrt(num, den)  # the new block is written into it
        shared = replace(shared, **{field: np.multiply(getattr(shared, field), step,
                                                       out=step)})
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
                  hp: Hyperparams, products=None) -> tuple:
    """One full sweep over all factors; the loop body of fit.

    factors is any iterable of exactly the P pairs' TargetFactors, taken
    once in pair order and never modified; the new factors come back as a
    list. Per pair: U_target, U_source, U_common, the pair associations, V,
    then normalization. After all pairs, the shared associations. Each step
    sees the freshest factors. Pairs never read each other's factors and see
    the iteration-start shared snapshot, so the sweep over pairs is
    order-independent.

    X_t V and V^T V are built once per value of V, right after a pair is
    normalized. products, when given, is a list of each pair's (X_t V,
    V^T V) for the V in factors, which the sweep replaces with those of the
    new V; without it they are built from factors.
    """
    # next() rather than zip: zip keeps its last result tuple for reuse, and
    # that tuple would hold the handed-over pair through the whole of its
    # sweep, a second copy of the pair in work
    given = iter(factors)
    new_factors, new_products = [], []
    for p in range(data.P):
        f = next(given, None)
        if f is None:
            raise InvalidConfigError(f"factors holds {p} pairs for {data.P} targets")
        pair_products = _v_products(data, p, f.V) if products is None else products[p]
        # each step is looked up by its module name at every call, so a
        # wrapper installed on mrtl.engine sees it
        for step in (update_u_target, update_u_source, update_u_common,
                     update_pair_associations, update_v):
            f = step(data, p, f, shared, hp, pair_products)
        f = normalize_all(f)
        new_factors.append(f)
        new_products.append(_v_products(data, p, f.V))
    if next(given, None) is not None:
        raise InvalidConfigError(f"factors holds more than {data.P} pairs")
    shared = update_shared_associations(data, new_factors, shared, hp, new_products)
    if products is not None:
        products[:] = new_products
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
    # each pair's (X_t V, V^T V), renewed by every sweep
    products = [_v_products(data, p, f.V) for p, f in enumerate(factors)]
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
        factors, shared = run_iteration(data, _handed_over(factors), shared, hp,
                                        products)
        obj = objective(data, factors, shared, hp, products)
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

