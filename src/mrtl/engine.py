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
every denominator is floored at linalg.EPSILON (1e-12). No pair reads
another pair's factors within a sweep, so each step takes all P pairs at
once on one stack (_Stack) of (P, rows, cols) blocks, with X_t V and V^T V
stacked as (P, M, c) and (P, c, c): one batched matmul pass per term, the
new block written into the stack in place. The shared associations are
(1, rows, c) stack blocks tied across the pairs, which matmul broadcasts
and whose step sums over the pairs, so a step reads only the stack and lam.
objective and run_iteration take a stack as it is only with its data and
the SharedFactors it holds, else a checked copy (_as_stack), and every
block they hand out is read-only, so no product goes stale. Of V's step
it forms, for every pair at once, R = B_t + lam B_g and
H = B_t^T B_t + lam B_g^T B_g; only X_t^T R and V H, whose n_p differs
between targets, are taken per target. A U block's rows are independent:
row i of its num and den reads row i of the M x c products (XV, XY, B_t,
B_g, B_s) alone, so _pair_step takes a U step one block of rows
(ROW_BLOCK_BYTES of the stacked U) at a time, and its temporaries stay in
cache. The stack carries XV, G and the five association products
U_c Theta_c, U_t Theta_t, U_s Theta_s, U_c Theta^g_c and U_t Theta^g_s
(P x M x c each). Each public step leaves every carried product current,
forming again in place exactly the products of the blocks it changes (15
association products a sweep), except that update_v leaves XV and G to
normalize_all, which follows it. The steps and the objective add the
products up (B_t = U_c Theta_c + U_t Theta_t and so on, in the order of
the table). run_iteration is the public steps alone, by their module
names, once each: update_u_target, update_u_source, update_u_common,
update_pair_associations, update_v, normalize_all (cluster matrices by
column, V by row), update_shared_associations. fit draws its factors
straight into its own stack, so beyond the P pairs and their carried
products a step holds its M x c sums and one row block's arrays.

The objective is factored the same way: a term is
w * (||X||^2 - 2 <X W, B> + <B^T B, W^T W>), where ||X||^2 is computed once
per corpus by ProblemData and the two inner products of every pair's term
are taken at once from the carried products. The sum cancels badly near an
exact fit, so a term that comes out below CANCELLATION_GUARD (1e-4) of
||X||^2 + 2 |<X W, B>| + <B^T B, W^T W> is taken again from its residual
X - B W^T, a block of columns at a time (linalg.residual_sq); that keeps
the objective 0 on an exact reconstruction and within the monotonicity
bounds the fit is held to.

Since the corpora enter only through X @ W, X.T @ B and ||X||^2 (linalg's
product layout), each may be dense or a SparseCorpus; the code is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it on first use; every fit draws from it

from .linalg import (
    as_corpus,
    blocks,
    cross_and_gram,
    first_bad_entry,
    frobenius_sq,
    normalize_columns_l1,
    normalize_rows_l1,
    residual_sq,
    safe_ratio_sqrt,
)


class InvalidConfigError(ValueError):
    """Hyperparameters or problem shapes that cannot be run; field names the
    one setting refused, when there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_finite_nonnegative(value, name: str, field: str | None = None) -> None:
    """Refuse value, which the message calls name, unless 0 <= value < inf
    and it is not a bool; field is its setting when that is not name."""
    if isinstance(value, (bool, np.bool_)) or not 0 <= value < np.inf:
        raise InvalidConfigError(
            f"{name} must be finite and nonnegative, got {value}", field or name)


def check_count(value, name: str, least: int = 1) -> None:
    """Refuse value, the setting name, unless it is a Python or numpy integer,
    not a bool, of at least least: the one rule for every count and seed."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidConfigError(
            f"{name} must be an integer of at least {least}, got {value!r}", name)


def check_clusters_fit(k2: int, M: int) -> None:
    """Refuse more feature clusters (k2) than features (M)."""
    if k2 > M:
        raise InvalidConfigError(f"k2={k2} exceeds the number of features M={M}")


def check_corpus(X, name: str):
    """X as linalg.as_corpus holds it, if it is a 2-d matrix of finite,
    nonnegative values with at least one feature and one instance, the
    only input the multiplicative updates are defined on; else
    InvalidConfigError naming name and any bad value."""
    X = as_corpus(X)
    if X.ndim != 2:
        raise InvalidConfigError(f"{name} must be a 2-d matrix")
    for size, what in zip(X.shape, ("features", "instances")):
        if size < 1:
            raise InvalidConfigError(f"{name} has no {what}")
    bad = first_bad_entry(X)
    if bad is not None:
        row, col, value = bad
        raise InvalidConfigError(
            f"{name}: instance {col + 1} has value {value} at feature {row + 1}; "
            f"corpus values must be finite and nonnegative")
    return X


def check_labels(Y, n: int, name: str) -> np.ndarray:
    """Y as float64, if it is an n x c matrix whose rows are one-hot (a
    single 1, rest 0): the fixed class assignment of n labeled instances;
    else InvalidConfigError naming name and the first row that is not."""
    Y = np.asarray(Y, dtype=np.float64, order="C")
    if Y.ndim != 2:
        raise InvalidConfigError(f"{name} must be a 2-d matrix")
    if Y.shape[0] != n:
        raise InvalidConfigError(f"{name} has {Y.shape[0]} rows for {n} instances")
    ones = Y == 1.0
    bad = np.flatnonzero(~(ones | (Y == 0.0)).all(axis=1) | (ones.sum(axis=1) != 1))
    if bad.size:
        raise InvalidConfigError(
            f"{name}: instance {bad[0] + 1} has labels {Y[bad[0]].tolist()}; "
            f"label rows must be one-hot (a single 1, rest 0)")
    return Y


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
    positive; lam and convergence_tol must be finite and no bool. The rules
    are checked when an instance is built, dataclasses.replace included, so
    every Hyperparams in existence is valid.
    """

    k1: int = 10
    k2: int = 50
    lam: float = 10.0
    maxiter: int = 100
    seed: int = 0
    convergence_tol: float = 0.0

    def __post_init__(self):
        for name, least in (("k1", 1), ("k2", 1), ("maxiter", 1), ("seed", 0)):
            check_count(getattr(self, name), name, least)
        if self.k2 < self.k1:
            raise InvalidConfigError(
                f"k1 must not exceed k2, got k1={self.k1}, k2={self.k2}", "k1")
        check_finite_nonnegative(self.lam, "lambda", "lam")
        check_finite_nonnegative(self.convergence_tol, "convergence_tol")


@dataclass(frozen=True)
class ProblemData:
    """A labeled source corpus plus P unlabeled target corpora.

    X_s is M x n_s, Y_s is the n_s x c one-hot label matrix (check_labels)
    with c >= 2, and each entry of targets is an M x n_p matrix over the
    same M features. A corpus may be a dense array, a linalg.SparseCorpus
    or a scipy sparse array, held as a SparseCorpus. A corpus that is not a
    2-d matrix of finite, nonnegative values with at least one feature and
    one instance is refused (check_corpus), naming X_s or target p and any
    bad entry. Callers normally pass column-normalized corpora (each
    instance a distribution over features). sq_norms holds ||X_s||^2
    followed by each target's squared Frobenius norm, XY_s the fixed M x c
    product X_s @ Y_s and YY_s the fixed c x c Gram matrix Y_s^T Y_s.
    """

    X_s: np.ndarray
    Y_s: np.ndarray
    targets: tuple
    sq_norms: tuple = field(init=False, repr=False, compare=False)
    XY_s: np.ndarray = field(init=False, repr=False, compare=False)
    YY_s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X_s = check_corpus(self.X_s, "X_s")
        Y_s = check_labels(self.Y_s, X_s.shape[1], "Y_s")
        targets = tuple(check_corpus(t, f"target {p + 1}")
                        for p, t in enumerate(self.targets))
        if len(targets) < 1:
            raise InvalidConfigError("at least one target corpus is required")
        if Y_s.shape[1] < 2:
            raise InvalidConfigError(f"need at least 2 classes, got {Y_s.shape[1]}")
        for p, t in enumerate(targets):
            if t.shape[0] != X_s.shape[0]:
                raise InvalidConfigError(
                    f"target {p + 1} has {t.shape[0]} features but the source "
                    f"has {X_s.shape[0]}")
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


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made to refuse writes."""
    a.flags.writeable = False
    return a


def _check_shape(what: str, a, shape: tuple) -> None:
    """InvalidConfigError naming what unless a has shape shape."""
    if np.shape(a) != shape:
        raise InvalidConfigError(f"{what} has shape {np.shape(a)}, expected {shape}")


# the TargetFactors blocks a _Stack holds stacked over pairs
STACKED = ("U_common", "U_target", "U_source",
           "Theta_common", "Theta_target", "Theta_source")

# the blocks tied across pairs that a _Stack holds, each (1, rows, c): stack
# attribute -> its SharedFactors field
TIED = {"Theta_g_common": "Theta_common", "Theta_g_specific": "Theta_specific"}

# the association products a stack carries, each P x M x c: name -> (U, Theta)
PRODUCTS = {"UcTc": ("U_common", "Theta_common"),
            "UtTt": ("U_target", "Theta_target"),
            "UsTs": ("U_source", "Theta_source"),
            "UcSc": ("U_common", "Theta_g_common"),
            "UtSs": ("U_target", "Theta_g_specific")}


class _Stack(tuple):
    """The P pairs' TargetFactors, in pair order, as read-only views into
    blocks that a sweep steps in place, and shared, the SharedFactors of
    read-only views of the TIED blocks. The stack's attribute for each name
    in STACKED and TIED is one (P, rows, cols) array of every pair's block,
    or (1, rows, cols) for a block tied across the pairs, which matmul
    broadcasts; V is the list of the P n_p x c assignments (n_p differs
    between targets) and data the ProblemData whose corpora they were built
    from. XV and G (each pair's X_t V and V^T V) and the attribute for each
    name in PRODUCTS (that product for every pair) are the carried products,
    of the current blocks: each step renews those of the blocks it changes
    (renew), but update_v leaves XV and G to normalize_all."""

    def __new__(cls, data: ProblemData, stacked: dict, V: list):
        stack = super().__new__(cls, (
            TargetFactors(V=_read_only(v.view()),
                          **{name: _read_only(a[p % len(a)])
                             for name, a in stacked.items() if name in STACKED})
            for p, v in enumerate(V)))
        shared = SharedFactors(**{field: _read_only(stacked[name][0])
                                  for name, field in TIED.items()})
        vars(stack).update(stacked, V=V, data=data, shared=shared,
                           XV=np.empty((data.P, data.M, data.c)),
                           G=np.empty((data.P, data.c, data.c)),
                           **{name: np.empty((data.P, data.M, data.c))
                              for name in PRODUCTS})
        stack.renew("V", *STACKED)
        return stack

    @classmethod
    def of(cls, data: ProblemData, factors, shared: SharedFactors) -> "_Stack":
        """A fresh stack of copies of factors, an iterable of exactly the P
        pairs' TargetFactors, taken once, and of shared's blocks. Each shape,
        shared's included, must agree with data (M, c and each target's n_p)
        and with pair 1's cluster counts; InvalidConfigError names the first
        block that does not."""
        factors = list(factors)
        if len(factors) != data.P:
            raise InvalidConfigError(
                f"factors holds {len(factors)} pairs for {data.P} targets")
        k1, ks = (np.shape(a)[1] if np.ndim(a) == 2 else name
                  for a, name in ((factors[0].U_common, "k1"),
                                  (factors[0].U_target, "k2 - k1")))
        for p, (f, X_t) in enumerate(zip(factors, data.targets)):
            want = {"U_common": (data.M, k1), "U_target": (data.M, ks),
                    "U_source": (data.M, ks), "V": (X_t.shape[1], data.c),
                    "Theta_common": (k1, data.c), "Theta_target": (ks, data.c),
                    "Theta_source": (ks, data.c)}
            for name, shape in want.items():
                _check_shape(f"pair {p + 1}'s {name}", getattr(f, name), shape)
        _check_shape("shared Theta_common", shared.Theta_common, (k1, data.c))
        _check_shape("shared Theta_specific", shared.Theta_specific, (ks, data.c))
        stacked = {name: np.stack([getattr(f, name) for f in factors], dtype=np.float64)
                   for name in STACKED}
        for name, field in TIED.items():
            stacked[name] = np.stack([getattr(shared, field)], dtype=np.float64)
        V = [np.array(f.V, dtype=np.float64, order="C") for f in factors]
        return cls(data, stacked, V)

    def renew(self, *names) -> None:
        """Form again, in place, each carried product of a block in names, XV
        and G of "V"."""
        if "V" in names:
            for p, V in enumerate(self.V):
                self.XV[p], self.G[p] = self.data.targets[p] @ V, V.T @ V
        for product, (U, theta) in PRODUCTS.items():
            if U in names or theta in names:
                np.matmul(getattr(self, U), getattr(self, theta),
                          out=getattr(self, product))

    def __reduce__(self):
        # a copy or a pickle is the plain list of the pairs' TargetFactors
        return list, (list(self),)


@dataclass(frozen=True)
class SharedFactors:
    """Association matrices shared by every pair: common (k1 x c) and
    specific ((k2-k1) x c) cluster blocks; the engine's are read-only views
    of a stack's TIED blocks."""

    Theta_common: np.ndarray
    Theta_specific: np.ndarray


def _as_stack(data: ProblemData, factors, shared: SharedFactors) -> _Stack:
    """The way into objective and run_iteration: factors itself if it is a
    stack built for data that holds shared, else _Stack.of(data, factors,
    shared), a checked copy of both."""
    if (isinstance(factors, _Stack) and factors.data is data
            and factors.shared is shared):
        return factors
    return _Stack.of(data, factors, shared)


@dataclass(frozen=True)
class TraceRecord:
    """One fitting iteration: its 1-based number and the objective after
    the shared update."""

    iteration: int
    objective: float


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
    hp.seed, v_init) give bitwise identical factors. Returns (factors,
    factors.shared): a fresh stack with every product formed, the pairs'
    TargetFactors, and the SharedFactors of its tied blocks, all read-only
    views in pair order, which run_iteration steps in place (see _Stack).
    """
    check_clusters_fit(hp.k2, data.M)
    if len(v_init) != data.P:
        raise InvalidConfigError(
            f"v_init has {len(v_init)} matrices for {data.P} targets")
    v_init = [np.asarray(v, dtype=np.float64, order="C") for v in v_init]
    for p, (v, t) in enumerate(zip(v_init, data.targets)):
        _check_shape(f"v_init[{p}]", v, (t.shape[1], data.c))
        if first_bad_entry(v) is not None:
            raise InvalidConfigError(f"v_init[{p}] must be finite and nonnegative")

    rng = np.random.default_rng(hp.seed)
    ks = hp.k2 - hp.k1

    # each block is drawn once, in this order, straight into pair 1's slot
    # of its stack, and copied to every other pair's
    stacked = {}
    for name, shape in (("U_common", (data.M, hp.k1)), ("U_target", (data.M, ks)),
                        ("U_source", (data.M, ks)), ("Theta_common", (hp.k1, data.c)),
                        ("Theta_target", (ks, data.c)), ("Theta_source", (ks, data.c))):
        stacked[name] = np.empty((data.P, *shape))
        first = rng.random(out=stacked[name][0])
        # uniform on (0, 1]: keeps every initial entry strictly positive
        np.subtract(1.0, first, out=first)
        if name.startswith("U_"):
            normalize_columns_l1(first, out=first)
        stacked[name][1:] = first
    stacked["Theta_g_common"] = stacked["Theta_common"][:1].copy()
    stacked["Theta_g_specific"] = stacked["Theta_target"][:1].copy()
    stack = _Stack(data, stacked, [normalize_rows_l1(v) for v in v_init])
    return stack, stack.shared


def objective(data: ProblemData, factors, shared: SharedFactors,
              hp: Hyperparams) -> float:
    """Joint squared reconstruction error over all pairs: the sum over p of
    the target, source and lam-weighted shared terms. Each is taken in
    factored form unless cancellation would cost it its accuracy (see
    residual_sq). factors is a stack built for data and holding shared,
    whose X_t V, V^T V and association products are read as they stand, or
    any other iterable of the P pairs, copied into a fresh stack as
    run_iteration copies one (_as_stack). B_t, B_s and B_g and the inner
    products of each term are formed for every pair at once; only the
    residual fallback is taken pair by pair.
    """
    stack = _as_stack(data, factors, shared)
    B_t = stack.UcTc + stack.UtTt
    B_s = stack.UcTc + stack.UsTs
    B_g = stack.UcSc + stack.UtSs
    (cross_t, gram_t), (cross_s, gram_s), (cross_g, gram_g) = (
        cross_and_gram(B, XW, G) for B, XW, G in (
            (B_t, stack.XV, stack.G), (B_s, data.XY_s, data.YY_s),
            (B_g, stack.XV, stack.G)))
    X_s, xx_s, Y_s = data.X_s, data.sq_norms[0], data.Y_s
    total = 0.0
    for p, (X_t, V) in enumerate(zip(data.targets, stack.V)):
        xx_t = data.sq_norms[p + 1]
        total += residual_sq(X_t, xx_t, B_t[p], V, cross_t[p], gram_t[p])
        total += residual_sq(X_s, xx_s, B_s[p], Y_s, cross_s[p], gram_s[p])
        total += hp.lam * residual_sq(X_t, xx_t, B_g[p], V, cross_g[p], gram_g[p])
    return total


def _terms(name: str, stack: _Stack, lam: float) -> tuple:
    """Block name's step numerator and denominator for every pair of the
    stack, each a list of terms (L, R) standing for the sum of the products
    L @ R: the block's row of the module docstring's folded table. name is a
    name in STACKED or TIED, or "V"; lam weights the shared term. Every
    block, product and corpus product is the stack's, and only the sums the
    terms read are built. A U block's L are (P, M, c) and its R (P, c, k),
    C-contiguous (linalg's layout), so row i of a sum reads row i of each L
    alone. V's row is instead (R, H): R = B_t + lam B_g
    (P x M x c) and H = B_t^T B_t + lam B_g^T B_g (P x c x c), the right
    factors of its one numerator term X_t^T R and one denominator term V H,
    whose left factors differ in n_p between targets."""
    XV, G, XY, YY = stack.XV, stack.G, stack.data.XY_s, stack.data.YY_s
    Uc, Ut, Us = stack.U_common, stack.U_target, stack.U_source
    Tc, Tt, Ts = stack.Theta_common, stack.Theta_target, stack.Theta_source
    Sc, Ss = stack.Theta_g_common, stack.Theta_g_specific
    UcTc, UtTt, UsTs, UcSc, UtSs = (getattr(stack, product) for product in PRODUCTS)
    if name == "U_target":
        return ([(XV, (Tt + lam * Ss).mT.copy())],
                [(UcTc + UtTt, G @ Tt.mT), (UcSc + UtSs, lam * (G @ Ss.mT))])
    if name == "U_source":
        return [(XY, Ts.mT.copy())], [(UcTc + UsTs, YY @ Ts.mT)]
    if name == "U_common":
        return ([(XV, (Tc + lam * Sc).mT.copy()), (XY, Tc.mT.copy())],
                [(UcTc + UtTt, G @ Tc.mT), (UcSc + UtSs, lam * (G @ Sc.mT)),
                 (UcTc + UsTs, YY @ Tc.mT)])
    if name == "V":
        B_t, B_g = UcTc + UtTt, UcSc + UtSs
        return B_t + lam * B_g, B_t.mT @ B_t + lam * (B_g.mT @ B_g)
    if name == "Theta_source":
        return [(Us.mT, XY)], [(Us.mT, (UcTc + UsTs) @ YY)]
    if name == "Theta_target":
        return [(Ut.mT, XV)], [(Ut.mT, (UcTc + UtTt) @ G)]
    if name == "Theta_common":
        return ([(Uc.mT, XV + XY)],
                [(Uc.mT, (UcTc + UtTt) @ G + (UcTc + UsTs) @ YY)])
    if name == "Theta_g_common":
        return [(Uc.mT, lam * XV)], [(Uc.mT, (UcSc + UtSs) @ (lam * G))]
    if name == "Theta_g_specific":
        return [(Ut.mT, lam * XV)], [(Ut.mT, (UcSc + UtSs) @ (lam * G))]
    raise ValueError(f"no factor block named {name!r}")


def _rows_sum(terms, rows=slice(None)) -> np.ndarray:
    """The sum of L @ R over terms, in their order, over rows rows (a slice
    of each L's second-to-last axis), all rows by default."""
    (L, R), *rest = terms
    total = L[..., rows, :] @ R
    for L, R in rest:
        total += L[..., rows, :] @ R
    return total


# A U step is taken over blocks of rows of about this many bytes of the
# stacked U (linalg.blocks over P * k columns), so its numerator,
# denominator and step factor stay in cache between the passes that build
# and read them. The three U steps of a three-pair stack (M=8000, c=2,
# k=10/40/40, CSC corpora, 2 OpenBLAS threads) took a median 19.3, 17.3,
# 13.3, 12.9 and 14.2 ms at 32, 64, 128, 256 and 512 KiB, and 21.6 ms in one
# block; the fit's tracemalloc peak in test_fit_peak_is_the_pairs_and_one_step
# reads P + 0.60, 0.77 and 1.36 pair-factor sets at 64, 128 and 256 KiB
# (P = 4, M = 2000), against a bound of P + 1.5.
ROW_BLOCK_BYTES = 128 * 1024


def _pair_step(name: str, stack: _Stack, lam: float) -> None:
    """The multiplicative step on block name of every pair, written into the
    stack: a U block one row block at a time, a Theta block in one piece;
    then the products of the new block. A block tied across the pairs takes
    one step, on its numerator and denominator summed over the pairs in
    pair order (the denominator floor applies to the sum)."""
    num, den = _terms(name, stack, lam)
    x = getattr(stack, name)
    _, M, k = x.shape
    pieces = (blocks(M, len(stack) * k, ROW_BLOCK_BYTES) if name.startswith("U_")
              else [slice(None)])
    for rows in pieces:
        sums = _rows_sum(num, rows), _rows_sum(den, rows)
        if len(x) < len(stack):
            sums = (a.sum(axis=0, keepdims=True) for a in sums)
        step = safe_ratio_sqrt(*sums)
        block = x[..., rows, :]
        np.multiply(block, step, out=block)
    stack.renew(name)


def update_u_target(stack: _Stack, hp) -> None:
    """Multiplicative step on every pair's target-specific clusters U_target."""
    _pair_step("U_target", stack, hp.lam)


def update_u_source(stack: _Stack, hp) -> None:
    """Multiplicative step on every pair's source-specific clusters U_source."""
    _pair_step("U_source", stack, hp.lam)


def update_u_common(stack: _Stack, hp) -> None:
    """Multiplicative step on every pair's common clusters U_common, which
    pulls three gradients: the target and source fits and the shared one."""
    _pair_step("U_common", stack, hp.lam)


def update_v(stack: _Stack, hp) -> None:
    """Multiplicative step on each target's soft class assignment V: the
    association products of every pair at once, then X_t^T R and V H per
    target (n_p differs between targets). XV and G wait for normalize_all."""
    R, H = _terms("V", stack, hp.lam)
    for p, V in enumerate(stack.V):
        np.multiply(V, safe_ratio_sqrt(stack.data.targets[p].T @ R[p], V @ H[p]), out=V)


def update_pair_associations(stack: _Stack, hp) -> None:
    """Multiplicative steps on every pair's three association matrices.

    Theta_common first (it sees both corpora), then Theta_target and
    Theta_source, each against the factors updated so far.
    """
    for name in ("Theta_common", "Theta_target", "Theta_source"):
        _pair_step(name, stack, hp.lam)


def update_shared_associations(stack: _Stack, hp) -> SharedFactors:
    """Multiplicative steps on the two association matrices shared by all
    pairs, the stack's TIED blocks, the specific one against the fresh
    common one. Each is stepped in place: stack.shared, which it returns,
    is the same SharedFactors of read-only views every sweep."""
    for name in TIED:
        # lam weighs the one term that holds the block, so it cancels from
        # the ratio; unit weight keeps the rule defined at lam = 0
        _pair_step(name, stack, 1.0)
    return stack.shared


def normalize_all(stack: _Stack) -> None:
    """L1-normalize every pair's cluster matrices by column and each V by
    row, in place, and renew every product of them, XV and G included, so
    the stack is current again after update_v. Association matrices are
    never normalized. Idempotent up to float rounding.
    """
    clusters = ("U_common", "U_target", "U_source")
    for name in clusters:
        U = getattr(stack, name)
        normalize_columns_l1(U, out=U)
    for V in stack.V:
        normalize_rows_l1(V, out=V)
    stack.renew(*clusters, "V")


def run_iteration(data: ProblemData, factors, shared: SharedFactors,
                  hp: Hyperparams) -> tuple:
    """One full sweep over all factors; the loop body of fit.

    factors is the P pairs' factors in pair order: a stack built for data
    and holding shared, as init_factors returns one, which the sweep steps
    in place, or any other iterable of exactly P TargetFactors, any other
    stack included, taken once and copied into a fresh stack, so never
    modified (_as_stack, which checks the shapes). Returns the stack it
    stepped and its SharedFactors, both the same objects every sweep, so
    factors, shared = run_iteration(...) chains on one stack.

    Each step takes every pair at once: U_target, U_source, U_common, the
    pair associations, V, then normalization, then the shared associations.
    Each step sees the freshest factors. Pairs never read each other's
    factors and see the iteration-start shared snapshot, so each pair's new
    factors are those of a sweep over that pair alone.
    """
    stack = _as_stack(data, factors, shared)
    # each step is looked up by its module name at every call, so a wrapper
    # installed on mrtl.engine sees it
    for step in (update_u_target, update_u_source, update_u_common,
                 update_pair_associations, update_v):
        step(stack, hp)
    normalize_all(stack)
    return stack, update_shared_associations(stack, hp)


def fit(data: ProblemData, hp: Hyperparams, v_init, on_iteration=None) -> tuple:
    """Run the alternating updates and return (factors, shared, trace).

    v_init supplies one row-stochastic n_p x c matrix per target (typically
    source-classifier probabilities). Runs exactly hp.maxiter iterations, or
    stops early once the relative objective change drops below
    hp.convergence_tol when that is positive. One TraceRecord is appended
    per completed iteration, with the objective measured after the shared
    update; then, when given, on_iteration(record, factors) is called with
    that record and the pairs' TargetFactors. Raises
    NumericalDivergenceError naming the iteration if any factor entry
    becomes non-finite, before that iteration's record or call. Identical
    inputs and seed reproduce the run exactly. Every sweep steps fit's own
    stack in place, and fit returns it, a tuple of each pair's
    TargetFactors, with its SharedFactors: read-only views into it (a copy
    or pickle of the tuple is a plain list).
    """
    stack, shared = init_factors(data, hp, v_init)
    trace = []
    prev_obj = None
    for iteration in range(1, hp.maxiter + 1):
        # a step that overflows is reported once, by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            run_iteration(data, stack, shared, hp)
            obj = objective(data, stack, shared, hp)
        arrays = (*(getattr(stack, name) for name in (*STACKED, *TIED)), *stack.V)
        if not (np.isfinite(obj) and all(np.isfinite(a).all() for a in arrays)):
            raise NumericalDivergenceError(iteration)
        trace.append(TraceRecord(iteration=iteration, objective=obj))
        if on_iteration is not None:
            on_iteration(trace[-1], stack)
        if hp.convergence_tol > 0 and prev_obj is not None:
            scale = max(abs(prev_obj), np.finfo(np.float64).tiny)
            if abs(prev_obj - obj) / scale < hp.convergence_tol:
                break
        prev_obj = obj
    return stack, shared, trace


def predict(f: TargetFactors) -> np.ndarray:
    """1-based class labels: per-row argmax of V, lowest index wins ties."""
    return np.argmax(f.V, axis=1).astype(np.int64) + 1
