"""Passes taken in blocks against the one-piece computations they replace.

The U steps run over row blocks of the pair stack, compact_corpus builds its
CSC array from one mask, a stack carries each pair's X_t V and V^T V from
sweep to sweep, and the objective's residual fallback runs over column
blocks. Each must give what
the one-piece form gives, to the bit where the one-piece form is the kernel.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import num_den_per_term, one_hot, random_state, reconstructions, stepped

from mrtl.data import compact_corpus, normalize_input
from mrtl.engine import (
    ROW_BLOCK_BYTES,
    Hyperparams,
    ProblemData,
    SharedFactors,
    TargetFactors,
    _num_den,
    _v_products,
    fit,
    init_factors,
    objective,
    run_iteration,
    update_u_common,
    update_u_source,
    update_u_target,
)
from mrtl.linalg import (
    BLOCK_ALIGN,
    CANCELLATION_GUARD,
    RESIDUAL_BLOCK_BYTES,
    blocks,
    frobenius_sq,
    normalize_columns_l1,
    normalize_rows_l1,
    residual_sq,
    safe_ratio_sqrt,
)

pytestmark = pytest.mark.filterwarnings("error")

U_STEPS = {
    "U_target": update_u_target,
    "U_source": update_u_source,
    "U_common": update_u_common,
}


@pytest.mark.parametrize("count, width, nbytes", [
    (1, 5, 4096), (63, 5, 4096), (64, 5, 4096), (200, 5, 4096), (1000, 3, 4096),
    (10789, 3, ROW_BLOCK_BYTES), (10789, 0, ROW_BLOCK_BYTES), (5, 10 ** 6, 64),
])
def test_blocks_cover_the_range_in_aligned_pieces(count, width, nbytes):
    pieces = blocks(count, width, nbytes)
    size = max(nbytes // (8 * max(width, 1)) // BLOCK_ALIGN, 1) * BLOCK_ALIGN
    assert pieces[0].start == 0 and pieces[-1].stop == count
    for a, b in zip(pieces, pieces[1:]):
        assert a.stop == b.start
    assert all(s.start % BLOCK_ALIGN == 0 for s in pieces)
    assert all(s.stop - s.start == size for s in pieces[:-1])
    last = pieces[-1].stop - pieces[-1].start
    # the last piece takes the remainder: never a lone line unless count is 1
    assert (last == count) if len(pieces) == 1 else (size <= last < 2 * size)


def rows_per_block(k):
    return blocks(1 << 16, k, ROW_BLOCK_BYTES)[0].stop


def blocked_problem(kind, rng, k1):
    """Sparse counts over enough features that the widest row block, U_common's,
    falls into at least three whole blocks and a ragged last one."""
    M = 4 * rows_per_block(k1) + 37
    n_s, n_t, c = 12, (9, 7), 2

    def counts(n):
        X = rng.integers(1, 6, size=(M, n)) * (rng.random((M, n)) < 0.2)
        X = X.astype(np.float64)
        return sp.csc_array(X) if kind == "csc" else X

    return ProblemData(
        X_s=normalize_input(counts(n_s)), Y_s=one_hot(np.arange(n_s) % c + 1, c),
        targets=tuple(normalize_input(counts(n)) for n in n_t),
    )


@pytest.mark.parametrize("k1, k2", [(3, 8), (4, 4)], ids=["k1<k2", "k1=k2"])
@pytest.mark.parametrize("kind", ["dense", "csc"])
@pytest.mark.parametrize("name", sorted(U_STEPS))
def test_row_blocked_u_step_equals_the_one_piece_step(name, kind, k1, k2):
    rng = np.random.default_rng(31)
    data = blocked_problem(kind, rng, k1)
    hp = Hyperparams(k1=k1, k2=k2, lam=3.0)
    factors, shared = random_state(rng, data, hp)
    k = getattr(factors[0], name).shape[1]
    # the stack's row blocks span the block of every pair
    width = data.P * k
    if k:
        pieces = blocks(data.M, width, ROW_BLOCK_BYTES)
        assert len(pieces) >= 4
        assert pieces[-1].stop - pieces[-1].start > rows_per_block(width)
    stack = stepped(U_STEPS[name], data, factors, shared, hp)
    for p, f in enumerate(factors):
        products = _v_products(data, p, f.V)
        U = getattr(f, name)
        # the one-piece step: the kernel summed over all rows at once
        want = U * safe_ratio_sqrt(*_num_den(name, data, p, f, shared, hp.lam, products))
        got = stack[p]
        assert getattr(got, name).shape == (data.M, k)
        assert np.array_equal(getattr(got, name), want)
        # and the per-term reference, up to the rounding of the folding
        ref = U * safe_ratio_sqrt(*num_den_per_term(name, data, p, f, shared, hp.lam))
        assert np.allclose(want, ref, rtol=1e-12, atol=0.0)
        # the step takes no other block
        for other, a in vars(got).items():
            if other != name:
                assert np.array_equal(a, getattr(f, other))


def corpora_with_edge_entries():
    rng = np.random.default_rng(41)
    out = []
    for M, n in ((1, 1), (1, 9), (9, 1), (7, 5), (40, 30), (300, 17)):
        X = np.where(rng.random((M, n)) < 0.2, rng.random((M, n)), 0.0)
        X[rng.random((M, n)) < 0.1] = -0.0
        out.append(X)
        if M > 2 and n > 2:
            Y = X.copy()
            Y[1, :] = 0.0   # an empty row
            Y[:, 0] = -0.0  # an empty column of negative zeros
            Y[:, -1] = 0.0  # an empty last column
            out.append(Y)
    out.append(np.zeros((6, 4)))
    one = np.zeros((6, 4))
    one[5, 3] = 2.5
    out.append(one)
    return out


@pytest.mark.parametrize("X", corpora_with_edge_entries())
def test_compact_corpus_builds_what_scipy_builds(X):
    if np.count_nonzero(X) > 0.25 * X.size:
        X = np.where(np.arange(X.size).reshape(X.shape) % 5 == 0, X, 0.0)
    got, want = compact_corpus(X), sp.csc_array(X)
    assert type(got) is type(want) and got.format == "csc"
    assert got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
        assert not np.shares_memory(a, X)
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))
    assert got.has_canonical_format and want.has_canonical_format


def test_compact_corpus_keeps_a_dense_corpus_as_it_is():
    X = np.ones((4, 3))
    X[0, 0] = 0.0
    assert compact_corpus(X) is X


def carried_problem(rng, P=3, M=30):
    X_s = normalize_columns_l1(rng.random((M, 12)) + 0.05)
    targets = tuple(normalize_columns_l1(rng.random((M, n)) + 0.05)
                    for n in (8, 6, 9)[:P])
    data = ProblemData(X_s=X_s, Y_s=one_hot(np.arange(12) % 3 + 1, 3), targets=targets)
    v_init = [normalize_rows_l1(rng.random((X.shape[1], 3)) + 0.05) for X in targets]
    return data, v_init


def test_carried_v_products_give_the_sweep_that_builds_its_own():
    # a stack stepped in place by run_iteration, as fit steps its own, gives
    # the sweep that copies its pairs into a fresh stack and builds their
    # products from V, and carries the products of the new V
    rng = np.random.default_rng(43)
    data, v_init = carried_problem(rng)
    hp = Hyperparams(k1=2, k2=5, lam=2.0)
    stack, shared = init_factors(data, hp, v_init)
    ref_factors, ref_shared = list(stack), shared
    for _ in range(6):
        # the reference copies the views before the stack moves
        ref_factors, ref_shared = run_iteration(data, ref_factors, ref_shared, hp)
        factors, shared = run_iteration(data, stack, shared, hp)
        for f, ref in zip(factors, ref_factors):
            for name, a in vars(f).items():
                assert np.array_equal(a, getattr(ref, name)), name
        for name, a in vars(shared).items():
            assert np.array_equal(a, getattr(ref_shared, name)), name
        # the carried products are those of the new V
        for p, f in enumerate(stack):
            for a, b in zip((stack.XV[p], stack.G[p]), _v_products(data, p, f.V)):
                assert np.array_equal(a, b)
        assert objective(data, stack, shared, hp) == \
            objective(data, ref_factors, ref_shared, hp)


def test_fit_equals_the_sweep_without_carried_products():
    rng = np.random.default_rng(44)
    data, v_init = carried_problem(rng)
    hp = Hyperparams(k1=2, k2=5, lam=2.0, maxiter=6)
    got, got_shared, trace = fit(data, hp, v_init)
    factors, shared = init_factors(data, hp, v_init)
    for record in trace:
        factors, shared = run_iteration(data, factors, shared, hp)
        assert record.objective == objective(data, factors, shared, hp)
    for f, ref in zip(got, factors):
        for name, a in vars(f).items():
            assert np.array_equal(a, getattr(ref, name)), name


def sparse_exact_problem(rng, M, n_s, n_t, c=2, k1=2, ks=2, live=0.05):
    """A CSC problem that the factors reconstruct exactly: only a few feature
    rows carry mass, and each corpus is formed as B @ W.T from the products
    the engine forms."""
    alive = (rng.random(M) < live)[:, None]

    def clusters(k):
        return normalize_columns_l1((rng.random((M, k)) + 0.1) * alive)

    f = TargetFactors(
        U_common=clusters(k1), U_target=clusters(ks), U_source=clusters(ks),
        V=normalize_rows_l1(rng.random((n_t, c)) + 0.1),
        Theta_common=rng.random((k1, c)) + 0.1,
        Theta_target=rng.random((ks, c)) + 0.1,
        Theta_source=rng.random((ks, c)) + 0.1,
    )
    shared = SharedFactors(Theta_common=f.Theta_common.copy(),
                           Theta_specific=f.Theta_target.copy())
    Y_s = one_hot(np.arange(n_s) % c + 1, c)
    placeholder = ProblemData(X_s=np.zeros((M, n_s)), Y_s=Y_s,
                              targets=(np.zeros((M, n_t)),))
    X_t, X_s, _ = reconstructions(placeholder, 0, f, shared)
    data = ProblemData(X_s=sp.csc_array(X_s), Y_s=Y_s, targets=(sp.csc_array(X_t),))
    return data, [f], shared


def test_exact_fit_on_csc_never_forms_a_dense_corpus():
    # every objective term falls back to the residual; taken whole, the
    # source term alone would hold two M x n_s arrays
    M, n_s, n_t = 2000, 2400, 800
    data, factors, shared = sparse_exact_problem(np.random.default_rng(45), M, n_s, n_t)
    dense_bytes = 8 * M * n_s
    assert RESIDUAL_BLOCK_BYTES < dense_bytes / 16
    tracemalloc.start()
    try:
        value = objective(data, factors, shared, Hyperparams(k1=2, k2=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.0
    assert peak < dense_bytes / 4, f"peak {peak / dense_bytes:.2f} dense corpora"


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_blocked_residual_equals_the_whole_residual(kind):
    # a near-exact fit, so the factored form falls back to the residual
    rng = np.random.default_rng(46)
    M, n, c = 700, 1500, 3
    B = rng.random((M, c)) * (rng.random((M, 1)) < 0.1)
    W = rng.random((n, c))
    X = B @ W.T
    X[X > 0] *= 1.0 + 1e-3 * rng.random(np.count_nonzero(X))
    assert len(blocks(n, M, RESIDUAL_BLOCK_BYTES)) >= 3
    whole = frobenius_sq(X - B @ W.T)
    xx, cross = frobenius_sq(X), np.sum((X @ W) * B)
    gram = np.sum((B.T @ B) * (W.T @ W))
    assert xx - 2 * cross + gram < CANCELLATION_GUARD * (xx + 2 * cross + gram)
    Xk = sp.csc_array(X) if kind == "csc" else X
    got = residual_sq(Xk, xx, B, W, Xk @ W, W.T @ W)
    assert whole > 0 and abs(got - whole) <= 1e-12 * whole
