"""Passes taken in blocks against the one-piece computations they replace.

The U steps run over row blocks of the pair stack, compact_corpus builds its
CSC array from one mask, a stack carries each pair's X_t V and V^T V from
sweep to sweep and its association products U Theta from step to step, and
the objective's residual fallback runs over column blocks. Each must give what
the one-piece form gives, to the bit where the one-piece form is the kernel.
"""

import copy
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    num_den,
    num_den_per_term,
    one_hot,
    random_state,
    reconstructions,
    stepped,
)

from mrtl.data import compact_corpus, normalize_input
from mrtl.engine import (
    PRODUCTS,
    ROW_BLOCK_BYTES,
    STACKED,
    TIED,
    Hyperparams,
    ProblemData,
    SharedFactors,
    TargetFactors,
    _Stack,
    fit,
    init_factors,
    normalize_all,
    objective,
    run_iteration,
    update_pair_associations,
    update_shared_associations,
    update_u_common,
    update_u_source,
    update_u_target,
    update_v,
)
from mrtl.linalg import (
    BLOCK_ALIGN,
    CANCELLATION_GUARD,
    RESIDUAL_BLOCK_BYTES,
    SparseCorpus,
    blocks,
    cross_and_gram,
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
        U = getattr(f, name)
        # the one-piece step: the kernel summed over all rows at once
        want = U * safe_ratio_sqrt(*num_den(name, data, p, f, shared, hp.lam))
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
    assert isinstance(got, SparseCorpus)
    assert got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == (b.dtype if field == "data" else np.intp), field
        assert np.array_equal(a, b), field
        assert not np.shares_memory(a, X)
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))
    # got holds want's arrays, so it is canonical as want is
    assert want.has_canonical_format


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
        # the reference copies its pairs into a fresh stack at every sweep,
        # the first time before the stack moves
        ref_factors, ref_shared = run_iteration(data, list(ref_factors), ref_shared, hp)
        factors, shared = run_iteration(data, stack, shared, hp)
        for f, ref in zip(factors, ref_factors):
            for name, a in vars(f).items():
                assert np.array_equal(a, getattr(ref, name)), name
        for name, a in vars(shared).items():
            assert np.array_equal(a, getattr(ref_shared, name)), name
        # the carried products are those of the new V
        for X_t, V, XV, G in zip(data.targets, stack.V, stack.XV, stack.G):
            assert np.array_equal(XV, X_t @ V)
            assert np.array_equal(G, V.T @ V)
        assert objective(data, stack, shared, hp) == \
            objective(data, list(ref_factors), ref_shared, hp)


def assert_products_are_current(stack):
    # every pair's product of the blocks the stack holds; a product of two
    # tied blocks is the same for every pair
    for name, (U, theta) in PRODUCTS.items():
        product = getattr(stack, name)
        assert product.shape == (len(stack), stack.data.M, stack.data.c), name
        assert np.array_equal(product, np.broadcast_to(
            getattr(stack, U) @ getattr(stack, theta), product.shape)), name


def test_init_factors_returns_a_stack_whose_products_are_current():
    # the shared products included, formed from the shared blocks it returns
    rng = np.random.default_rng(48)
    data, v_init = carried_problem(rng)
    stack, shared = init_factors(data, Hyperparams(k1=2, k2=5, lam=2.0), v_init)
    assert stack.shared is shared
    assert_products_are_current(stack)


def normalize(stack, hp):
    # normalize_all in the signature of the other public steps
    normalize_all(stack)


# the public steps of a sweep, in run_iteration's order
SWEEP = (update_u_target, update_u_source, update_u_common,
         update_pair_associations, update_v, normalize, update_shared_associations)


def test_carried_association_products_give_the_steps_that_form_their_own():
    # every step of a sweep on a stack that carries its products, as fit
    # steps its own, gives to the bit what the step gives on a fresh stack
    # of the same pairs and shared blocks, which forms each product from
    # the blocks as they are; after each step the carried products are the
    # current ones, X_t V and V^T V too but after update_v, which leaves
    # them to normalize_all
    rng = np.random.default_rng(47)
    data, v_init = carried_problem(rng)
    hp = Hyperparams(k1=2, k2=5, lam=2.0)
    stack, _ = init_factors(data, hp, v_init)
    for _ in range(3):
        for step in SWEEP:
            fresh = _Stack.of(data, stack, stack.shared)
            step(fresh, hp)
            step(stack, hp)
            for f, ref in zip(stack, fresh):
                for name, a in vars(f).items():
                    assert np.array_equal(a, getattr(ref, name)), (step, name)
            for name, a in vars(stack.shared).items():
                assert np.array_equal(a, getattr(fresh.shared, name)), (step, name)
            assert_products_are_current(stack)
            if step is not update_v:
                for X_t, V, XV, G in zip(data.targets, stack.V, stack.XV, stack.G):
                    assert np.array_equal(XV, X_t @ V), (step, "XV")
                    assert np.array_equal(G, V.T @ V), (step, "G")


def test_the_public_steps_by_hand_are_run_iteration():
    # the seven public steps, called one after another on one stack, give
    # run_iteration's sweep to the bit: no step leaves a carried product
    # for run_iteration to renew
    rng = np.random.default_rng(47)
    data, v_init = carried_problem(rng)
    hp = Hyperparams(k1=2, k2=5, lam=2.0)
    stack, _ = init_factors(data, hp, v_init)
    ref, ref_shared = init_factors(data, hp, v_init)
    for _ in range(3):
        for step in SWEEP:
            step(stack, hp)
        ref, ref_shared = run_iteration(data, ref, ref_shared, hp)
        for f, want in zip(stack, ref):
            for name, a in vars(f).items():
                assert np.array_equal(a, getattr(want, name)), name
        for name, a in vars(stack.shared).items():
            assert np.array_equal(a, getattr(ref_shared, name)), name


def test_fit_equals_the_sweep_without_carried_products():
    rng = np.random.default_rng(44)
    data, v_init = carried_problem(rng)
    hp = Hyperparams(k1=2, k2=5, lam=2.0, maxiter=6)
    got, got_shared, trace = fit(data, hp, v_init)
    factors, shared = init_factors(data, hp, v_init)
    for record in trace:
        # a list is copied into a fresh stack, whose products are built from V
        factors, shared = run_iteration(data, list(factors), shared, hp)
        assert record.objective == objective(data, list(factors), shared, hp)
    for f, ref in zip(got, factors):
        for name, a in vars(f).items():
            assert np.array_equal(a, getattr(ref, name)), name
    for name, a in vars(got_shared).items():
        assert np.array_equal(a, getattr(shared, name)), name


def test_a_block_of_one_row_is_tied_across_the_pairs():
    # a (1, M, k2 - k1) U_target is one block for every pair by its shape
    # alone: its step is the step on the numerators and denominators of all
    # pairs summed, and sweeps keep it one block that every pair's view shows
    rng = np.random.default_rng(49)
    data, v_init = carried_problem(rng)
    hp = Hyperparams(k1=2, k2=5, lam=2.0)
    stack, _ = init_factors(data, hp, v_init)
    stacked = {name: getattr(stack, name).copy() for name in (*STACKED, *TIED)}
    stacked["U_target"] = stacked["U_target"][:1].copy()
    tied = _Stack(data, stacked, [V.copy() for V in stack.V])
    pairs, shared = copy.deepcopy(tied), copy.deepcopy(tied.shared)
    num, den = (sum(terms) for terms in zip(*(
        num_den_per_term("U_target", data, p, f, shared, hp.lam)
        for p, f in enumerate(pairs))))
    update_u_target(tied, hp)
    assert tied.U_target.shape == (1, data.M, 3)
    want = pairs[0].U_target * safe_ratio_sqrt(num, den)
    assert np.allclose(tied.U_target[0], want, rtol=1e-12, atol=0.0)
    assert_products_are_current(tied)
    factors = tied
    for _ in range(30):
        factors, _ = run_iteration(data, factors, factors.shared, hp)
        assert factors is tied and tied.U_target.shape == (1, data.M, 3)
        for f in tied:
            assert np.array_equal(f.U_target, tied.U_target[0])
            assert np.shares_memory(f.U_target, tied.U_target)
    assert_products_are_current(tied)
    assert np.isfinite(objective(data, tied, tied.shared, hp))


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
    got = residual_sq(Xk, xx, B, W, *cross_and_gram(B, Xk @ W, W.T @ W))
    assert whole > 0 and abs(got - whole) <= 1e-12 * whole
