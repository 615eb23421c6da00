"""Full fitting loop: monotonicity, determinism, stopping, prediction."""

import copy
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import one_hot, random_problem, random_state
from hypothesis import example, given, strategies as st

import mrtl.engine
from mrtl.engine import (
    ROW_BLOCK_BYTES,
    Hyperparams,
    InvalidConfigError,
    NumericalDivergenceError,
    ProblemData,
    TargetFactors,
    fit,
    init_factors,
    objective,
    predict,
    run_iteration,
)
from mrtl.data import SynthSpec, generate_synthetic
from mrtl.linalg import SparseCorpus, blocks, normalize_rows_l1


def test_init_factors_deterministic():
    rng = np.random.default_rng(0)
    data, v_init = random_problem(rng)
    hp = Hyperparams(k1=2, k2=4, seed=7)
    f1, s1 = init_factors(data, hp, v_init)
    f2, s2 = init_factors(data, hp, v_init)
    for a, b in zip(f1, f2):
        assert np.array_equal(a.U_common, b.U_common)
        assert np.array_equal(a.U_target, b.U_target)
        assert np.array_equal(a.Theta_source, b.Theta_source)
        assert np.array_equal(a.V, b.V)
    assert np.array_equal(s1.Theta_common, s2.Theta_common)
    assert np.array_equal(s1.Theta_specific, s2.Theta_specific)


def test_init_factors_copies_to_independent_pairs():
    # a copy or pickle of the stack is a plain list of the pairs' factors,
    # whose arrays no sweep of the stack can reach
    rng = np.random.default_rng(0)
    data, v_init = random_problem(rng)
    hp = Hyperparams(k1=2, k2=4, seed=7)
    factors, shared = init_factors(data, hp, v_init)
    for copied in (copy.deepcopy(factors), pickle.loads(pickle.dumps(factors))):
        assert type(copied) is list and len(copied) == data.P
        run_iteration(data, factors, shared, hp)
        for f, g in zip(copied, init_factors(data, hp, v_init)[0]):
            for name, a in vars(f).items():
                assert np.array_equal(a, getattr(g, name)), name


def test_init_factors_column_sums_one():
    rng = np.random.default_rng(1)
    data, v_init = random_problem(rng, M=12)
    for seed in range(5):
        factors, _ = init_factors(data, Hyperparams(k1=3, k2=6, seed=seed), v_init)
        for f in factors:
            for U in (f.U_common, f.U_target, f.U_source):
                assert np.max(np.abs(U.sum(axis=0) - 1.0)) <= 1e-10


def test_init_factors_v_passthrough():
    data = ProblemData(
        X_s=np.full((3, 2), 0.5),
        Y_s=one_hot([1, 2], 2),
        targets=(np.full((3, 1), 0.5),),
    )
    v_init = [np.array([[0.3, 0.7]])]
    factors, _ = init_factors(data, Hyperparams(k1=1, k2=2), v_init)
    assert np.allclose(factors[0].V, [[0.3, 0.7]], rtol=0, atol=1e-15)


def test_init_factors_rejects_bad_v_init():
    rng = np.random.default_rng(2)
    data, v_init = random_problem(rng)
    hp = Hyperparams(k1=2, k2=4)
    with pytest.raises(InvalidConfigError):
        init_factors(data, hp, v_init[:1])
    bad_shape = [np.ones((99, data.c))] + v_init[1:]
    with pytest.raises(InvalidConfigError):
        init_factors(data, hp, bad_shape)
    negative = [-v for v in v_init]
    with pytest.raises(InvalidConfigError):
        init_factors(data, hp, negative)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fit_refuses_a_non_finite_v_init_entry(value):
    # a NaN used to be refused as negative, and an inf to end in a numpy
    # warning from the row normalization
    data, v_init = random_problem(np.random.default_rng(2))
    v_init[1][0, 1] = value
    with pytest.raises(InvalidConfigError,
                       match=re.escape("v_init[1] must be finite and nonnegative")):
        fit(data, Hyperparams(k1=2, k2=4), v_init)


def test_fit_takes_the_same_bits_from_fortran_ordered_inputs():
    # linalg's product layout: a tall product takes a C-contiguous right
    # factor. At this size X_t @ V against a Fortran-ordered V adds in
    # another order, so a v_init or Y_s held so must be copied to C order.
    rng = np.random.default_rng(0)
    X_s, X_t = rng.random((1000, 500)), rng.random((1000, 500))
    Y_s, v_init = one_hot(np.arange(500) % 2 + 1, 2), rng.random((500, 2))
    hp = Hyperparams(k1=2, k2=4, maxiter=2)
    runs = []
    for order in (np.ascontiguousarray, np.asfortranarray):
        factors, shared, trace = fit(ProblemData(X_s, order(Y_s), (X_t,)), hp,
                                     [order(v_init)])
        runs.append((factors[0].V.tobytes(), shared.Theta_common.tobytes(),
                     [record.objective for record in trace]))
    assert runs[0] == runs[1]


def test_fit_rejects_bad_hyperparams():
    rng = np.random.default_rng(3)
    data, v_init = random_problem(rng)
    with pytest.raises(InvalidConfigError):
        fit(data, Hyperparams(k1=5, k2=4), v_init)
    with pytest.raises(InvalidConfigError):
        fit(data, Hyperparams(k1=2, k2=4, lam=-1.0), v_init)
    with pytest.raises(InvalidConfigError):
        fit(data, Hyperparams(k1=2, k2=999), v_init)  # k2 > M


def test_fit_allows_k1_equal_k2():
    rng = np.random.default_rng(4)
    data, v_init = random_problem(rng)
    factors, shared, trace = fit(data, Hyperparams(k1=3, k2=3, maxiter=3), v_init)
    assert factors[0].U_target.shape == (data.M, 0)
    assert len(trace) == 3


def test_fit_maxiter_one_gives_one_record():
    rng = np.random.default_rng(5)
    data, v_init = random_problem(rng)
    _, _, trace = fit(data, Hyperparams(k1=2, k2=4, maxiter=1), v_init)
    assert len(trace) == 1
    assert trace[0].iteration == 1


def test_fit_monotone_on_random_instances():
    # twenty randomized desk-scale instances, default assignment rule
    rng = np.random.default_rng(6)
    for trial in range(20):
        data, v_init = random_problem(
            rng,
            M=int(rng.integers(10, 40)),
            n_s=int(rng.integers(8, 30)),
            n_t=tuple(int(n) for n in rng.integers(6, 25, size=rng.integers(1, 4))),
            c=int(rng.integers(2, 4)),
        )
        hp = Hyperparams(
            k1=int(rng.integers(1, 4)),
            k2=int(rng.integers(4, 9)),
            lam=float(rng.choice([0.0, 1.0, 10.0])),
            maxiter=25,
            seed=trial,
        )
        _, _, trace = fit(data, hp, v_init)
        obj = np.array([r.objective for r in trace])
        assert np.all(obj[1:] <= obj[:-1] * (1 + 1e-9)), f"trial {trial}"


def test_fit_deterministic_trace():
    rng = np.random.default_rng(7)
    data, v_init = random_problem(rng, M=15)
    hp = Hyperparams(k1=2, k2=5, maxiter=10, seed=3)
    _, _, t1 = fit(data, hp, v_init)
    _, _, t2 = fit(data, hp, v_init)
    assert [r.objective for r in t1] == [r.objective for r in t2]


def test_fit_convergence_tol_stops_early():
    rng = np.random.default_rng(8)
    data, v_init = random_problem(rng, M=15)
    hp = Hyperparams(k1=2, k2=5, maxiter=200, convergence_tol=1e-3)
    _, _, trace = fit(data, hp, v_init)
    assert len(trace) < 200
    last, prev = trace[-1].objective, trace[-2].objective
    assert abs(prev - last) / abs(prev) < 1e-3


def listener():
    """(calls, on_iteration): each call appends its record and the labels
    that predict gives on the factors it was passed, at the time of the call."""
    calls = []
    return calls, lambda record, factors: calls.append(
        (record, [predict(f) for f in factors]))


@pytest.mark.parametrize("maxiter, tol", [(6, 0.0), (200, 1e-3)])
def test_fit_calls_the_listener_once_per_recorded_iteration(maxiter, tol):
    rng = np.random.default_rng(8)
    data, v_init = random_problem(rng, M=15)
    calls, on_iteration = listener()
    factors, _, trace = fit(
        data, Hyperparams(k1=2, k2=5, maxiter=maxiter, convergence_tol=tol),
        v_init, on_iteration)
    assert (len(trace) == 6) if tol == 0 else (2 <= len(trace) < 200)
    # in order, with the very record appended to the trace, the early stop's
    # last record included
    assert len(calls) == len(trace)
    assert all(record is r for (record, _), r in zip(calls, trace))
    assert [r.iteration for r in trace] == list(range(1, len(trace) + 1))
    last_labels = calls[-1][1]
    assert len(last_labels) == data.P
    for labels, f in zip(last_labels, factors):
        assert np.array_equal(labels, predict(f))


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_fit_with_a_listener_equals_the_fit_without_one(kind):
    data, v_init = random_problem(np.random.default_rng(9), M=12, n_t=(5, 4, 6))
    if kind == "csc":
        data = replace(data, X_s=sp.csc_array(data.X_s),
                       targets=tuple(sp.csc_array(X) for X in data.targets))
    hp = Hyperparams(k1=2, k2=5, maxiter=5, seed=4)
    unheard = fit(data, hp, v_init)
    calls, on_iteration = listener()
    heard = fit(data, hp, v_init, on_iteration)
    assert len(calls) == 5
    for f, g in zip(unheard[0], heard[0], strict=True):
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(vars(f).values(), vars(g).values(), strict=True))
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(vars(unheard[1]).values(), vars(heard[1]).values()))
    assert unheard[2] == heard[2]


def test_problem_data_rejects_corpora_with_no_instances():
    # unchecked, an empty source fits with no labels at all to a
    # normal-looking trace, and an empty target's trace accuracy is the
    # mean of an empty slice
    data, _ = random_problem(np.random.default_rng(0), M=6, n_t=(4,))
    empty = np.zeros((6, 0))
    cases = [
        (dict(targets=(empty,)), "target 1 has no instances"),
        (dict(targets=(data.targets[0], empty)), "target 2 has no instances"),
        (dict(X_s=empty, Y_s=np.zeros((0, 2))), "X_s has no instances"),
    ]
    for changes, message in cases:
        with pytest.raises(InvalidConfigError, match=message):
            replace(data, **changes)


def diverging_problem():
    """(data, hp, v_init): a finite problem whose shared term, weighted by
    lam = 1e308, overflows in the first iteration, as `mrtl train --lambda
    1e308` does."""
    data, _ = generate_synthetic(SynthSpec(M=20, c=2, P=2, n_s=20, n_t=12, k1=2,
                                           k2=4, noise=0.5, domain_shift=0.3))
    v_init = [np.full((X_t.shape[1], 2), 0.5) for X_t in data.targets]
    return data, Hyperparams(k1=2, k2=4, lam=1e308, maxiter=5), v_init


def test_fit_raises_on_divergence_with_iteration():
    data, hp, v_init = diverging_problem()
    with pytest.raises(NumericalDivergenceError) as err:
        fit(data, hp, v_init)
    assert err.value.iteration == 1
    assert "iteration 1" in str(err.value)


def test_diverging_fit_never_calls_the_listener():
    data, hp, v_init = diverging_problem()
    calls, on_iteration = listener()
    with pytest.raises(NumericalDivergenceError):
        fit(data, hp, v_init, on_iteration)
    assert calls == []


def test_fit_holds_one_copy_of_each_pair():
    # one pair-factor set is the U blocks of one pair; the sweep frees each
    # pair's old factors as it takes them, where it used to hold both the
    # old and the new list (2P + 1.5 sets at this size)
    P, M, k1, k2 = 4, 2000, 10, 50
    data, v_init = random_problem(np.random.default_rng(13), M=M, n_s=40,
                                  n_t=(30,) * P)
    unit = M * (k1 + 2 * (k2 - k1)) * 8
    tracemalloc.start()
    try:
        fit(data, Hyperparams(k1=k1, k2=k2, maxiter=2), v_init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (P + 3) * unit, f"peak {peak / unit:.2f} pair-factor sets"


def corpus_bytes(X):
    parts = (X.data, X.indices, X.indptr) if isinstance(X, SparseCorpus) else (X,)
    return b"".join(a.tobytes() for a in parts)


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_fit_steps_only_its_own_stack(kind):
    # the sweeps write into fit's own stack alone: a first fit, and a second
    # on the same data and v_init as mrtl sweep makes them, leave v_init,
    # every corpus and the first fit's factors as they were
    data, v_init = random_problem(np.random.default_rng(18), M=12, n_t=(5, 4, 6))
    if kind == "csc":
        data = replace(data, X_s=sp.csc_array(data.X_s),
                       targets=tuple(sp.csc_array(X) for X in data.targets))
    corpora = [corpus_bytes(X) for X in (data.X_s, data.Y_s, *data.targets)]
    v_before = [v.copy() for v in v_init]
    first, _, _ = fit(data, Hyperparams(k1=2, k2=5, maxiter=3), v_init)
    first_before = [[a.copy() for a in vars(f).values()] for f in first]
    for v, was in zip(v_init, v_before):
        assert v.tobytes() == was.tobytes()
    fit(data, Hyperparams(k1=3, k2=5, maxiter=3), v_init)
    for v, was in zip(v_init, v_before):
        assert v.tobytes() == was.tobytes()
    assert [corpus_bytes(X) for X in (data.X_s, data.Y_s, *data.targets)] == corpora
    for f, arrays in zip(first, first_before):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(vars(f).values(), arrays))


def test_run_iteration_takes_any_iterable_and_leaves_it_unchanged():
    rng = np.random.default_rng(14)
    data, v_init = random_problem(rng, M=12, n_t=(5, 4, 6))
    hp = Hyperparams(k1=2, k2=5, lam=1.0)
    factors, shared = init_factors(data, hp, v_init)
    stack, shared = run_iteration(data, factors, shared, hp)
    factors = list(stack)
    given = list(factors)
    copies = [[a.copy() for a in vars(f).values()] for f in factors]

    from_list = run_iteration(data, factors, shared, hp)
    from_generator = run_iteration(data, (f for f in factors), shared, hp)

    assert len(factors) == len(given) and all(a is b for a, b in zip(factors, given))
    for f, arrays in zip(factors, copies):
        assert all(np.array_equal(a, b) for a, b in zip(vars(f).values(), arrays))
    for f1, f2 in zip(from_list[0], from_generator[0]):
        assert all(np.array_equal(a, b)
                   for a, b in zip(vars(f1).values(), vars(f2).values()))
    assert np.array_equal(from_list[1].Theta_common, from_generator[1].Theta_common)
    assert np.array_equal(from_list[1].Theta_specific,
                          from_generator[1].Theta_specific)


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_run_iteration_returns_the_stack_it_stepped(kind):
    # factors, shared = run_iteration(...) steps init's stack in place: the
    # very stack, with the very arrays, comes back, and the chained sweeps
    # with their objectives are fit's, bit for bit
    data, v_init = random_problem(np.random.default_rng(18), M=12, n_t=(5, 4, 6))
    if kind == "csc":
        data = replace(data, X_s=sp.csc_array(data.X_s),
                       targets=tuple(sp.csc_array(X) for X in data.targets))
    hp = Hyperparams(k1=2, k2=5, lam=1.0, maxiter=5)
    want, want_shared, trace = fit(data, hp, v_init)
    stack, shared = init_factors(data, hp, v_init)
    arrays, V, pairs = dict(vars(stack)), list(stack.V), list(stack)
    factors = stack
    for record in trace:
        factors, shared = run_iteration(data, factors, shared, hp)
        assert factors is stack
        assert all(a is arrays[name] for name, a in vars(stack).items())
        assert all(a is b for a, b in zip(stack.V, V))
        assert all(f is g for f, g in zip(stack, pairs))
        assert objective(data, factors, shared, hp) == record.objective
    assert len(trace) == hp.maxiter
    for f, g in zip(factors, want):
        for name, a in vars(f).items():
            assert np.array_equal(a, getattr(g, name)), name
    for name, a in vars(shared).items():
        assert np.array_equal(a, getattr(want_shared, name)), name


@pytest.mark.parametrize("entry", [objective, run_iteration],
                         ids=["objective", "run_iteration"])
def test_blocks_of_the_wrong_shape_are_named(entry):
    # every block must agree with data, with pair 1 and with shared, also
    # when a stack comes with shared; each fault used to end in a numpy
    # broadcast or matmul error
    rng = np.random.default_rng(19)
    data, v_init = random_problem(rng, M=10, n_t=(5, 4))
    hp = Hyperparams(k1=2, k2=5)
    factors, shared = random_state(rng, data, hp)
    stack, _ = init_factors(data, hp, v_init)
    f1, f2 = factors
    cases = [
        ([f1, replace(f2, U_common=f2.U_common[:-1])], shared,
         "pair 2's U_common has shape (9, 2), expected (10, 2)"),
        ([replace(f1, V=f1.V[:-1]), f2], shared,
         "pair 1's V has shape (4, 2), expected (5, 2)"),
        ([f1, replace(f2, V=np.ones((5, 2)))], shared,
         "pair 2's V has shape (5, 2), expected (4, 2)"),
        ([f1, replace(f2, U_target=f2.U_target[:, :2])], shared,
         "pair 2's U_target has shape (10, 2), expected (10, 3)"),
        ([f1, replace(f2, Theta_source=np.ones((3, 3)))], shared,
         "pair 2's Theta_source has shape (3, 3), expected (3, 2)"),
        ([replace(f1, U_common=f1.U_common[:, 0]), f2], shared,
         "pair 1's U_common has shape (10,), expected (10, 'k1')"),
        (factors, replace(shared, Theta_specific=shared.Theta_specific[:2]),
         "shared Theta_specific has shape (2, 2), expected (3, 2)"),
        (factors, replace(shared, Theta_common=np.ones((3, 2))),
         "shared Theta_common has shape (3, 2), expected (2, 2)"),
        (stack, replace(shared, Theta_specific=np.ones((3, 3))),
         "shared Theta_specific has shape (3, 3), expected (3, 2)"),
    ]
    for given, given_shared, message in cases:
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            entry(data, given, given_shared, hp)


def result_bytes(out):
    """objective's value, or the bytes of run_iteration's pairs and shared."""
    if isinstance(out, float):
        return out
    stack, shared = out
    return [a.tobytes() for f in stack for a in vars(f).values()] + [
        a.tobytes() for a in vars(shared).values()]


@pytest.mark.parametrize("entry", [objective, run_iteration],
                         ids=["objective", "run_iteration"])
@pytest.mark.parametrize("n_t, message", [
    ((5, 4, 6), "factors holds 2 pairs for 3 targets"),
    ((7, 4), "pair 1's V has shape (5, 2), expected (7, 2)"),
    ((5, 4), None),
], ids=["pair-count", "n_p", "other-corpora"])
def test_stack_built_for_other_data_is_checked_and_copied(entry, n_t, message):
    # a stack is taken as it is only with the ProblemData it was built for;
    # with any other it is checked and copied like the list of its pairs, so
    # no target is left out and X_t V is built from the corpora given
    rng = np.random.default_rng(20)
    data, v_init = random_problem(rng, M=10, n_t=(5, 4))
    hp = Hyperparams(k1=2, k2=5, lam=1.0)
    stack, shared = init_factors(data, hp, v_init)
    other, _ = random_problem(rng, M=10, n_t=n_t)
    if message is not None:
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            entry(other, stack, shared, hp)
        return
    before = [a.copy() for f in stack for a in vars(f).values()]
    want = result_bytes(entry(other, list(stack), shared, hp))
    assert result_bytes(entry(other, stack, shared, hp)) == want
    assert all(np.array_equal(a, b)
               for a, b in zip((a for f in stack for a in vars(f).values()), before))


@pytest.mark.parametrize("P, M", [(4, 2000), (3, 4000)])
def test_fit_peak_is_the_pairs_and_one_step(P, M):
    # one pair-factor set is the U blocks of one pair; beyond the P live
    # pairs a step holds its numerator, denominator and step factor (1.33
    # sets for U_target here); a second copy of the pair in work, or a new
    # block built beside the step, reads P + 2.7
    k1, k2 = 10, 50
    data, v_init = random_problem(np.random.default_rng(13), M=M, n_s=40,
                                  n_t=(30,) * P)
    unit = M * (k1 + 2 * (k2 - k1)) * 8
    tracemalloc.start()
    try:
        fit(data, Hyperparams(k1=k1, k2=k2, maxiter=2), v_init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (P + 1.5) * unit, f"peak {peak / unit:.2f} pair-factor sets"


PAIR_STEPS = ("update_u_target", "update_u_source", "update_u_common",
              "update_pair_associations", "update_v", "normalize_all")


def test_sweep_calls_each_step_through_its_module_name(monkeypatch):
    # a wrapper installed on mrtl.engine, as a tracer installs one, sees
    # each pair step once per sweep, taking every pair at once, and then
    # the shared step
    calls = []

    def counted(name):
        step = getattr(mrtl.engine, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return step(*args, **kwargs)
        return wrapper

    for name in (*PAIR_STEPS, "update_shared_associations"):
        monkeypatch.setattr(mrtl.engine, name, counted(name))
    data, v_init = random_problem(np.random.default_rng(12), M=10, n_t=(5, 4, 6))
    fit(data, Hyperparams(k1=2, k2=4, maxiter=3), v_init)
    sweep = [*PAIR_STEPS, "update_shared_associations"]
    assert calls == sweep * 3


@pytest.mark.parametrize("given", [2, 4], ids=["P-1", "P+1"])
def test_run_iteration_needs_exactly_p_pairs(given):
    rng = np.random.default_rng(15)
    data, v_init = random_problem(rng, M=10, n_t=(5, 4, 6))
    hp = Hyperparams(k1=2, k2=4)
    factors, shared = init_factors(data, hp, v_init)
    factors = (factors * 2)[:given]
    with pytest.raises(InvalidConfigError, match="factors holds"):
        run_iteration(data, iter(factors), shared, hp)


def test_pair_sweep_does_not_depend_on_pair_order():
    # pairs read only their own target and factors and the shared snapshot,
    # so permuting the targets permutes the new pair factors bitwise; the
    # shared step sums over pairs, so its rounding may follow the order
    rng = np.random.default_rng(16)
    for _ in range(30):
        P = int(rng.integers(2, 5))
        data, _ = random_problem(rng, M=int(rng.integers(5, 10)),
                                 n_t=tuple(int(n) for n in rng.integers(2, 7, P)),
                                 c=int(rng.integers(2, 4)))
        hp = Hyperparams(k1=int(rng.integers(1, 3)), k2=4,
                         lam=float(rng.choice([0.5, 1.0, 10.0])))
        factors, shared = random_state(rng, data, hp)
        order = rng.permutation(P)
        permuted = ProblemData(X_s=data.X_s, Y_s=data.Y_s,
                               targets=tuple(data.targets[q] for q in order))
        want, want_shared = run_iteration(data, factors, shared, hp)
        got, got_shared = run_iteration(permuted, [factors[q] for q in order],
                                        shared, hp)
        for f, q in zip(got, order):
            for name, a in vars(f).items():
                assert np.array_equal(a, getattr(want[q], name)), name
        for name, a in vars(got_shared).items():
            b = getattr(want_shared, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def test_stacked_sweep_gives_each_pair_its_solo_sweep():
    # one sweep over the stack of P pairs gives each pair, bit for bit, the
    # factors of a sweep over that pair alone from the same shared snapshot;
    # byte-identical outputs rest on it. The widest case spans several row
    # blocks of the stack, and fewer of each pair alone
    rng = np.random.default_rng(17)
    cases = [(int(rng.integers(5, 40)), int(rng.integers(1, 5))) for _ in range(24)]
    for trial, (M, P) in enumerate([*cases, (3000, 4)]):
        wide = M == 3000
        c = int(rng.integers(2, 4))
        data, _ = random_problem(rng, M=M, c=c,
                                 n_t=tuple(int(n) for n in rng.integers(2, 12, P)))
        if trial % 2:
            data = replace(data, X_s=sp.csc_array(data.X_s),
                           targets=tuple(sp.csc_array(X) for X in data.targets))
        k2 = 12 if wide else int(rng.integers(1, min(M, 12) + 1))
        k1 = k2 if trial % 3 == 0 else int(rng.integers(1, k2 + 1))
        hp = Hyperparams(k1=k1, k2=k2, lam=float(rng.choice([0.0, 0.5, 10.0])))
        if wide:
            stacked, solo = (len(blocks(M, w, ROW_BLOCK_BYTES)) for w in (P * k2, k2))
            assert stacked > solo > 1
        factors, shared = random_state(rng, data, hp)
        got, got_shared = run_iteration(data, factors, shared, hp)
        for p, f in enumerate(factors):
            solo = replace(data, targets=(data.targets[p],))
            (want,), _ = run_iteration(solo, [f], shared, hp)
            for name, a in vars(got[p]).items():
                assert np.array_equal(a, getattr(want, name)), (trial, p, name)


def test_lambda_zero_decouples_pairs():
    # with no shared pull, each pair evolves as if fitted alone
    rng = np.random.default_rng(11)
    data, v_init = random_problem(rng, M=10, n_t=(6, 5))
    hp = Hyperparams(k1=2, k2=4, lam=0.0, maxiter=8, seed=2)
    both, _, _ = fit(data, hp, v_init)
    solo_data = ProblemData(X_s=data.X_s, Y_s=data.Y_s, targets=(data.targets[0],))
    solo, _, _ = fit(solo_data, hp, [v_init[0]])
    assert np.array_equal(both[0].V, solo[0].V)
    assert np.array_equal(both[0].U_target, solo[0].U_target)


def test_predict_rules():
    def with_v(V):
        V = np.asarray(V, dtype=float)
        k = np.zeros((2, 1))
        return TargetFactors(
            U_common=k, U_target=k, U_source=k, V=V,
            Theta_common=np.zeros((1, V.shape[1])),
            Theta_target=np.zeros((1, V.shape[1])),
            Theta_source=np.zeros((1, V.shape[1])),
        )

    assert np.array_equal(predict(with_v([[0.1, 0.9]])), [2])
    assert np.array_equal(predict(with_v([[0.5, 0.5]])), [1])
    assert np.array_equal(predict(with_v(np.eye(3))), [1, 2, 3])


def test_instance_permutation_equivariance():
    spec = SynthSpec(M=30, c=2, P=1, n_s=20, n_t=12, k1=2, k2=4,
                     noise=0.0, domain_shift=0.0, seed=5)
    data, truth = generate_synthetic(spec)
    rng = np.random.default_rng(12)
    v_init = [normalize_rows_l1(rng.random((12, 2)) + 0.1)]
    hp = Hyperparams(k1=2, k2=4, maxiter=4, seed=1)
    factors, _, _ = fit(data, hp, v_init)
    base = predict(factors[0])

    perm = rng.permutation(12)
    permuted = ProblemData(
        X_s=data.X_s, Y_s=data.Y_s, targets=(data.targets[0][:, perm],)
    )
    factors_p, _, _ = fit(permuted, hp, [v_init[0][perm]], )
    assert np.array_equal(predict(factors_p[0]), base[perm])


@st.composite
def small_problems(draw):
    """(data, v_init, hp): M 4-11, c 2-3, P 1-3, 1 <= k1 <= k2 <= M."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, c, P = draw(st.integers(4, 11)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n_t = tuple(draw(st.integers(2, 8)) for _ in range(P))
    data, v_init = random_problem(rng, M=M, n_s=draw(st.integers(c, 8)), n_t=n_t, c=c)
    k2 = draw(st.integers(1, M))
    hp = Hyperparams(k1=draw(st.integers(1, k2)), k2=k2,
                     lam=draw(st.sampled_from([0.0, 0.5, 1.0, 10.0])),
                     seed=draw(st.integers(0, 2**16)))
    return data, v_init, hp


def iterate(problem, steps=30):
    """The objective at the start and after each of steps iterations, with
    the factors after each."""
    data, v_init, hp = problem
    factors, shared = init_factors(data, hp, v_init)
    yield objective(data, factors, shared, hp), factors, shared
    for _ in range(steps):
        factors, shared = run_iteration(data, factors, shared, hp)
        yield objective(data, factors, shared, hp), factors, shared


@given(small_problems())
def test_update_invariants_property(problem):
    for _, factors, shared in iterate(problem):
        for a in (*(a for f in factors for a in vars(f).values()),
                  *vars(shared).values()):
            assert np.all(np.isfinite(a)) and np.all(a >= 0)
        for f in factors:
            for U in (f.U_common, f.U_target, f.U_source):
                assert np.max(np.abs(U.sum(axis=0) - 1.0), initial=0.0) <= 1e-12
            assert np.max(np.abs(f.V.sum(axis=1) - 1.0)) <= 1e-12


def single_cluster_problem():
    """A problem whose objective rises by 1e-4 relative within 30 iterations."""
    data, v_init = random_problem(np.random.default_rng(14), M=4, n_s=5,
                                  n_t=(4,), c=3)
    return data, v_init, Hyperparams(k1=1, k2=1, lam=1.0)


# Known defect: the row L1 normalization that follows the V step can raise
# the objective by more than the step lowered it. 300 uniform draws from this
# range show no rise, but 4 of 200 draws at k1 = k2 = 1 rise by up to 1.4%
# relative, and a search restricted to k2 >= 2 finds a rise of 6e-4 at
# k1 = 1, k2 = 2, lam = 0 with a source whose instances share one class.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="V row normalization is not a descent step")
@given(small_problems())
@example(single_cluster_problem())
def test_objective_never_rises_property(problem):
    objectives = [obj for obj, _, _ in iterate(problem)]
    for prev, obj in zip(objectives, objectives[1:]):
        assert obj - prev <= 1e-9 * prev
