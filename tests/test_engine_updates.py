"""Single update rules against fixed points, hand values, and formula oracles."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    exact_problem,
    num_den,
    objective_grad_u_target,
    random_problem,
    random_state,
    reconstructions,
    stepped,
    tiny_hp,
)

from mrtl.engine import (
    Hyperparams,
    ProblemData,
    SharedFactors,
    TargetFactors,
    _Stack,
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
from mrtl.linalg import EPSILON, frobenius_sq


def scalar_problem(x_t, x_s):
    """1-feature, 1-instance problem; class 2 exists only to satisfy c >= 2."""
    return ProblemData(
        X_s=np.array([[float(x_s)]]),
        Y_s=np.array([[1.0, 0.0]]),
        targets=(np.array([[float(x_t)]]),),
    )


def scalar_factors(theta_common, theta_target, theta_source, v=(1.0, 0.0)):
    """All blocks 1x(...) with live class-1 entries and dead class-2 entries."""
    return TargetFactors(
        U_common=np.array([[1.0]]),
        U_target=np.array([[1.0]]),
        U_source=np.array([[1.0]]),
        V=np.array([list(v)]),
        Theta_common=np.array([[float(theta_common), 0.0]]),
        Theta_target=np.array([[float(theta_target), 0.0]]),
        Theta_source=np.array([[float(theta_source), 0.0]]),
    )


def factor_arrays(f):
    return (f.U_common, f.U_target, f.U_source, f.V,
            f.Theta_common, f.Theta_target, f.Theta_source)


def max_change(a, b):
    return max(np.max(np.abs(x - y)) for x, y in zip(factor_arrays(a), factor_arrays(b)))


# reconstructions


def test_reconstructions_zero_associations():
    rng = np.random.default_rng(0)
    data, v_init = random_problem(rng)
    hp = tiny_hp()
    factors, shared = random_state(rng, data, hp)
    f = factors[0]
    zero = TargetFactors(
        U_common=f.U_common, U_target=f.U_target, U_source=f.U_source, V=f.V,
        Theta_common=np.zeros_like(f.Theta_common),
        Theta_target=np.zeros_like(f.Theta_target),
        Theta_source=np.zeros_like(f.Theta_source),
    )
    zero_shared = SharedFactors(
        Theta_common=np.zeros_like(shared.Theta_common),
        Theta_specific=np.zeros_like(shared.Theta_specific),
    )
    rec_t, rec_s, rec_sh = reconstructions(data, 0, zero, zero_shared)
    assert not rec_t.any() and not rec_s.any() and not rec_sh.any()


def test_reconstructions_scalar_hand():
    data = scalar_problem(x_t=1.0, x_s=1.0)
    f = scalar_factors(theta_common=2.0, theta_target=3.0, theta_source=1.0)
    shared = SharedFactors(Theta_common=f.Theta_common, Theta_specific=f.Theta_target)
    rec_t, _, _ = reconstructions(data, 0, f, shared)
    assert rec_t[0, 0] == 5.0


def test_reconstructions_block_matrix_oracle():
    rng = np.random.default_rng(1)
    data, v_init = random_problem(rng, M=6, n_s=5, n_t=(4,), c=3)
    hp = tiny_hp()
    factors, shared = random_state(rng, data, hp)
    f = factors[0]
    rec_t, rec_s, rec_sh = reconstructions(data, 0, f, shared)
    U_pair_t = np.hstack([f.U_common, f.U_target])
    U_pair_s = np.hstack([f.U_common, f.U_source])
    want_t = U_pair_t @ np.vstack([f.Theta_common, f.Theta_target]) @ f.V.T
    want_s = U_pair_s @ np.vstack([f.Theta_common, f.Theta_source]) @ data.Y_s.T
    want_sh = U_pair_t @ np.vstack([shared.Theta_common, shared.Theta_specific]) @ f.V.T
    assert np.max(np.abs(rec_t - want_t)) <= 1e-12
    assert np.max(np.abs(rec_s - want_s)) <= 1e-12
    assert np.max(np.abs(rec_sh - want_sh)) <= 1e-12


# objective


def test_objective_exact_reconstruction_is_zero():
    rng = np.random.default_rng(2)
    data, factors, shared = exact_problem(rng)
    assert objective(data, factors, shared, tiny_hp()) == 0.0


def test_objective_zero_associations():
    rng = np.random.default_rng(3)
    data, v_init = random_problem(rng, n_t=(5, 4, 3))
    hp = tiny_hp(lam=2.5)
    factors, shared = random_state(rng, data, hp)
    zeroed = [
        TargetFactors(
            U_common=f.U_common, U_target=f.U_target, U_source=f.U_source, V=f.V,
            Theta_common=np.zeros_like(f.Theta_common),
            Theta_target=np.zeros_like(f.Theta_target),
            Theta_source=np.zeros_like(f.Theta_source),
        )
        for f in factors
    ]
    zero_shared = SharedFactors(
        Theta_common=np.zeros_like(shared.Theta_common),
        Theta_specific=np.zeros_like(shared.Theta_specific),
    )
    want = sum(
        frobenius_sq(X_t) + frobenius_sq(data.X_s) + hp.lam * frobenius_sq(X_t)
        for X_t in data.targets
    )
    got = objective(data, zeroed, zero_shared, hp)
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_scalar_expansion_oracle():
    rng = np.random.default_rng(4)
    data, v_init = random_problem(rng, M=3, n_s=2, n_t=(2,), c=2)
    hp = Hyperparams(k1=1, k2=2, lam=3.0)
    factors, shared = random_state(rng, data, hp)
    f = factors[0]

    def entry_residual(X, U_blocks, T_blocks, A):
        # expand one residual term entry by entry
        total = 0.0
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                rec = 0.0
                for U, T in zip(U_blocks, T_blocks):
                    for a in range(U.shape[1]):
                        for b in range(T.shape[1]):
                            rec += U[i, a] * T[a, b] * A[j, b]
                total += (X[i, j] - rec) ** 2
        return total

    want = (
        entry_residual(data.targets[0], (f.U_common, f.U_target),
                       (f.Theta_common, f.Theta_target), f.V)
        + entry_residual(data.X_s, (f.U_common, f.U_source),
                         (f.Theta_common, f.Theta_source), data.Y_s)
        + hp.lam * entry_residual(data.targets[0], (f.U_common, f.U_target),
                                  (shared.Theta_common, shared.Theta_specific), f.V)
    )
    assert objective(data, factors, shared, hp) == pytest.approx(want, abs=1e-10)


# update_u_target


def test_update_u_target_fixed_point():
    rng = np.random.default_rng(5)
    data, factors, shared = exact_problem(rng)
    hp = tiny_hp(lam=4.0)
    new = stepped(update_u_target, data, factors, shared, hp)[0]
    assert np.max(np.abs(new.U_target - factors[0].U_target)) <= 1e-12


def test_update_u_target_scalar_sqrt2():
    data = scalar_problem(x_t=2.0, x_s=1.0)
    f = scalar_factors(theta_common=0.0, theta_target=1.0, theta_source=1.0)
    shared = SharedFactors(
        Theta_common=np.array([[0.0, 0.0]]), Theta_specific=np.array([[1.0, 0.0]])
    )
    hp = Hyperparams(k1=1, k2=2, lam=0.0)
    new = stepped(update_u_target, data, [f], shared, hp)[0]
    assert new.U_target[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_update_u_target_formula_oracle():
    rng = np.random.default_rng(6)
    data, v_init = random_problem(rng, M=9, n_t=(6,), c=3)
    hp = tiny_hp(lam=1.7)
    factors, shared = random_state(rng, data, hp)
    f = factors[0]
    X_t = data.targets[0]
    rec_t, _, rec_sh = reconstructions(data, 0, f, shared)
    num = X_t @ f.V @ f.Theta_target.T + hp.lam * (X_t @ f.V @ shared.Theta_specific.T)
    den = rec_t @ f.V @ f.Theta_target.T + hp.lam * (
        rec_sh @ f.V @ shared.Theta_specific.T
    )
    want = f.U_target * np.sqrt(num / np.maximum(den, EPSILON))
    got = stepped(update_u_target, data, factors, shared, hp)[0]
    assert np.allclose(got.U_target, want, rtol=1e-12, atol=0)


# update_u_source


def test_update_u_source_fixed_point():
    rng = np.random.default_rng(7)
    data, factors, shared = exact_problem(rng)
    new = stepped(update_u_source, data, factors, shared, tiny_hp())[0]
    assert np.max(np.abs(new.U_source - factors[0].U_source)) <= 1e-12


def test_update_u_source_scalar_times_two():
    data = scalar_problem(x_t=1.0, x_s=4.0)
    f = scalar_factors(theta_common=0.0, theta_target=1.0, theta_source=1.0)
    shared = SharedFactors(
        Theta_common=np.array([[0.0, 0.0]]), Theta_specific=np.array([[1.0, 0.0]])
    )
    new = stepped(update_u_source, data, [f], shared, Hyperparams(k1=1, k2=2))[0]
    assert new.U_source[0, 0] == pytest.approx(2.0, abs=1e-15)


# update_u_common


def test_update_u_common_fixed_point():
    rng = np.random.default_rng(8)
    data, factors, shared = exact_problem(rng)
    new = stepped(update_u_common, data, factors, shared, tiny_hp(lam=2.0))[0]
    assert np.max(np.abs(new.U_common - factors[0].U_common)) <= 1e-12


def test_update_u_common_lambda_zero_oracle():
    rng = np.random.default_rng(9)
    data, v_init = random_problem(rng, M=7, n_t=(5,))
    hp = tiny_hp(lam=0.0)
    factors, shared = random_state(rng, data, hp)
    f = factors[0]
    X_t = data.targets[0]
    rec_t, rec_s, _ = reconstructions(data, 0, f, shared)
    num = X_t @ f.V @ f.Theta_common.T + data.X_s @ data.Y_s @ f.Theta_common.T
    den = rec_t @ f.V @ f.Theta_common.T + rec_s @ data.Y_s @ f.Theta_common.T
    want = f.U_common * np.sqrt(num / np.maximum(den, EPSILON))
    got = stepped(update_u_common, data, factors, shared, hp)[0]
    assert np.allclose(got.U_common, want, rtol=1e-12, atol=0)


# update_v


def test_update_v_fixed_point():
    rng = np.random.default_rng(10)
    data, factors, shared = exact_problem(rng)
    new = stepped(update_v, data, factors, shared, tiny_hp(lam=5.0))[0]
    assert np.max(np.abs(new.V - factors[0].V)) <= 1e-12


def test_update_v_scalar_sqrt3():
    data = scalar_problem(x_t=3.0, x_s=1.0)
    f = scalar_factors(theta_common=1.0, theta_target=0.0, theta_source=1.0)
    shared = SharedFactors(
        Theta_common=np.array([[1.0, 0.0]]), Theta_specific=np.array([[0.0, 0.0]])
    )
    hp = Hyperparams(k1=1, k2=2, lam=1.0)
    new = stepped(update_v, data, [f], shared, hp)[0]
    assert new.V[0, 0] == pytest.approx(np.sqrt(3.0), abs=1e-15)


# normalize_all


def test_normalize_all_idempotent():
    rng = np.random.default_rng(13)
    data, v_init = random_problem(rng)
    factors, _ = random_state(rng, data, tiny_hp())
    once = _Stack.of(data, factors)
    normalize_all(once)
    twice = _Stack.of(data, once)
    normalize_all(twice)
    assert max_change(twice[0], once[0]) <= 1e-15


def test_normalize_all_hand_and_degenerate_row():
    f = TargetFactors(
        U_common=np.array([[2.0], [2.0]]),
        U_target=np.array([[1.0], [3.0]]),
        U_source=np.array([[4.0], [0.0]]),
        V=np.array([[0.0, 0.0], [3.0, 1.0]]),
        Theta_common=np.array([[7.0, 7.0]]),
        Theta_target=np.array([[1.0, 1.0]]),
        Theta_source=np.array([[1.0, 1.0]]),
    )
    data = ProblemData(X_s=np.ones((2, 1)), Y_s=np.array([[1.0, 0.0]]),
                       targets=(np.ones((2, 2)),))
    stack = _Stack.of(data, [f])
    normalize_all(stack)
    out = stack[0]
    assert np.array_equal(out.U_common, [[0.5], [0.5]])
    assert np.array_equal(out.V[0], [0.5, 0.5])
    assert np.allclose(out.V[1], [0.75, 0.25], rtol=0, atol=1e-15)
    # associations untouched
    assert np.array_equal(out.Theta_common, f.Theta_common)


# update_pair_associations


def test_update_pair_associations_fixed_point():
    rng = np.random.default_rng(14)
    data, factors, shared = exact_problem(rng)
    new = stepped(update_pair_associations, data, factors, shared, tiny_hp())[0]
    assert np.max(np.abs(new.Theta_common - factors[0].Theta_common)) <= 1e-12
    assert np.max(np.abs(new.Theta_target - factors[0].Theta_target)) <= 1e-12
    assert np.max(np.abs(new.Theta_source - factors[0].Theta_source)) <= 1e-12


def test_update_pair_associations_scalar_times_two():
    data = scalar_problem(x_t=4.0, x_s=1.0)
    f = scalar_factors(theta_common=0.0, theta_target=1.0, theta_source=1.0)
    shared = SharedFactors(
        Theta_common=np.array([[0.0, 0.0]]), Theta_specific=np.array([[1.0, 0.0]])
    )
    new = stepped(update_pair_associations, data, [f], shared,
                  Hyperparams(k1=1, k2=2))[0]
    # numerator 4, denominator 1 on the live target entry
    assert new.Theta_target[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert new.Theta_common[0, 0] == 0.0
    assert new.Theta_source[0, 0] == pytest.approx(1.0, abs=1e-15)


# update_shared_associations


def test_update_shared_fixed_point_single_pair():
    rng = np.random.default_rng(15)
    data, factors, shared = exact_problem(rng, n_t=(5,))
    new = update_shared_associations(data, _Stack.of(data, factors), shared, tiny_hp())
    assert np.max(np.abs(new.Theta_common - shared.Theta_common)) <= 1e-12
    assert np.max(np.abs(new.Theta_specific - shared.Theta_specific)) <= 1e-12


def test_update_shared_two_identical_targets_match_single():
    rng = np.random.default_rng(16)
    hp = tiny_hp(lam=2.0)
    data1, v_init = random_problem(rng, M=8, n_t=(6,))
    factors1, shared = random_state(rng, data1, hp)
    data2 = ProblemData(
        X_s=data1.X_s, Y_s=data1.Y_s,
        targets=(data1.targets[0], data1.targets[0].copy()),
    )
    factors2 = [factors1[0], factors1[0]]
    single = update_shared_associations(data1, _Stack.of(data1, factors1), shared, hp)
    double = update_shared_associations(data2, _Stack.of(data2, factors2), shared, hp)
    # doubled sums cancel exactly in the ratio
    assert np.array_equal(single.Theta_common, double.Theta_common)
    assert np.array_equal(single.Theta_specific, double.Theta_specific)


# closure and full-iteration properties


def test_updates_preserve_nonnegativity_and_finiteness():
    rng = np.random.default_rng(17)
    for trial in range(10):
        data, v_init = random_problem(
            rng,
            M=int(rng.integers(4, 12)),
            n_s=int(rng.integers(3, 9)),
            n_t=tuple(int(n) for n in rng.integers(3, 8, size=rng.integers(1, 4))),
            c=int(rng.integers(2, 4)),
        )
        hp = tiny_hp(lam=float(rng.choice([0.0, 1.0, 10.0])))
        factors, shared = init_factors(data, hp, v_init)
        for _ in range(3):
            factors, shared = run_iteration(data, factors, shared, hp)
            for f in factors:
                for a in factor_arrays(f):
                    assert np.all(a >= 0) and np.all(np.isfinite(a))
            assert np.all(shared.Theta_common >= 0)
            assert np.all(shared.Theta_specific >= 0)


def test_full_iteration_is_noop_at_exact_reconstruction():
    rng = np.random.default_rng(18)
    data, factors, shared = exact_problem(rng, M=9, n_s=6, n_t=(5, 4), k1=2, ks=3)
    hp = tiny_hp(k1=2, k2=5, lam=7.0)
    new_factors, new_shared = run_iteration(data, factors, shared, hp)
    for f0, f1 in zip(factors, new_factors):
        assert max_change(f0, f1) < 1e-9
    assert np.max(np.abs(new_shared.Theta_common - shared.Theta_common)) < 1e-9
    assert np.max(np.abs(new_shared.Theta_specific - shared.Theta_specific)) < 1e-9


# gradient oracle


def test_gradient_zero_at_exact_reconstruction():
    rng = np.random.default_rng(19)
    data, factors, shared = exact_problem(rng)
    g = objective_grad_u_target(data, 0, factors[0], shared, tiny_hp(lam=3.0))
    assert np.max(np.abs(g)) <= 1e-10


def test_gradient_lambda_zero_drops_shared_term():
    rng = np.random.default_rng(20)
    data, v_init = random_problem(rng)
    hp = tiny_hp(lam=0.0)
    factors, shared = random_state(rng, data, hp)
    f = factors[0]
    rec_t, _, _ = reconstructions(data, 0, f, shared)
    want = 2.0 * ((rec_t - data.targets[0]) @ (f.V @ f.Theta_target.T))
    got = objective_grad_u_target(data, 0, f, shared, hp)
    assert np.array_equal(got, want)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    data, v_init = random_problem(rng, M=5, n_s=4, n_t=(3,), c=2)
    hp = Hyperparams(k1=1, k2=3, lam=2.0)
    factors, shared = random_state(rng, data, hp)
    f = factors[0]
    analytic = objective_grad_u_target(data, 0, f, shared, hp)
    h = 1e-6
    fd = np.zeros_like(f.U_target)
    for i in range(fd.shape[0]):
        for j in range(fd.shape[1]):
            up = f.U_target.copy()
            up[i, j] += h
            down = f.U_target.copy()
            down[i, j] -= h
            hi = objective(data, [replace(f, U_target=up)], shared, hp)
            lo = objective(data, [replace(f, U_target=down)], shared, hp)
            fd[i, j] = (hi - lo) / (2 * h)
    rel = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(analytic)), 1e-10)
    assert rel <= 1e-4


# each block at lam = 2, where a case's id is the block alone, and again at
# lam = 0, where the shared term weighs nothing
@pytest.mark.parametrize("block, lam", [
    pytest.param(block, lam, id=block if lam else f"{block}-lam0")
    for lam in (2.0, 0.0)
    for block in ("U_common", "U_target", "U_source", "V",
                  "Theta_common", "Theta_target", "Theta_source",
                  "shared.Theta_common", "shared.Theta_specific")
])
def test_kernel_gradient_matches_finite_differences(block, lam):
    # the update kernel's 2 * (den - num) is the objective's gradient; a
    # shared block's gradient sums over both pairs, and at lam = 0 it is zero
    rng = np.random.default_rng(22)
    data, v_init = random_problem(rng, M=5, n_s=4, n_t=(3, 4), c=2)
    hp = Hyperparams(k1=1, k2=3, lam=lam)
    factors, shared = random_state(rng, data, hp)
    if block.startswith("shared."):
        field = block.removeprefix("shared.")
        x = getattr(shared, field)
        analytic = sum(
            2.0 * (den - num)
            for num, den in (num_den(block, data, p, f, shared, hp.lam)
                             for p, f in enumerate(factors))
        )

        def objective_at(value):
            return objective(data, factors, replace(shared, **{field: value}), hp)
    else:
        f = factors[0]
        x = getattr(f, block)
        num, den = num_den(block, data, 0, f, shared, hp.lam)
        analytic = 2.0 * (den - num)

        def objective_at(value):
            return objective(data, [replace(f, **{block: value}), *factors[1:]],
                             shared, hp)

    h = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up = x.copy()
        up[idx] += h
        down = x.copy()
        down[idx] -= h
        fd[idx] = (objective_at(up) - objective_at(down)) / (2 * h)
    rel = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(analytic)), 1e-10)
    assert rel <= 1e-4
