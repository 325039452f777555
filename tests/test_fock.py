import pytest

from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.exact import rat
from deformedw.fock import (HighestWeight, Insertion, hw_eigenvalue_w,
                            kernel_coeffs, lambda_correlator, zero_mode)
from oracles import boson_commutator


def ctx_n(N, point=0):
    q, t = DEFAULT_GENERIC_POINTS[point]
    return ScalarCtx.generic(N, q, t)


def test_boson_commutator_value_N2():
    ctx = ctx_n(2)  # q=3/2, t=5/3, p=9/10
    q, t, p = ctx.q, ctx.t, ctx.p
    expect = -(1 - q) * (1 - 1 / t) * (1 - p) / (1 - p ** 2)
    assert boson_commutator(ctx, 1, 1, 1) == expect


def test_boson_commutator_antisymmetry():
    for N in (2, 3):
        ctx = ctx_n(N)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for n in (1, 2, 3, -1, -2):
                    assert boson_commutator(ctx, i, j, n) == \
                        -boson_commutator(ctx, j, i, -n)


def test_boson_commutator_rejects_zero_mode():
    with pytest.raises(ValueError):
        boson_commutator(ctx_n(2), 1, 1, 0)


def test_kernel_asymmetry_is_p_power():
    # c_ij(n) / c_ji(n) = p^{Nn} for i < j
    for N in (2, 3, 4):
        ctx = ctx_n(N)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                for n in range(1, 8):
                    cij = boson_commutator(ctx, i, j, n)
                    cji = boson_commutator(ctx, j, i, n)
                    assert cij == cji * ctx.p_pow(N * n)


def test_trace_constraint():
    # sum_i p^{i n} c_{ij}(n) = 0 for every j, n
    for N in (2, 3, 4):
        ctx = ctx_n(N)
        for j in range(1, N + 1):
            for n in range(1, 9):
                acc = ctx.zero
                for i in range(1, N + 1):
                    acc = acc + ctx.p_pow(i * n) * boson_commutator(ctx, i, j, n)
                assert not acc


def test_zero_modes_and_normalization():
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    prod = ctx.one
    for f in range(1, 4):
        assert hw.a[f - 1]
        prod = prod * hw.a[f - 1]
    assert prod == 1
    assert zero_mode(ctx, HighestWeight.vacuum(ctx), 1) == ctx.s_pow(2)


def test_lambda_correlator_single_and_empty():
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    assert lambda_correlator(ctx, hw, [], []).coefficient(()) == 1
    win = lambda_correlator(ctx, hw, [Insertion(1, "z", 0, 0)], [])
    assert win.coefficient(()) == ctx.s_pow(1)  # a_1 * s^{N-1}


def test_lambda_correlator_two_points_is_kernel():
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    ins = [Insertion(1, "z1", 0, 0), Insertion(1, "z2", 0, 1)]
    win = lambda_correlator(ctx, hw, ins, [6])
    ker = kernel_coeffs(ctx, 1, 1, 0, 6)
    for ell in range(7):
        assert win.coefficient((ell,)) == ctx.p_pow(1) * ker[ell]


def test_lambda_correlator_same_group_no_contraction():
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    # both insertions in one group: pure zero-mode product, no series
    ins = [Insertion(1, "z1", 1, 0), Insertion(2, "z1", -1, 0)]
    win = lambda_correlator(ctx, hw, ins, [])
    assert win.coefficient(()) == ctx.s_pow(1 + 1) * ctx.s_pow(-1 - 1)


def test_lambda_correlator_rejects_cross_group_shared_point():
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    ins = [Insertion(1, "z1", 0, 0), Insertion(2, "z1", 0, 1)]
    with pytest.raises(ValueError):
        lambda_correlator(ctx, hw, ins, [])


def test_three_point_factorization_oracle():
    # <vac| L_f1(z1) L_f2(z2) L_f3(z3) |vac> coefficient oracle: product of the
    # three pairwise kernels, convolved by brute force
    ctx = ctx_n(3)
    hw = HighestWeight.vacuum(ctx)
    fl = (1, 2, 2)
    ins = [Insertion(fl[0], "z1", 0, 0), Insertion(fl[1], "z2", 0, 1),
           Insertion(fl[2], "z3", 0, 2)]
    win = lambda_correlator(ctx, hw, ins, [4, 4])
    k12 = kernel_coeffs(ctx, fl[0], fl[1], 0, 4)
    k13 = kernel_coeffs(ctx, fl[0], fl[2], 0, 4)
    k23 = kernel_coeffs(ctx, fl[1], fl[2], 0, 4)
    zm = ctx.one
    for f in fl:
        zm = zm * zero_mode(ctx, hw, f)
    for g1 in range(5):
        for g2 in range(5):
            acc = ctx.zero
            for a in range(0, min(g1, g2) + 1):   # the (1,3) kernel spans both gaps
                b = g1 - a
                c = g2 - a
                acc = acc + k13[a] * k12[b] * k23[c]
            assert win.coefficient((g1, g2)) == zm * acc


def test_hw_eigenvalue_examples():
    for N in (2, 3, 4, 5):
        ctx = ctx_n(N)
        vac = HighestWeight.vacuum(ctx)
        assert hw_eigenvalue_w(ctx, vac, 0) == 1
        assert hw_eigenvalue_w(ctx, vac, N) == 1
    ctx = ctx_n(2)
    vac = HighestWeight.vacuum(ctx)
    assert hw_eigenvalue_w(ctx, vac, 1) == ctx.s_pow(1) + ctx.s_pow(-1)
