"""Acceptance criteria, one test per criterion, each at its stated window and
tolerance (every check is exact; the pole check is reconstruction-based).
Each test prints one pass line; pytest -s shows them all."""

import json

import pytest

from deformedw.characters import admissible_spins, verify_char_identity
from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.exact import rat
from deformedw.fock import HighestWeight
from deformedw.limits import (verify_correlator_order,
                              verify_limit_I_appendix,
                              verify_limit_II_relation)
from deformedw.relations import (cross_check_w2_route, order_reversal_check,
                                 verify_fusion, verify_poles, verify_w1wj,
                                 verify_w2wj, verify_wiwj)
from deformedw.structfn import check_f_identities
from deformedw.zalg import verify_principal_relations, \
    verify_splitting_consistency
from deformedw.zeta import (log_sinh_identity_holds, verify_vacuum_eigenvalue,
                            verify_zeta_identity, zeta_value)
from oracles import window_from_terms

POINTS = DEFAULT_GENERIC_POINTS

_CTX = {}


def gctx(N, point):
    key = (N, point)
    if key not in _CTX:
        q, t = POINTS[point]
        _CTX[key] = ScalarCtx.generic(N, q, t)
    return _CTX[key]


def _done(num, label):
    print(f"criterion {num:02d} ({label}): PASS")


def test_criterion_01_rank1_relations():
    # exact, N in {2,3,4}, all j, |n|,|m| <= 3, level <= 3, two generic points
    for point in (0, 1):
        for N in (2, 3, 4):
            ctx = gctx(N, point)
            for j in range(1, N + 1):
                rec = verify_w1wj(ctx, j, window=3, level=3)
                assert rec.ok, (N, j, point, rec.detail)
    _done(1, "rank-1 quadratic relations")


def test_criterion_02_rank2_relations():
    for N in (3, 4):
        ctx = gctx(N, 0)
        for j in range(2, N + 1):
            rec = verify_w2wj(ctx, j, window=2, level=2)
            assert rec.ok, (N, j, rec.detail)
    _done(2, "rank-2 printed relation")


def test_criterion_03_general_relations():
    # includes N=4, (2,2): two active terms in the delta sum
    for N in (3, 4):
        ctx = gctx(N, 0)
        for i in range(0, N + 1):
            for j in range(i, N + 1):
                rec = verify_wiwj(ctx, i, j, window=2, level=2)
                assert rec.ok, (N, i, j, rec.detail)
    _done(3, "general quadratic relation")


def test_criterion_04_cross_engine():
    rec = cross_check_w2_route(gctx(3, 0), 2, window=2, level=2)
    assert rec.ok, rec.detail
    _done(4, "rank-2 vs rewrite route")


def test_criterion_05_f_identities():
    for point in (0, 1):
        for N in (2, 3, 4):
            results = check_f_identities(gctx(N, point), N, 12)
            bad = [r for r in results if not r[1]]
            assert not bad, bad[:3]
    _done(5, "structure-function identities to order 12")


def test_criterion_06_fusion():
    for N in (2, 3):
        ctx = gctx(N, 0)
        for i in range(0, N + 1):
            for j in range(i, N + 1):
                rec = verify_fusion(ctx, i, j, window=2, level=2)
                assert rec.ok, (N, i, j, rec.detail)
    _done(6, "fusion relations, both signs")


def test_criterion_07_poles():
    for N in (2, 3):
        ctx = gctx(N, 0)
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            rec = verify_poles(ctx, i, j)
            assert rec.status == "pass", (N, i, j, rec.status, rec.detail)
    _done(7, "pole structure (reconstructed)")


def test_criterion_08_limit2_relation():
    for (N, k) in ((2, 2), (2, 3), (3, 1), (3, 2)):
        ctx = ScalarCtx.limit2(N, k, trunc=4)
        for i in range(1, N):
            for j in range(1, N):
                rec = verify_limit_II_relation(ctx, i, j, order_x=12)
                assert rec.ok, (N, k, i, j, rec.detail)
    _done(8, "reduction to the Z-algebra relation at hbar^2")


def test_criterion_09_correlator_order():
    for (N, k) in ((2, 2), (3, 2)):
        for n in range(1, 5):
            ctx = ScalarCtx.limit2(N, k, trunc=n + 1)
            rec = verify_correlator_order(ctx, n, order_x=8)
            assert rec.ok, (N, k, n, rec.detail)
    _done(9, "n-point correlators are O(hbar^n), n <= 4")


def test_criterion_10_limit1():
    for N in (2, 3, 4, 5):
        for beta in (rat(N + 1, N), rat(N, N + 1)):
            ctx = ScalarCtx.limit1(N, beta, trunc=8)
            for i in range(0, N + 1):
                rec = verify_limit_I_appendix(ctx, i, window=1)
                assert rec.ok, (N, i, beta, rec.detail)
    _done(10, "vacuum eigenvalue binom + O(hbar^2), exact to hbar^6")


def test_criterion_11_principal_relations():
    for N in (2, 3, 4):
        rec = verify_principal_relations(N, 2, 2 * N + 1)
        assert rec.ok, (N, rec.detail)
    _done(11, "principal-basis relations over the cyclotomic field")


def test_criterion_12_splitting():
    for (N, k) in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for mu in range(1, N):
            for nu in range(1, N):
                rec = verify_splitting_consistency(N, k, mu, nu, order=12)
                assert rec.ok, (N, k, mu, nu, rec.detail)
    _done(12, "Cartan splitting reproduces g to order 12")


def test_criterion_13_characters():
    for k in (2, 3, 4):
        for j in admissible_spins(k):
            rec = verify_char_identity(k, j, 20)
            assert rec.ok, (k, j, rec.detail)
    _done(13, "character identity to y^20")


def test_criterion_14_zeta():
    assert zeta_value(1) == rat(-1, 12)
    assert log_sinh_identity_holds(6)
    for N in (2, 3, 4, 5):
        for i in range(1, N):
            for beta in (rat(N + 1, N), rat(N, N + 1)):
                rec = verify_zeta_identity(N, i, beta, M=6)
                assert rec.ok, (N, i, beta, rec.detail)
    _done(14, "zeta regularization identity to hbar^12")


def test_criterion_15_vacuum_eigenvalues():
    for N in (2, 3, 4, 5):
        ctx = gctx(N, 0)
        for i in range(0, N + 1):
            rec = verify_vacuum_eigenvalue(ctx, i)
            assert rec.ok, (N, i, rec.detail)
    _done(15, "vacuum eigenvalues are p-binomials")


def test_criterion_16_infrastructure():
    import random
    from deformedw.wcurrents import composite_no_mode
    from deformedw.zalg import GlElement, gl_bracket

    # tail vanishing: composite mode sums with +5 margin
    ctx = gctx(2, 0)
    hw = HighestWeight.generic(ctx)
    for n in (-1, 0, 1):
        a = composite_no_mode(ctx, hw, 1, 1, 6, n, [(1, 1)], [(1, 2)])
        b = composite_no_mode(ctx, hw, 1, 1, 6, n, [(1, 1)], [(1, 2)], margin=5)
        assert a == b or (not a and not b)

    # point independence of a nontrivial case
    for point in (0, 1):
        assert verify_wiwj(gctx(3, point), 2, 2, window=1, level=1).ok

    # Jacobi identity on random samples
    rng = random.Random(23)
    for _ in range(4):
        def re():
            acc = GlElement.zero(3)
            for _ in range(3):
                acc = acc + GlElement.E(3, rng.randint(1, 3), rng.randint(1, 3),
                                        rng.randint(-2, 2), rng.randint(-3, 3))
            return acc
        a, b, c = re(), re(), re()
        jac = gl_bracket(a, gl_bracket(b, c)) \
            + gl_bracket(b, gl_bracket(c, a)) \
            + gl_bracket(c, gl_bracket(a, b))
        assert not jac

    # window exactness: retained product coefficients equal brute convolution
    from deformedw.series import LaurentWindow, VarBound
    rng = random.Random(5)
    ta = {(rng.randint(0, 5),): rat(rng.randint(-5, 5)) for _ in range(5)}
    tb = {(rng.randint(-3, 3),): rat(rng.randint(-5, 5)) for _ in range(5)}
    A = LaurentWindow(("x",), ta, [VarBound(0, 5, True, False)])
    B = window_from_terms(("x",), tb)
    P = A * B
    for e in range(P.bounds[0].lo, P.bounds[0].hi + 1):
        brute = sum((ta.get((e - k[0],), rat(0)) * v for k, v in tb.items()),
                    rat(0))
        assert P.coefficient((e,)) == brute

    # byte-deterministic reports across two runs
    from deformedw.cli import run_suites
    import configparser
    cp = configparser.ConfigParser()
    cp.read_string("[characters]\nk_values = 2\ncutoff = 10\n"
                   "[zeta]\nn_values = 2\norder_m = 3\n")
    r1, _ = run_suites(["characters", "zeta"], cp, jobs=1)
    r2, _ = run_suites(["characters", "zeta"], cp, jobs=1)
    assert r1.to_json() == r2.to_json()
    _done(16, "tails, point independence, Jacobi, windows, determinism")
