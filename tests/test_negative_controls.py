"""Negative controls: a deliberately wrong ingredient must turn a verdict
into `fail`.  A checker that cannot fail proves nothing, so each mutation
below is applied through a monkeypatch fixture and the check that normally
passes is required to report `fail`."""

import pytest

from deformedw import limits, relations
from deformedw.context import ScalarCtx

# (N, level, i, j) at order_x <= 5; the central cases (i + j = N) carry the
# derivative-delta term
LIMIT2_CASES = [(2, 2, 1, 1), (3, 1, 1, 1), (3, 1, 1, 2), (3, 2, 2, 1)]
CENTRAL_CASES = [c for c in LIMIT2_CASES if (c[2] + c[3]) % c[0] == 0]


@pytest.fixture
def doubled_f1_in_reduction(monkeypatch):
    """The l = 1 coefficient of the recentered f, as the reduction sees it,
    scaled by 2; the separate f -> g check keeps the true coefficients, so
    the failure has to come from the reduction itself."""
    sides = limits.reduction_sides
    true_coeffs = limits.recentered_f_coeffs

    def scaled_coeffs(ctx, i, j, order_x):
        coeffs = true_coeffs(ctx, i, j, order_x)
        coeffs[1] = 2 * coeffs[1]
        return coeffs

    def mutated_sides(*args):
        with monkeypatch.context() as m:
            m.setattr(limits, "recentered_f_coeffs", scaled_coeffs)
            return sides(*args)

    monkeypatch.setattr(limits, "reduction_sides", mutated_sides)


@pytest.fixture
def no_derivative_delta(monkeypatch):
    """z_algebra_expression without its central derivative-delta term, the
    word-free entries (A, -A, ())."""
    expression = limits.z_algebra_expression

    def mutated(*args):
        return {key: v for key, v in expression(*args).items() if key[2]}

    monkeypatch.setattr(limits, "z_algebra_expression", mutated)


@pytest.mark.parametrize("N,k,i,j", LIMIT2_CASES)
def test_limit2_fails_on_scaled_f_coefficient(doubled_f1_in_reduction,
                                              N, k, i, j):
    ctx = ScalarCtx.limit2(N, k, trunc=4)
    rec = limits.verify_limit_II_relation(ctx, i, j, order_x=3)
    assert rec.status == "fail"
    assert rec.detail.startswith("hbar^2 at "), rec.detail


@pytest.mark.parametrize("N,k,i,j", CENTRAL_CASES)
def test_limit2_fails_without_derivative_delta(no_derivative_delta,
                                               N, k, i, j):
    ctx = ScalarCtx.limit2(N, k, trunc=4)
    rec = limits.verify_limit_II_relation(ctx, i, j, order_x=3)
    assert rec.status == "fail"
    assert "()" in rec.detail, rec.detail


@pytest.mark.parametrize("N,k,i,j", LIMIT2_CASES)
def test_limit2_controls_pass_unmutated(N, k, i, j):
    ctx = ScalarCtx.limit2(N, k, trunc=4)
    assert limits.verify_limit_II_relation(ctx, i, j, order_x=3).ok


# relations at generic points, where every scalar lives in Q(s): (N, i, j)
# for w1wj (i = 1) and wiwj, all at window 1, level 1
RELATION_CASES = [(2, 1, 1), (3, 1, 2), (3, 2, 2)]
RELATION_POINT = ("3/2", "5/3")


@pytest.fixture
def doubled_prefactor(monkeypatch):
    """The prefactor A = (1 - q)(1 - 1/t)/(1 - p) of every delta term,
    scaled by 2."""
    prefactor = ScalarCtx.prefactor
    monkeypatch.setattr(ScalarCtx, "prefactor", lambda ctx: 2 * prefactor(ctx))


def _relation_record(N, i, j):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    if i == 1:
        return relations.verify_w1wj(ctx, j, window=1, level=1)
    return relations.verify_wiwj(ctx, i, j, window=1, level=1)


@pytest.mark.parametrize("N,i,j", RELATION_CASES)
def test_relations_fail_on_doubled_prefactor(doubled_prefactor, N, i, j):
    rec = _relation_record(N, i, j)
    assert rec.status == "fail", rec.detail
    # the two sides were compared, and differ
    assert " lhs=" in rec.detail and " rhs=" in rec.detail, rec.detail


@pytest.mark.parametrize("N,i,j", RELATION_CASES)
def test_relations_controls_pass_unmutated(N, i, j):
    rec = _relation_record(N, i, j)
    assert rec.status == "pass", rec.detail
