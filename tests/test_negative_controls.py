"""Negative controls: a deliberately wrong ingredient must turn a verdict
into `fail`.  A checker that cannot fail proves nothing, so each mutation
below is applied through a monkeypatch fixture and the check that normally
passes is required to report `fail`."""

import pytest

from deformedw import limits
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
