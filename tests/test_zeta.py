import pytest

from deformedw import zeta
from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.exact import rat
from deformedw.zeta import (a_coefficients, bernoulli, bernoulli_table,
                            log_sinh_identity_holds, p_binomial, zeta_value,
                            verify_vacuum_eigenvalue, verify_zeta_identity)


def test_bernoulli_values():
    assert bernoulli(1) == rat(1, 6)
    assert bernoulli(2) == rat(1, 30)
    assert bernoulli(3) == rat(1, 42)
    assert bernoulli(4) == rat(1, 30)
    assert bernoulli(5) == rat(5, 66)
    # positive convention
    assert all(v > 0 for v in bernoulli_table(8).values())


def test_zeta_values():
    assert zeta_value(1) == rat(-1, 12)
    assert zeta_value(2) == rat(1, 120)
    assert zeta_value(3) == rat(-1, 252)


def test_string_normal_ordering_shift():
    # 24 transverse directions contribute 12 * zeta(-1) = -1
    assert 12 * zeta_value(1) == -1


def test_log_sinh_identity():
    assert log_sinh_identity_holds(8)


def test_a_coefficients_leading():
    # a^1_2 = -beta/2 for N=2 (the defining expansion starts at -beta x^2 / 2)
    for beta in (rat(3, 2), rat(2, 3), rat(5, 7)):
        a = a_coefficients(2, 1, beta, 2)
        assert a[1] == -beta / 2


def test_a_coefficients_reflection_symmetry():
    for N, beta in ((3, rat(4, 3)), (4, rat(4, 5)), (5, rat(6, 5))):
        for i in range(1, N):
            a = a_coefficients(N, i, beta, 4)
            b = a_coefficients(N, N - i, beta, 4)
            assert a == b


def test_p_binomial_generic():
    q, t = DEFAULT_GENERIC_POINTS[0]
    ctx = ScalarCtx.generic(4, q, t)
    # [4 choose 2] = (s^3+s+1/s+1/s^3)(...)/...: check against the product of
    # bracket factors directly
    b = p_binomial(ctx, 4, 2)
    n4 = (ctx.s_pow(4) - ctx.s_pow(-4)) / (ctx.s_pow(1) - ctx.s_pow(-1))
    n3 = (ctx.s_pow(3) - ctx.s_pow(-3)) / (ctx.s_pow(1) - ctx.s_pow(-1))
    n2 = (ctx.s_pow(2) - ctx.s_pow(-2)) / (ctx.s_pow(1) - ctx.s_pow(-1))
    assert b == n4 * n3 / n2


def test_zeta_identity_small():
    rec = verify_zeta_identity(2, 1, rat(3, 2), M=4)
    assert rec.ok, rec.detail
    rec = verify_zeta_identity(3, 2, rat(3, 4), M=4)
    assert rec.ok, rec.detail


def test_zeta_identity_rejects_other_beta():
    with pytest.raises(ValueError):
        verify_zeta_identity(2, 1, rat(7, 5), M=3)


def test_vacuum_eigenvalues():
    q, t = DEFAULT_GENERIC_POINTS[1]
    for N in (2, 3, 4):
        ctx = ScalarCtx.generic(N, q, t)
        for i in range(N + 1):
            assert verify_vacuum_eigenvalue(ctx, i).ok


def test_zeta_identity_builds_one_bernoulli_table(monkeypatch):
    # every zeta value of one identity is read from a single table, built
    # through the module attribute the shifted-Bernoulli controls patch
    sizes = []
    table = zeta.bernoulli_table

    def counted(M):
        sizes.append(M)
        return table(M)

    monkeypatch.setattr(zeta, "bernoulli_table", counted)
    assert verify_zeta_identity(3, 1, rat(4, 3), M=6).ok
    assert sizes == [6]
