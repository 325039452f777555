import pytest

from deformedw import suites
from deformedw.context import ScalarCtx
from deformedw.exact import Cyc, HbarSeries, rat
from deformedw.fock import HighestWeight, hw_eigenvalue_w
from deformedw.limits import (check_f_reduces_to_g, verify_correlator_order,
                              verify_limit_I_appendix,
                              verify_limit_II_relation)
from deformedw.structfn import f_series
from deformedw.wcurrents import PREFIX_MEMO
from deformedw.zeta import p_binomial
from oracles import stored_form


def test_limit2_context_basics():
    ctx = ScalarCtx.limit2(3, 2, trunc=5)
    # p at hbar = 0 equals omega, exactly
    assert ctx.p.coefficient(0) == ctx.omega_pow(1)
    assert ctx.s * ctx.s == ctx.p
    # the prefactor is hbar + O(hbar^2)
    pref = -ctx.prefactor()
    assert not pref.coefficient(0)
    assert pref.coefficient(1) == 1


def test_f_expansion_well_defined_at_divisible_orders():
    # the n = 0 mod N exponent terms need the cancellation analysis; the
    # series division performs and validates it
    ctx = ScalarCtx.limit2(2, 2, trunc=5)
    win = f_series(ctx, 1, 1, 6)
    for ell in range(7):
        win.coefficient((ell,))  # no error


def test_f_reduces_to_g():
    for (N, k) in ((2, 2), (2, 3), (3, 1), (3, 2)):
        ctx = ScalarCtx.limit2(N, k, trunc=4)
        for i in range(1, N):
            for j in range(1, N):
                ok, msg = check_f_reduces_to_g(ctx, i, j, 8)
                assert ok, (N, k, i, j, msg)


def test_f_expansion_N2_k2_coefficients():
    # hbar^0 coefficients (1, -2, 2, -2, ...) for N=2, k=2
    ctx = ScalarCtx.limit2(2, 2, trunc=4)
    win = f_series(ctx, 1, 1, 6)
    expect = [1, -2, 2, -2, 2, -2, 2]
    for ell in range(7):
        c = win.coefficient((ell,)).coefficient(0)
        assert c == expect[ell]


def test_limit_II_relation_central_and_generic():
    ctx = ScalarCtx.limit2(2, 2, trunc=4)
    rec = verify_limit_II_relation(ctx, 1, 1, order_x=6)
    assert rec.ok, rec.detail
    ctx = ScalarCtx.limit2(3, 1, trunc=4)
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        rec = verify_limit_II_relation(ctx, i, j, order_x=5)
        assert rec.ok, rec.detail


@pytest.mark.parametrize("mode,kw,foreign", [
    ("generic", {"q": "3/2", "t": "5/3"}, "trunc"),
    ("limit1", {"beta": "3/2", "trunc": 6}, "level"),
    ("limit2", {"level": 1, "trunc": 4}, "beta"),
])
def test_scalar_ctx_rejects_unknown_keywords(mode, kw, foreign):
    ScalarCtx(2, mode, **kw)  # every keyword the mode reads is accepted
    with pytest.raises(TypeError, match="bogus"):
        ScalarCtx(2, mode, bogus=1, **kw)
    # a keyword another mode reads is unknown here
    with pytest.raises(TypeError, match=foreign):
        ScalarCtx(2, mode, **{foreign: 1}, **kw)


# one context per mode, for the per-context stores
CONTEXT_MODES = [
    ("generic", {"q": "3/2", "t": "5/3"}),
    ("limit1", {"beta": "3/2", "trunc": 5}),
    ("limit2", {"level": 2, "trunc": 4}),
]


@pytest.mark.parametrize("mode,kw", CONTEXT_MODES)
def test_over_one_minus_p_is_the_division(mode, kw, monkeypatch):
    """ctx.over_one_minus_p(x, m) is x / (1 - p^m) in stored form (or raises
    as the division does), for x of valuation 0 and 1 in the hbar limits
    (a Q(s) value and a rational at the generic point), and it inverts
    1 - p^m once per m."""
    ctx = ScalarCtx(2, mode, **kw)
    xs = [ctx.s_pow(3) + ctx.one, 1 - ctx.q]
    ms = range(1, 7)
    want = {}
    for m in ms:
        for n, x in enumerate(xs):
            try:
                want[m, n] = stored_form(x / (1 - ctx.p_pow(m)))
            except ValueError:  # a valuation-0 x over a valuation-1 divisor
                want[m, n] = ValueError
    inverted = []
    inverse = HbarSeries.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(HbarSeries, "inverse", counted)
    for _ in range(2):
        for m in ms:
            for n, x in enumerate(xs):
                if want[m, n] is ValueError:
                    with pytest.raises(ValueError):
                        ctx.over_one_minus_p(x, m)
                else:
                    assert stored_form(ctx.over_one_minus_p(x, m)) == want[m, n]
    if ctx.mode == "generic":
        assert not inverted
    else:
        assert len(inverted) == len(ms)
        assert {x.valuation() for x in xs} == {0, 1}
    assert set(want.values()) != {ValueError}


@pytest.mark.parametrize("mode,kw", CONTEXT_MODES)
def test_negative_powers_share_one_inverse(mode, kw, monkeypatch):
    """ctx.s_pow(n) and ctx.t_pow(n) equal s ** n and t ** n in stored form
    for negative n (by value over Q(s), where s_pow keeps its p^(n//2) * s
    form), and each base is inverted once."""
    ctx = ScalarCtx(2, mode, **kw)
    ns = range(-9, 0)
    want = {(x, n): stored_form(getattr(ctx, x) ** n)
            for x in ("s", "t") for n in ns}
    inverted = []
    inverse = HbarSeries.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(HbarSeries, "inverse", counted)
    for n in reversed(ns):
        assert stored_form(ctx.t_pow(n)) == want["t", n], n
        got = ctx.s_pow(n)
        if mode == "generic":
            assert got == ctx.s ** n, n
        else:
            assert stored_form(got) == want["s", n], n
    assert len(inverted) == (0 if mode == "generic" else 2)


def test_limit_II_rejects_bad_flavor():
    ctx = ScalarCtx.limit2(2, 2, trunc=4)
    with pytest.raises(ValueError):
        verify_limit_II_relation(ctx, 0, 1)


def test_limit_II_rejects_truncation_below_hbar2():
    # the check reads hbar^0, hbar^1 and hbar^2, so trunc = 2 is refused up
    # front instead of failing on the hbar^2 read
    ctx = ScalarCtx.limit2(2, 2, trunc=2)
    with pytest.raises(ValueError, match="context truncation too small"):
        verify_limit_II_relation(ctx, 1, 1, order_x=3)
    ctx = ScalarCtx.limit2(2, 2, trunc=3)
    assert verify_limit_II_relation(ctx, 1, 1, order_x=3).ok


def test_single_current_vacuum_value_is_order_hbar():
    # <vac|W^1|vac> = [N]_p vanishes at hbar = 0 in the limit II context
    for (N, k) in ((2, 2), (3, 1)):
        ctx = ScalarCtx.limit2(N, k, trunc=4)
        val = hw_eigenvalue_w(ctx, HighestWeight.vacuum(ctx), 1)
        assert not val.coefficient(0)


def test_correlator_order_small():
    for (N, k) in ((2, 2), (3, 2)):
        for n in (1, 2, 3):
            ctx = ScalarCtx.limit2(N, k, trunc=n + 1)
            rec = verify_correlator_order(ctx, n, order_x=6)
            assert rec.ok, rec.detail
            assert "vacuum lambda" in rec.assumptions


def test_limit1_p_binomial_even():
    # [N choose i]_p = binom + O(hbar^2), even in hbar
    from math import comb
    for N in (2, 3):
        for i in range(N + 1):
            for beta in (rat(N + 1, N), rat(N, N + 1)):
                ctx = ScalarCtx.limit1(N, beta, trunc=7)
                pb = p_binomial(ctx, N, i)
                assert pb.coefficient(0) == comb(N, i)
                assert not pb.coefficient(1)
                assert not pb.coefficient(3)
                assert not pb.coefficient(5)


def test_limit1_N2_value():
    # [2]_p = 2 cosh(hbar/4) at beta = 3/2: coefficient of hbar^2 is 1/16
    ctx = ScalarCtx.limit1(2, rat(3, 2), trunc=6)
    pb = p_binomial(ctx, 2, 1)
    assert pb.coefficient(2) == rat(1, 16)


def test_limit1_appendix():
    rec = verify_limit_I_appendix(ScalarCtx.limit1(2, rat(3, 2)), 1,
                                  window=2)
    assert rec.ok, rec.detail
    rec = verify_limit_I_appendix(ScalarCtx.limit1(3, rat(3, 4)), 2,
                                  window=1)
    assert rec.ok, rec.detail


LIMIT1_CFG = {"n_values": "2 3", "window": "1", "order_h": "2"}


def test_suite_limit1_matches_fresh_context_per_case():
    # one context per (N, beta) gives the records of one context per case
    want = [verify_limit_I_appendix(ScalarCtx.limit1(N, beta, trunc=4), i,
                                    window=1)
            for N in (2, 3) for beta in (rat(N + 1, N), rat(N, N + 1))
            for i in range(0, N + 1)]
    got = suites.suite_limit1(LIMIT1_CFG)
    assert got == want
    assert all(r.ok for r in got)


def test_suite_limit1_drops_prefix_memo_per_case(monkeypatch):
    made = []
    limit1 = ScalarCtx.limit1
    monkeypatch.setattr(ScalarCtx, "limit1", staticmethod(
        lambda *a, **kw: made.append(limit1(*a, **kw)) or made[-1]))
    recs = suites.suite_limit1(LIMIT1_CFG)
    assert len(recs) == 14 and len(made) == 4
    assert all(PREFIX_MEMO not in c.caches for c in made)
    # the memo is there to drop: a direct call leaves it on the context
    ctx = limit1(2, rat(3, 2), trunc=4)
    verify_limit_I_appendix(ctx, 1, window=1)
    assert PREFIX_MEMO in ctx.caches


def test_limit1_appendix_needs_limit1_context():
    with pytest.raises(ValueError, match="limit1"):
        verify_limit_I_appendix(ScalarCtx.generic(2, rat(3, 2), rat(5, 3)), 1)
    with pytest.raises(ValueError, match="limit1"):
        verify_limit_I_appendix(ScalarCtx.limit2(2, 2), 1)
