from itertools import combinations

import pytest

from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.exact import Cyc, HbarSeries, rat
from deformedw.structfn import (GammaFactors, NonRationalKernel, PoleError,
                                check_f_identities, contraction_logkernel,
                                delta_terms, f_logkernel, f_point_regular,
                                f_series, g_series, gamma_at, gamma_ladder,
                                gamma_logkernel, gamma_series,
                                logkernel_coeffs, pole_window)
from deformedw.wcurrents import block_slots, dressed_pin_factors
from oracles import gamma_product_series, series_log, stored_form


def ctx_n(N, point=0):
    q, t = DEFAULT_GENERIC_POINTS[point]
    return ScalarCtx.generic(N, q, t)


def test_f_constant_term_is_one():
    for N in (2, 3, 4):
        ctx = ctx_n(N)
        for i in range(-1, N + 2):
            for j in range(-1, N + 2):
                assert f_series(ctx, i, j, 3).coefficient((0,)) == 1


def test_f11_first_coefficient_N2():
    ctx = ctx_n(2)
    q, t, p = ctx.q, ctx.t, ctx.p
    expect = (1 - q) * (1 - 1 / t) / (1 + p)
    assert f_series(ctx, 1, 1, 2).coefficient((1,)) == expect


def test_f12_first_coefficient_N3():
    ctx = ctx_n(3)
    q, t, p = ctx.q, ctx.t, ctx.p
    expect = (1 - q) * (1 - 1 / t) * ctx.s_pow(1) * (1 - p) / (1 - p ** 3)
    assert f_series(ctx, 1, 2, 2).coefficient((1,)) == expect


def test_f_index_reflection_symmetry():
    # f^{i,j} = f^{N-j,N-i} for 1 <= i <= j <= N-1
    for N in (3, 4):
        ctx = ctx_n(N)
        for i in range(1, N):
            for j in range(i, N):
                a = f_series(ctx, i, j, 8)
                b = f_series(ctx, N - j, N - i, 8)
                assert all(a.coefficient((l,)) == b.coefficient((l,))
                           for l in range(9))


def test_gamma_paper_value():
    ctx = ctx_n(3)
    q, t, p = ctx.q, ctx.t, ctx.p
    expect = (1 - q * p) * (1 - p / t) / ((1 - p) * (1 - p ** 2))
    assert gamma_at(ctx, 3) == expect


def test_gamma_pole():
    ctx = ctx_n(2)
    with pytest.raises(PoleError):
        gamma_at(ctx, 1)
    with pytest.raises(PoleError):
        gamma_at(ctx, -1)


def test_gamma_functional_identity():
    # gamma(p^{1/2} w) * (1-w)(1-pw) = (1-qw)(1-t^{-1}w) at random rational w
    ctx = ctx_n(3)
    q, t, p = ctx.q, ctx.t, ctx.p
    for a in (3, 5, -3, 7):
        w = ctx.s_pow(a - 1)
        assert gamma_at(ctx, a) * (1 - w) * (1 - p * w) == \
            (1 - q * w) * (1 - w / t)


def _gamma_closed_form(ctx, a):
    """gamma(s^a) = (1-qw)(1-t^{-1}w)/((1-w)(1-pw)), w = s^{a-1}, from the
    context's generators; PoleError where the denominator has no inverse."""
    if a in (1, -1):
        raise PoleError("pole of gamma")
    w = ctx.s ** (a - 1)
    den = (1 - w) * (1 - ctx.p * w)
    if not (den.coefficient(0) if isinstance(den, HbarSeries) else den):
        raise PoleError(f"pole of gamma at s^{a}")
    return (1 - ctx.q * w) * (1 - w / ctx.t) / den


GAMMA_CONTEXTS = [
    ScalarCtx.generic(3, rat(3, 2), rat(5, 3)),
    ScalarCtx.limit1(3, rat(3, 2), trunc=5),
    ScalarCtx.limit2(2, 2, trunc=4),
    ScalarCtx.limit2(3, 2, trunc=4),
]


@pytest.mark.parametrize("ctx", GAMMA_CONTEXTS, ids=lambda c: c.describe())
def test_gamma_comes_from_its_log_kernel(ctx):
    # gamma_series, exp of gamma_logkernel's log series, equals the resummed
    # gamma product expanded factor by factor; gamma_at, the resummed value,
    # equals the closed form, or both raise PoleError (in limit1 every
    # 1 - s^{a-1} is O(hbar), so every a is a pole)
    order = 5
    poles = 0
    for a in range(-9, 10):
        got = gamma_series(ctx, "x", a, order)
        want = gamma_product_series(gamma_logkernel(a).resum(ctx.N), ctx,
                                    "x", order)
        for n in range(order + 1):
            g, w = got.coefficient((n,)), want.coefficient((n,))
            assert g == w, (a, n)
            if isinstance(g, HbarSeries):
                # a zero slot may be rational on one route and cyclotomic
                # on the other; the values and truncations agree
                assert g.trunc == w.trunc, (a, n)
        try:
            want = _gamma_closed_form(ctx, a)
        except PoleError:
            poles += 1
            with pytest.raises(PoleError):
                gamma_at(ctx, a)
            continue
        got = gamma_at(ctx, a)
        if ctx.mode == "generic":
            assert got == want, a
        else:
            assert stored_form(got) == stored_form(want), a
    if ctx.mode == "limit2":
        assert 0 < poles < 19
    else:
        assert poles == {"generic": 2, "limit1": 19}[ctx.mode]


@pytest.mark.parametrize("ctx", GAMMA_CONTEXTS, ids=lambda c: c.describe())
def test_logkernel_lists_keep_the_scalar_recurrence_forms(ctx):
    # logkernel_coeffs exponentiates on ctx.raw; grown one order at a time,
    # as the engine grows it, every coefficient has the stored form, type
    # included (a QuadExt with no s part stays one), of the exponential
    # recurrence run on the scalar log terms
    N, order = ctx.N, 6
    kernels = {("f", i, j): f_logkernel(N, i, j)
               for i in range(N + 1) for j in range(N + 1)}
    kernels.update({("K", i, j, d): contraction_logkernel(N, i, j).shifted(d)
                    for i in range(1, N + 1) for j in range(1, N + 1)
                    for d in (-3, 0, 1, 4)})
    for key, kernel in kernels.items():
        for o in range(order + 1):
            got = logkernel_coeffs(ctx, key, lambda: kernel, o)
        logs = [ctx.zero] + [kernel.term(ctx, n) for n in range(1, order + 1)]
        want = [ctx.one]
        for j in range(1, order + 1):
            acc = ctx.zero
            for i in range(1, j + 1):
                if logs[i]:
                    acc = acc + (i * logs[i]) * want[j - i]
            want.append(acc / j)
        assert [stored_form(c) for c in got[:order + 1]] == \
            [stored_form(c) for c in want], key


def test_gamma_factor_without_constant_term_is_multiplied_in():
    # in limit1, 1 - q is O(hbar), not zero: the factor is multiplied in
    ctx = ScalarCtx.limit1(3, rat(3, 2), trunc=5)
    got = GammaFactors({("q", -1): 1}).value(ctx, 1)
    assert got == 1 - ctx.q and got.coefficient(1) == -1
    # an inverted factor without an inverse is a pole
    with pytest.raises(PoleError):
        GammaFactors({("q", -1): -1}).value(ctx, 1)


def test_gamma_ladder():
    ctx = ctx_n(4)
    assert gamma_ladder(ctx, 1) == 1
    assert gamma_ladder(ctx, 3) == gamma_at(ctx, 3) * gamma_at(ctx, 5)


def test_delta_terms_follow_the_printed_relation():
    # as printed, the k-th summand exists while both content ranks i - k and
    # j + k lie in 0..N, and carries delta(p^{(j-i)/2+k} z2/z1) before
    # delta(p^{-((j-i)/2+k)} z2/z1); u is the exponent of s = p^{1/2}
    for N in range(1, 6):
        for i in range(N + 1):
            for j in range(i, N + 1):
                printed = []
                k = 1
                while i - k >= 0 and j + k <= N:
                    half = rat(j - i, 2) + k
                    printed += [(k, 1, 2 * half), (k, -1, -2 * half)]
                    k += 1
                assert delta_terms(N, i, j) == printed, (N, i, j)
                # one denominator root per summand, 4 deg + 2 coefficients
                deg = len(printed)
                assert pole_window(N, i, j) == (deg, 4 * deg + 2)


def test_g_series_N2_k2():
    win = g_series(2, 2, 1, 1, 6)
    expect = [1, -2, 2, -2, 2, -2, 2]
    for n in range(7):
        assert win.coefficient((n,)) == expect[n]


def test_g_series_binomial_oracle():
    # N=2: g^{1,1} = ((1-z)/(1+z))^{2/k}; oracle via exp of the closed-form log
    from deformedw.series import LaurentWindow, VarBound, series_exp
    for k in (1, 2, 3):
        win = g_series(2, k, 1, 1, 8)
        terms = {}
        for n in range(1, 9):
            if n % 2 == 1:
                terms[(n,)] = rat(-4, k * n)
        oracle = series_exp(LaurentWindow(("zeta",), terms,
                                          [VarBound(0, 8, True, False)]))
        for n in range(9):
            assert win.coefficient((n,)) == oracle.coefficient((n,))


def test_g_series_log_linear_in_inverse_k():
    # coefficients of log g scale exactly by k'/k between two levels
    for N, mu, nu in ((3, 1, 2), (4, 2, 3)):
        w1 = series_log(g_series(N, 1, mu, nu, 8))
        w3 = series_log(g_series(N, 3, mu, nu, 8))
        for n in range(1, 9):
            assert w1.coefficient((n,)) == 3 * w3.coefficient((n,))


def test_g_series_requires_nonzero_level():
    with pytest.raises(ValueError):
        g_series(2, 0, 1, 1, 4)


def test_resummation_dressed_kernels():
    # f^{1,1} * C_11 = 1 and f^{1,1} * C_12 = gamma(p^{1/2} x) for any N
    for N in (2, 3):
        ctx = ctx_n(N)
        lk = f_logkernel(N, 1, 1) + contraction_logkernel(N, 1, 1)
        gf = lk.resum(N)
        assert gf.factors == {}
        lk2 = f_logkernel(N, 1, 1) + contraction_logkernel(N, 1, 2)
        gf2 = lk2.resum(N)
        assert gf2.value(ctx, 4) == gamma_at(ctx, 5)  # gamma(p^{1/2} s^4)


def test_resummation_rejects_bare_kernel():
    with pytest.raises(NonRationalKernel):
        contraction_logkernel(3, 1, 2).resum(3)


def _delta_term_pairs(N):
    """(dress, slots1, slots2, pinexp) of the pinned pairs in the delta terms
    of the quadratic relations at rank N, in both orders (the order-reversal
    check pins the reversed pairs)."""
    for i in range(N + 1):
        for j in range(i, N + 1):
            for k in range(1, i + 1):
                if j + k > N:
                    continue
                a, b = i - k, j + k
                for sh1, sh2 in (((j - i) + k, k), (-(j - i) - k, -k)):
                    for J1 in combinations(range(1, N + 1), a):
                        for J2 in combinations(range(1, N + 1), b):
                            s1 = block_slots(a, sh1, J1)
                            s2 = block_slots(b, sh2, J2)
                            yield (a, b), s1, s2, sh2 - sh1
                            yield (b, a), s2, s1, sh1 - sh2


def test_logkernel_coeffs_match_gamma_products():
    # exp of the dressed pair's log series, by the shared recurrence, equals
    # its resummed finite gamma product expanded factor by factor
    order = 6
    for N in (2, 3, 4):
        ctx = ctx_n(N)
        pairs = list(_delta_term_pairs(N))
        assert pairs
        for dress, s1, s2, pinexp in pairs:
            lk = f_logkernel(N, *dress).shifted(pinexp)
            for f1, a in s1:
                for f2, b in s2:
                    lk = lk + contraction_logkernel(N, f1, f2).shifted(b - a)
            coeffs = logkernel_coeffs(ctx, ("pair", dress, s1, s2, pinexp),
                                      lambda: lk, order)
            gamma = gamma_product_series(
                dressed_pin_factors(ctx, dress, s1, s2, pinexp), ctx, "x",
                order)
            assert coeffs[:order + 1] == \
                [gamma.coefficient((n,)) for n in range(order + 1)]


def test_f_point_regularity():
    # the extreme delta-term scalars stay regular
    for N in (2, 3, 4):
        for i in range(0, N + 1):
            for j in range(i, N + 1):
                for k in range(1, i + 1):
                    if j + k > N:
                        continue
                    for e in (j - i, i - j):
                        assert f_point_regular(N, i - k, j + k, e)
    # a pole shows up when the argument hits the gamma singularity
    assert not f_point_regular(3, 1, 1, -2)


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("point", [0, 1])
def test_check_f_identities(N, point):
    ctx = ctx_n(N, point)
    order = 12 if N < 4 else 10
    results = check_f_identities(ctx, N, order)
    bad = [r for r in results if not r[1]]
    assert not bad, bad[:3]
