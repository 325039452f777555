import gc
import weakref

import pytest

from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.fock import HighestWeight, hw_eigenvalue_w, kernel_coeffs, \
    zero_mode
from deformedw.exact import HbarSeries, rat
from deformedw.limits import verify_correlator_order, \
    verify_limit_I_appendix
from deformedw.relations import default_braket_family, verify_fusion, \
    verify_nowwj, verify_wiwj
from deformedw.structfn import PoleError, gamma_at
from deformedw.wcurrents import (PREFIX_MEMO, WInsertion, _pair_kernel,
                                 block_slots, composite_no_mode,
                                 current_block, mode_engine, mode_profile,
                                 pinned_block, pinned_mode_value,
                                 pinned_mode_value_resummed,
                                 single_current_mode_value,
                                 two_current_mode_table, w_correlator,
                                 w_mode_matrix_element)


def ctx_n(N, point=0):
    q, t = DEFAULT_GENERIC_POINTS[point]
    return ScalarCtx.generic(N, q, t)


def test_w_correlator_w0_is_transparent():
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    both = w_correlator(ctx, hw, [WInsertion(0, "z1"), WInsertion(1, "z2")], [4])
    single = w_correlator(ctx, hw, [WInsertion(1, "z2")], [])
    assert both.coefficient((0,)) == single.coefficient(())
    for ell in range(1, 5):
        assert not both.coefficient((ell,))


def test_w_correlator_out_of_range_rank_vanishes():
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    win = w_correlator(ctx, hw, [WInsertion(3, "z1"), WInsertion(1, "z2")], [2])
    assert all(not c for c in win.coeffs.values())


def test_w_correlator_single_equals_eigenvalue():
    for N in (2, 3):
        ctx = ctx_n(N)
        for hw in (HighestWeight.vacuum(ctx), HighestWeight.generic(ctx)):
            for i in range(N + 1):
                win = w_correlator(ctx, hw, [WInsertion(i, "z")], [])
                assert win.coefficient(()) == hw_eigenvalue_w(ctx, hw, i)


def test_w_correlator_two_point_N2_expansion():
    # sum over flavor pairs of zero modes times kernels, by hand
    ctx = ctx_n(2)
    hw = HighestWeight.vacuum(ctx)
    win = w_correlator(ctx, hw, [WInsertion(1, "z1"), WInsertion(1, "z2")], [5])
    for ell in range(6):
        acc = ctx.zero
        for f1 in (1, 2):
            for f2 in (1, 2):
                zm = zero_mode(ctx, hw, f1) * zero_mode(ctx, hw, f2)
                acc = acc + zm * kernel_coeffs(ctx, f1, f2, 0, 5)[ell]
        assert win.coefficient((ell,)) == acc


def test_mode_engine_matches_w_correlator():
    # dual route: target-pattern enumeration vs literal subset expansion
    for N in (2, 3):
        ctx = ctx_n(N)
        hw = HighestWeight.generic(ctx)
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            win = w_correlator(ctx, hw,
                               [WInsertion(i, "z1", 1), WInsertion(j, "z2", -1)],
                               [5])
            blocks = [current_block(ctx, hw, WInsertion(i, "z1", 1)),
                      current_block(ctx, hw, WInsertion(j, "z2", -1))]
            eng = mode_engine(ctx, blocks)
            for ell in range(6):
                assert win.coefficient((ell,)) == eng.value((ell,), ctx)


def test_mode_profile():
    assert mode_profile([(1, 1)], (), [(1, 1)]) == (1,)
    assert mode_profile([(1, 1)], (), [(1, 2)]) is None      # unbalanced
    assert mode_profile([], (-1, 1), []) == (1,)
    assert mode_profile([], (1, -1), []) is None             # negative gap
    assert mode_profile([(1, 2), (1, 1)], (0, -3), []) is None
    assert mode_profile([(1, 2), (1, 1)], (0, 3), []) == (2, 3, 3)


def test_w_zero_mode_eigenvalue_via_modes():
    for N in (2, 3):
        ctx = ctx_n(N)
        for hw in (HighestWeight.vacuum(ctx), HighestWeight.generic(ctx)):
            for i in range(N + 1):
                assert w_mode_matrix_element(ctx, hw, [(i, 0)], []) == \
                    hw_eigenvalue_w(ctx, hw, i)


def test_vacuum_level_one_degeneracy_N2():
    # <vac| W^1_1 W^1_{-1} |vac> = 0 at N=2: the vacuum is degenerate
    ctx = ctx_n(2)
    vac = HighestWeight.vacuum(ctx)
    assert not w_mode_matrix_element(ctx, vac, [(1, 1)], [(1, -1)])
    gen = HighestWeight.generic(ctx)
    assert w_mode_matrix_element(ctx, gen, [(1, 1)], [(1, -1)])


def test_mode_window_object():
    ctx = ctx_n(2)
    hw = HighestWeight.generic(ctx)
    inserts = [WInsertion(1, "z1"), WInsertion(1, "z2")]
    eng = mode_engine(ctx, [current_block(ctx, hw, w) for w in inserts])
    # two-point function: the mode (-n, n) matches the correlator, and an
    # unbalanced mode pair has no profile
    ref = w_correlator(ctx, hw, inserts, [3])
    for n in range(4):
        assert eng.value(mode_profile([], (-n, n), []), ctx) == \
            ref.coefficient((n,))
    assert mode_profile([], (-1, 2), []) is None


def test_two_current_mode_table_vs_explicit_mode_sum():
    # the f-weighted table equals the literal mode sum
    # sum_l f_l <bra W^i_{n-l} W^j_{m+l} ket>, run 5 terms past its provable
    # termination point (the tail is exactly zero)
    from deformedw.structfn import f_coeffs
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    bra, ket = [(1, 2)], [(1, 1), (1, 1)]
    nms = [(n, m) for n in range(-2, 3) for m in range(-2, 3)]
    table = two_current_mode_table(ctx, hw, bra, (1, 0), (2, 0), ket, (1, 2), nms)
    ket_level = 2
    for n, m in nms:
        lmax = max(-1, ket_level - m) + 5
        fcoeffs = f_coeffs(ctx, 1, 2, max(lmax, 0))
        acc = ctx.zero
        for ell in range(0, lmax + 1):
            me = two_current_mode_table(ctx, hw, bra, (1, 0), (2, 0), ket,
                                        None, [(n - ell, m + ell)])[(n - ell, m + ell)]
            acc = acc + fcoeffs[ell] * me
        assert table[(n, m)] == acc


def test_pinned_block_const_dressing():
    # rank-0 content: the pinned pair degenerates to a single current
    ctx = ctx_n(2)
    hw = HighestWeight.generic(ctx)
    for M in (-2, -1, 0, 1, 2):
        a = pinned_mode_value(ctx, hw, [(1, 2)],
                              {"ranks_shifts": (0, 0, 1, 1), "dress": (0, 1)},
                              [(1, -2)], M)
        b = single_current_mode_value(ctx, hw, [(1, 2)], 1, 1, [(1, -2)], M)
        assert a == b


def test_composite_no_mode_rank0_is_identity():
    # i = 0: the composite of 1 and W^j is W^j itself
    ctx = ctx_n(2)
    hw = HighestWeight.generic(ctx)
    bra, ket = [(1, 1)], [(1, -1)]
    for n in (-1, 0, 1):
        lhs = composite_no_mode(ctx, hw, 0, 1, 4, n, bra, [(1, 1)])
        rhs = single_current_mode_value(ctx, hw, bra, 1, 0, [(1, 1)], n)
        assert lhs == rhs


def test_composite_tail_vanishes():
    ctx = ctx_n(2)
    hw = HighestWeight.generic(ctx)
    bra, ket = [(1, 1)], [(1, 2)]
    for n in (-1, 0, 1, 2):
        v0 = composite_no_mode(ctx, hw, 1, 1, 6, n, bra, ket)
        v5 = composite_no_mode(ctx, hw, 1, 1, 6, n, bra, ket, margin=5)
        assert v0 == v5


def test_pinned_dressed_value_matches_pade_route():
    # f^{1,1}(x) <W^1(z1) W^1(z2)> is rational in x = z2/z1 with poles p^{+-1};
    # the gamma-factor closed form evaluated at a pinning must agree with the
    # independent route: expand the series, Pade-reconstruct, evaluate.
    from deformedw.series import rational_reconstruct
    from deformedw.structfn import f_series
    for N, hw_kind in ((2, "vac"), (2, "gen"), (3, "gen")):
        ctx = ctx_n(N)
        hw = HighestWeight.vacuum(ctx) if hw_kind == "vac" \
            else HighestWeight.generic(ctx)
        corr = w_correlator(ctx, hw, [WInsertion(1, "z1"), WInsertion(1, "z2")],
                            [12])
        dressed = corr * f_series(ctx, 1, 1, 12, corr.vars[0])
        num, den = rational_reconstruct(dressed, 2, 2)
        for pin in (-4, 4, 6):
            x = ctx.s_pow(pin)
            nv = sum((c * x ** k for k, c in enumerate(num)), ctx.zero)
            dv = sum((c * x ** k for k, c in enumerate(den)), ctx.zero)
            blk = pinned_block(ctx, hw, "z", 1, -pin, 1, 0, dress=(1, 1))
            total = sum((c for c, _ in blk.options), ctx.zero)
            assert total == nv / dv


def test_prefix_memo_shared_across_weights_matches_fresh_contexts():
    # the dressed and undressed tables build engines on the same blocks that
    # differ only in the f-weight opened behind the bra; interleaved on one
    # context they share memoized prefixes, and each value must equal the one
    # computed alone on a fresh context (empty memo)
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    bra, ket = [(1, 2)], [(1, 1), (1, 1)]
    for nm in [(n, m) for n in range(-2, 3) for m in range(-1, 3)]:
        for dress in (None, (1, 2), None):
            got = two_current_mode_table(ctx, hw, bra, (1, 0), (2, 0), ket,
                                         dress, [nm])[nm]
            fresh = ctx_n(3)
            want = two_current_mode_table(fresh, HighestWeight.generic(fresh),
                                          bra, (1, 0), (2, 0), ket, dress,
                                          [nm])[nm]
            assert got == want
    assert ctx.caches[PREFIX_MEMO]


def test_prefix_memo_shared_across_pair_exclusions_matches_fresh_contexts():
    # the resummed pinned route at N=4 builds one engine per flavor option,
    # all on the same bra prefix, and divides the direct pair out of each;
    # on one context they share memoized prefixes, and every value must
    # equal the one computed on a fresh context
    N = 4
    bra, ket = [(1, 1)], [(1, 1)]
    ctx = ctx_n(N)
    pinned = {"ranks_shifts": (1, 1, 3, 1), "dress": (1, 3)}
    for M in (-1, 0, 1):
        got = pinned_mode_value_resummed(ctx, HighestWeight.generic(ctx),
                                         bra, pinned, ket, M)
        fresh = ctx_n(N)
        assert got == pinned_mode_value_resummed(
            fresh, HighestWeight.generic(fresh), bra, pinned, ket, M)


def _pinned_specs(N):
    """The pinned dressed pairs that rhs_mode_table (the delta terms of the
    general relation) and verify_fusion (both fusion limits, both signs)
    build at rank N."""
    specs = []
    for i in range(N + 1):
        for j in range(i, N + 1):
            for k in range(1, min(i, N - j) + 1):
                for sign in (1, -1):
                    specs.append({"ranks_shifts": (i - k, sign * (j - i + k),
                                                   j + k, sign * k),
                                  "dress": (i - k, j + k)})
            for sign in (1, -1):
                specs.append({"ranks_shifts": (j, -sign * (j + i), i, 0),
                              "dress": (j, i), "clear_sexp": -sign * (j + i)})
        if i >= 1:
            for sign in (1, -1):
                specs.append({"ranks_shifts": (1, sign * (i + 1), i, 0),
                              "dress": (1, i), "clear_sexp": sign * (i + 1)})
    return specs


@pytest.mark.parametrize("N", [2, 3, 4])
def test_resummed_route_matches_closed_form(N):
    # wherever the per-option gamma closed form exists, the resummation
    # (the external polynomial divided out of the full engine values by the
    # direct pair kernel) must give the same matrix element
    ctx = ctx_n(N)
    hw = HighestWeight.generic(ctx)
    family = default_braket_family(1)
    checked = 0
    for spec in _pinned_specs(N):
        try:
            pinned_block(ctx, hw, "z", *spec["ranks_shifts"],
                         dress=spec["dress"],
                         clear_sexp=spec.get("clear_sexp"))
        except PoleError:
            continue
        for bra in family:
            for ket in family:
                M = sum(k for _, k in ket) - sum(h for _, h in bra)
                closed = pinned_mode_value(ctx, hw, bra, spec, ket, M)
                resummed = pinned_mode_value_resummed(ctx, hw, bra, spec,
                                                      ket, M)
                assert not (closed - resummed), (spec, bra, ket)
                checked += 1
    assert checked


KERNEL_CONTEXTS = {
    "generic": lambda: ctx_n(3),
    "limit1": lambda: ScalarCtx.limit1(3, rat(4, 3), trunc=6),
    "limit2": lambda: ScalarCtx.limit2(3, 1, trunc=4),
}
KERNEL_SLOTS = [
    (block_slots(2, 1, (1, 3)), block_slots(2, -1, (2, 3))),
    (block_slots(1, 0, (2,)), block_slots(3, 2, (1, 2, 3))),
    (block_slots(1, 0, (1,)), ()),
]


def kernel_product(ctx, slotsA, slotsB, order):
    """The pair kernel product built from scratch: one truncated series
    product per slot pair, each coefficient summed with i ascending."""
    cur = [ctx.one] + [ctx.zero] * order
    for fa, sa in slotsA:
        for fb, sb in slotsB:
            kc = kernel_coeffs(ctx, fa, fb, sb - sa, order)
            new = [ctx.zero] * (order + 1)
            for i, c in enumerate(cur):
                if not c:
                    continue
                for ell in range(order + 1 - i):
                    if ell and not kc[ell]:
                        continue
                    new[i + ell] = new[i + ell] + (c * kc[ell] if ell else c)
            cur = new
    return cur


def stored_form(x):
    """Value and type of a scalar; for an hbar series also its slot types
    and truncation, through its canonical stored form."""
    if isinstance(x, HbarSeries):
        return (x.order, x.rows, x.D, x.trunc)
    return (type(x), x)


@pytest.mark.parametrize("mode", sorted(KERNEL_CONTEXTS))
@pytest.mark.parametrize("slots", range(len(KERNEL_SLOTS)))
def test_pair_kernel_grown_one_order_at_a_time_equals_fresh_build(mode, slots):
    slotsA, slotsB = KERNEL_SLOTS[slots]
    order = 5
    grown = KERNEL_CONTEXTS[mode]()
    for o in range(order + 1):
        got = _pair_kernel(grown, slotsA, slotsB, o)
        assert len(got) == o + 1
    fresh = KERNEL_CONTEXTS[mode]()
    built = _pair_kernel(fresh, slotsA, slotsB, order)
    want = kernel_product(KERNEL_CONTEXTS[mode](), slotsA, slotsB, order)
    assert [stored_form(c) for c in got] == [stored_form(c) for c in built]
    assert [stored_form(c) for c in built] == [stored_form(c) for c in want]
    # a smaller order reads the cached coefficients back
    assert _pair_kernel(grown, slotsA, slotsB, 2) is got


# a context and the checks that fill its caches, one per context mode
REFCOUNT_CASES = {
    "generic": (lambda: ctx_n(3), [
        lambda ctx: verify_wiwj(ctx, 1, 2, window=1, level=1),
        lambda ctx: verify_fusion(ctx, 1, 2, window=1, level=1),
        lambda ctx: verify_nowwj(ctx, 1, 2, 8, window=1, level=1)]),
    "limit1": (lambda: ScalarCtx.limit1(3, rat(4, 3), trunc=8), [
        lambda ctx: verify_limit_I_appendix(ctx, 1)]),
    "limit2": (lambda: ScalarCtx.limit2(2, 3, trunc=3), [
        lambda ctx: verify_correlator_order(ctx, 2, order_x=4)]),
}


@pytest.mark.parametrize("mode", sorted(REFCOUNT_CASES))
def test_context_freed_by_refcount_alone(mode):
    # nothing the context caches (engines, kernels, memoized states) refers
    # back to it, so dropping the last reference frees it without the
    # cyclic collector
    make, checks = REFCOUNT_CASES[mode]
    gc.disable()
    try:
        ctx = make()
        for check in checks:
            assert check(ctx).status == "pass"
        assert ctx.caches
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()
