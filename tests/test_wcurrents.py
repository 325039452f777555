import gc
import operator
import weakref
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from deformedw import wcurrents
from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.fock import HighestWeight, Insertion, hw_eigenvalue_w, \
    kernel_coeffs, lambda_correlator, zero_mode
from deformedw.exact import RAT, HbarSeries, QuadExt, rat
from deformedw.limits import verify_correlator_order, \
    verify_limit_I_appendix
from deformedw.relations import default_braket_family, delta_pin, \
    verify_fusion, verify_nowwj, verify_w1wj, verify_wiwj
from deformedw.structfn import PoleError, contraction_logkernel, f_series, \
    gamma_at, gamma_series
from deformedw.wcurrents import (PREFIX_MEMO, STEP_STORE, WInsertion,
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


@pytest.mark.parametrize("ctx", [ctx_n(2), ScalarCtx.limit2(2, 2, trunc=3)],
                         ids=["generic", "limit2"])
def test_out_of_range_rank_is_the_zero_block(ctx):
    # a bra, ket or middle rank outside 0..N is the zero current: one cached
    # block with no options, which the engine gives the value zero; as the
    # one middle block it is zero before any engine is built
    hw = HighestWeight.vacuum(ctx)
    assert pinned_mode_value(ctx, hw, [], (3, 0, 1, 0, None, None), [],
                             0) == ctx.zero
    assert single_current_mode_value(ctx, hw, [], 3, 0, [], 0) == ctx.zero
    assert not [key for key in ctx.caches
                if key[0] == "ME" and ("zero",) in key[1]]
    assert w_mode_matrix_element(ctx, hw, [(3, 0)], []) == ctx.zero
    assert two_current_mode_table(ctx, hw, [(3, 1)], (1, 0), (1, 0), [],
                                  None, [(0, -1)]) == {(0, -1): ctx.zero}
    zero = ctx.caches[("zero",)]
    assert zero.options == []
    assert current_block(ctx, hw, -1) is zero
    assert pinned_block(ctx, hw, 1, 0, -1, 0) is zero


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
                acc = acc + zm * oracles.contraction_coeffs(
                    ctx, f1, f2, 0, 5)[ell]
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
            blocks = [current_block(ctx, hw, i, 1),
                      current_block(ctx, hw, j, -1)]
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
    eng = mode_engine(ctx, [current_block(ctx, hw, 1)] * 2)
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
    # rank-0 content: the pinned pair degenerates to a single current, so the
    # pinned route is the oracle of the single-current block
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    family = default_braket_family(2)
    for rank in range(-1, ctx.N + 2):
        for sshift in (-2, 0, 1, 2):
            pin = (0, 0, rank, sshift, (0, rank), None)
            for bra in family:
                for ket in family:
                    for M in (-1, 0, 1):
                        assert single_current_mode_value(
                            ctx, hw, bra, rank, sshift, ket, M) == \
                            pinned_mode_value(ctx, hw, bra, pin, ket, M), \
                            (rank, sshift, bra, ket, M)


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
            blk = pinned_block(ctx, hw, 1, -pin, 1, 0, dress=(1, 1))
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


def test_step_store_matches_fresh_contexts():
    # dressed and undressed engines on the same blocks interleaved on one
    # context share transfer steps; every value must equal the one computed
    # alone on a fresh context, whose store holds only its own steps
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    bra, ket = [(1, 2)], [(1, 1), (2, 1)]
    nms = [(n, m) for n in range(-2, 3) for m in range(-1, 4)]
    for nm in nms:
        for dress in (None, (1, 2), None, (2, 1)):
            got = two_current_mode_table(ctx, hw, bra, (1, 0), (2, 1), ket,
                                         dress, [nm])[nm]
            fresh = ctx_n(3)
            want = two_current_mode_table(fresh, HighestWeight.generic(fresh),
                                          bra, (1, 0), (2, 1), ket, dress,
                                          [nm])[nm]
            assert got == want, (nm, dress)
    steps, keys = ctx.caches[STEP_STORE]
    assert steps and keys
    # over Q(s) the factors of one new state are merged: each key once per
    # step, each factor a reduced nonzero raw triple, each key the interned
    # one
    for new_keys, factors in steps.values():
        assert len(set(new_keys)) == len(new_keys) == len(factors)
        assert all(keys[key] is key for key in new_keys)
        for A, B, D in factors:
            assert (A or B) and D > 0 and gcd(A, B, D) == 1


# limit II engine values of <W^1(z0) W^1(z1) W^1(z2)> at the vacuum, taken
# before the step store: ((N, level), profile) -> (trunc, rows, D) of the
# stored series.  Summing a step's factors per new state, as over Q(s),
# would raise the truncation of the first four from 3 to 4.
LIMIT2_GOLDEN = {
    ((2, 3), (1, 0)): (3, (0, 0, 0), 1),
    ((2, 3), (2, 0)): (3, (0, 0, (0, 0)), 1),
    ((3, 1), (1, 0)): (3, (0, 0, 0), 1),
    ((3, 1), (2, 0)): (3, (0, 0, 0), 1),
    ((2, 3), (0, 2)): (4, (0, (0, 0), (0, 0), (0, 6)), 1),
}


def test_limit2_engine_values_keep_their_truncation():
    for (N, level), prof in LIMIT2_GOLDEN:
        ctx = ScalarCtx.limit2(N, level, trunc=4)
        hw = HighestWeight.vacuum(ctx)
        eng = mode_engine(ctx, [current_block(ctx, hw, 1)] * 3)
        val = eng.value(prof, ctx)
        assert (val.trunc, val.rows, val.D) == \
            LIMIT2_GOLDEN[((N, level), prof)], (N, level, prof)
    # in the hbar limits a step keeps one entry per option and pattern, so
    # a new state can repeat within one step
    steps, _ = ctx.caches[STEP_STORE]
    assert any(len(set(new_keys)) < len(new_keys)
               for new_keys, _ in steps.values())


def test_prefix_memo_weights_are_reduced():
    # every transfer state is normalized once when its block finishes, so
    # the memo holds reduced nonzero raw triples and no cancelled weight
    ctx = ctx_n(3)
    assert verify_wiwj(ctx, 1, 2, window=2, level=2).status == "pass"
    weights = [w for states in ctx.caches[PREFIX_MEMO].values()
               for w in states.values()]
    assert weights
    for w in weights:
        assert type(w) is tuple and all(type(v) is int for v in w)
        A, B, D = w
        assert (A or B) and D > 0 and gcd(A, B, D) == 1
    assert any(B for _, B, _ in weights)


# the kernel of the hbar-series contexts: objects and their operators
OBJECT_KERNEL = (lambda x: x, operator.mul, operator.add, lambda x: x,
                 lambda x: x)


def _engine_values(ctx):
    """Values of a spread of engine profiles at N=3: undressed and dressed
    two-current tables, a pinned dressed pair and a bra/ket element."""
    hw = HighestWeight.generic(ctx)
    bra, ket = [(1, 2)], [(1, 1), (2, 1)]
    nms = [(n, m) for n in range(-2, 3) for m in range(-1, 4)]
    out = []
    for dress in (None, (1, 2)):
        out += two_current_mode_table(ctx, hw, bra, (1, 0), (2, 1), ket,
                                      dress, nms).values()
    pinned = (1, 1, 2, 0, (1, 2), None)
    for M in (-1, 0, 1, 2):
        out.append(pinned_mode_value(ctx, hw, [(1, 1)], pinned, [(1, 1)], M))
    out.append(w_mode_matrix_element(ctx, hw, [(1, 1), (2, 1)],
                                     [(2, -1), (1, -1)]))
    return out


def _window_values(ctx):
    """Coefficients of windows built on the context's raw kernel at N=3: a
    three-point lambda_correlator with a shifted insertion and a shared
    group, and products of f and gamma series as the f-identities and the
    pole check multiply them."""
    hw = HighestWeight.generic(ctx)
    ins = [Insertion(1, "z1", 0, 0), Insertion(3, "z1", 2, 0),
           Insertion(2, "z2", -1, 1), Insertion(1, "z3", 1, 2)]
    wins = [lambda_correlator(ctx, hw, ins, (3, 2)),
            f_series(ctx, 1, 2, 6).scale_var("x", ctx.s_pow(3))
            * f_series(ctx, 2, 2, 6),
            f_series(ctx, 2, 3, 6) * gamma_series(ctx, "x", -2, 6)]
    return [v for win in wins for _, v in sorted(win.coeffs.items())]


def test_engine_raw_kernel_matches_object_arithmetic(monkeypatch):
    raw_ctx = ctx_n(3)
    got = _engine_values(raw_ctx)
    got_windows = _window_values(raw_ctx)
    obj_ctx = ctx_n(3)
    monkeypatch.setattr(obj_ctx, "raw", OBJECT_KERNEL)
    want = _engine_values(obj_ctx)
    assert got == want
    assert got_windows == _window_values(obj_ctx)
    assert any(isinstance(v, QuadExt) for v in got)
    assert any(isinstance(v, QuadExt) for v in got_windows)
    # the dropped values are canonical: a QuadExt only with an s part
    assert all(type(v) is RAT or (type(v) is QuadExt and v.B)
               for v in got + got_windows)
    # the same memoized states, read back, up to the cancelled weights the
    # raw kernel drops
    drop = raw_ctx.raw[4]
    raw_memo, obj_memo = raw_ctx.caches[PREFIX_MEMO], obj_ctx.caches[PREFIX_MEMO]
    assert raw_memo.keys() == obj_memo.keys()
    for key, states in obj_memo.items():
        assert raw_memo[key].keys() <= states.keys()
        for state, weight in states.items():
            assert drop(raw_memo[key].get(state)) == weight


def test_prefix_memo_shared_across_pair_exclusions_matches_fresh_contexts():
    # the resummed pinned route at N=4 builds one engine per flavor option,
    # all on the same bra prefix, and divides the direct pair out of each;
    # on one context they share memoized prefixes, and every value must
    # equal the one computed on a fresh context
    N = 4
    bra, ket = [(1, 1)], [(1, 1)]
    ctx = ctx_n(N)
    pinned = (1, 1, 3, 1, (1, 3), None)
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
                    specs.append(delta_pin(i, j, k, sign))
            for sign in (1, -1):
                specs.append((j, -sign * (j + i), i, 0, (j, i),
                              -sign * (j + i)))
        if i >= 1:
            for sign in (1, -1):
                specs.append((1, sign * (i + 1), i, 0, (1, i),
                              sign * (i + 1)))
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
            pinned_block(ctx, hw, *spec)
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


def test_resummed_route_matches_object_arithmetic_reference():
    # the pinnings at N=4 whose closed form is singular, so that
    # pinned_mode_value falls back to the resummed route: the raw-kernel
    # route equals the object-arithmetic one, each on its own context
    N = 4
    ctx, ref_ctx = ctx_n(N), ctx_n(N)
    hw, ref_hw = HighestWeight.generic(ctx), HighestWeight.generic(ref_ctx)
    family = default_braket_family(1)
    checked = 0
    for spec in _pinned_specs(N):
        try:
            pinned_block(ctx, hw, *spec)
            continue
        except PoleError:
            pass
        for bra in family:
            for ket in family:
                M = sum(k for _, k in ket) - sum(h for _, h in bra)
                got = pinned_mode_value_resummed(ctx, hw, bra, spec, ket, M)
                assert got == oracles.pinned_mode_value_resummed(
                    ref_ctx, ref_hw, bra, spec, ket, M), (spec, bra, ket)
                checked += bool(got)
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
            kc = oracles.contraction_coeffs(ctx, fa, fb, sb - sa, order)
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


def kernel_exponential(ctx, slotsA, slotsB, order):
    """The pair kernel built from scratch as one exponential, in the scalar
    objects: per order the slot pairs' contraction log terms summed, then
    out[j] = (1/j) sum_i (i log[i]) out[j-i]."""
    logs = [ctx.zero]
    for n in range(1, order + 1):
        acc = ctx.zero
        for fa, sa in slotsA:
            for fb, sb in slotsB:
                acc = acc + oracles.logkernel_term(ctx, contraction_logkernel(
                    ctx.N, fa, fb).shifted(sb - sa), n)
        logs.append(acc)
    out = [ctx.one]
    for j in range(1, order + 1):
        acc = ctx.zero
        for i in range(1, j + 1):
            if logs[i]:
                acc = acc + (i * logs[i]) * out[j - i]
        out.append(acc / j)
    return out


def stored_form(x):
    """Value and type of a scalar; for an hbar series also its slot types
    and truncation, through its canonical stored form."""
    if isinstance(x, HbarSeries):
        return (x.order, x.rows, x.D, x.trunc)
    return (type(x), x)


def raw_form(ctx, x):
    """A scalar as the reduced raw value of ctx.raw that kernel_coeffs
    stores (None for a Q(s) zero)."""
    lift, _, _, norm, _ = ctx.raw
    x = lift(x)
    return x if x is None else norm(x)


@pytest.mark.parametrize("mode", sorted(KERNEL_CONTEXTS))
@pytest.mark.parametrize("slots", range(len(KERNEL_SLOTS)))
def test_pair_kernel_grown_one_order_at_a_time_equals_fresh_build(mode, slots):
    slotsA, slotsB = KERNEL_SLOTS[slots]
    order = 5
    grown = KERNEL_CONTEXTS[mode]()
    for o in range(order + 1):
        got = kernel_coeffs(grown, slotsA, slotsB, o)
        assert len(got) == o + 1
    fresh = KERNEL_CONTEXTS[mode]()
    built = kernel_coeffs(fresh, slotsA, slotsB, order)
    assert [stored_form(c) for c in got] == [stored_form(c) for c in built]
    # the product of the slot pairs' kernels has the same values, each
    # through its own truncation; in the hbar limits the exponential knows
    # at least the product's orders
    want = kernel_product(KERNEL_CONTEXTS[mode](), slotsA, slotsB, order)
    drop = fresh.raw[4]
    assert [drop(c) for c in built] == want
    assert all(c.trunc >= w.trunc for c, w in zip(built, want)
               if isinstance(c, HbarSeries))
    # the stored form is the exponential's, built independently
    exp = kernel_exponential(KERNEL_CONTEXTS[mode](), slotsA, slotsB, order)
    assert [stored_form(c) for c in built] == \
        [stored_form(raw_form(fresh, c)) for c in exp]
    # a smaller order reads the cached coefficients back
    assert kernel_coeffs(grown, slotsA, slotsB, 2) is got


# one context per mode and rank, for the drawn slot-list pairs
KERNEL_MAKERS = {
    "generic": lambda N: ctx_n(N, 1),
    "limit1": lambda N: ScalarCtx.limit1(N, rat(4, 3), trunc=5),
    "limit2": lambda N: ScalarCtx.limit2(N, 1, trunc=4),
}


@st.composite
def slot_list_pairs(draw):
    """N and two slot lists: each a subset of the flavors 1..N, every slot
    at its own shift in -6..6."""
    N = draw(st.integers(2, 4))

    def slots():
        flavors = sorted(draw(st.sets(st.integers(1, N))))
        return tuple((f, draw(st.integers(-6, 6))) for f in flavors)

    return N, slots(), slots()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KERNEL_MAKERS)), slot_list_pairs())
def test_kernel_coeffs_equal_the_product_of_one_slot_kernels(mode, pair):
    N, slotsA, slotsB = pair
    order = 4
    built = kernel_coeffs(KERNEL_MAKERS[mode](N), slotsA, slotsB, order)
    built = built[:order + 1]
    ctx = KERNEL_MAKERS[mode](N)
    want = kernel_product(ctx, slotsA, slotsB, order)
    drop = ctx.raw[4]
    assert [drop(c) for c in built] == want
    if mode == "generic":
        # over Q(s) the stored raw values are the product's, reduced
        assert built == [raw_form(ctx, w) for w in want]
    else:
        assert all(c.trunc >= w.trunc for c, w in zip(built, want))


def test_second_identical_table_builds_no_block(monkeypatch):
    # blocks are cached per context and key, and values per engine profile,
    # so repeating a table recomputes no zero-mode product
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    calls = []

    def counted(*args):
        calls.append(args)
        return zero_mode(*args)

    monkeypatch.setattr(wcurrents, "zero_mode", counted)
    args = (ctx, hw, [(1, 1)], (1, 0), (2, 1), [(2, 1)], (1, 2),
            [(0, 0), (1, -1), (-1, 2)])
    first = two_current_mode_table(*args)
    assert calls
    calls.clear()
    assert two_current_mode_table(*args) == first
    assert not calls


def test_pinned_block_is_built_once_per_context():
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    blk = pinned_block(ctx, hw, 1, -4, 1, 0, dress=(1, 1))
    assert pinned_block(ctx, hw, 1, -4, 1, 0, dress=(1, 1)) is blk
    # the default dress (rank1, rank2) names the same block
    assert pinned_block(ctx, hw, 1, -4, 1, 0) is blk
    assert pinned_block(ctx, hw, 1, 4, 1, 0) is not blk


def _key_strings(key):
    """Every string inside a ctx.caches key, however deeply nested."""
    if isinstance(key, str):
        return {key}
    if isinstance(key, tuple):
        return set().union(*map(_key_strings, key))
    return set()


def test_blocks_are_keyed_by_content():
    # no cache key names an insertion point, so the bra and ket blocks of
    # one rank are one cached object
    ctx = ctx_n(3)
    hw = HighestWeight.generic(ctx)
    assert verify_w1wj(ctx, 2, window=1, level=1).status == "pass"
    assert set().union(*map(_key_strings, ctx.caches)) <= \
        {"W", "const", "pin", "ME", "f", "K", PREFIX_MEMO, STEP_STORE,
         hw.key()}
    [rank1] = [key for key in ctx.caches
               if key[0] == "W" and key[1:3] == (1, 0)]
    assert current_block(ctx, hw, 1) is ctx.caches[rank1]
    assert any(len(key[1]) > 2 and key[1][0] == key[1][-1] == rank1
               for key in ctx.caches if key[0] == "ME")


def test_singular_pinning_is_remembered(monkeypatch):
    # a pinning singular for some option raises at every call, but its
    # gamma factors are built once per context
    ctx = ctx_n(4)
    hw = HighestWeight.generic(ctx)
    calls = []

    def counted(*args):
        calls.append(args)
        return dressed_pin_factors(*args)

    dressed_pin_factors = wcurrents.dressed_pin_factors
    monkeypatch.setattr(wcurrents, "dressed_pin_factors", counted)
    for _ in range(3):
        with pytest.raises(PoleError):
            pinned_block(ctx, hw, 1, 1, 3, 1, dress=(1, 3))
        built = len(calls)
        assert built
    assert len(calls) == built
    [key] = [k for k in ctx.caches if k[0] == "pin"]
    assert ctx.caches[key].options is None
    # the resummed route still gives the element
    spec = (1, 1, 3, 1, (1, 3), None)
    assert pinned_mode_value(ctx, hw, [(1, 1)], spec, [(1, 1)], 0) == \
        pinned_mode_value_resummed(ctx, hw, [(1, 1)], spec, [(1, 1)], 0)


def _holds_scalar(x):
    """Whether a Fraction or QuadExt sits anywhere inside x: in its
    containers or, for an object with __slots__, in its slots."""
    if type(x) in (RAT, QuadExt):
        return True
    if isinstance(x, dict):
        return any(map(_holds_scalar, x.keys())) or \
            any(map(_holds_scalar, x.values()))
    if isinstance(x, (list, tuple)):
        return any(map(_holds_scalar, x))
    return any(_holds_scalar(getattr(x, name))
               for name in getattr(type(x), "__slots__", ()))


def test_context_caches_hold_one_entry_kind_per_quantity():
    # blocks, engines, pair kernels, log-kernel lists, the prefix memo and
    # the step store; nothing else below the block (zero modes, pinned
    # values) is cached
    ctx = ctx_n(3)
    for check in REFCOUNT_CASES["generic"][1]:
        assert check(ctx).status == "pass"
    _engine_values(ctx)
    pinned_mode_value_resummed(ctx, HighestWeight.generic(ctx), [(1, 1)],
                               (1, 1, 2, 0, (1, 2), None), [(1, 1)], 0)
    two_current_mode_table(ctx, HighestWeight.generic(ctx), [], (0, 0),
                           (1, 0), [(1, 1)], None, [(0, -1)])
    kinds = {key if key in (PREFIX_MEMO, STEP_STORE) else key[0]
             for key in ctx.caches}
    assert kinds == {"W", "const", "pin", "ME", "f", "K", PREFIX_MEMO,
                     STEP_STORE}
    assert all(type(v) is wcurrents.Block for k, v in ctx.caches.items()
               if k[0] in ("W", "const", "pin"))
    # a pair kernel holds raw values only: no scalar term or coefficient
    assert not any(_holds_scalar(v) for k, v in ctx.caches.items()
                   if k[0] == "K")


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
