import pytest

from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.exact import rat
from deformedw.fock import HighestWeight
from deformedw.relations import (cross_check_w2_route,
                                 default_braket_family,
                                 delta_mode_weight, order_reversal_check,
                                 verify_fusion, verify_nowwj, verify_poles,
                                 verify_w1wj, verify_w2wj, verify_wiwj)
from deformedw.report import CheckRecord, Report
from deformedw import suites
from deformedw.suites import suite_poles
from deformedw.wcurrents import PREFIX_MEMO, STEP_STORE
from oracles import delta_window


def ctx_n(N, point=0):
    q, t = DEFAULT_GENERIC_POINTS[point]
    return ScalarCtx.generic(N, q, t)


def test_braket_family():
    fam = default_braket_family(3)
    words = {tuple(h for _, h in w) for w in fam}
    assert words == {(), (1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)}


def test_delta_mode_weight_against_literal_delta():
    # delta(u z2/z1) F: the coefficient of z1^{-n} picks u^n; check against
    # the materialized all-ones window of the delta distribution
    ctx = ctx_n(2)
    u = ctx.s_pow(4)
    d = delta_window("x", 8)
    d = d.scale_var("x", u)  # delta(u x): coefficients u^r
    for n in range(-3, 4):
        assert d.coeffs[(n,)] == delta_mode_weight(ctx, 4, n)


def test_dva_relation_smallest():
    ctx = ctx_n(2)
    rec = verify_w1wj(ctx, 1, window=2, level=2)
    assert rec.ok, rec.detail
    # the j = N boundary: right side vanishes identically
    rec = verify_w1wj(ctx, 2, window=2, level=2)
    assert rec.ok, rec.detail


def test_relation_passes_on_vacuum_too():
    ctx = ctx_n(2)
    rec = verify_w1wj(ctx, 1, window=2, level=2,
                      hw=HighestWeight.vacuum(ctx))
    assert rec.ok, rec.detail


def test_w1wj_rejects_bad_rank():
    with pytest.raises(ValueError):
        verify_w1wj(ctx_n(2), 3)


def test_wiwj_boundary_cases():
    ctx = ctx_n(3)
    for (i, j) in ((0, 0), (0, 2), (0, 3), (1, 3), (3, 3)):
        rec = verify_wiwj(ctx, i, j, window=2, level=1)
        assert rec.ok, rec.detail


def test_wiwj_interior_N3():
    ctx = ctx_n(3)
    rec = verify_wiwj(ctx, 2, 2, window=2, level=2)
    assert rec.ok, rec.detail


def test_w2wj_and_route_N3():
    ctx = ctx_n(3)
    rec = verify_w2wj(ctx, 2, window=2, level=2)
    assert rec.ok, rec.detail
    rec = cross_check_w2_route(ctx, 2, window=2, level=2)
    assert rec.ok, rec.detail


def test_nowwj():
    ctx = ctx_n(2)
    rec = verify_nowwj(ctx, 1, 1, 6, window=2, level=2)
    assert rec.ok, rec.detail
    rec = verify_nowwj(ctx, 0, 1, 4, window=2, level=1)
    assert rec.ok, rec.detail


def test_nowwj_rejects_pole_shift():
    ctx = ctx_n(2)
    with pytest.raises(ValueError):
        verify_nowwj(ctx, 1, 1, 2)  # r on the pole set p^{+-(0/2+1)}


def test_fusion_small():
    ctx = ctx_n(2)
    rec = verify_fusion(ctx, 1, 1, window=2, level=1)
    assert rec.ok, rec.detail
    ctx = ctx_n(3)
    rec = verify_fusion(ctx, 1, 2, window=2, level=1)
    assert rec.ok, rec.detail


def test_poles_examples():
    # boundary: empty pole set gives a polynomial (degree-zero denominator)
    ctx = ctx_n(2)
    rec = verify_poles(ctx, 1, 2, order=10)  # (i,j) = (1,N): no poles
    assert rec.ok and "degree 0" in rec.detail
    rec = verify_poles(ctx, 1, 1)
    assert rec.ok, rec.detail
    ctx = ctx_n(3)
    rec = verify_poles(ctx, 1, 2)
    assert rec.ok, rec.detail


def test_poles_suite_case_keys_are_unique():
    # the vacuum and the generic highest-weight runs must not share a label
    records = suite_poles({})
    keys = [(r.suite, r.case) for r in records]
    assert len(records) == 24 and len(set(keys)) == len(keys)


def test_check_record_rejects_unknown_status():
    with pytest.raises(ValueError):
        CheckRecord("zeta", "c", "passed")
    report = Report()
    report.extend(CheckRecord("zeta", "c", s)
                  for s in ("pass", "fail", "inconclusive"))
    assert report.summary_lines()[-1] == \
        "total: 1 passed, 1 failed, 1 inconclusive"


def test_poles_insufficient_order():
    with pytest.raises(ValueError):
        verify_poles(ctx_n(2), 1, 1, order=4)


def test_order_reversal():
    ctx = ctx_n(3)
    assert order_reversal_check(ctx, 1, 1).ok
    assert order_reversal_check(ctx, 2, 2).ok


def test_point_independence():
    # pass/fail is identical across the two default generic points
    for point in (0, 1):
        ctx = ctx_n(2, point)
        assert verify_w1wj(ctx, 1, window=2, level=2).ok
        assert verify_fusion(ctx, 1, 1, window=2, level=1).ok


def test_prefix_memo_lives_for_one_case(monkeypatch):
    # engines and value caches stay on the context; the transfer-prefix memo
    # is dropped as each case returns
    ctx = ctx_n(2)
    rec = suites._case(verify_w1wj, ctx, 1, window=1, level=1)
    assert rec.status == "pass"
    assert PREFIX_MEMO not in ctx.caches
    assert any(isinstance(k, tuple) and k[0] == "ME" for k in ctx.caches)

    made = []
    gctx = suites._gctx
    monkeypatch.setattr(suites, "_gctx",
                        lambda N, point: made.append(gctx(N, point)) or made[-1])
    recs = suites.suite_relations({"n_values": "2", "window_rank1": "1",
                                   "level_rank1": "1", "window": "1",
                                   "level": "1"})
    assert recs and all(r.status == "pass" for r in recs)
    assert made and all(PREFIX_MEMO not in c.caches for c in made)


def test_step_store_lives_for_one_case(monkeypatch):
    # the transfer steps are dropped with the case, as the prefix memo is
    ctx = ctx_n(3)
    rec = suites._case(verify_wiwj, ctx, 1, 2, window=1, level=1)
    assert rec.status == "pass"
    assert STEP_STORE not in ctx.caches
    assert verify_wiwj(ctx, 1, 2, window=1, level=2).status == "pass"
    assert ctx.caches[STEP_STORE][0]

    made = []
    gctx = suites._gctx
    monkeypatch.setattr(suites, "_gctx",
                        lambda N, point: made.append(gctx(N, point)) or made[-1])
    small = {"n_values": "3", "window": "1", "level": "1",
             "points": "3/2,5/3"}
    for recs in (suites.suite_relations(dict(small, window_rank1="1",
                                             level_rank1="1")),
                 suites.suite_fusion(small)):
        assert recs and all(r.status == "pass" for r in recs)
    assert made and all(STEP_STORE not in c.caches for c in made)
