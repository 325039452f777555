"""Suite registry: named verification batches over configurable grids.

Each suite function takes a configuration mapping (string keys and values,
as parsed from the INI config) and yields CheckRecords in a deterministic
order.  Case execution is pure, so whole suites can run in parallel.
"""

from __future__ import annotations

from .characters import admissible_spins, verify_char_identity
from .context import DEFAULT_GENERIC_POINTS, ScalarCtx
from .exact import RAT, rat
from .fock import HighestWeight
from .limits import (verify_correlator_order, verify_limit_I_appendix,
                     verify_limit_II_relation)
from .relations import (CheckRecord, cross_check_w2_route,
                        order_reversal_check, verify_fusion, verify_nowwj,
                        verify_poles, verify_w1wj, verify_w2wj, verify_wiwj)
from .structfn import check_f_identities
from .wcurrents import PREFIX_MEMO
from .zalg import verify_principal_relations, verify_splitting_consistency
from .zeta import log_sinh_identity_holds, verify_zeta_identity, \
    verify_vacuum_eigenvalue, zeta_value


def _ints(cfg, key, default):
    raw = cfg.get(key)
    if raw is None:
        return list(default)
    return [int(x) for x in str(raw).replace(",", " ").split()]


def _int(cfg, key, default):
    return int(cfg.get(key, default))


def _pairs(cfg, key, default):
    """(N, k) pairs from a "N,k; N,k" option."""
    out = []
    for chunk in cfg.get(key, default).split(";"):
        a, b = chunk.split(",")
        out.append((int(a), int(b)))
    return out


def _points(cfg):
    raw = cfg.get("points")
    if raw is None:
        return list(DEFAULT_GENERIC_POINTS)
    pts = []
    for chunk in raw.split(";"):
        qs, ts = chunk.split(",")
        pts.append((RAT(qs.strip()), RAT(ts.strip())))
    return pts


def _gctx(N, point):
    return ScalarCtx.generic(N, point[0], point[1])


def _case(check, ctx, *args, **kw):
    """One case on a context that later cases share: engines and their
    value caches stay, the transfer-prefix memo is dropped with the case."""
    rec = check(ctx, *args, **kw)
    ctx.caches.pop(PREFIX_MEMO, None)
    return rec


def suite_relations(cfg):
    """Quadratic relations: the rank-1 and rank-2 families at their printed
    forms, the general delta-sum relation, the normal-ordering rewrite route,
    order reversal, and the explicit rewrite identity at good shifts."""
    ns = _ints(cfg, "n_values", (2, 3, 4))
    w1 = _int(cfg, "window_rank1", 3)
    l1 = _int(cfg, "level_rank1", 3)
    w = _int(cfg, "window", 2)
    level = _int(cfg, "level", 2)
    out = []
    for point in _points(cfg):
        for N in ns:
            ctx = _gctx(N, point)
            for j in range(1, N + 1):
                out.append(_case(verify_w1wj, ctx, j, window=w1,
                                 level=l1))
            if N >= 3:
                for j in range(2, N + 1):
                    out.append(_case(verify_w2wj, ctx, j, window=w,
                                     level=level))
                for i in range(0, N + 1):
                    for j in range(i, N + 1):
                        out.append(_case(verify_wiwj, ctx, i, j, window=w,
                                         level=level))
                out.append(_case(cross_check_w2_route, ctx, 2, window=w,
                                 level=level))
                out.append(_case(order_reversal_check, ctx, 2, 2))
            out.append(_case(verify_nowwj, ctx, 1, 1, 6, window=w,
                             level=level))
            if N >= 3:
                out.append(_case(verify_nowwj, ctx, 1, 2, 8, window=w,
                                 level=level))
    return out


def suite_f_identities(cfg):
    ns = _ints(cfg, "n_values", (2, 3, 4))
    order = _int(cfg, "order", 12)
    out = []
    for point in _points(cfg):
        for N in ns:
            ctx = _gctx(N, point)
            results = check_f_identities(ctx, N, order)
            bad = [r for r in results if not r[1]]
            case = f"N={N}:order={order}:{ctx.describe()}"
            if bad:
                out.append(CheckRecord("f-identities", case, "fail",
                                       "; ".join(f"{k}: {d}" for k, _, d in bad[:3])))
            else:
                out.append(CheckRecord("f-identities", case, "pass",
                                       f"{len(results)} identities"))
    return out


def suite_poles(cfg):
    ns = _ints(cfg, "n_values", (2, 3))
    order = _int(cfg, "order", 14)
    out = []
    for point in _points(cfg):
        for N in ns:
            ctx = _gctx(N, point)
            for (i, j) in ((1, 1), (1, 2), (2, 2)):
                out.append(verify_poles(ctx, i, j, order=order))
                out.append(verify_poles(ctx, i, j, order=order,
                                        hw=HighestWeight.generic(ctx)))
    return out


def suite_fusion(cfg):
    ns = _ints(cfg, "n_values", (2, 3))
    w = _int(cfg, "window", 2)
    level = _int(cfg, "level", 2)
    out = []
    for point in _points(cfg):
        for N in ns:
            ctx = _gctx(N, point)
            for i in range(0, N + 1):
                for j in range(i, N + 1):
                    out.append(_case(verify_fusion, ctx, i, j, window=w,
                                     level=level))
    return out


def suite_limit1(cfg):
    ns = _ints(cfg, "n_values", (2, 3, 4, 5))
    window = _int(cfg, "window", 2)
    trunc = _int(cfg, "order_h", 6) + 2
    out = []
    for N in ns:
        for beta in (rat(N + 1, N), rat(N, N + 1)):
            ctx = ScalarCtx.limit1(N, beta, trunc=trunc)
            for i in range(0, N + 1):
                out.append(_case(verify_limit_I_appendix, ctx, i,
                                 window=window))
    return out


def suite_limit2(cfg):
    order_x = _int(cfg, "order_x", 12)
    corr_n = _int(cfg, "correlator_points", 4)
    corr_x = _int(cfg, "correlator_order_x", 8)
    out = []
    for N, k in _pairs(cfg, "nk_pairs", "2,2; 2,3; 3,1; 3,2"):
        ctx = ScalarCtx.limit2(N, k, trunc=4)
        for i in range(1, N):
            for j in range(1, N):
                out.append(verify_limit_II_relation(ctx, i, j, order_x=order_x))
    for N, k in _pairs(cfg, "correlator_nk_pairs", "2,2; 3,2"):
        for n in range(1, corr_n + 1):
            ctx = ScalarCtx.limit2(N, k, trunc=n + 1)
            out.append(verify_correlator_order(ctx, n, order_x=corr_x))
    return out


def suite_zalgebra(cfg):
    ns = _ints(cfg, "n_values", (2, 3, 4))
    order = _int(cfg, "order", 12)
    out = []
    for N in ns:
        out.append(verify_principal_relations(N, 2, 2 * N + 1))
    for N, k in _pairs(cfg, "nk_pairs", "2,1; 2,2; 3,1; 3,2"):
        for mu in range(1, N):
            for nu in range(1, N):
                out.append(verify_splitting_consistency(N, k, mu, nu, order))
    return out


def suite_characters(cfg):
    ks = _ints(cfg, "k_values", (2, 3, 4))
    cutoff = _int(cfg, "cutoff", 20)
    out = []
    for k in ks:
        for j in admissible_spins(k):
            out.append(verify_char_identity(k, j, cutoff))
    return out


def suite_zeta(cfg):
    ns = _ints(cfg, "n_values", (2, 3, 4, 5))
    M = _int(cfg, "order_m", 6)
    out = []
    ok = zeta_value(1) == rat(-1, 12)
    out.append(CheckRecord("zeta", "zeta(-1)", "pass" if ok else "fail",
                           str(zeta_value(1))))
    ok = log_sinh_identity_holds(M)
    out.append(CheckRecord("zeta", f"log-sinh:order={2 * M}",
                           "pass" if ok else "fail"))
    for N in ns:
        for i in range(1, N):
            for beta in (rat(N + 1, N), rat(N, N + 1)):
                out.append(verify_zeta_identity(N, i, beta, M=M))
    for point in _points(cfg):
        for N in ns:
            ctx = _gctx(N, point)
            for i in range(0, N + 1):
                out.append(verify_vacuum_eigenvalue(ctx, i))
    return out


SUITES = {
    "relations": (suite_relations,
                  "quadratic relations, rewrite route, order reversal"),
    "f-identities": (suite_f_identities,
                     "structure-function product identities and regularity"),
    "poles": (suite_poles, "rational reconstruction of pole structure"),
    "fusion": (suite_fusion, "fusion limits of current products"),
    "limit1": (suite_limit1, "conformal-side vacuum behavior"),
    "limit2": (suite_limit2,
               "reduction to the principal Z-algebra exchange relation"),
    "zalgebra": (suite_zalgebra,
                 "principal basis change and Cartan splitting"),
    "characters": (suite_characters, "q-series character identity"),
    "zeta": (suite_zeta, "regularized self-contraction vs p-binomials"),
}
