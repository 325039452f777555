"""Suite registry: named verification batches over configurable grids.

Each suite function takes a configuration mapping (string keys and values,
as parsed from the INI config) and yields CheckRecords in a deterministic
order.  Case execution is pure, so whole suites can run in parallel.
"""

from __future__ import annotations

from .characters import admissible_spins, verify_char_identity
from .context import DEFAULT_GENERIC_POINTS, ScalarCtx, _check_generic_point
from .exact import RAT, rat
from .fock import HighestWeight
from .limits import (verify_correlator_order, verify_limit_I_appendix,
                     verify_limit_II_relation)
from .relations import (cross_check_w2_route, order_reversal_check,
                        verify_fusion, verify_nowwj, verify_poles,
                        verify_w1wj, verify_w2wj, verify_wiwj)
from .report import CheckRecord
from .structfn import check_f_identities
from .wcurrents import PREFIX_MEMO, STEP_STORE
from .zalg import verify_principal_relations, verify_splitting_consistency
from .zeta import log_sinh_identity_holds, verify_zeta_identity, \
    verify_vacuum_eigenvalue, zeta_value


def _int(raw, lo=0):
    """One integer >= lo."""
    v = int(raw)
    if v < lo:
        raise ValueError(f"{v} is below {lo}")
    return v


def _ints(raw, lo):
    """Integers >= lo, separated by spaces or commas."""
    return [_int(x, lo) for x in raw.replace(",", " ").split()]


def _ranks(raw):
    return _ints(raw, 2)


def _levels(raw):
    return _ints(raw, 1)


def _positive(raw):
    return _int(raw, 1)


def _at_least_one(why):
    """Parser of one integer >= 1 for a key whose check has no evidence at
    0; `why` says what the check compares there."""
    def parse(raw):
        v = int(raw)
        if v < 1:
            raise ValueError(f"must be at least 1: {why}")
        return v
    return parse


def _two(chunk):
    parts = chunk.split(",")
    if len(parts) != 2:
        raise ValueError(f"{chunk.strip()!r} is not a pair a,b")
    return parts


def _pairs(raw):
    """(N, k) pairs from a "N,k; N,k" option, N >= 2 and k != 0."""
    out = []
    for chunk in raw.split(";"):
        a, b = _two(chunk)
        N, k = _int(a, 2), int(b)
        if not k:
            raise ValueError("a level must be nonzero")
        out.append((N, k))
    return out


def _points(raw):
    """Generic (q, t) points from a "q,t; q,t" option."""
    pts = []
    for chunk in raw.split(";"):
        try:
            q, t = (RAT(x.strip()) for x in _two(chunk))
        except ZeroDivisionError:
            raise ValueError(f"{chunk.strip()!r} has a zero denominator") \
                from None
        _check_generic_point(q, t)
        pts.append((q, t))
    return pts


# per suite, the options its section may set: key -> (parser, default)
_POINTS = (_points, DEFAULT_GENERIC_POINTS)
_OPTIONS = {
    "relations": {"n_values": (_ranks, (2, 3, 4)), "window_rank1": (_int, 3),
                  "level_rank1": (_int, 3), "window": (_int, 2),
                  "level": (_int, 2), "points": _POINTS},
    "f-identities": {"n_values": (_ranks, (2, 3, 4)),
                     "order": (_at_least_one(
                         "at order 0 each identity compares only x^0, where "
                         "every f and gamma series is 1"), 12),
                     "points": _POINTS},
    "poles": {"n_values": (_ranks, (2, 3)), "order": (_int, 14),
              "points": _POINTS},
    "fusion": {"n_values": (_ranks, (2, 3)), "window": (_int, 2),
               "level": (_int, 2), "points": _POINTS},
    "limit1": {"n_values": (_ranks, (2, 3, 4, 5)), "window": (_int, 2),
               "order_h": (_int, 6)},
    "limit2": {"nk_pairs": (_pairs, ((2, 2), (2, 3), (3, 1), (3, 2))),
               "order_x": (_int, 12),
               "correlator_nk_pairs": (_pairs, ((2, 2), (3, 2))),
               "correlator_points": (_int, 4),
               "correlator_order_x": (_at_least_one(
                   "at order 0 only the zero profile is compared, where an "
                   "n-point value is the product of n one-point values"), 8)},
    "zalgebra": {"n_values": (_ranks, (2, 3, 4)), "order": (_int, 12),
                 "nk_pairs": (_pairs, ((2, 1), (2, 2), (3, 1), (3, 2)))},
    "characters": {"k_values": (_levels, (2, 3, 4)),
                   "cutoff": (_at_least_one(
                       "at cutoff 0 only the leading coefficient is "
                       "compared, 1 on both sides"), 20)},
    "zeta": {"n_values": (_ranks, (2, 3, 4, 5)), "order_m": (_positive, 6),
             "points": _POINTS},
}


def _options(name, cfg):
    """The options of suite `name` from its config section `cfg` (string
    keys and values), defaults filled in; ValueError names the first unknown
    key or bad value."""
    known = _OPTIONS[name]
    out = {key: default for key, (_, default) in known.items()}
    for key, raw in cfg.items():
        if key not in known:
            raise ValueError(f"[{name}] unknown key {key!r}; known keys: "
                             f"{', '.join(sorted(known))}")
        try:
            out[key] = known[key][0](str(raw))
        except ValueError as exc:
            raise ValueError(f"[{name}] {key} = {raw!r}: "
                             f"{' '.join(str(exc).split())}") from None
    if name == "poles":
        _check_poles_order(cfg, out)
    for window, level in _WINDOWS.get(name, ()):
        _check_window(name, cfg, out, window, level)
    return out


def _shown(cfg, o, keys):
    """The keys of a rule over several keys, as set or as defaulted."""
    return " with ".join(f"{key} = {str(cfg[key])!r}" if key in cfg
                         else f"{key} = {o[key]} (default)" for key in keys)


# the (i, j) pairs of the poles suite
_POLE_PAIRS = ((1, 1), (1, 2), (2, 2))


def _check_poles_order(cfg, o):
    """verify_poles reconstructs a denominator of degree deg = 2*min(i, N-j)
    from `order` >= 4*deg + 2 coefficients; a rule over two keys, so it is
    checked once both are parsed."""
    need = 4 * max([2 * min(i, N - j) for N in o["n_values"]
                    for i, j in _POLE_PAIRS], default=0) + 2
    if o["order"] < need:
        raise ValueError(f"[poles] {_shown(cfg, o, ('order', 'n_values'))}: "
                         f"order must be at least {need} for these ranks "
                         f"(4*deg + 2, deg = 2*min(i, N - j))")


# per suite, the (window, level) key pairs of its bra/ket sweeps
_WINDOWS = {"relations": (("window_rank1", "level_rank1"),
                          ("window", "level")),
            "fusion": (("window", "level"),)}


def _check_window(name, cfg, o, window, level):
    """A sweep compares a bra/ket pair only at modes whose sum, the level
    difference, is at most 2*window in size; over the family up to `level`
    that difference runs to level, so window >= level/2 compares every
    pair."""
    need = (o[level] + 1) // 2
    if o[window] < need:
        raise ValueError(f"[{name}] {_shown(cfg, o, (window, level))}: "
                         f"{window} must be at least {need} for this "
                         f"{level} (2*{window} >= {level}), or a bra/ket "
                         f"pair whose levels differ by more than 2*{window} "
                         f"compares nothing")


def check_options(name, cfg):
    """Raise ValueError naming the section, the key and the value of the
    first unknown key or bad value in suite `name`'s config section."""
    _options(name, cfg)


def _gctx(N, point):
    return ScalarCtx.generic(N, point[0], point[1])


def _case(check, ctx, *args, **kw):
    """One case on a context that later cases share: engines and their
    value caches stay, the transfer-prefix memo and the transfer-step store
    are dropped with the case."""
    rec = check(ctx, *args, **kw)
    ctx.caches.pop(PREFIX_MEMO, None)
    ctx.caches.pop(STEP_STORE, None)
    return rec


def suite_relations(cfg):
    """Quadratic relations: the rank-1 and rank-2 families at their printed
    forms, the general delta-sum relation, the normal-ordering rewrite route,
    order reversal, and the explicit rewrite identity at good shifts."""
    o = _options("relations", cfg)
    ns = o["n_values"]
    w1 = o["window_rank1"]
    l1 = o["level_rank1"]
    w = o["window"]
    level = o["level"]
    out = []
    for point in o["points"]:
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
    o = _options("f-identities", cfg)
    ns = o["n_values"]
    order = o["order"]
    out = []
    for point in o["points"]:
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
    o = _options("poles", cfg)
    ns = o["n_values"]
    order = o["order"]
    out = []
    for point in o["points"]:
        for N in ns:
            ctx = _gctx(N, point)
            for (i, j) in _POLE_PAIRS:
                out.append(verify_poles(ctx, i, j, order=order))
                out.append(verify_poles(ctx, i, j, order=order,
                                        hw=HighestWeight.generic(ctx)))
    return out


def suite_fusion(cfg):
    o = _options("fusion", cfg)
    ns = o["n_values"]
    w = o["window"]
    level = o["level"]
    out = []
    for point in o["points"]:
        for N in ns:
            ctx = _gctx(N, point)
            for i in range(0, N + 1):
                for j in range(i, N + 1):
                    out.append(_case(verify_fusion, ctx, i, j, window=w,
                                     level=level))
    return out


def suite_limit1(cfg):
    o = _options("limit1", cfg)
    ns = o["n_values"]
    window = o["window"]
    trunc = o["order_h"] + 2
    out = []
    for N in ns:
        for beta in (rat(N + 1, N), rat(N, N + 1)):
            ctx = ScalarCtx.limit1(N, beta, trunc=trunc)
            for i in range(0, N + 1):
                out.append(_case(verify_limit_I_appendix, ctx, i,
                                 window=window))
    return out


def suite_limit2(cfg):
    o = _options("limit2", cfg)
    order_x = o["order_x"]
    corr_n = o["correlator_points"]
    corr_x = o["correlator_order_x"]
    out = []
    for N, k in o["nk_pairs"]:
        ctx = ScalarCtx.limit2(N, k, trunc=4)
        for i in range(1, N):
            for j in range(1, N):
                out.append(verify_limit_II_relation(ctx, i, j, order_x=order_x))
    for N, k in o["correlator_nk_pairs"]:
        for n in range(1, corr_n + 1):
            ctx = ScalarCtx.limit2(N, k, trunc=n + 1)
            out.append(verify_correlator_order(ctx, n, order_x=corr_x))
    return out


def suite_zalgebra(cfg):
    o = _options("zalgebra", cfg)
    ns = o["n_values"]
    order = o["order"]
    out = []
    for N in ns:
        out.append(verify_principal_relations(N, 2, 2 * N + 1))
    for N, k in o["nk_pairs"]:
        for mu in range(1, N):
            for nu in range(1, N):
                out.append(verify_splitting_consistency(N, k, mu, nu, order))
    return out


def suite_characters(cfg):
    o = _options("characters", cfg)
    ks = o["k_values"]
    cutoff = o["cutoff"]
    out = []
    for k in ks:
        for j in admissible_spins(k):
            out.append(verify_char_identity(k, j, cutoff))
    return out


def suite_zeta(cfg):
    o = _options("zeta", cfg)
    ns = o["n_values"]
    M = o["order_m"]
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
    for point in o["points"]:
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
