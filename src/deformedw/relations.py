"""Mechanical verification of the quadratic relations between currents, the
normal-ordering rewrite, the fusion relations, and the pole structure.

Everything is checked in mode form: for a grid of outer modes (n, m) and a
family of bra/ket mode monomials, both sides of an identity are evaluated by
independent code paths (series-weighted correlator extraction on the left,
pinned dressed pairs / composite mode sums on the right) and compared as
exact scalars.

The delta-function translation is fixed once here: a term
delta(u z2/z1) F(z1, z2) contributes u^n times the z2-mode (n+m) of F pinned
at z1 = u z2 to the (n, m) mode equation.
"""

from __future__ import annotations

from .context import ScalarCtx
from .fock import HighestWeight
from .report import CheckRecord
from .series import rational_reconstruct
from .structfn import f_series, gamma_ladder
from .wcurrents import (WInsertion, composite_no_mode, pinned_mode_value,
                        single_current_mode_value, two_current_mode_table,
                        w_correlator)


def delta_mode_weight(ctx: ScalarCtx, u_sexp: int, n: int):
    """The factor that delta(u z2/z1) contributes to the coefficient of
    z1^{-n}: u^n, with u = s^{u_sexp}."""
    return ctx.s_pow(u_sexp * n)


ZERO_MODES_CENTRAL = "zero modes central"


def default_braket_family(level: int):
    """Monomials in rank-1 modes up to the given total level (descending mode
    sequences), including the empty word."""
    parts = [()]
    for total in range(1, level + 1):
        def extend(prefix, remaining, maxpart):
            if remaining == 0:
                parts.append(prefix)
                return
            for part in range(min(remaining, maxpart), 0, -1):
                extend(prefix + (part,), remaining - part, part)
        extend((), total, total)
    return [tuple((1, p) for p in word) for word in parts]


def lhs_mode_table(ctx, hw, i, j, bra, ket, nm_list):
    """f^{i,j}(z2/z1) W^i(z1) W^j(z2) - W^j(z2) W^i(z1) f^{j,i}(z1/z2) in mode
    form, evaluated per (n, m)."""
    t1 = two_current_mode_table(ctx, hw, bra, (i, 0), (j, 0), ket,
                                (i, j), nm_list)
    t2 = two_current_mode_table(ctx, hw, bra, (j, 0), (i, 0), ket,
                                (j, i), [(m, n) for n, m in nm_list])
    return {nm: t1[nm] - t2[(nm[1], nm[0])] for nm in nm_list}


def delta_pin(i: int, j: int, k: int, sign: int):
    """The pinning of the k-th delta term of the (i, j) relation at
    delta(p^{sign((j-i)/2+k)} z2/z1): the content
    f^{i-k,j+k}(p^{(j-i)/2}) W^{i-k}(p^{-k/2} z1) W^{j+k}(p^{k/2} z2) at
    z1 = s^{sign((j-i)+2k)} z2, as the tuple of pinned_block's arguments."""
    return (i - k, sign * (j - i + k), j + k, sign * k, (i - k, j + k), None)


def rhs_mode_table(ctx, hw, i, j, bra, ket, nm_list):
    """The delta-term side of the general quadratic relation (k-sum over
    pinned dressed pairs) in mode form."""
    N = ctx.N
    pref = ctx.prefactor()
    out = {nm: ctx.zero for nm in nm_list}
    modes = sorted({n + m for n, m in nm_list})
    for k in range(1, i + 1):
        if j + k > N:
            continue
        coeff = -(pref * gamma_ladder(ctx, k))
        plus, minus = ({M: pinned_mode_value(ctx, hw, bra,
                                             delta_pin(i, j, k, sign), ket, M)
                        for M in modes} for sign in (1, -1))
        for n, m in nm_list:
            M = n + m
            term = delta_mode_weight(ctx, (j - i) + 2 * k, n) * plus[M] \
                - delta_mode_weight(ctx, -(j - i) - 2 * k, n) * minus[M]
            out[(n, m)] = out[(n, m)] + coeff * term
    return out


def _nm_grid(window: int, bra, ket):
    """Mode pairs |n|,|m| <= window compatible with the bra/ket level balance
    (all others vanish identically on both sides)."""
    shift = sum(k for _, k in ket) - sum(h for _, h in bra)
    return [(n, m) for n in range(-window, window + 1)
            for m in range(-window, window + 1) if n + m == shift]


def _balanced_mode(window: int, bra, ket):
    """The one z-mode M that the bra/ket level balance allows, if
    |M| <= 2 window."""
    M = sum(k for _, k in ket) - sum(h for _, h in bra)
    return [M] if abs(M) <= 2 * window else []


def _sweep(suite, case, keys, window, level, labels, sides):
    """Compare the two tables `sides(bra, ket, ks)` over the bra/ket family
    up to `level`, at the keys `ks = keys(window, bra, ket)` (`_nm_grid` or
    `_balanced_mode`).  The record fails at the first unequal key, its detail
    naming the key, the bra, the ket and the two sides by `labels`."""
    name = "(n,m)" if keys is _nm_grid else "M"
    family = default_braket_family(level)
    for bra in family:
        for ket in family:
            ks = keys(window, bra, ket)
            if not ks:
                continue
            a, b = sides(bra, ket, ks)
            for key in ks:
                if a[key] - b[key]:
                    return CheckRecord(
                        suite, case, "fail",
                        f"{name}={key} bra={bra} ket={ket}: "
                        f"{labels[0]}={a[key]} {labels[1]}={b[key]}",
                        (ZERO_MODES_CENTRAL,))
    return CheckRecord(suite, case, "pass", "", (ZERO_MODES_CENTRAL,))


def verify_wiwj(ctx: ScalarCtx, i: int, j: int, window: int, level: int,
                hw: HighestWeight | None = None, suite="wiwj"):
    """General quadratic relation in mode form on the whole bra/ket family up
    to the given level; exact equality of both sides."""
    N = ctx.N
    if not 0 <= i <= j <= N:
        raise ValueError("need 0 <= i <= j <= N")
    if hw is None:
        hw = HighestWeight.generic(ctx)
    case = f"N={N}:i={i}:j={j}:w={window}:L={level}:{ctx.describe()}"
    return _sweep(
        suite, case, _nm_grid, window, level, ("lhs", "rhs"),
        lambda bra, ket, nm: (lhs_mode_table(ctx, hw, i, j, bra, ket, nm),
                              rhs_mode_table(ctx, hw, i, j, bra, ket, nm)))


def verify_w1wj(ctx: ScalarCtx, j: int, window: int = 3, level: int = 3,
                hw=None):
    """Rank-1 against rank-j relation (the classical two-term delta form)."""
    if not 1 <= j <= ctx.N:
        raise ValueError("need 1 <= j <= N")
    return verify_wiwj(ctx, 1, j, window, level, hw, suite="w1wj")


def w2wj_rhs_paper_form(ctx, hw, j, bra, ket, nm_list):
    """The rank-2 relation's right side exactly as printed: gamma-weighted
    W^{j+2} delta terms, composite normal-ordered W^1 W^{j+1} terms, and the
    four squared-prefactor W^{j+2} terms."""
    N = ctx.N
    pref = ctx.prefactor()
    p = ctx.p_pow(1)
    out = {nm: ctx.zero for nm in nm_list}
    modes = sorted({n + m for n, m in nm_list})

    def single(rank, sshift):
        return {M: single_current_mode_value(ctx, hw, bra, rank, sshift, ket, M)
                for M in modes}

    # term 1: -A gamma(p^{3/2}) [delta(p^{j/2+1}) W^{j+2}(p z2) - ...]
    if j + 2 <= N:
        g3 = gamma_ladder(ctx, 2)  # gamma(p^{3/2})
        wp = single(j + 2, 2)
        wm = single(j + 2, -2)
        for n, m in nm_list:
            M = n + m
            t = delta_mode_weight(ctx, j + 2, n) * wp[M] \
                - delta_mode_weight(ctx, -j - 2, n) * wm[M]
            out[(n, m)] = out[(n, m)] - pref * g3 * t
    # term 2: -A [delta(p^{j/2}) oo W^1(p^{-1/2}z1) W^{j+1}(p^{1/2}z2) oo - ...]
    if j + 1 <= N:
        comp_p = {M: ctx.s_pow(-M) * composite_no_mode(
            ctx, hw, 1, j + 1, j - 2, M, bra, ket) for M in modes}
        comp_m = {M: ctx.s_pow(M) * composite_no_mode(
            ctx, hw, 1, j + 1, 2 - j, M, bra, ket) for M in modes}
        for n, m in nm_list:
            M = n + m
            t = delta_mode_weight(ctx, j, n) * comp_p[M] \
                - delta_mode_weight(ctx, -j, n) * comp_m[M]
            out[(n, m)] = out[(n, m)] - pref * t
    # term 3: +A^2 [delta(p^{j/2})(p^2/(1-p^2) W^{j+2}(p z2) + 1/(1-p^j) W^{j+2}(z2))
    #              - delta(p^{-j/2})(p^j/(1-p^j) W^{j+2}(z2) + 1/(1-p^2) W^{j+2}(p^{-1} z2))]
    if j + 2 <= N:
        c2 = 1 - ctx.p_pow(2)
        cj = 1 - ctx.p_pow(j)
        w2p = single(j + 2, 2)
        w0 = single(j + 2, 0)
        w2m = single(j + 2, -2)
        for n, m in nm_list:
            M = n + m
            tp = (p * p / c2) * w2p[M] + w0[M] / cj
            tm = (ctx.p_pow(j) / cj) * w0[M] + w2m[M] / c2
            t = delta_mode_weight(ctx, j, n) * tp \
                - delta_mode_weight(ctx, -j, n) * tm
            out[(n, m)] = out[(n, m)] + pref * pref * t
    return out


def verify_w2wj(ctx: ScalarCtx, j: int, window: int = 2, level: int = 2,
                hw=None):
    """Rank-2 relation in the literal printed form (composite normal ordering
    on the right), against the mode-form left side."""
    N = ctx.N
    if not 2 <= j <= N:
        raise ValueError("need 2 <= j <= N")
    if hw is None:
        hw = HighestWeight.generic(ctx)
    case = f"N={N}:j={j}:w={window}:L={level}:{ctx.describe()}"
    return _sweep(
        "w2wj", case, _nm_grid, window, level, ("lhs", "rhs"),
        lambda bra, ket, nm: (lhs_mode_table(ctx, hw, 2, j, bra, ket, nm),
                              w2wj_rhs_paper_form(ctx, hw, j, bra, ket, nm)))


def cross_check_w2_route(ctx: ScalarCtx, j: int, window: int = 2,
                         level: int = 2, hw=None):
    """The printed rank-2 right side must equal the general k-sum right side
    term by term (the normal-ordering rewrite route)."""
    N = ctx.N
    if hw is None:
        hw = HighestWeight.generic(ctx)
    case = f"N={N}:j={j}:w={window}:L={level}:{ctx.describe()}"
    return _sweep(
        "w2-route", case, _nm_grid, window, level, ("paper", "rewrite"),
        lambda bra, ket, nm: (w2wj_rhs_paper_form(ctx, hw, j, bra, ket, nm),
                              rhs_mode_table(ctx, hw, 2, j, bra, ket, nm)))


def verify_nowwj(ctx: ScalarCtx, i: int, j: int, r_sexp: int,
                 window: int = 2, level: int = 2, hw=None):
    """Normal-ordering rewrite: f^{i,j}(r^{-1}) W^i(rz) W^j(z) equals the
    composite product plus the k-correction sum, as z-mode matrix elements."""
    N = ctx.N
    if not 0 <= i <= j <= N:
        raise ValueError("need 0 <= i <= j <= N")
    if hw is None:
        hw = HighestWeight.generic(ctx)
    # goodness of r: stay off the pole set p^{+-((j-i)/2+k)}
    for k in range(1, min(i, N - j) + 1):
        if r_sexp in ((j - i) + 2 * k, -(j - i) - 2 * k):
            raise ValueError("r hits a pole of the dressed product")
    case = f"N={N}:i={i}:j={j}:r=s^{r_sexp}:w={window}:L={level}:{ctx.describe()}"
    pref = ctx.prefactor()

    def sides(bra, ket, modes):
        [M] = modes
        lhs = pinned_mode_value(ctx, hw, bra, (i, r_sexp, j, 0, (i, j), None),
                                ket, M)
        rhs = composite_no_mode(ctx, hw, i, j, r_sexp, M, bra, ket)
        for k in range(1, i + 1):
            if j + k > N:
                continue
            lad = gamma_ladder(ctx, k)
            den_m = 1 - ctx.s_pow(r_sexp - (j - i) - 2 * k)
            den_p = 1 - ctx.s_pow(r_sexp + (j - i) + 2 * k)
            plus, minus = (pinned_mode_value(ctx, hw, bra,
                                             delta_pin(i, j, k, sign), ket, M)
                           for sign in (1, -1))
            rhs = rhs + pref * lad * (plus / den_m - minus / den_p)
        return {M: lhs}, {M: rhs}

    return _sweep("noww", case, _balanced_mode, window, level,
                  ("lhs", "rhs"), sides)


def verify_fusion(ctx: ScalarCtx, i: int, j: int, window: int = 2,
                  level: int = 2, hw=None):
    """Both fusion relations, both signs, as mode matrix elements.

    rank-1 fusion: lim_{z1 -> p^{+-(j+1)/2} z2} of
    (1 - p^{+-(j+1)/2} z2/z1) f^{1,j}(z2/z1) W^1(z1) W^j(z2)
      = -+ A W^{j+1}(p^{+-1/2} z2).
    general fusion: lim_{z2 -> p^{-+(j+i)/2} z1} of
    (1 - p^{-+(j+i)/2} z1/z2) f^{j,i}(z1/z2) W^j(z2) W^i(z1)
      = +- A prod gamma * W^{j+i}(p^{-+j/2} z1).
    """
    N = ctx.N
    if hw is None:
        hw = HighestWeight.generic(ctx)
    case = f"N={N}:i={i}:j={j}:w={window}:L={level}:{ctx.describe()}"
    pref = ctx.prefactor()

    def run_side(pin, rhs_coeff, rhs_rank, rhs_shift, label):
        def sides(bra, ket, modes):
            [M] = modes
            lhs = pinned_mode_value(ctx, hw, bra, pin, ket, M)
            if rhs_rank < 0 or rhs_rank > N:
                rhs = ctx.zero
            else:
                rhs = rhs_coeff * single_current_mode_value(
                    ctx, hw, bra, rhs_rank, rhs_shift, ket, M)
            return {M: lhs}, {M: rhs}
        return _sweep("fusion", case + ":" + label, _balanced_mode, window,
                      level, ("lhs", "rhs"), sides)

    checks = []
    if 1 <= j <= N:
        for sign in (1, -1):
            # pinned: z1 = s^{sign(j+1)} z2; clear factor (1 - s^{sign(j+1)} z2/z1)
            pin = (1, sign * (j + 1), j, 0, (1, j), sign * (j + 1))
            rec = run_side(pin, -sign * pref, j + 1, sign,
                           f"rank1:sign={sign:+d}")
            if not rec.ok:
                return rec
            checks.append(f"rank1:{sign:+d}")
    if 0 <= i <= j <= N:
        for sign in (1, -1):
            # ordered W^j(z2) W^i(z1), pinned z2 = s^{-sign(j+i)} z1,
            # clear factor (1 - s^{-sign(j+i)} z1/z2)
            pin = (j, -sign * (j + i), i, 0, (j, i), -sign * (j + i))
            # with i = 0 the delta sum is empty, the product has no pole at
            # the fusion point, and the cleared limit vanishes identically
            coeff = ctx.zero if i == 0 else \
                sign * pref * gamma_ladder(ctx, i)
            rec = run_side(pin, coeff, j + i, -sign * j,
                           f"general:sign={sign:+d}")
            if not rec.ok:
                return rec
            checks.append(f"general:{sign:+d}")
    return CheckRecord("fusion", case, "pass", ";".join(checks),
                       (ZERO_MODES_CENTRAL,))


def verify_poles(ctx: ScalarCtx, i: int, j: int, order: int = 14, hw=None):
    """Reconstruct f^{i,j}(x) <lambda| W^i(z1) W^j(z2) |lambda> as a rational
    function of x = z2/z1 and check that the denominator's roots are exactly
    p^{+-((j-i)/2+k)}, 1 <= k <= min(i, N-j).  Evidence-grade: reports
    "reconstructed"; a failed reconstruction is inconclusive, not a failure."""
    N = ctx.N
    if not 0 <= i <= j <= N:
        raise ValueError("need 0 <= i <= j <= N")
    if hw is None:
        hw = HighestWeight.vacuum(ctx)
    case = f"N={N}:i={i}:j={j}:order={order}:{ctx.describe()}:hw={hw.key()}"
    kmax = min(i, N - j)
    deg = 2 * kmax
    if order < 4 * deg + 2:
        raise ValueError("order too small for reconstruction")
    corr = w_correlator(ctx, hw, [WInsertion(i, "z1"), WInsertion(j, "z2")],
                        [order])
    dressed = corr * f_series(ctx, i, j, order, corr.vars[0])
    rec = rational_reconstruct(dressed, deg, deg)
    if rec is None:
        return CheckRecord("poles", case, "inconclusive",
                           "no rational function matches the window",
                           (ZERO_MODES_CENTRAL, "reconstructed"))
    num, den = rec
    dd = len(den) - 1
    roots = []
    for k in range(1, kmax + 1):
        roots.append((j - i) + 2 * k)
        roots.append(-(j - i) - 2 * k)
    if dd != len(roots):
        return CheckRecord("poles", case, "fail",
                           f"denominator degree {dd}, expected {len(roots)}",
                           (ZERO_MODES_CENTRAL, "reconstructed"))
    for sexp in roots:
        x = ctx.s_pow(sexp)
        val = ctx.zero
        for kk, c in enumerate(den):
            val = val + c * x ** kk
        if val:
            return CheckRecord("poles", case, "fail",
                               f"claimed pole s^{sexp} is not a denominator root",
                               (ZERO_MODES_CENTRAL, "reconstructed"))
    return CheckRecord("poles", case, "pass",
                       f"denominator degree {dd} with the claimed root set",
                       (ZERO_MODES_CENTRAL, "reconstructed"))


def order_reversal_check(ctx: ScalarCtx, i: int, j: int, window: int = 2,
                         level: int = 1, hw=None):
    """f^{a,b}(p^c) W^a W^b = f^{b,a}(p^{-c}) W^b W^a for the pinned dressed
    pairs the relation uses (the paper's order reversal)."""
    N = ctx.N
    if hw is None:
        hw = HighestWeight.generic(ctx)
    case = f"N={N}:i={i}:j={j}:{ctx.describe()}"
    for k in range(1, min(i, N - j) + 1):
        fwd = delta_pin(i, j, k, 1)
        a, sa, b, sb, dress, clear = fwd
        rev = (b, sb, a, sa, dress[::-1], clear)

        def sides(bra, ket, modes):
            [M] = modes
            return ({M: pinned_mode_value(ctx, hw, bra, fwd, ket, M)},
                    {M: pinned_mode_value(ctx, hw, bra, rev, ket, M)})
        rec = _sweep("reversal", f"{case}:k={k}", _balanced_mode, window,
                     level, ("fwd", "rev"), sides)
        if not rec.ok:
            return rec
    return CheckRecord("reversal", case, "pass", "", (ZERO_MODES_CENTRAL,))
