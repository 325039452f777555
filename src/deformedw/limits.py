"""hbar-expansion checks: the conformal-side behavior of the currents'
vacuum data, and the reduction of the quadratic relation to the principal
Z-algebra exchange relation when t = omega^{-1} q^{(k+N)/N}.

The reduction check is purely symbolic in the Z-currents: the substitution

    W^i(p^{(1-i)/2} zeta) = hbar * omega^{i/2} * z^i(zeta) + O(hbar^2)

is applied formally to both sides of the quadratic relation; expressions are
stored as maps  (zeta1-mode A, zeta2-mode B, word) -> hbar-series, where a
word is an ordered tuple of (flavor, mode) symbols.  Both sides must agree
identically at hbar^0 and hbar^1 (everything carries at least hbar^2), and
the hbar^2 coefficient must equal the independently constructed Z-algebra
expression with the structure function g.
"""

from __future__ import annotations

from .context import ScalarCtx
from .exact import HbarSeries
from .fock import HighestWeight
from .relations import CheckRecord
from .structfn import f_series, g_series, gamma_ladder
from .wcurrents import WInsertion, current_block, mode_engine, \
    w_mode_matrix_element
from .zeta import p_binomial


def recentered_f_coeffs(ctx: ScalarCtx, i: int, j: int, order_x: int):
    """Coefficients of f^{i,j}(p^{(i-j)/2} x), the argument recentering the
    relation's variable change induces."""
    base = f_series(ctx, i, j, order_x)
    return [base.coefficient((l,)) * ctx.s_pow((i - j) * l)
            for l in range(order_x + 1)]


def check_f_reduces_to_g(ctx: ScalarCtx, i: int, j: int, order_x: int):
    """hbar^0 part of the recentered f^{i,j} equals g^{i,j} coefficientwise;
    the l = 0 coefficient is 1 to every order."""
    N = ctx.N
    coeffs = recentered_f_coeffs(ctx, i, j, order_x)
    g = g_series(N, ctx.level, i, j, order_x)
    c0 = coeffs[0]
    if c0 - 1:
        return False, "l=0 coefficient is not identically 1"
    for l in range(order_x + 1):
        want = g.coefficient((l,))
        got = coeffs[l].coefficient(0)
        if got - want:
            return False, f"x^{l}: hbar^0 part {got} != g coefficient {want}"
    return True, ""


# ---------------------------------------------------------------------------
# the reduction of the quadratic relation


def _add(expr, A, B, word, coeff):
    key = (A, B, word)
    expr[key] = expr[key] + coeff if key in expr else coeff


def reduction_sides(ctx: ScalarCtx, i: int, j: int, order_x: int):
    """Both sides of the quadratic relation after the formal current
    substitution, as word-coefficient maps on the (A, B) grid.

    Interior k-terms of the delta sum (both content ranks strictly inside
    1..N-1) carry at least three powers of hbar -- prefactor, and one per
    substituted current -- and are dropped; the comparison stops at hbar^2.
    """
    N = ctx.N
    T = ctx.trunc
    hbar = HbarSeries.hbar(T)
    h2 = hbar * hbar
    ford = 2 * order_x
    fij = recentered_f_coeffs(ctx, i, j, ford)
    fji = recentered_f_coeffs(ctx, j, i, ford)
    eta_ij = ctx.eta_pow(i + j)
    grid = range(-order_x, order_x + 1)

    # every product that does not depend on the grid point is built once;
    # each keeps the association of the entry it feeds, since HbarSeries
    # truncation follows valuations and a regrouped product may differ
    ls = range(ford + 1)
    cij = [h2 * (eta_ij * fij[l]) for l in ls]
    cji = [-(h2 * (eta_ij * fji[l])) for l in ls]
    cs = range(-ford, ford + 1)

    lhs = {}
    rhs = {}
    for A in grid:
        for B in grid:
            for l in ls:
                _add(lhs, A, B, ((i, A - l), (j, B + l)), cij[l])
                _add(lhs, A, B, ((j, B - l), (i, A + l)), cji[l])

    pref = ctx.prefactor()
    for kappa in range(1, i + 1):
        if j + kappa > N:
            continue
        r1, r2 = i - kappa, j + kappa
        if 1 <= r1 <= N - 1 and 1 <= r2 <= N - 1:
            continue  # O(hbar^3), below the comparison order
        base = -(pref * gamma_ladder(ctx, kappa))
        for sign in (1, -1):
            # recentered delta argument s^{Ezeta}; dressing scalar is f^{0,.}
            # or f^{.,N}, identically 1
            Ezeta = sign * (j - i + 2 * kappa) - (j - i)
            term_sign = 1 if sign == 1 else -1
            if r1 == 0 and r2 == N:
                for A in grid:
                    coeff = base * (term_sign * ctx.s_pow(Ezeta * A))
                    _add(rhs, A, -A, (), coeff)
            elif r1 == 0:
                # single current on the zeta2 side: W^{r2}(s^{sign*kappa} z2)
                arg = ctx.s_pow(sign * kappa + r2 - j)
                eta_r = ctx.eta_pow(r2)
                single = {c: hbar * (eta_r * arg ** (-c)) for c in cs}
                for A in grid:
                    left = base * (term_sign * ctx.s_pow(Ezeta * A))
                    for B in grid:
                        c = A + B
                        _add(rhs, A, B, ((r2 % N, c),), left * single[c])
            else:
                # r2 == N: single current on the zeta1 side:
                # W^{r1}(s^{-sign*kappa} z1)
                arg = ctx.s_pow(-sign * kappa + r1 - i)
                eta_r = ctx.eta_pow(r1)
                single = {c: hbar * (eta_r * arg ** (-c)) for c in cs}
                for B in grid:
                    left = base * (term_sign * ctx.s_pow(-Ezeta * B))
                    for A in grid:
                        c = A + B
                        _add(rhs, A, B, ((r1 % N, c),), left * single[c])
    return lhs, rhs


def z_algebra_expression(ctx: ScalarCtx, mu: int, nu: int, order_x: int):
    """The Z-algebra relation as a word-coefficient map (LHS minus RHS):
    g^{mu,nu}-weighted exchange words minus the delta / derivative-delta
    terms, with cyclotomic coefficients."""
    N = ctx.N
    k = ctx.level
    ford = 2 * order_x
    gmn = g_series(N, k, mu, nu, ford)
    gnm = g_series(N, k, nu, mu, ford)
    grid = range(-order_x, order_x + 1)
    expr = {}
    for A in grid:
        for B in grid:
            for l in range(ford + 1):
                _add(expr, A, B, ((mu, A - l), (nu, B + l)),
                     gmn.coefficient((l,)))
                _add(expr, A, B, ((nu, B - l), (mu, A + l)),
                     -gnm.coefficient((l,)))
    if (mu + nu) % N == 0:
        for A in grid:
            _add(expr, A, -A, (), -(k * A) * ctx.omega_pow(mu * A))
    else:
        fl = (mu + nu) % N
        for A in grid:
            for B in grid:
                c = A + B
                coeff = ctx.omega_pow(-mu * B) - ctx.omega_pow(-nu * A)
                _add(expr, A, B, ((fl, c),), -coeff)
    return expr


def verify_limit_II_relation(ctx: ScalarCtx, i: int, j: int,
                             order_x: int = 12):
    """The quadratic relation begins at hbar^2 under the current substitution
    and its hbar^2 coefficient is exactly the Z-algebra relation; the context
    must know hbar^0..hbar^2 (trunc >= 3)."""
    if ctx.mode != "limit2":
        raise ValueError("needs a limit2 context")
    if not (1 <= i <= ctx.N - 1 and 1 <= j <= ctx.N - 1):
        raise ValueError("flavors must lie in 1..N-1")
    if ctx.trunc < 3:
        raise ValueError("context truncation too small")
    case = f"N={ctx.N}:k={ctx.level}:i={i}:j={j}:x<={order_x}"
    ok, msg = check_f_reduces_to_g(ctx, i, j, order_x)
    if not ok:
        return CheckRecord("limit2", case, "fail", "f->g: " + msg)
    lhs, rhs = reduction_sides(ctx, i, j, order_x)
    za = z_algebra_expression(ctx, i, j, order_x)
    keys = set(lhs) | set(rhs) | set(za)
    zero_h = HbarSeries.zero(ctx.trunc)
    # both substituted currents carry omega^{flavor/2}, so the reduction
    # reproduces the Z-algebra expression with an overall eta^{i+j}
    eta_ij = ctx.eta_pow(i + j)
    for key in sorted(keys):
        diff = lhs.get(key, zero_h) - rhs.get(key, zero_h)
        for h in range(2):
            c = diff.coefficient(h)
            if c:
                return CheckRecord("limit2", case, "fail",
                                   f"hbar^{h} at {key}: {c}")
        want = za.get(key, None)
        got = diff.coefficient(2)
        target = eta_ij * want if want is not None else 0
        if got - target:
            return CheckRecord("limit2", case, "fail",
                               f"hbar^2 at {key}: {got} != {target}")
    return CheckRecord("limit2", case, "pass",
                       f"{len(keys)} word coefficients")


def verify_correlator_order(ctx: ScalarCtx, n_points: int, order_x: int = 8,
                            hw: HighestWeight | None = None):
    """Every coefficient of the n-point rank-1 correlator vanishes below
    hbar^n in the limit II context (the paper-level support for the current
    substitution; the highest weight defaults to the vacuum)."""
    if ctx.mode != "limit2":
        raise ValueError("needs a limit2 context")
    if ctx.trunc < n_points + 1:
        raise ValueError("context truncation too small for the claim")
    if hw is None:
        hw = HighestWeight.vacuum(ctx)
    case = f"N={ctx.N}:k={ctx.level}:n={n_points}:x<={order_x}"
    blocks = [current_block(ctx, hw, WInsertion(1, f"z{a}"))
              for a in range(n_points)]
    eng = mode_engine(ctx, blocks)
    from itertools import product as iproduct
    profiles = [prof for prof in iproduct(range(order_x + 1),
                                          repeat=n_points - 1)
                if sum(prof) <= order_x]
    for prof in profiles:
        val = eng.value(prof, ctx)
        if val.trunc < n_points:
            return CheckRecord("limit2-corr", case, "inconclusive",
                               f"profile {prof}: only O(hbar^{val.trunc}) known")
        bad = next((h for h in range(n_points)
                    if val.coeffs[h]), None)
        if bad is not None:
            return CheckRecord("limit2-corr", case, "fail",
                               f"profile {prof}: hbar^{bad} coefficient "
                               f"{val.coeffs[bad]}",
                               ("vacuum lambda",))
    return CheckRecord("limit2-corr", case, "pass", "", ("vacuum lambda",))


def verify_limit_I_appendix(ctx: ScalarCtx, i: int, window: int = 2):
    """Conformal-side behavior: the vacuum eigenvalue of the rank-i current is
    binom(N, i) + O(hbar^2) (even in hbar), and low-lying nonzero-mode matrix
    elements are O(hbar^2), in a limit1 context (the suite takes beta in
    {(N+1)/N, N/(N+1)})."""
    from math import comb
    if ctx.mode != "limit1":
        raise ValueError("needs a limit1 context")
    N = ctx.N
    case = f"N={N}:beta={ctx.beta}:i={i}:w={window}"
    pb = p_binomial(ctx, N, i)
    if pb.coefficient(0) - comb(N, i):
        return CheckRecord("limit1", case, "fail",
                           f"hbar^0 eigenvalue {pb.coefficient(0)}")
    for h in range(1, pb.trunc, 2):
        if pb.coefficient(h):
            return CheckRecord("limit1", case, "fail",
                               f"odd hbar^{h} coefficient {pb.coefficient(h)}")
    hw = HighestWeight.vacuum(ctx)
    for jr in range(1, N):
        for n in range(1, window + 1):
            me = w_mode_matrix_element(ctx, hw, [(i, n)], [(jr, -n)])
            for h in range(min(2, me.trunc)):
                if me.coeffs[h]:
                    return CheckRecord(
                        "limit1", case, "fail",
                        f"<vac|W^{i}_{n} W^{jr}_{-n}|vac> has hbar^{h} term")
    return CheckRecord("limit1", case, "pass", "", ("vacuum lambda",))
