"""Bernoulli numbers, zeta values at negative odd integers, and the
regularized self-contraction identity against p-binomials.

Conventions follow the generating function x/(e^x - 1) + x/2 =
1 + sum_{n>0} (-1)^{n-1} B_n x^{2n} / (2n)!  (so every B_n is positive) and
zeta(1-2m) = (-1)^m B_m / (2m).
"""

from __future__ import annotations

from math import comb

from .context import ScalarCtx
from .exact import HbarSeries, RAT, inverse_coeffs, log_coeffs, rat
from .fock import HighestWeight, hw_eigenvalue_w
from .report import CheckRecord


def bernoulli(m: int):
    """B_m in the positive convention, by exact inversion of (e^x - 1)/x."""
    if m < 1:
        raise ValueError("m must be positive")
    return bernoulli_table(m)[m]


def bernoulli_table(M: int):
    """{m: B_m} for 1 <= m <= M, from the generating function."""
    order = 2 * M + 1
    # g = (e^x - 1)/x, h = 1/g; then x/(e^x-1) + x/2 = h + x/2
    g = [rat(1, 1)]
    fact = 1
    for k in range(1, order + 1):
        fact *= (k + 1)
        g.append(rat(1, fact))
    h = inverse_coeffs(g, RAT(1), RAT(0))
    h[1] += rat(1, 2)
    table = {}
    fact = 1  # (2n)!
    for n in range(1, M + 1):
        fact *= (2 * n - 1) * (2 * n)
        table[n] = (-1) ** (n - 1) * h[2 * n] * fact
    # odd coefficients beyond x^1 must vanish in this convention
    for k in range(3, order + 1, 2):
        if h[k]:
            raise ArithmeticError("odd term in the Bernoulli generating function")
    return table


def zeta_value(m: int, table=None):
    """zeta(1 - 2m) = (-1)^m B_m / (2m), B_m read from `table` (a
    bernoulli_table through m) when given."""
    if m < 1:
        raise ValueError("m must be positive")
    B = bernoulli(m) if table is None else table[m]
    return (-1) ** m * B / (2 * m)


def log_sinh_identity_holds(M: int) -> bool:
    """log(sinh x / x) = sum_{n>0} (-1)^{n-1} 2^{2n-1} B_n / ((2n)! n) x^{2n}
    as an exact series identity to order 2M."""
    order = 2 * M
    # sinh(x)/x = sum x^{2k} / (2k+1)!
    s = [RAT(0)] * (order + 1)
    fact = 1
    for k in range(0, order // 2 + 1):
        s[2 * k] = rat(1, fact)
        fact *= (2 * k + 2) * (2 * k + 3)
    log = log_coeffs(s, RAT(0))
    B = bernoulli_table(M)
    for n in range(1, M + 1):
        fact2n = 1
        for k in range(1, 2 * n + 1):
            fact2n *= k
        want = (-1) ** (n - 1) * RAT(2) ** (2 * n - 1) * B[n] / (fact2n * n)
        if log[2 * n] != want:
            return False
    for k in range(1, order + 1, 2):
        if log[k]:
            return False
    return True


def a_coefficients(N: int, i: int, beta, M: int):
    """Expansion coefficients a^i_{2m}, m = 1..M, of
    (1-q^n)(1-t^{-n}) (1-p^{in})/(1-p^n) (1-p^{(N-i)n})/(1-p^{Nn})
    as a series in x = n*hbar (q = e^h, t = q^beta); the odd-power
    coefficients are asserted to vanish."""
    if not 1 <= i <= N - 1:
        raise ValueError("need 1 <= i <= N-1")
    if M < 1:
        raise ValueError("M must be positive")
    beta = RAT(beta)
    T = 2 * M + 2
    c = 1 - beta  # p = e^{c x}

    def E(a):
        return HbarSeries.exp_hbar(a, T)

    expr = (1 - E(1)) * (1 - E(-beta)) \
        * ((1 - E(c * i)) / (1 - E(c))) \
        * ((1 - E(c * (N - i))) / (1 - E(c * N)))
    out = {}
    for m in range(1, M + 1):
        if 2 * m + 1 < expr.trunc and expr.coefficient(2 * m + 1):
            raise ArithmeticError(f"odd x^{2*m+1} coefficient survives")
    if expr.coefficient(1):
        raise ArithmeticError("odd x^1 coefficient survives")
    for m in range(1, M + 1):
        out[m] = expr.coefficient(2 * m)
    return out


def p_binomial(ctx: ScalarCtx, n: int, k: int):
    """Gaussian binomial [n choose k] built from [m] = (s^m - s^{-m})/(s - s^{-1})."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")

    def bracket(m):
        return (ctx.s_pow(m) - ctx.s_pow(-m)) / (ctx.s_pow(1) - ctx.s_pow(-1))

    acc = ctx.one
    for u in range(1, k + 1):
        acc = acc * bracket(n - k + u) / bracket(u)
    return acc


def verify_zeta_identity(N: int, i: int, beta, M: int = 6):
    """exp(sum_m a^i_{2m} zeta(1-2m) hbar^{2m}) equals
    (binom(N,i)^{-1} [N choose i]_p)^2 to order hbar^{2M}, for
    beta in {(N+1)/N, N/(N+1)}."""
    beta = RAT(beta)
    case = f"N={N}:i={i}:beta={beta}:M={M}"
    allowed = (rat(N + 1, N), rat(N, N + 1))
    if beta not in allowed:
        raise ValueError("beta must be (N+1)/N or N/(N+1)")
    T = 2 * M + 1
    a = a_coefficients(N, i, beta, M)
    table = bernoulli_table(M)  # one table for every zeta value
    exponent = [RAT(0)] * T
    for m in range(1, M + 1):
        if 2 * m < T:
            exponent[2 * m] = a[m] * zeta_value(m, table)
    lhs = HbarSeries(exponent, T).exp()
    ctx = ScalarCtx.limit1(N, beta, trunc=T)
    rhs = (p_binomial(ctx, N, i) / comb(N, i)) ** 2
    t = min(lhs.trunc, rhs.trunc)
    for h in range(t):
        if lhs.coefficient(h) - rhs.coefficient(h):
            return CheckRecord("zeta", case, "fail",
                               f"hbar^{h}: {lhs.coefficient(h)} != "
                               f"{rhs.coefficient(h)}")
    return CheckRecord("zeta", case, "pass", f"agrees to hbar^{t - 1}")


def verify_vacuum_eigenvalue(ctx: ScalarCtx, i: int):
    """w^i(vacuum) = [N choose i]_p exactly (generic context)."""
    case = f"N={ctx.N}:i={i}:{ctx.describe()}"
    vac = HighestWeight.vacuum(ctx)
    lhs = hw_eigenvalue_w(ctx, vac, i)
    rhs = p_binomial(ctx, ctx.N, i)
    if not (lhs - rhs):
        return CheckRecord("zeta-vac", case, "pass")
    return CheckRecord("zeta-vac", case, "fail", f"{lhs} != {rhs}")
