"""Structure functions of the quadratic relations and their identities.

The log of every structure function and every boson contraction kernel has
n-th exponent coefficient of the shape

    (1/n) * (1-q^n)(1-t^{-n}) * [ P(s^n) + Q(s^n) / (1 - p^{Nn}) ]

with P, Q integer Laurent polynomials in s^n (s = p^{1/2}).  LogKernel stores
(P, Q) symbolically in n, which gives two superpowers:

* exact series coefficients in any context (generic or hbar-limit), and
* exact *resummation*: when Q is divisible by 1 - s^{2N} the whole series
  exponentiates to a finite product of gamma factors, which can be evaluated
  at a point.  This is how products of currents pinned to proportional
  arguments (delta terms, composite normal ordering, fusion) stay exact.
"""

from __future__ import annotations

from functools import partial

from .context import ScalarCtx
from .exact import Cyc, HbarSeries, QuadExt, exp_coeffs, rat
from .series import LaurentWindow, VarBound, series_exp


class PoleError(ArithmeticError):
    """Evaluation hit a pole of a structure function or of gamma."""


class NonRationalKernel(ArithmeticError):
    """A dressed kernel did not resum to a finite gamma product."""


# ---------------------------------------------------------------------------
# symbolic log-kernels


class LogKernel:
    """Pair of integer Laurent polynomials (poly, num) in y = s^n encoding the
    n-th log coefficient (1/n)(1-q^n)(1-t^{-n})[poly(y) + num(y)/(1-y^{2N})].
    Keys are exponents in s (so p^n has key 2n)."""

    __slots__ = ("poly", "num")

    def __init__(self, poly=None, num=None):
        self.poly = dict(poly or {})
        self.num = dict(num or {})

    def __add__(self, other: "LogKernel") -> "LogKernel":
        poly = dict(self.poly)
        for k, v in other.poly.items():
            poly[k] = poly.get(k, 0) + v
        num = dict(self.num)
        for k, v in other.num.items():
            num[k] = num.get(k, 0) + v
        return LogKernel({k: v for k, v in poly.items() if v},
                         {k: v for k, v in num.items() if v})

    def shifted(self, delta: int) -> "LogKernel":
        """Argument substitution x -> s^delta * x."""
        return LogKernel({k + delta: v for k, v in self.poly.items()},
                         {k + delta: v for k, v in self.num.items()})

    def term(self, ctx: ScalarCtx, n: int):
        """Exact scalar value of the n-th log coefficient (n >= 1): per
        nonzero part, its polynomial at y = s^n times the part's per-n
        prefactor (ScalarCtx.log_prefactors), one product per part."""
        out = None
        for part, pre in zip((self.poly, self.num), ctx.log_prefactors(n)):
            if part:
                v = sum((c * ctx.s_pow(k * n) for k, c in part.items()),
                        ctx.zero) * pre
                out = v if out is None else out + v
        return ctx.zero if out is None else out

    def resum(self, N: int) -> "GammaFactors":
        """Finite gamma-product form; NonRationalKernel if the 1/(1-p^{Nn})
        tail does not cancel."""
        quotient = {}
        rem = {k: v for k, v in self.num.items() if v}
        # divide num by (1 - y^{2N}) from the top
        while rem:
            h = max(rem)
            if h - 2 * N < min(rem):
                raise NonRationalKernel(f"residual tail {rem}")
            c = rem.pop(h)
            quotient[h - 2 * N] = quotient.get(h - 2 * N, 0) - c
            k = h - 2 * N
            rem[k] = rem.get(k, 0) + c
            if not rem[k]:
                del rem[k]
        total = dict(self.poly)
        for k, v in quotient.items():
            total[k] = total.get(k, 0) + v
        factors = {}
        for a, c in total.items():
            if not c:
                continue
            for key, mult in ((("q", a), c), (("t", a), c),
                              (("s", a), -c), (("s", a + 2), -c)):
                factors[key] = factors.get(key, 0) + mult
        return GammaFactors({k: v for k, v in factors.items() if v})


class GammaFactors:
    """Finite product prod (1 - c_f x)^{m_f} with c_f in {q s^a, t^{-1} s^a, s^a}.

    Keys are ('q', a) / ('t', a) / ('s', a); values are integer exponents.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=None):
        self.factors = dict(factors or {})

    def base(self, ctx: ScalarCtx, key):
        kind, a = key
        if kind == "q":
            return ctx.q_pow(1) * ctx.s_pow(a)
        if kind == "t":
            return ctx.t_pow(-1) * ctx.s_pow(a)
        return ctx.s_pow(a)

    def value(self, ctx: ScalarCtx, e: int):
        """Exact value at x = s^e; PoleError on an inverted factor that is
        not invertible there.  A factor of positive multiplicity is always
        multiplied in: in the hbar limits a base with no constant term is
        O(hbar), not zero."""
        acc = ctx.one
        for key, m in sorted(self.factors.items()):
            base = 1 - self.base(ctx, key) * ctx.s_pow(e)
            if m > 0:
                acc = acc * base**m
            elif _not_invertible(base):
                raise PoleError(f"pole from factor {key}^{m} at s^{e}")
            else:
                acc = acc / base**(-m)
        return acc

    def cleared_value(self, ctx: ScalarCtx, e: int, clear_key):
        """Value at x = s^e of the product with one copy of the factor
        `clear_key` multiplied in (it must cancel a simple pole there)."""
        m = self.factors.get(clear_key, 0) + 1
        if m < 0:
            raise PoleError("higher-order pole survives the clearing factor")
        rest = dict(self.factors)
        rest.pop(clear_key, None)
        if m > 0:
            rest[clear_key] = m
        return GammaFactors(rest).value(ctx, e)

    def __repr__(self):
        return f"GammaFactors({self.factors})"


def _not_invertible(x) -> bool:
    if isinstance(x, HbarSeries):
        return not x.coeffs[0] if x.coeffs else True
    return not x


# ---------------------------------------------------------------------------
# the structure functions themselves


def f_logkernel(N: int, i: int, j: int) -> LogKernel:
    """Log-kernel of f^{i,j}; valid for all integers i, j (extended range)."""
    m = min(i, j)
    M = N - max(i, j)
    D = abs(i - j)
    num = {}
    if m >= 0:
        span = [(u, 1) for u in range(m)]
    else:
        span = [(u, -1) for u in range(m, 0)]
    for u, sign in span:
        for k, v in ((2 * u + D, sign), (2 * (u + M) + D, -sign)):
            num[k] = num.get(k, 0) + v
    return LogKernel({}, {k: v for k, v in num.items() if v})


def contraction_logkernel(N: int, i: int, j: int) -> LogKernel:
    """Log-kernel of the pairwise boson contraction C_{ij}: the exponential
    of sum_n [h^i_n, h^j_{-n}] x^n."""
    delta = 1 if i == j else 0
    theta = 1 if i < j else 0
    base = 2 * N * theta
    num = {base: -1}
    k = base + 2 * (N * delta - 1)
    num[k] = num.get(k, 0) + 1
    return LogKernel({}, {k: v for k, v in num.items() if v})


def pair_logkernel(N: int, slotsA, slotsB) -> LogKernel:
    """Log-kernel of the contraction of two slot lists,
    prod_{a in A, b in B} C_{f_a f_b}(s^{s_b - s_a} x): the sum of the slot
    pairs' shifted contraction log-kernels (integer dict work)."""
    out = LogKernel()
    for fa, sa in slotsA:
        for fb, sb in slotsB:
            out = out + contraction_logkernel(N, fa, fb).shifted(sb - sa)
    return out


def logkernel_entry(ctx: ScalarCtx, key, make, order: int) -> tuple:
    """The exponential of the log-kernel that `make()` builds, cached as
    ctx.caches[key] = (kernel, log terms, raw log terms, raw coefficients,
    coefficients) and grown until the raw coefficients reach x^order: one
    log term per order, lifted by ctx.raw, exponentiated by exp_coeffs on
    ctx.raw.  The lists are extended in place, so a caller may keep one and
    index it once it is long enough; callers must not modify them.  The
    scalar coefficients are grown only by logkernel_coeffs."""
    entry = ctx.caches.get(key)
    lift = ctx.raw[0]
    if entry is None:
        entry = ctx.caches[key] = (make(), [ctx.zero], [lift(ctx.zero)],
                                   [lift(ctx.one)], [ctx.one])
    kernel, terms, raw_terms, raw_coeffs, _ = entry
    if len(raw_coeffs) <= order:
        for n in range(len(terms), order + 1):
            terms.append(kernel.term(ctx, n))
            raw_terms.append(lift(terms[-1]))
        exp_coeffs(raw_terms, raw_coeffs, lift(ctx.zero), ctx.raw)
    return entry


def logkernel_coeffs(ctx: ScalarCtx, key, make, order: int) -> list:
    """Taylor coefficients, through x^order at least, of the exponential of
    the log-kernel that `make()` builds, as scalars: logkernel_entry's raw
    coefficients read back, each with the type the scalar recurrence would
    give it: from the first nonzero log term in Q(s) on, a QuadExt even
    with no s part (the f dump prints that type); before it, the canonical
    scalar drop gives."""
    entry = ctx.caches.get(key)
    if entry is None or len(entry[4]) <= order:
        entry = logkernel_entry(ctx, key, make, order)
        _, terms, _, raw_coeffs, coeffs = entry
        drop = ctx.raw[4]
        first = next((n for n, term in enumerate(terms)
                      if n and term and type(term) is QuadExt), len(terms))
        for j in range(len(coeffs), len(raw_coeffs)):
            v = drop(raw_coeffs[j])
            coeffs.append(v + ctx.s * 0 if j >= first else v)
    return entry[4]


def f_coeffs(ctx: ScalarCtx, i: int, j: int, order: int) -> list:
    """Taylor coefficients of f^{i,j}(x) through x^order (the shared list of
    logkernel_coeffs)."""
    return logkernel_coeffs(ctx, ("f", i, j), partial(f_logkernel, ctx.N, i, j),
                            order)


def f_series(ctx: ScalarCtx, i: int, j: int, order: int,
             var: str = "x") -> LaurentWindow:
    """Taylor coefficients of f^{i,j}(x), exact to x^order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return LaurentWindow.taylor(var, f_coeffs(ctx, i, j, order)[:order + 1],
                                ctx.zero, ctx.raw)


def gamma_logkernel(a: int) -> LogKernel:
    """Log-kernel of gamma(s^a x), where
    gamma(p^{1/2} z) = (1-qz)(1-t^{-1}z)/((1-z)(1-pz)): its n-th log
    coefficient is (1/n)(1-q^n)(1-t^{-n}) s^{(a-1)n}."""
    return LogKernel({a - 1: 1})


def gamma_at(ctx: ScalarCtx, a: int):
    """gamma(s^a), the value at x = 1 of the resummed gamma_logkernel(a).

    The argument is the integer a with s^a = p^{a/2}; a = 1 and a = -1 hit
    the poles of gamma and raise PoleError, and so does an argument where
    an inverted factor is not invertible.
    """
    if a == 1 or a == -1:
        raise PoleError("pole of gamma")
    return gamma_logkernel(a).resum(ctx.N).value(ctx, 0)


def gamma_ladder(ctx: ScalarCtx, k: int):
    """prod_{l=1}^{k-1} gamma(p^{l+1/2}); empty product for k <= 1."""
    acc = ctx.one
    for l in range(1, k):
        acc = acc * gamma_at(ctx, 2 * l + 1)
    return acc


def delta_terms(N: int, i: int, j: int) -> list:
    """The delta terms of the (i, j) quadratic relation, k-major with the +
    term first: (k, sign, u) for 1 <= k <= min(i, N - j) and sign = +1, -1,
    the term -sign A gamma_ladder(k) delta(s^u z2/z1) f^{i-k,j+k}(p^{(j-i)/2})
    W^{i-k}(p^{-k/2} z1) W^{j+k}(p^{k/2} z2), u = sign((j - i) + 2k)."""
    return [(k, sign, sign * ((j - i) + 2 * k))
            for k in range(1, min(i, N - j) + 1) for sign in (1, -1)]


def pole_window(N: int, i: int, j: int):
    """(deg, 4 deg + 2): the denominator degree, two poles per k of the
    delta terms, at which verify_poles reconstructs f^{i,j} <W^i W^j>, and
    the least series order that fixes and checks it.  deg follows the
    k-range, so a claimed root set missing a pole meets the full degree."""
    deg = 2 * max((k for k, _, _ in delta_terms(N, i, j)), default=0)
    return deg, 4 * deg + 2


def gamma_series(ctx: ScalarCtx, var: str, a: int, order: int) -> LaurentWindow:
    """gamma(s^a * z) expanded as a Taylor window in z to z^order (the
    shared list of logkernel_coeffs)."""
    coeffs = logkernel_coeffs(ctx, ("gamma", a), partial(gamma_logkernel, a),
                              order)
    return LaurentWindow.taylor(var, coeffs[:order + 1], ctx.zero, ctx.raw)


def g_series(N: int, k: int, mu: int, nu: int, order: int,
             var: str = "zeta") -> LaurentWindow:
    """Z-algebra structure function g^{mu,nu} as a cyclotomic-coefficient
    series: exp(-(1/k) sum_{n>0, n != 0 mod N} (1/n)(1-w^{mu n})(1-w^{-nu n}) x^n)."""
    if k == 0:
        raise ValueError("level k must be nonzero")
    if not (1 <= mu % N <= N - 1) or not (1 <= nu % N <= N - 1):
        raise ValueError("flavors must be nonzero mod N")
    order2 = 2 * N
    terms = {}
    for n in range(1, order + 1):
        if n % N == 0:
            continue
        # omega = eta^2, eta the primitive 2N-th root
        val = (1 - Cyc.root(order2, 2 * mu * n)) \
            * (1 - Cyc.root(order2, -2 * nu * n))
        terms[(n,)] = val * rat(-1, k * n)
    log_win = LaurentWindow((var,), terms, [VarBound(0, order, True, False)])
    return series_exp(log_win)


# ---------------------------------------------------------------------------
# structural regularity of f^{a,b} at a point


def f_point_regular(N: int, a: int, b: int, e: int) -> bool:
    """True when the infinite gamma-product form of f^{a,b}(s^e) has no factor
    (1 - s^0) or (1 - s^{-2})^{-1}-type pole; exact and finite check."""
    m = min(a, b)
    M = N - max(a, b)
    if m <= 0 or M <= 0:
        return True  # f is identically 1
    D = abs(a - b)
    for u in range(m):
        v = 0
        while True:
            alpha = 2 * (u + N * v) + D + e
            if alpha > 0:
                break
            if alpha in (0, -2):
                return False
            v += 1
        # denominator gammas sit at alpha + 2M > alpha: same scan
        v = 0
        while True:
            alpha = 2 * (u + N * v + M) + D + e
            if alpha > 0:
                break
            if alpha in (0, -2):
                return False
            v += 1
    return True


# ---------------------------------------------------------------------------
# the f-function identities used by the induction proof


def _f_shift_series(ctx, i, j, delta, order, var="x"):
    return f_series(ctx, i, j, order, var).scale_var(var, ctx.s_pow(delta))


def check_f_identities(ctx: ScalarCtx, N: int, order: int):
    """Verify the three product identities between shifted f's (and gamma)
    coefficient-by-coefficient to x^order, for indices inside 1..N, both
    signs; also assert regularity of every f^{a,b}(p^c) scalar that the
    quadratic relation's delta terms use.

    Returns a list of (case_key, ok, detail) triples.
    """
    out = []
    var = "x"

    def compare(key, lhs, rhs):
        for ell in range(order + 1):
            a = lhs.coefficient((ell,))
            b = rhs.coefficient((ell,))
            if a != b:
                out.append((key, False, f"coefficient x^{ell}: {a} != {b}"))
                return
        out.append((key, True, ""))

    for sign in (1, -1):
        # f^{1,j}(p^{+-(i+1)/2} z) f^{i,j}(z) = f^{i+1,j}(p^{+-1/2} z) * {1 | gamma}
        for i in range(1, N):
            for j in range(1, N + 1):
                lhs = _f_shift_series(ctx, 1, j, sign * (i + 1), order) \
                    * f_series(ctx, i, j, order)
                rhs = _f_shift_series(ctx, i + 1, j, sign, order)
                if i >= j:
                    rhs = rhs * gamma_series(ctx, var, sign * (i - j + 1), order)
                compare(f"ff=f:i={i}:j={j}:sign={sign:+d}", lhs, rhs)
        # f^{1,i}(p^{+-((j-i)/2+k)} z) f^{1,j}(z)
        #   = f^{1,i-k}(p^{+-(j-i+k)/2} z) f^{1,j+k}(p^{+-k/2} z)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for k in range(1, i):
                    if i - k < 1 or j + k > N:
                        continue
                    lhs = _f_shift_series(ctx, 1, i, sign * (j - i + 2 * k), order) \
                        * f_series(ctx, 1, j, order)
                    rhs = _f_shift_series(ctx, 1, i - k, sign * (j - i + k), order) \
                        * _f_shift_series(ctx, 1, j + k, sign * k, order)
                    compare(f"fshift:i={i}:j={j}:k={k}:sign={sign:+d}", lhs, rhs)
        # f^{1,i}(p^{+-(j+i)/2} z) f^{1,j}(z) = f^{1,j+i}(p^{+-i/2} z) gamma(p^{+-j/2} z)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if i + j > N + N:
                    continue
                lhs = _f_shift_series(ctx, 1, i, sign * (j + i), order) \
                    * f_series(ctx, 1, j, order)
                rhs = _f_shift_series(ctx, 1, j + i, sign * i, order) \
                    * gamma_series(ctx, var, sign * j, order)
                compare(f"ffgamma:i={i}:j={j}:sign={sign:+d}", lhs, rhs)

    # regularity of the delta-term scalars f^{i-k,j+k}(p^{+-(j-i)/2})
    for i in range(0, N + 1):
        for j in range(i, N + 1):
            for k, sign, _ in delta_terms(N, i, j):
                a, b, e = i - k, j + k, sign * (j - i)
                ok = f_point_regular(N, a, b, e)
                out.append((f"regular:f^{a},{b}(s^{e})", ok,
                            "" if ok else "pole in gamma-product form"))
    return out
