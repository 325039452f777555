"""Evaluation contexts for the two-parameter algebra.

A ScalarCtx fixes how the parameters q, t (and the derived p = q/t,
s = p^(1/2)) are realized:

* generic   -- q, t are rational sample points; scalars live in Q or in the
               quadratic extension Q(s) with s^2 = p.
* limit1    -- q = e^h, t = q^beta with beta fixed; scalars are truncated
               series in h over Q.
* limit2    -- q = e^h, t = omega^(-1) q^((k+N)/N) with integer level k;
               scalars are truncated series in h over the cyclotomic field
               Q(eta), eta = primitive 2N-th root, omega = eta^2.

All half-integer powers of p are integer powers of s, so every exponent in
the engine is an integer and every value is exact.
"""

from __future__ import annotations

from math import isqrt

from .exact import (OBJECT_RAW, Cyc, HbarSeries, QuadExt, RAT, RAT_ONE,
                    RAT_ZERO, _quad_raw, rat, scalar_inv)

DEFAULT_GENERIC_POINTS = ((rat(3, 2), rat(5, 3)), (rat(2, 7), rat(3, 5)))

# the keywords each mode reads; any other keyword is an error
MODE_KEYWORDS = {"generic": ("q", "t"), "limit1": ("beta", "trunc"),
                 "limit2": ("level", "trunc")}


def _check_generic_point(q, t):
    """Raise ValueError unless the rationals q, t make a generic context."""
    if not q or not t:
        raise ValueError("q, t must be nonzero")
    if abs(q) == 1 or abs(t) == 1:
        raise ValueError("degenerate point: q or t is +-1, so (1 - q^n)"
                         "(1 - t^-n) vanishes for every n or every even n")
    p = q / t
    if abs(p.numerator) == abs(p.denominator):
        raise ValueError("degenerate point: p is a root of unity, "
                         "1 - p^M vanishes for some M")
    # with |p| != 1 rational, 1 - p^(M n) is nonzero for every M, n; but
    # at a square p the ring Q[s]/(s^2 - p) has zero divisors
    n, d = p.numerator, p.denominator
    if n > 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d:
        raise ValueError(f"degenerate point: p = q/t = {p} is the square of "
                         "a rational, so Q[s]/(s^2 - p) is Q x Q, not a field")


class ScalarCtx:
    """Shared scalar arithmetic for one choice of (q, t).

    `raw` is the context's kernel (lift, mul, add, norm, drop) for hot sums
    of products: in generic mode the kernel of Q(s), exact._quad_raw(s.F),
    on integer triples, on which QuadExt's own operators run too; in the
    limits the scalars themselves and their operators."""

    def __init__(self, N: int, mode: str, **kw):
        if N < 2:
            raise ValueError("rank parameter N must be at least 2")
        if mode not in MODE_KEYWORDS:
            raise ValueError(f"unknown mode {mode!r}")
        extra = sorted(set(kw) - set(MODE_KEYWORDS[mode]))
        if extra:
            raise TypeError(f"{mode} context got unexpected keyword "
                            f"argument(s): {', '.join(extra)}")
        self.N = N
        self.mode = mode
        self._spow = {}
        self._qpow = {}
        self._tpow = {}
        self._recip = {}
        self._logpre = {}
        self.caches = {}

        if mode == "generic":
            q, t = RAT(kw["q"]), RAT(kw["t"])
            _check_generic_point(q, t)
            self.q = q
            self.t = t
            self.p = q / t
            self.zero = RAT_ZERO
            self.one = RAT_ONE
            self.s = QuadExt(0, 1, self.p)
            self.raw = _quad_raw(self.s.F)
        elif mode == "limit1":
            beta = RAT(kw["beta"])
            T = int(kw.get("trunc", 8))
            self.beta = beta
            self.trunc = T
            self.zero = HbarSeries.zero(T)
            self.one = HbarSeries.const(RAT_ONE, T)
            self.q = HbarSeries.exp_hbar(RAT_ONE, T)
            self.t = HbarSeries.exp_hbar(beta, T)
            self.p = HbarSeries.exp_hbar(1 - beta, T)
            self.s = HbarSeries.exp_hbar((1 - beta) / 2, T)
            self.raw = OBJECT_RAW
        else:  # limit2
            k = int(kw["level"])
            T = int(kw.get("trunc", 4))
            self.level = k
            self.trunc = T
            order = 2 * N
            self.order = order
            self.eta = Cyc.root(order)
            self.omega = self.eta * self.eta
            self.zero = HbarSeries.zero(T)
            self.one = HbarSeries.const(RAT_ONE, T)
            self.q = HbarSeries.exp_hbar(RAT_ONE, T)
            # t = omega^{-1} e^{h(k+N)/N};  p = omega e^{-hk/N};  s = eta e^{-hk/2N}
            self.t = HbarSeries.exp_hbar(rat(k + N, N), T) * Cyc.root(order, -2)
            self.p = HbarSeries.exp_hbar(rat(-k, N), T) * self.omega
            self.s = HbarSeries.exp_hbar(rat(-k, 2 * N), T) * self.eta
            self.raw = OBJECT_RAW

    # -- constructors

    @staticmethod
    def generic(N: int, q, t) -> "ScalarCtx":
        return ScalarCtx(N, "generic", q=q, t=t)

    @staticmethod
    def limit1(N: int, beta, trunc: int = 8) -> "ScalarCtx":
        return ScalarCtx(N, "limit1", beta=beta, trunc=trunc)

    @staticmethod
    def limit2(N: int, level: int, trunc: int = 4) -> "ScalarCtx":
        return ScalarCtx(N, "limit2", level=level, trunc=trunc)

    # -- cached powers

    def q_pow(self, n: int):
        try:
            return self._qpow[n]
        except KeyError:
            return self._power(self._qpow, self.q, n)

    def t_pow(self, n: int):
        try:
            return self._tpow[n]
        except KeyError:
            return self._power(self._tpow, self.t, n)

    def s_pow(self, a: int):
        """p^(a/2) as an exact scalar (integer powers of s); over Q(s),
        p^(a//2), times s when a is odd."""
        try:
            return self._spow[a]
        except KeyError:
            pass
        if self.mode != "generic":
            return self._power(self._spow, self.s, a)
        half, odd = divmod(a, 2)
        v = self.p ** half
        if odd:
            v = self.s * v
        self._spow[a] = v
        return v

    def _power(self, cache, x, n: int):
        """x^n, stored in `cache`; a negative power is a power of the one
        stored x^-1, so x is inverted once."""
        if n < -1:
            inv = cache.get(-1)
            if inv is None:
                inv = self._power(cache, x, -1)
            v = inv ** -n
        else:
            v = x ** n
        cache[n] = v
        return v

    def p_pow(self, n: int):
        return self.s_pow(2 * n)

    def over_one_minus_p(self, x, m: int):
        """x / (1 - p^m), with one inverse of 1 - p^m per m.  In the hbar
        limits the divisor is kept as HbarSeries division uses it, shifted
        by its valuation, so the quotient is the same series."""
        try:
            v, inv = self._recip[m]
        except KeyError:
            den = 1 - self.p_pow(m)
            if self.mode == "generic":
                v, inv = 0, scalar_inv(den)
            else:
                v, inv = den.shifted_inverse()
            self._recip[m] = v, inv
        return (x.shift(-v) if v else x) * inv

    def eta_pow(self, a: int) -> Cyc:
        if self.mode != "limit2":
            raise ValueError("eta lives in the limit2 context")
        return Cyc.root(self.order, a)

    def omega_pow(self, a: int) -> Cyc:
        if self.mode != "limit2":
            raise ValueError("omega lives in the limit2 context")
        return Cyc.root(self.order, 2 * a)

    # -- composite quantities

    def log_prefactors(self, n: int):
        """(a/n, a/((1 - p^{N n}) n)) for a = (1 - q^n)(1 - t^(-n)): the
        factors of the two parts of every log-kernel's n-th term
        (structfn.LogKernel.term); computed once per n."""
        try:
            return self._logpre[n]
        except KeyError:
            a = (1 - self.q_pow(n)) * (1 - self.t_pow(-n))
            v = self._logpre[n] = (a / n,
                                   self.over_one_minus_p(a, self.N * n) / n)
            return v

    def prefactor(self):
        """(1 - q)(1 - t^(-1)) / (1 - p)."""
        return self.over_one_minus_p(self.log_prefactors(1)[0], 1)

    def describe(self) -> str:
        if self.mode == "generic":
            return f"generic(q={self.q}, t={self.t})"
        if self.mode == "limit1":
            return f"limit1(beta={self.beta}, trunc={self.trunc})"
        return f"limit2(level={self.level}, N={self.N}, trunc={self.trunc})"
