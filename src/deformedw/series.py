"""Truncated multivariate Laurent series with explicit exactness windows.

A LaurentWindow stores coefficients for exponents inside a per-variable
window [lo, hi].  Each side of the window is either *hard* (the series is
known to be exactly zero beyond it) or *soft* (coefficients beyond it are
unknown / truncated away).  Multiplication shrinks the result window so that
every retained coefficient is the exact full convolution; it is impossible to
read an inexact coefficient.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add as plus, itemgetter

from .exact import RAT_RAW, RAT_ZERO, HbarSeries, exp_coeffs, scalar_inv


class WindowError(ValueError):
    """Requested a coefficient outside the exactly-known region."""


@dataclass(frozen=True)
class VarBound:
    lo: int
    hi: int
    lo_hard: bool
    hi_hard: bool


def _prunable(x) -> bool:
    # HbarSeries zeros are kept: dropping them would forget their truncation.
    return not isinstance(x, HbarSeries) and not x


class LaurentWindow:
    """`zero` is the coefficients' zero and `raw` the raw kernel (lift,
    mul, add, norm, drop) of their ring that products run on: ctx.zero and
    ctx.raw for a window a context builds, the rationals' by default."""

    __slots__ = ("vars", "coeffs", "bounds", "zero", "raw")

    def __init__(self, vars, coeffs, bounds, zero=RAT_ZERO, raw=RAT_RAW):
        self.vars = tuple(vars)
        self.bounds = tuple(bounds)
        self.zero = zero
        self.raw = raw
        self.coeffs = {e: c for e, c in coeffs.items() if not _prunable(c)}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(vars, value, zero=RAT_ZERO, raw=RAT_RAW) -> "LaurentWindow":
        n = len(vars)
        coeffs = {} if _prunable(value) else {(0,) * n: value}
        return LaurentWindow(vars, coeffs, [VarBound(0, 0, True, True)] * n,
                             zero, raw)

    @staticmethod
    def taylor(var, coeff_list, zero=RAT_ZERO, raw=RAT_RAW) -> "LaurentWindow":
        """One-variable truncated Taylor series: hard floor at 0, soft top."""
        coeffs = {(i,): c for i, c in enumerate(coeff_list)}
        b = VarBound(0, len(coeff_list) - 1, True, False)
        return LaurentWindow((var,), coeffs, [b], zero, raw)

    # -- bookkeeping ---------------------------------------------------------

    def _vi(self, var) -> int:
        return self.vars.index(var)

    def coefficient(self, expo):
        """Exact coefficient at the exponent tuple, or WindowError."""
        expo = tuple(expo)
        for e, b in zip(expo, self.bounds):
            if e < b.lo:
                if not b.lo_hard:
                    raise WindowError(f"exponent {expo} below window")
            elif e > b.hi:
                if not b.hi_hard:
                    raise WindowError(f"exponent {expo} above window")
        return self.coeffs.get(expo, self.zero)

    # -- linear structure ----------------------------------------------------

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        self._check_vars(other)
        bounds = []
        for a, b in zip(self.bounds, other.bounds):
            lo_hard = a.lo_hard and b.lo_hard
            hi_hard = a.hi_hard and b.hi_hard
            lo = min(a.lo, b.lo) if lo_hard else max(
                (a.lo if not a.lo_hard else -10**18),
                (b.lo if not b.lo_hard else -10**18))
            hi = max(a.hi, b.hi) if hi_hard else min(
                (a.hi if not a.hi_hard else 10**18),
                (b.hi if not b.hi_hard else 10**18))
            bounds.append(VarBound(lo, hi, lo_hard, hi_hard))
        out = {}
        for e, c in self.coeffs.items():
            if _inside(e, bounds):
                out[e] = c
        for e, c in other.coeffs.items():
            if _inside(e, bounds):
                out[e] = out[e] + c if e in out else c
        return LaurentWindow(self.vars, out, bounds, self.zero, self.raw)

    # -- multiplication with window shrink ------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        self._check_vars(other)
        bounds = []
        for a, b in zip(self.bounds, other.bounds):
            # an unknown tail on one factor must face a hard bound on the
            # other, else unknown*unknown reaches every exponent
            if (not a.lo_hard and not b.hi_hard) or (not a.hi_hard and not b.lo_hard):
                bounds.append(VarBound(1, 0, False, False))
                continue
            lo_hard = a.lo_hard and b.lo_hard
            hi_hard = a.hi_hard and b.hi_hard
            los = [a.lo + b.lo]
            if not a.lo_hard:
                los.append(a.lo + b.hi)
            if not b.lo_hard:
                los.append(b.lo + a.hi)
            his = [a.hi + b.hi]
            if not a.hi_hard:
                his.append(a.hi + b.lo)
            if not b.hi_hard:
                his.append(b.hi + a.lo)
            lo = los[0] if lo_hard else max(los[1:])
            hi = his[0] if hi_hard else min(his[1:])
            bounds.append(VarBound(lo, hi, lo_hard, hi_hard))
        # on self's raw kernel: each coefficient lifted once, every output
        # coefficient one unreduced sum, normalized once as drop reads it
        # back.  other's terms are sorted by exponent, so a term of self
        # meets only those whose first exponent (e[:1]) lands inside the
        # first bound; the other bounds are checked term by term
        lift, mul, add, _, drop = self.raw
        right = sorted(((e2, lift(c2)) for e2, c2 in other.coeffs.items()),
                       key=itemgetter(0))
        firsts = [e2[:1] for e2, _ in right]
        first, rest = bounds[:1], bounds[1:]
        out = {}
        for e1, c1 in self.coeffs.items():
            c1 = lift(c1)
            lo = tuple(b.lo - x for b, x in zip(first, e1))
            hi = tuple(b.hi - x for b, x in zip(first, e1))
            for e2, c2 in right[bisect_left(firsts, lo):
                                bisect_right(firsts, hi)]:
                e = tuple(map(plus, e1, e2))
                if rest and not _inside(e[1:], rest):
                    continue
                v = mul(c1, c2)
                old = out.get(e)
                out[e] = v if old is None else add(old, v)
        return LaurentWindow(self.vars, {e: drop(v) for e, v in out.items()},
                             bounds, self.zero, self.raw)

    # -- variable manipulation -------------------------------------------------

    def scale_var(self, var, scalar) -> "LaurentWindow":
        """Substitute var -> scalar * var (scalar invertible), on the raw
        kernel: each power of scalar, or of its one inverse, is one product
        from the power before it."""
        k = self._vi(var)
        lift, mul, _, norm, drop = self.raw
        powers = {}

        def power(n):
            if n not in powers:
                if n == 1 or n == -1:
                    powers[n] = lift(scalar if n > 0 else scalar_inv(scalar))
                else:
                    unit = 1 if n > 0 else -1
                    powers[n] = norm(mul(power(n - unit), power(unit)))
            return powers[n]

        out = {e: drop(mul(lift(c), power(e[k]))) if e[k] else c
               for e, c in self.coeffs.items()}
        return LaurentWindow(self.vars, out, self.bounds, self.zero, self.raw)

    def __repr__(self):
        n = len(self.coeffs)
        return f"LaurentWindow(vars={self.vars}, {n} terms, bounds={self.bounds})"


def _inside(e, bounds) -> bool:
    return all(b.lo <= x <= b.hi for x, b in zip(e, bounds))


# ---------------------------------------------------------------------------
# one-variable functional operations


def _taylor_list(x: LaurentWindow, what: str) -> list:
    """Coefficients 0..hi of a one-variable window with a hard floor >= 0."""
    if len(x.vars) != 1:
        raise ValueError(f"{what} is one-variable")
    b = x.bounds[0]
    if b.lo < 0 or not b.lo_hard:
        raise ValueError(f"{what} needs a hard nonnegative floor")
    return [x.coeffs.get((i,), x.zero) for i in range(b.hi + 1)]


def series_exp(x: LaurentWindow) -> LaurentWindow:
    """exp of a one-variable window with zero constant term and no negative
    exponents; exact within the window."""
    g = _taylor_list(x, "series_exp")
    if x.coeffs.get((0,), x.zero):
        raise ValueError("series_exp needs zero constant term")
    return LaurentWindow.taylor(x.vars[0],
                                exp_coeffs(g, [x.zero + 1], x.zero), x.zero,
                                x.raw)


# ---------------------------------------------------------------------------
# rational reconstruction (Pade-type)


def _solve_homogeneous(rows, ncols):
    """One nonzero rational-kernel vector of the ncols-column system, or None."""
    rows = [list(r) for r in rows]
    pivots = {}
    rank_rows = []
    for row in rows:
        for pc, prow in pivots.items():
            f = row[pc]
            if f:
                for k in range(ncols):
                    row[k] = row[k] - f * prow[k]
        piv = next((k for k in range(ncols) if row[k]), None)
        if piv is None:
            continue
        inv = row[piv]
        invv = scalar_inv(inv)
        row = [c * invv for c in row]
        pivots[piv] = row
        rank_rows.append(piv)
    free = [k for k in range(ncols) if k not in pivots]
    if not free:
        return None
    sol = [None] * ncols
    f0 = free[0]
    for k in range(ncols):
        sol[k] = 0
    sol[f0] = 1
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        acc = 0
        for k in range(pc + 1, ncols):
            if sol[k] != 0 and row[k]:
                acc = acc + row[k] * sol[k]
        sol[pc] = -acc
    return sol


def rational_reconstruct(series: LaurentWindow, deg_num: int, deg_den: int):
    """Pade-type reconstruction of a one-variable Taylor window.

    Returns (num_coeffs, den_coeffs) with den[0] = 1, matching the series on
    its whole exact window, or None when no such rational function exists
    (the extra-coefficient consistency check failed).  Raises ValueError when
    the window holds fewer than deg_num + deg_den + 2 exact coefficients.
    """
    if len(series.vars) != 1:
        raise ValueError("rational_reconstruct is one-variable")
    b = series.bounds[0]
    if b.lo < 0 or not b.lo_hard:
        raise ValueError("series must have no negative exponents")
    navail = b.hi + 1
    if navail < deg_num + deg_den + 2:
        raise ValueError("insufficient window for reconstruction")
    c = [series.coeffs.get((i,), series.zero) for i in range(navail)]
    # unknowns q_0..q_deg_den; equations: coefficient of x^i in q*c is 0
    # for deg_num < i <= deg_num + deg_den
    rows = []
    for i in range(deg_num + 1, deg_num + deg_den + 1):
        rows.append([c[i - j] if 0 <= i - j < navail else RAT_ZERO
                     for j in range(deg_den + 1)])
    q = _solve_homogeneous(rows, deg_den + 1)
    if q is None:
        return None
    # silently-zero denominators cannot happen: q has a 1 pivot
    # consistency: (q*c)_i must vanish for all i > deg_num within the window
    for i in range(deg_num + 1, navail):
        acc = 0
        for j in range(deg_den + 1):
            if 0 <= i - j < navail and q[j] != 0:
                acc = acc + q[j] * c[i - j]
        if acc:
            return None
    num = []
    for i in range(deg_num + 1):
        acc = 0
        for j in range(min(i, deg_den) + 1):
            if q[j] != 0:
                acc = acc + q[j] * c[i - j]
        num.append(acc)
    # normalize q_0 = 1 when possible
    if q[0]:
        inv = scalar_inv(q[0])
        num = [a * inv for a in num]
        q = [a * inv for a in q]
    while len(num) > 1 and not num[-1]:
        num.pop()
    q = list(q)
    while len(q) > 1 and not q[-1]:
        q.pop()
    return num, q
