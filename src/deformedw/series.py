"""Truncated multivariate Laurent series with explicit exactness windows.

A LaurentWindow stores coefficients for exponents inside a per-variable
window [lo, hi].  Each side of the window is either *hard* (the series is
known to be exactly zero beyond it) or *soft* (coefficients beyond it are
unknown / truncated away).  Multiplication shrinks the result window so that
every retained coefficient is the exact full convolution; it is impossible to
read an inexact coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import RAT_ZERO, HbarSeries, exp_coeffs, is_rational


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
    __slots__ = ("vars", "coeffs", "bounds", "zero")

    def __init__(self, vars, coeffs, bounds, zero=RAT_ZERO):
        self.vars = tuple(vars)
        self.bounds = tuple(bounds)
        self.zero = zero
        self.coeffs = {e: c for e, c in coeffs.items() if not _prunable(c)}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(vars, value, zero=RAT_ZERO) -> "LaurentWindow":
        n = len(vars)
        coeffs = {} if _prunable(value) else {(0,) * n: value}
        return LaurentWindow(vars, coeffs, [VarBound(0, 0, True, True)] * n, zero)

    @staticmethod
    def taylor(var, coeff_list, zero=RAT_ZERO) -> "LaurentWindow":
        """One-variable truncated Taylor series: hard floor at 0, soft top."""
        coeffs = {(i,): c for i, c in enumerate(coeff_list)}
        b = VarBound(0, len(coeff_list) - 1, True, False)
        return LaurentWindow((var,), coeffs, [b], zero)

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

    def known(self, expo) -> bool:
        try:
            self.coefficient(expo)
            return True
        except WindowError:
            return False

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
        return LaurentWindow(self.vars, out, bounds, self.zero)

    def __neg__(self):
        return LaurentWindow(self.vars, {e: -c for e, c in self.coeffs.items()},
                             self.bounds, self.zero)

    def __sub__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "LaurentWindow":
        if not scalar and not isinstance(scalar, HbarSeries):
            return LaurentWindow(self.vars, {}, self.bounds, self.zero)
        return LaurentWindow(self.vars, {e: c * scalar for e, c in self.coeffs.items()},
                             self.bounds, self.zero)

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
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if _inside(e, bounds):
                    v = c1 * c2
                    out[e] = out[e] + v if e in out else v
        return LaurentWindow(self.vars, out, bounds, self.zero)

    # -- variable manipulation -------------------------------------------------

    def scale_var(self, var, scalar) -> "LaurentWindow":
        """Substitute var -> scalar * var (scalar invertible)."""
        k = self._vi(var)
        from .exact import scalar_inv
        inv = None
        out = {}
        for e, c in self.coeffs.items():
            n = e[k]
            if n >= 0:
                out[e] = c * scalar**n if n else c
            else:
                if inv is None:
                    inv = scalar_inv(scalar)
                out[e] = c * inv**(-n)
        return LaurentWindow(self.vars, out, self.bounds, self.zero)

    def __eq__(self, other):
        """Equality of every coefficient on the common known region."""
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        self._check_vars(other)
        keys = set(self.coeffs) | set(other.coeffs)
        for e in keys:
            if self.known(e) and other.known(e):
                if self.coefficient(e) != other.coefficient(e):
                    return False
        return True

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
    one = 1 if is_rational(x.zero) else x.zero + 1
    return LaurentWindow.taylor(x.vars[0], exp_coeffs(g, [one], x.zero),
                                x.zero)


def geometric_factor(var, c, exponent, order, zero=RAT_ZERO) -> LaurentWindow:
    """(1 - c*x)^exponent as a window on [0, order] (exponent any integer)."""
    if exponent >= 0:
        coeffs = {(0,): 1 if is_rational(zero) else zero + 1}
        binom = 1
        power = None
        for k in range(1, min(exponent, order) + 1):
            binom = binom * (exponent - k + 1) // k
            power = c if power is None else power * c
            coeffs[(k,)] = (-1) ** (k % 2) * binom * power
        hard_top = exponent <= order
        return LaurentWindow((var,), coeffs,
                             [VarBound(0, exponent if hard_top else order, True, hard_top)], zero)
    # negative exponent: product of geometric series
    m = -exponent
    coeffs = {(0,): 1 if is_rational(zero) else zero + 1}
    binom = 1
    power = None
    for k in range(1, order + 1):
        binom = binom * (m + k - 1) // k
        power = c if power is None else power * c
        coeffs[(k,)] = binom * power
    return LaurentWindow((var,), coeffs, [VarBound(0, order, True, False)], zero)


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
        from .exact import scalar_inv
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
        from .exact import scalar_inv
        inv = scalar_inv(q[0])
        num = [a * inv for a in num]
        q = [a * inv for a in q]
    while len(num) > 1 and not num[-1]:
        num.pop()
    q = list(q)
    while len(q) > 1 and not q[-1]:
        q.pop()
    return num, q
