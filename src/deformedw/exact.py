"""Exact scalar tower: big rationals, cyclotomic fields, a quadratic extension
for the half power s = p^(1/2), and truncated power series in hbar.

Every type here is an immutable value with exact ring (mostly field)
arithmetic; nothing in this package ever touches floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import add, mul

from fractions import Fraction as RAT


def rat(a, b=1):
    return RAT(a, b)


RAT_ZERO = RAT(0)
RAT_ONE = RAT(1)


def is_rational(x) -> bool:
    return isinstance(x, (int, RAT))


def _same(x):
    return x


# the raw kernel (lift, mul, add, norm, drop) of scalars that are their own
# raw values, combined by their operators: the hbar-series contexts' kernel,
# and exp_coeffs' default (see _quad_raw for the kernel of Q(s))
OBJECT_RAW = (_same, mul, add, _same, _same)


# ---------------------------------------------------------------------------
# power-series recurrences on coefficient lists (constant term first); the
# entries may be any scalars of the tower, `zero` starts each accumulation


def exp_coeffs(g, out, zero, raw=OBJECT_RAW):
    """Extend `out`, the coefficients of exp(g) with out[0] = 1, in place to
    len(g) terms; g[0] is ignored (taken as 0).  Uses f' = g' f:
    out[j] = (1/j) sum_{i=1..j} (i g[i]) out[j-i], summed from `zero` with
    i ascending, each i g[i] formed once.

    The entries are scalars combined by their operators, or, given a
    context's raw kernel `raw` = (lift, mul, add, norm, drop), its raw
    values (`zero` the raw zero), each new coefficient normalized once.  A
    term with a zero g[i] is skipped, and so is one with a raw zero None."""
    lift, mul, add, norm, _ = raw
    dg = [None]
    for j in range(len(out), len(g)):
        for i in range(len(dg), j + 1):
            gi = g[i]
            dg.append(mul(lift(i), gi) if gi else None)
        acc = zero
        for i in range(1, j + 1):
            di, oj = dg[i], out[j - i]
            if di is not None and oj is not None:
                t = mul(di, oj)
                acc = t if acc is None else add(acc, t)
        out.append(acc if acc is None else norm(mul(acc, lift(RAT(1, j)))))
    return out


def log_coeffs(f, zero):
    """Coefficients of log(f) for f[0] = 1, as many as f has; the inverse of
    exp_coeffs through the same relation f' = g' f."""
    out = [zero]
    for j in range(1, len(f)):
        acc = j * f[j]
        for i in range(1, j):
            if out[i]:
                acc = acc - (i * out[i]) * f[j - i]
        out.append(acc / j)
    return out


def inverse_coeffs(f, inv0, zero):
    """Coefficients of 1/f, as many as f has; inv0 = 1/f[0]."""
    out = [inv0]
    for j in range(1, len(f)):
        acc = zero
        for i in range(1, j + 1):
            if f[i]:
                acc = acc + f[i] * out[j - i]
        out.append(-inv0 * acc)
    return out


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, constant term first)


def _poly_divexact(a, b):
    # exact division of integer polynomials, b monic-leading assumed nonzero
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q, r = divmod(c, b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i] = q
        if q:
            for j, bj in enumerate(b):
                a[i + j] -= q * bj
    if any(a):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Integer coefficients of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _phi_reduce(order: int, raw: list) -> tuple:
    """The phi(order) coefficients of the integer polynomial `raw` (constant
    term first, changed in place) modulo the order-th cyclotomic polynomial."""
    mod = cyclotomic_poly(order)
    phi = len(mod) - 1
    # top degree first; the modulus is monic and its coefficients are mostly
    # 0 and +-1, which need no product
    for i in range(len(raw) - 1, phi - 1, -1):
        c = raw[i]
        if c:
            for j in range(phi):
                m = mod[j]
                if m == 1:
                    raw[i - phi + j] -= c
                elif m == -1:
                    raw[i - phi + j] += c
                elif m:
                    raw[i - phi + j] -= c * m
    return tuple(raw[:phi]) + (0,) * (phi - len(raw))


def _phi_mul(order: int, A, B) -> tuple:
    """Product of two integer coordinate tuples modulo the order-th
    cyclotomic polynomial."""
    raw = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                if b:
                    raw[i + j] += a * b
    return _phi_reduce(order, raw)


class _Ring:
    """The operations each ring type below derives from its own primitives
    `__add__`, `__neg__`, `__mul__`, `inverse` and `_one()`, defined once.
    A type overrides one only for a stated reason (see the override)."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if is_rational(other) or isinstance(other, type(self)):
            return self * scalar_inv(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if is_rational(other):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = self._one(), self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base


class Cyc(_Ring):
    """Element of the cyclotomic field Q(eta), eta a primitive `order`-th root
    of unity, reduced modulo the order-th cyclotomic polynomial.

    An element is stored as integers: a tuple N of phi(order) numerators and
    one denominator D, its value being sum_i N[i] eta^i / D with D > 0 and
    gcd(D, *N) = 1.  That form is unique (zero is all zeros over 1), so
    equality compares coordinates, and each result costs integer products
    and one gcd.  `coeffs` reads the rational coefficients back.
    """

    __slots__ = ("order", "N", "D")
    __hash__ = None

    def __init__(self, order: int, coeffs):
        coeffs = [RAT(c) for c in coeffs]
        # over the least common denominator the numerators are integers
        D = lcm(*(c.denominator for c in coeffs))
        N = _phi_reduce(order, [c.numerator * (D // c.denominator)
                                for c in coeffs])
        g = gcd(D, *N)
        self.order = order
        self.N = tuple(n // g for n in N)
        self.D = D // g

    @staticmethod
    def _make(order: int, N: tuple, D: int) -> "Cyc":
        # results of the arithmetic below: (N, D) is already canonical
        out = object.__new__(Cyc)
        out.order, out.N, out.D = order, N, D
        return out

    @staticmethod
    def _reduced(order: int, N: tuple, D: int) -> "Cyc":
        # (N, D) with D > 0, divided by its common factor
        g = gcd(D, *N)
        if g != 1:
            N = tuple(n // g for n in N)
            D //= g
        return Cyc._make(order, N, D)

    @property
    def coeffs(self) -> tuple:
        D = self.D
        return tuple(RAT(n, D) for n in self.N)

    # -- constructors

    @staticmethod
    def const(order: int, value) -> "Cyc":
        value = RAT(value)
        phi = len(cyclotomic_poly(order)) - 1
        return Cyc._make(order, (value.numerator,) + (0,) * (phi - 1),
                         value.denominator)

    @staticmethod
    def root(order: int, k: int = 1) -> "Cyc":
        """eta^k for eta the primitive order-th root (k may be negative;
        eta^order = 1): one shared value per (order, k mod order)."""
        return _root(order, k % order)

    # -- ring structure

    def _same_order(self, other: "Cyc") -> None:
        if other.order != self.order:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        if isinstance(other, Cyc):
            self._same_order(other)
            D1, D2 = self.D, other.D
            if D1 == D2:
                return Cyc._reduced(self.order, tuple(
                    a + b for a, b in zip(self.N, other.N)), D1)
            return Cyc._reduced(self.order, tuple(
                a * D2 + b * D1 for a, b in zip(self.N, other.N)), D1 * D2)
        if is_rational(other):
            return self._plus_rat(other.numerator, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def _plus_rat(self, n: int, d: int) -> "Cyc":
        # self + n/d, with n/d in lowest terms and d > 0
        N, D = self.N, self.D
        if d == 1:
            # gcd(D, N[0] + n D, *N[1:]) = gcd(D, *N) = 1
            return Cyc._make(self.order, (N[0] + n * D,) + N[1:], D)
        return Cyc._reduced(self.order, (N[0] * d + n * D,) + tuple(
            a * d for a in N[1:]), D * d)

    def __neg__(self):
        return Cyc._make(self.order, tuple(-a for a in self.N), self.D)

    def _one(self) -> "Cyc":
        return Cyc.const(self.order, 1)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            self._same_order(other)
            return Cyc._reduced(self.order,
                                _phi_mul(self.order, self.N, other.N),
                                self.D * other.D)
        if is_rational(other):
            n = other.numerator
            return Cyc._reduced(self.order, tuple(a * n for a in self.N),
                                self.D * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        # by the Galois norm, as QuadExt.inverse: for x = N/D let P be the
        # product of the conjugates of N other than N itself; then N*P is
        # the norm n of N, a nonzero integer, and 1/x = D*P/n
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        order, N = self.order, self.N
        P = (1,) + (0,) * (len(N) - 1)
        for k in range(2, order):
            if gcd(k, order) == 1:
                # the conjugate eta -> eta^k
                raw = [0] * order
                for i, c in enumerate(N):
                    raw[i * k % order] += c
                P = _phi_mul(order, P, _phi_reduce(order, raw))
        n, D = _phi_mul(order, N, P)[0], self.D
        if n < 0:  # only at orders 1 and 2, where the field is Q
            n, D = -n, -D
        return Cyc._reduced(order, tuple(D * c for c in P), n)

    def __eq__(self, other):
        if isinstance(other, Cyc):
            self._same_order(other)
            return self.D == other.D and self.N == other.N
        if is_rational(other):
            N = self.N
            return (self.D == other.denominator and N[0] == other.numerator
                    and not any(N[1:]))
        return NotImplemented

    def __bool__(self):
        return any(self.N)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"({c})*eta^{i}")
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def _root(order: int, k: int) -> Cyc:
    """eta^k, 0 <= k < order, built once (Cyc.root)."""
    return Cyc(order, [0] * k + [1])


def _triple(F, x):
    """A QuadExt of the field F, or a rational n/d, as its integer triple:
    (A, B, D), or (n, 0, d); None for any other type.  The one check that a
    QuadExt lies in F."""
    if type(x) is QuadExt:
        if x.F != F:
            raise ValueError("mixed quadratic extensions")
        return (x.A, x.B, x.D)
    return (x.numerator, 0, x.denominator) if is_rational(x) else None


class QuadExt(_Ring):
    """Element a + b*s of the quadratic extension Q(s) with s^2 = p.

    Used in generic mode, where p = q/t is a rational that is not a perfect
    square, so that every half-integer power of p is exact.

    With p = pn/pd in lowest terms, sigma = pd*s is integral: sigma^2 = m =
    pn*pd.  An element is stored as integers (A, B, D), its value being
    (A + B*sigma)/D with D > 0 and gcd(A, B, D) = 1.  That form is unique, so
    equality compares coordinates.  F = (m, pd) is the field, compared by
    value.  The operators are views on its raw kernel _quad_raw(F): both
    operands as triples (_triple), the kernel's `mul` or `add`, and one
    reduction by its `norm`, so a result is a QuadExt of F even when its s
    part cancels.  `a`, `b` and `p` read the rational coordinates back.
    """

    __slots__ = ("A", "B", "D", "F")
    __hash__ = None

    def __init__(self, a, b, p):
        a, b, p = RAT(a), RAT(b), RAT(p)
        F = (p.numerator * p.denominator, p.denominator)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        _, _, _, norm, _ = _quad_raw(F)
        # a = A/D and b = B*pd/D
        x = norm((an * bd * F[1], bn * ad, ad * bd * F[1]))
        self.A, self.B, self.D = x or (0, 0, 1)
        self.F = F

    @staticmethod
    def _make(F, x) -> "QuadExt":
        # a canonical triple of F, or None for zero, as `norm` gives them
        out = object.__new__(QuadExt)
        out.A, out.B, out.D = x or (0, 0, 1)
        out.F = F
        return out

    @property
    def a(self):
        return RAT(self.A, self.D)

    @property
    def b(self):
        return RAT(self.B * self.F[1], self.D)

    @property
    def p(self):
        m, pd = self.F
        return RAT(m // pd, pd)

    def __add__(self, other):
        F = self.F
        y = _triple(F, other)
        if y is None:
            return NotImplemented
        _, _, add, norm, _ = _quad_raw(F)
        return QuadExt._make(F, norm(add(_triple(F, self), y)))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._make(self.F, (-self.A, -self.B, self.D))

    def _one(self) -> "QuadExt":
        return QuadExt._make(self.F, (1, 0, 1))

    def __mul__(self, other):
        F = self.F
        y = _triple(F, other)
        if y is None:
            return NotImplemented
        _, mul, _, norm, _ = _quad_raw(F)
        return QuadExt._make(F, norm(mul(_triple(F, self), y)))

    __rmul__ = __mul__

    def inverse(self):
        # 1/((A + B sigma)/D) = D (A - B sigma) / (A^2 - m B^2)
        A, B, D, F = self.A, self.B, self.D, self.F
        n = A * A - F[0] * B * B
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(s)")
        if n < 0:
            D, n = -D, -n
        _, _, _, norm, _ = _quad_raw(F)
        return QuadExt._make(F, norm((D * A, -D * B, n)))

    def __eq__(self, other):
        y = _triple(self.F, other)
        return NotImplemented if y is None else y == (self.A, self.B, self.D)

    def __bool__(self):
        return bool(self.A) or bool(self.B)

    def __repr__(self):
        # a value with no s part prints as the rational it equals
        return f"({self.a} + {self.b}*s)" if self.B else str(self.a)


@lru_cache(maxsize=None)
def _quad_raw(F):
    """The raw kernel (lift, mul, add, norm, drop) of the field F = (m, pd)
    of QuadExt, built once per field: the one place where Q(s) arithmetic is
    written.  QuadExt's operators are views on it, and hot sums of products
    run on it with no object per operation.

    A raw value is QuadExt's integer triple (A, B, D), D > 0, reduced or not,
    or None for an exact zero.  `lift` takes a rational or a QuadExt of F to
    its triple (a nonzero rational n/d to (n, 0, d)); `mul` and `add` are the
    integer formulas on triples, with no gcd and no object; `norm` divides a
    triple by its gcd, giving None for zero; `drop` gives the canonical
    scalar back: a QuadExt when B != 0, otherwise a RAT.
    """
    m = F[0]

    def lift(x):
        if not x:
            return None
        if type(x) is QuadExt:
            # another F tuple: _triple checks that it is the same field
            return (x.A, x.B, x.D) if x.F is F else _triple(F, x)
        return (x.numerator, 0, x.denominator)

    def mul(x, y):
        A1, B1, D1 = x
        A2, B2, D2 = y
        return (A1 * A2 + m * B1 * B2, A1 * B2 + A2 * B1, D1 * D2)

    def add(x, y):
        A1, B1, D1 = x
        A2, B2, D2 = y
        if D1 == D2:
            return (A1 + A2, B1 + B2, D1)
        # a denominator that divides the other keeps the larger one
        if D1 > D2:
            k, r = divmod(D1, D2)
            if not r:
                return (A1 + A2 * k, B1 + B2 * k, D1)
        else:
            k, r = divmod(D2, D1)
            if not r:
                return (A1 * k + A2, B1 * k + B2, D2)
        return (A1 * D2 + A2 * D1, B1 * D2 + B2 * D1, D1 * D2)

    def norm(x):
        A, B, D = x
        if not (A or B):
            return None
        g = gcd(A, B, D)
        return x if g == 1 else (A // g, B // g, D // g)

    def drop(x):
        if x is None:
            return RAT_ZERO
        A, B, D = x
        if not B:
            return RAT(A, D)
        g = gcd(A, B, D)
        return QuadExt._make(F, (A // g, B // g, D // g))

    return lift, mul, add, norm, drop


# the raw kernel of Q: a rational's triple keeps B = 0 through mul and add,
# so the kernel of the trivial field s^2 = 1 serves, and lift refuses a
# QuadExt of any real field
RAT_RAW = _quad_raw((1, 1))


def _slot_nonzero(r) -> bool:
    # an HbarSeries slot: an int, or a tuple of cyclotomic numerators
    return bool(r) if type(r) is int else any(r)


class HbarSeries(_Ring):
    """Truncated power series in hbar: coefficients for exponents 0..trunc-1
    are known exactly, everything from hbar^trunc on is unknown.

    A series is stored as integers: `rows` holds one slot per known
    coefficient, an int for a rational slot or a tuple of phi(order) ints
    (the numerators of a Cyc) for a cyclotomic slot, and every slot is read
    over one denominator D > 0 with gcd(D, all ints) = 1; `order` is None
    when no slot is cyclotomic.  A product is an integer convolution, each
    cyclotomic slot reduced once, and a sum one rescale; either costs one
    gcd.  `coeffs` and `coefficient` read RAT and Cyc values back.

    A slot is cyclotomic iff a Cyc operand landed in it: a Cyc coefficient,
    a sum with a cyclotomic slot, a product of nonzero slots one of which is
    cyclotomic, or a Cyc scalar factor, which makes every slot cyclotomic.
    A slot that no product reaches is a rational zero.  The series in one
    operation share one cyclotomic order (ValueError otherwise).

    Multiplication tracks truncation precisely through valuations, so
    products of small quantities keep extra known orders.
    """

    __slots__ = ("order", "rows", "D", "trunc")
    __hash__ = None

    def __init__(self, coeffs, trunc: int):
        order = None
        parts = []
        for c in list(coeffs)[:trunc]:
            if isinstance(c, Cyc):
                if order is None:
                    order = c.order
                elif c.order != order:
                    raise ValueError("mixed cyclotomic orders")
                parts.append((c.N, c.D))
            else:
                c = RAT(c)
                parts.append((c.numerator, c.denominator))
        # over the least common denominator of values in lowest terms the
        # numerators are integers with no factor common to all of them
        D = lcm(1, *(d for _, d in parts))
        rows = tuple(n * (D // d) if type(n) is int
                     else tuple(x * (D // d) for x in n) for n, d in parts)
        self.order = order
        self.rows = rows + (0,) * (trunc - len(rows))
        self.D = D
        self.trunc = trunc

    @staticmethod
    def _make(order, rows: tuple, D: int, trunc: int) -> "HbarSeries":
        # results of the arithmetic below: (rows, D) is already canonical
        out = object.__new__(HbarSeries)
        out.order, out.rows, out.D, out.trunc = order, rows, D, trunc
        return out

    @staticmethod
    def _reduced(order, rows: list, D: int, trunc: int) -> "HbarSeries":
        # rows over D > 0, divided by their common factor; the order is
        # dropped when no cyclotomic slot is left
        if order is None or tuple not in map(type, rows):
            g = gcd(D, *rows)
            if g != 1:
                rows = [r // g for r in rows]
                D //= g
            return HbarSeries._make(None, tuple(rows), D, trunc)
        g = D
        for r in rows:
            if g == 1:
                break
            g = gcd(g, r) if type(r) is int else gcd(g, *r)
        if g != 1:
            rows = [r // g if type(r) is int else tuple([x // g for x in r])
                    for r in rows]
            D //= g
        return HbarSeries._make(order, tuple(rows), D, trunc)

    def _value(self, r):
        if type(r) is int:
            return RAT(r, self.D)
        return Cyc._reduced(self.order, r, self.D)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._value(r) for r in self.rows)

    @staticmethod
    def const(value, trunc: int) -> "HbarSeries":
        return HbarSeries([value], trunc)

    @staticmethod
    def zero(trunc: int) -> "HbarSeries":
        return HbarSeries([], trunc)

    @staticmethod
    def hbar(trunc: int) -> "HbarSeries":
        return HbarSeries([RAT_ZERO, RAT_ONE], trunc)

    @staticmethod
    def exp_hbar(c, trunc: int) -> "HbarSeries":
        """exp(c*hbar) with c rational, as an exact truncated series."""
        coeffs = [RAT_ONE]
        for j in range(1, trunc):
            coeffs.append(coeffs[-1] * c / j)
        return HbarSeries(coeffs, trunc)

    def valuation(self) -> int:
        """Index of the first known nonzero coefficient (trunc if none)."""
        for i, r in enumerate(self.rows):
            if _slot_nonzero(r):
                return i
        return self.trunc

    def coefficient(self, j: int):
        if j >= self.trunc:
            raise ValueError(f"coefficient hbar^{j} beyond truncation {self.trunc}")
        return self._value(self.rows[j])

    def _coerce(self, other):
        if isinstance(other, HbarSeries):
            return other
        if is_rational(other) or isinstance(other, Cyc):
            return HbarSeries.const(other, self.trunc)
        return None

    def _order_with(self, order):
        # the cyclotomic order of a result with an operand of the given order
        if self.order is None:
            return order
        if order is not None and order != self.order:
            raise ValueError("mixed cyclotomic orders")
        return self.order

    def _plus(self, o: "HbarSeries", sign: int) -> "HbarSeries":
        # self + sign * o on the common truncation
        order = self._order_with(o.order)
        t = min(self.trunc, o.trunc)
        D1, D2 = self.D, o.D
        if D1 == D2:
            u, v, D = 1, sign, D1
        else:
            u, v, D = D2, sign * D1, D1 * D2
        n = max(t, 0)  # t < 0 after a shift past the truncation
        pairs = zip(self.rows[:n], o.rows[:n])
        if order is None:
            rows = [a * u + b * v for a, b in pairs]
        else:
            rows = []
            for a, b in pairs:
                if type(a) is int:
                    if type(b) is int:
                        rows.append(a * u + b * v)
                    else:
                        rows.append((a * u + b[0] * v,)
                                    + tuple([y * v for y in b[1:]]))
                elif type(b) is int:
                    rows.append((a[0] * u + b * v,)
                                + tuple([x * u for x in a[1:]]))
                else:
                    rows.append(tuple([x * u + y * v for x, y in zip(a, b)]))
        return HbarSeries._reduced(order, rows, D, t)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return HbarSeries._make(self.order, tuple(
            -r if type(r) is int else tuple(-x for x in r)
            for r in self.rows), self.D, self.trunc)

    def _one(self) -> "HbarSeries":
        return HbarSeries.const(RAT_ONE, self.trunc)

    # kept rather than derived: a difference is one `_plus` with a sign, and
    # a rational or Cyc operand is taken on either side
    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, HbarSeries):
            return self._times(other)
        if is_rational(other):
            n = other.numerator
            return HbarSeries._reduced(self.order, [
                r * n if type(r) is int else tuple(x * n for x in r)
                for r in self.rows], self.D * other.denominator, self.trunc)
        if isinstance(other, Cyc):
            order, c = self._order_with(other.order), other.N
            return HbarSeries._reduced(order, [
                tuple(r * x for x in c) if type(r) is int
                else _phi_mul(order, r, c) for r in self.rows],
                self.D * other.D, self.trunc)
        return NotImplemented

    __rmul__ = __mul__

    def _times(self, o: "HbarSeries") -> "HbarSeries":
        order = self._order_with(o.order)
        t = min(self.trunc + o.valuation(), o.trunc + self.valuation())
        # the nonzero slots of o; zero slots land nowhere
        right = [(j, b) for j, b in enumerate(o.rows[:t]) if _slot_nonzero(b)]
        if order is None:
            rows = [0] * t
            for i, a in enumerate(self.rows[:t]):
                if a:
                    for j, b in right:
                        k = i + j
                        if k >= t:
                            break
                        rows[k] += a * b
            return HbarSeries._reduced(None, rows, self.D * o.D, t)
        # cyclotomic slots accumulate an unreduced polynomial in eta, and
        # rational products go to `ints`
        width = 2 * len(cyclotomic_poly(order)) - 3
        ints = [0] * t
        raws = [None] * t
        for i, a in enumerate(self.rows[:t]):
            a_int = type(a) is int
            if not (a if a_int else any(a)):
                continue
            for j, b in right:
                k = i + j
                if k >= t:
                    break
                if a_int and type(b) is int:
                    ints[k] += a * b
                    continue
                raw = raws[k]
                if raw is None:
                    raw = raws[k] = [0] * width
                if a_int:
                    for y, by in enumerate(b):
                        raw[y] += a * by
                elif type(b) is int:
                    for x, ax in enumerate(a):
                        raw[x] += ax * b
                else:
                    for x, ax in enumerate(a):
                        if ax:
                            for y, by in enumerate(b):
                                raw[x + y] += ax * by
        rows = []
        for n, raw in zip(ints, raws):
            if raw is None:
                rows.append(n)
            else:
                raw[0] += n
                rows.append(_phi_reduce(order, raw))
        return HbarSeries._reduced(order, rows, self.D * o.D, t)

    def shift(self, k: int) -> "HbarSeries":
        """Multiply by hbar^k (k may be negative if divisible)."""
        if k >= 0:
            return HbarSeries._make(self.order, (0,) * k + self.rows, self.D,
                                    self.trunc + k)
        if any(map(_slot_nonzero, self.rows[:-k])):
            raise ValueError("not divisible by hbar^%d" % -k)
        return HbarSeries._reduced(self.order, list(self.rows[-k:]), self.D,
                                   self.trunc + k)

    def inverse(self) -> "HbarSeries":
        rows = self.rows
        if not rows or not _slot_nonzero(rows[0]):
            raise ZeroDivisionError("inverse needs an invertible constant term")
        if self.order is None:
            # rational slots, on integers: 1/f = D/g for g = sum r_i h^i,
            # whose coefficients are u_j / r0^(j+1) with u_0 = 1 and
            # u_j = -sum_{i=1..j} r_i r0^(i-1) u_{j-i}
            T, r0 = self.trunc, rows[0]
            pw = [1]
            for _ in range(T):
                pw.append(pw[-1] * r0)
            u = [1]
            for j in range(1, T):
                u.append(-sum(rows[i] * pw[i - 1] * u[j - i]
                              for i in range(1, j + 1) if rows[i]))
            # over the denominator r0^T, made positive
            sign = 1 if pw[T] > 0 else -1
            return HbarSeries._reduced(
                None, [sign * self.D * uj * pw[T - 1 - j]
                       for j, uj in enumerate(u)], sign * pw[T], T)
        coeffs = self.coeffs
        return HbarSeries(inverse_coeffs(coeffs, scalar_inv(coeffs[0]),
                                         RAT_ZERO), self.trunc)

    def shifted_inverse(self):
        """(v, the inverse of self / hbar^v) for v the valuation: what a
        division by this series multiplies by, once the dividend is shifted
        by -v."""
        v = self.valuation()
        if v == self.trunc:
            raise ZeroDivisionError("division by series with no known nonzero term")
        return v, (self.shift(-v) if v else self).inverse()

    # kept rather than derived: a series divisor is first shifted by its
    # valuation, and a Cyc divides on either side
    def __truediv__(self, other):
        if is_rational(other) or isinstance(other, Cyc):
            return self * scalar_inv(other)
        if not isinstance(other, HbarSeries):
            return NotImplemented
        v, inv = other.shifted_inverse()
        return (self.shift(-v) if v else self) * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def exp(self) -> "HbarSeries":
        coeffs = self.coeffs
        if coeffs and coeffs[0]:
            raise ValueError("exp needs zero constant term")
        return HbarSeries(exp_coeffs(coeffs, [RAT_ONE], RAT_ZERO), self.trunc)

    def __eq__(self, other):
        """Equality of all known coefficients on the common truncation."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return not self._plus(o, -1)

    def __bool__(self):
        return any(map(_slot_nonzero, self.rows))

    def __repr__(self):
        terms = [f"({c})*h^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(h^{self.trunc})"


def scalar_inv(x):
    if is_rational(x):
        return RAT(x.denominator, x.numerator)
    return x.inverse()
