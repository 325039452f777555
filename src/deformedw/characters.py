"""q-series characters: the alternating-sum formula for the deformed
Z-algebra highest-weight characters and its identification with a
Virasoro-style character, checked as an exact series identity.

Exponents are rationals with a declared resolution denominator; all maps are
integer-keyed internally.
"""

from __future__ import annotations

from math import gcd, isqrt

from .exact import RAT, rat
from .report import CheckRecord


class QSeries:
    """Truncated series in y with rational exponents of fixed resolution:
    coefficient of y^{key/res} is coeffs[key]; exact below the scaled cutoff."""

    __slots__ = ("res", "cutoff", "coeffs")

    def __init__(self, res: int, cutoff: int, coeffs=None):
        self.res = res
        self.cutoff = cutoff
        self.coeffs = {k: v for k, v in (coeffs or {}).items()
                       if v and k < cutoff}

    def rescale(self, res: int) -> "QSeries":
        if res % self.res:
            raise ValueError("resolution must refine")
        f = res // self.res
        return QSeries(res, self.cutoff * f,
                       {k * f: v for k, v in self.coeffs.items()})

    def _align(self, other):
        res = self.res * other.res // gcd(self.res, other.res)
        return self.rescale(res), other.rescale(res)

    def __add__(self, other):
        a, b = self._align(other)
        cutoff = min(a.cutoff, b.cutoff)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return QSeries(a.res, cutoff, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "QSeries":
        return QSeries(self.res, self.cutoff,
                       {k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other):
        a, b = self._align(other)
        amin = min(a.coeffs, default=0)
        bmin = min(b.coeffs, default=0)
        cutoff = min(a.cutoff + bmin, b.cutoff + amin)
        out = {}
        for k1, v1 in a.coeffs.items():
            for k2, v2 in b.coeffs.items():
                k = k1 + k2
                if k < cutoff:
                    out[k] = out[k] + v1 * v2 if k in out else v1 * v2
        return QSeries(a.res, cutoff, out)

    def shift(self, exponent: RAT) -> "QSeries":
        """Multiply by y^exponent (exact rational exponent)."""
        e = RAT(exponent)
        den = int(e.denominator)
        res = self.res * den // gcd(self.res, den)
        a = self.rescale(res)
        off = int(e * res)
        return QSeries(res, a.cutoff + off,
                       {k + off: v for k, v in a.coeffs.items()})

    def coefficient(self, exponent) -> RAT:
        e = RAT(exponent)
        key = e * self.res
        if key >= self.cutoff:
            raise ValueError(f"exponent {e} beyond cutoff")
        if key.denominator != 1:
            return RAT(0)
        return self.coeffs.get(int(key), RAT(0))

    def __eq__(self, other):
        return _first_difference(self, other) is None

    def __repr__(self):
        bits = []
        for k in sorted(self.coeffs)[:8]:
            bits.append(f"{self.coeffs[k]}*y^({rat(k, self.res)})")
        return " + ".join(bits) + f" + O(y^{rat(self.cutoff, self.res)})"


def partition_series(cutoff: int) -> QSeries:
    """1/(y;y)_infinity: the partition generating function, by the exact
    dynamic program over part sizes."""
    table = [RAT(0)] * cutoff
    if cutoff > 0:
        table[0] = RAT(1)
    for part in range(1, cutoff):
        for n in range(part, cutoff):
            table[n] += table[n - part]
    return QSeries(1, cutoff, {n: v for n, v in enumerate(table)})


def rocha_caridi(p1: int, p2: int, r, s, cutoff) -> QSeries:
    """Character-type sum (1/(y;y)) sum_m (y^{(p2 r - p1 s + m p1 p2) m}
    - y^{(r + m p1)(s + m p2)}), truncated at y^cutoff."""
    if p1 < 1 or p2 < 1:
        raise ValueError("labels must be positive")
    r, s = RAT(r), RAT(s)
    cutoff = RAT(cutoff)
    mmax = isqrt(int(cutoff) + 1) + 3 + abs(int(r)) + abs(int(s))
    terms = []
    for m in range(-mmax, mmax + 1):
        terms.append(((p2 * r - p1 * s + m * p1 * p2) * m, 1))
        terms.append(((r + m * p1) * (s + m * p2), -1))
    res = 1
    for e, _ in terms:
        d = int(RAT(e).denominator)
        res = res * d // gcd(res, d)
    cut_scaled = int(cutoff * res) + 1
    num = {}
    for e, sign in terms:
        key = int(RAT(e) * res)
        if key < cut_scaled:
            num[key] = num.get(key, RAT(0)) + sign
    numerator = QSeries(res, cut_scaled, num)
    parts = partition_series(int(cutoff) + 1)
    return numerator * parts


def dza_character(k: int, j, cutoff) -> QSeries:
    """y^{(2j^2+k)/(4(k+2)) - 1/8} (1/(y;y)) sum_m (-1)^m y^{m(j + (k+2)m/2)}."""
    if k < 2:
        raise ValueError("level must be at least 2")
    j = RAT(j)
    two_j = j * 2
    if two_j.denominator != 1 or abs(j) * 2 > k or \
            (int(two_j) - k) % 2 != 0:
        raise ValueError("spin must lie in {-k/2, -k/2+1, ..., k/2}")
    cutoff = RAT(cutoff)
    res = 4 * (k + 2) * 2
    cut_scaled = int(cutoff * res) + 1
    num = {}
    mmax = isqrt(int(cutoff) + 2) + 3 + k
    for m in range(-mmax, mmax + 1):
        e = m * (j + rat(k + 2, 2) * m)
        key = int(RAT(e) * res)
        if key < cut_scaled:
            num[key] = num.get(key, RAT(0)) + (-1) ** (m % 2)
    numerator = QSeries(res, cut_scaled, num)
    parts = partition_series(int(cutoff) + 1)
    pref = (2 * j * j + k) / (4 * (k + 2)) - rat(1, 8)
    return (numerator * parts).shift(pref)


def admissible_spins(k: int):
    return [rat(2 * a - k, 2) for a in range(k + 1)]


def verify_char_identity(k: int, j, cutoff=20):
    """The alternating-sum character equals y^{prefactor} times the
    (2, k+2)-type character with labels (1, j + (k+2)/2), exactly to the
    cutoff. For even k the labels are not coprime and the identity is checked
    as a formal series statement."""
    j = RAT(j)
    case = f"k={k}:j={j}:cutoff={cutoff}"
    lhs = dza_character(k, j, cutoff)
    pref = (2 * j * j + k) / (4 * (k + 2)) - rat(1, 8)
    s = j + rat(k + 2, 2)
    rhs = rocha_caridi(2, k + 2, 1, s, cutoff).shift(pref)
    note = "" if k % 2 else "non-coprime labels (formal identity)"
    # a difference at exponent 0 is falsy, so test for None
    diff = _first_difference(lhs, rhs)
    if diff is None:
        return CheckRecord("characters", case, "pass", note)
    return CheckRecord("characters", case, "fail",
                       f"first difference at exponent {diff}")


def _first_difference(a: QSeries, b: QSeries):
    x, y = a._align(b)
    cutoff = min(x.cutoff, y.cutoff)
    keys = sorted({k for k in x.coeffs if k < cutoff} |
                  {k for k in y.coeffs if k < cutoff})
    for k in keys:
        if x.coeffs.get(k, 0) != y.coeffs.get(k, 0):
            return rat(k, x.res)
    return None
