"""Test-side constructors and oracles that the package itself never calls:
exact Laurent polynomials and the formal delta distribution as windows, the
empty-window test, the logarithm of a window, the boson commutator, a
partition count, the leading term of a q-series, and a reference model of
the hbar series."""

from deformedw.characters import partition_series
from deformedw.exact import (RAT_ONE, RAT_ZERO, Cyc, exp_coeffs,
                             inverse_coeffs, is_rational, log_coeffs, rat,
                             scalar_inv)
from deformedw.series import LaurentWindow, VarBound, _taylor_list
from deformedw.structfn import contraction_logkernel


def window_from_terms(vars, terms):
    """Exact Laurent polynomial (hard on both sides) with the given
    {exponent tuple: coefficient} terms."""
    vars = tuple(vars)
    bounds = []
    for k in range(len(vars)):
        es = [e[k] for e in terms]
        bounds.append(VarBound(min(es), max(es), True, True))
    return LaurentWindow(vars, dict(terms), bounds)


def delta_window(var, radius):
    """The formal delta distribution sum(z^n, n in Z), materialized as the
    all-ones window on [-radius, radius]; soft on both sides."""
    coeffs = {(n,): 1 for n in range(-radius, radius + 1)}
    return LaurentWindow((var,), coeffs,
                         [VarBound(-radius, radius, False, False)])


def is_empty(win) -> bool:
    """A window whose bounds cross knows no coefficient at all."""
    return any(b.lo > b.hi for b in win.bounds)


def series_log(x: LaurentWindow) -> LaurentWindow:
    """log of a one-variable window with constant term 1."""
    f = _taylor_list(x, "series_log")
    if x.coeffs.get((0,), x.zero) - 1:
        raise ValueError("series_log needs constant term 1")
    return LaurentWindow.taylor(x.vars[0], log_coeffs(f, x.zero), x.zero)


def boson_commutator(ctx, i: int, j: int, n: int):
    """[h^i_n, h^j_{-n}]; the commutator with h^j_m vanishes unless m = -n."""
    if n == 0:
        raise ValueError("zero modes are central and carry no pairing")
    return contraction_logkernel(ctx.N, i, j).term(ctx, n)


def partition_count(n: int) -> int:
    return int(partition_series(n + 1).coefficient(n))


def leading(qs):
    """(exponent, coefficient) of the lowest term of a nonzero QSeries."""
    k = min(qs.coeffs)
    return rat(k, qs.res), qs.coeffs[k]


class HbarModel:
    """The coefficient-tuple hbar series that exact.HbarSeries replaced, as
    a reference model: one RAT or Cyc value per known coefficient, each
    operation done slot by slot in the scalar types themselves.

    Coefficients may be rationals or Cyc elements (mixing is fine, arithmetic
    promotes).  Multiplication tracks truncation precisely through
    valuations, so products of small quantities keep extra known orders.
    """

    __slots__ = ("coeffs", "trunc")
    __hash__ = None

    def __init__(self, coeffs, trunc: int):
        coeffs = list(coeffs)
        if len(coeffs) > trunc:
            coeffs = coeffs[:trunc]
        self.coeffs = tuple(coeffs) + (RAT_ZERO,) * (trunc - len(coeffs))
        self.trunc = trunc

    @staticmethod
    def const(value, trunc: int) -> "HbarModel":
        return HbarModel([value], trunc)

    def valuation(self) -> int:
        """Index of the first known nonzero coefficient (trunc if none)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.trunc

    def _coerce(self, other):
        if isinstance(other, HbarModel):
            return other
        if is_rational(other) or isinstance(other, Cyc):
            return HbarModel.const(other, self.trunc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = min(self.trunc, o.trunc)
        return HbarModel([self.coeffs[i] + o.coeffs[i] for i in range(t)], t)

    __radd__ = __add__

    def __neg__(self):
        return HbarModel([-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = min(self.trunc, o.trunc)
        return HbarModel([self.coeffs[i] - o.coeffs[i] for i in range(t)], t)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_rational(other) or isinstance(other, Cyc):
            return HbarModel([c * other for c in self.coeffs], self.trunc)
        if not isinstance(other, HbarModel):
            return NotImplemented
        t = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        # a slot stays None until a product lands in it, so the first
        # product is stored as it is; slots no product reaches are RAT_ZERO
        out = [None] * t
        for i, a in enumerate(self.coeffs):
            if a and i < t:
                for j, b in enumerate(other.coeffs):
                    k = i + j
                    if k >= t:
                        break
                    if b:
                        acc = out[k]
                        out[k] = a * b if acc is None else acc + a * b
        return HbarModel([RAT_ZERO if c is None else c for c in out], t)

    __rmul__ = __mul__

    def shift(self, k: int) -> "HbarModel":
        """Multiply by hbar^k (k may be negative if divisible)."""
        if k >= 0:
            return HbarModel([RAT_ZERO] * k + list(self.coeffs), self.trunc + k)
        if any(self.coeffs[:-k]):
            raise ValueError("not divisible by hbar^%d" % -k)
        return HbarModel(self.coeffs[-k:], self.trunc + k)

    def inverse(self) -> "HbarModel":
        if not self.coeffs or not self.coeffs[0]:
            raise ZeroDivisionError("inverse needs an invertible constant term")
        return HbarModel(inverse_coeffs(self.coeffs,
                                        scalar_inv(self.coeffs[0]), RAT_ZERO),
                         self.trunc)

    def __truediv__(self, other):
        if is_rational(other) or isinstance(other, Cyc):
            return self * scalar_inv(other)
        if not isinstance(other, HbarModel):
            return NotImplemented
        v = other.valuation()
        if v == other.trunc:
            raise ZeroDivisionError("division by series with no known nonzero term")
        num = self.shift(-v) if v else self
        den = other.shift(-v) if v else other
        return num * den.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = HbarModel.const(RAT_ONE, self.trunc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exp(self) -> "HbarModel":
        if self.coeffs and self.coeffs[0]:
            raise ValueError("exp needs zero constant term")
        return HbarModel(exp_coeffs(self.coeffs, [RAT_ONE], RAT_ZERO),
                         self.trunc)

    def __eq__(self, other):
        """Equality of all known coefficients on the common truncation."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = min(self.trunc, o.trunc)
        return all(self.coeffs[i] == o.coeffs[i] for i in range(t))

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)
