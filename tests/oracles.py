"""Test-side constructors and oracles that the package itself never calls:
exact Laurent polynomials and the formal delta distribution as windows, the
empty-window test, the logarithm of a window, a geometric factor and a gamma
product expanded factor by factor, a scalar's stored form, the boson
commutator, a contraction's kernel read back as scalars, a partition count,
the leading term of a q-series, a reference model of the hbar series, the
limit II comparison word by word, and the resummed pinned route in object
arithmetic."""

from deformedw import limits
from deformedw.characters import partition_series
from deformedw.exact import (RAT_ONE, RAT_ZERO, Cyc, exp_coeffs,
                             inverse_coeffs, is_rational, log_coeffs, rat,
                             scalar_inv)
from deformedw.fock import kernel_coeffs
from deformedw.report import CheckRecord
from deformedw.series import LaurentWindow, VarBound, _taylor_list
from deformedw.structfn import GammaFactors, PoleError, \
    contraction_logkernel, logkernel_coeffs
from deformedw.wcurrents import Block, _pin_options, _sandwich, mode_profile


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
    return LaurentWindow.taylor(x.vars[0], log_coeffs(f, x.zero), x.zero,
                                x.raw)


def geometric_factor(var, c, exponent, order, zero=RAT_ZERO) -> LaurentWindow:
    """(1 - c*x)^exponent as a window on [0, order] (exponent any integer)."""
    if exponent >= 0:
        coeffs = {(0,): zero + 1}
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
    coeffs = {(0,): zero + 1}
    binom = 1
    power = None
    for k in range(1, order + 1):
        binom = binom * (m + k - 1) // k
        power = c if power is None else power * c
        coeffs[(k,)] = binom * power
    return LaurentWindow((var,), coeffs, [VarBound(0, order, True, False)], zero)


def gamma_product_series(gf, ctx, var: str, order: int) -> LaurentWindow:
    """The finite gamma product `gf` (a structfn.GammaFactors) as a Taylor
    window in var to var^order, one geometric factor at a time."""
    win = LaurentWindow((var,), {(0,): ctx.one},
                        [VarBound(0, order, True, False)], ctx.zero, ctx.raw)
    for (kind, a), m in sorted(gf.factors.items()):
        c = gf.base(ctx, (kind, a))
        win = win * geometric_factor(var, c, m, order, ctx.zero)
    return win


def stored_form(x):
    """A scalar's stored form: its type and every slot."""
    slots = getattr(type(x), "__slots__", None)
    if slots:
        return type(x), tuple(getattr(x, name) for name in slots)
    return type(x), x.numerator, x.denominator


def boson_commutator(ctx, i: int, j: int, n: int):
    """[h^i_n, h^j_{-n}]; the commutator with h^j_m vanishes unless m = -n."""
    if n == 0:
        raise ValueError("zero modes are central and carry no pairing")
    return contraction_logkernel(ctx.N, i, j).term(ctx, n)


def contraction_coeffs(ctx, i: int, j: int, delta: int, order: int) -> list:
    """Coefficients of C_{ij}(s^delta x) through x^order as scalars, from
    the contraction's own log-kernel list under a key of its own, so they
    do not pass through fock.kernel_coeffs or structfn.pair_logkernel."""
    return logkernel_coeffs(
        ctx, ("C", i, j, delta),
        lambda: contraction_logkernel(ctx.N, i, j).shifted(delta),
        order)[:order + 1]


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


def limit_II_per_key(ctx, i: int, j: int, order_x: int) -> CheckRecord:
    """limits.verify_limit_II_relation as an earlier version wrote it: every
    word key is compared on its own, reading its hbar^2 coefficient back and
    multiplying its Z-algebra value by eta^{i+j}.  The maps come from the
    module attributes, so a monkeypatched reduction reaches this too."""
    case = f"N={ctx.N}:k={ctx.level}:i={i}:j={j}:x<={order_x}"
    ok, msg = limits.check_f_reduces_to_g(ctx, i, j, order_x)
    if not ok:
        return CheckRecord("limit2", case, "fail", "f->g: " + msg)
    diff = limits.reduction_sides(ctx, i, j, order_x)
    za = limits.z_algebra_expression(ctx, i, j, order_x)
    keys = set(diff) | set(za)
    eta_ij = ctx.eta_pow(i + j)
    for key in sorted(keys):
        d = diff.get(key)
        got = 0
        if d is not None:
            v = d.valuation()
            if v < 2:
                return CheckRecord("limit2", case, "fail",
                                   f"hbar^{v} at {key}: {d.coefficient(v)}")
            got = d.coefficient(2)
        want = za.get(key)
        target = eta_ij * want if want is not None else 0
        if got != target:
            return CheckRecord("limit2", case, "fail",
                               f"hbar^2 at {key}: {got} != {target}")
    return CheckRecord("limit2", case, "pass",
                       f"{len(keys)} word coefficients")


def pinned_mode_value_resummed(ctx, hw, bra, pin, ket, total_mode: int):
    """wcurrents.pinned_mode_value_resummed as an earlier version wrote it,
    every polynomial, the E recurrence, the convolution and the division by
    vanishing factors in the scalar objects themselves: the pair kernel's
    raw coefficients are dropped to scalars first."""

    def _poly_mul_factor(ctx, poly, c, exponent):
        # a dense polynomial times (1 - c x)^exponent, exponent >= 0
        for _ in range(exponent):
            poly = [(poly[k] if k < len(poly) else ctx.zero) -
                    (c * poly[k - 1] if k >= 1 else ctx.zero)
                    for k in range(len(poly) + 1)]
        return poly

    clearing = pin[5] is not None  # clear_sexp: a fusion limit
    braSum = sum(h for _, h in bra)
    ketSum = sum(k for _, k in ket)
    ext_deg = braSum + ketSum
    drop = ctx.raw[4]
    options = list(_pin_options(ctx, hw, pin))
    denom = {}
    for _, _, gf, _ in options:
        for fkey, mult in gf.factors.items():
            if mult < 0:
                denom[fkey] = max(denom.get(fkey, 0), -mult)
    helper = GammaFactors()
    P = [ctx.zero]
    for s1, s2, gf, zm in options:
        # the option's rational function times D: a polynomial
        numpoly = [zm]
        for fkey, mult in sorted(gf.factors.items()):
            c = helper.base(ctx, fkey)
            extra = mult + denom.get(fkey, 0)
            if extra < 0:
                raise PoleError("denominator union miscounted")
            numpoly = _poly_mul_factor(ctx, numpoly, c, extra)
        for fkey, mult in sorted(denom.items()):
            if fkey not in gf.factors:
                numpoly = _poly_mul_factor(ctx, numpoly,
                                           helper.base(ctx, fkey), mult)
        # external contraction polynomial: E[g] = V[g] - sum_l K[l] E[g-l]
        eng = _sandwich(ctx, hw, bra, [Block([(ctx.one, s1)], ("fix", s1)),
                                       Block([(ctx.one, s2)], ("fix", s2))],
                        ket)
        K = [drop(k) for k in kernel_coeffs(ctx, s1, s2, ext_deg)]
        E = []
        for g in range(ext_deg + 1):
            n1 = g - braSum
            prof = mode_profile(bra, (-n1, -(total_mode - n1)), ket)
            e = eng.value(prof, ctx) if prof is not None else ctx.zero
            for ell in range(1, g + 1):
                if K[ell]:
                    e = e - K[ell] * E[g - ell]
            E.append(e)
        # P += numpoly * E
        conv = [ctx.zero] * (len(numpoly) + len(E) - 1)
        for a, pa in enumerate(numpoly):
            if not pa:
                continue
            for b, eb in enumerate(E):
                if eb:
                    conv[a + b] = conv[a + b] + pa * eb
        if len(conv) > len(P):
            P = P + [ctx.zero] * (len(conv) - len(P))
        for k2, v in enumerate(conv):
            P[k2] = P[k2] + v
    while len(P) > 1 and not P[-1]:
        P.pop()
    # divide out factors vanishing at the pinning (x = 1 in this convention)
    bases = []
    for fkey, mult in sorted(denom.items()):
        bases.extend([helper.base(ctx, fkey)] * mult)
    vanishing = [c for c in bases if not (1 - c)]
    m = len(vanishing)
    to_clear = m - 1 if clearing else m
    if clearing and m == 0:
        return ctx.zero
    for c in vanishing[:to_clear]:
        if len(P) == 1:
            if not P[0]:
                continue
            raise PoleError("pinned matrix element is genuinely singular")
        Q = [P[0]]
        for k2 in range(1, len(P) - 1):
            Q.append(P[k2] + c * Q[k2 - 1])
        if P[-1] + c * Q[-1]:
            raise PoleError("pinned matrix element is genuinely singular "
                            "at the pinning")
        P = Q
    num = ctx.zero
    for pk in P:
        num = num + pk
    den = ctx.one
    skipped = 0
    for c in bases:
        if skipped < m and not (1 - c):
            skipped += 1
            continue
        den = den * (1 - c)
    return num / den
