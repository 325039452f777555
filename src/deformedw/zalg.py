"""Affine gl_N/sl_N structure constants in the homogeneous basis, the
explicit change to the principal basis, and the consistency of the Cartan
splitting with the Z-algebra structure function.

Elements are formal linear combinations over the cyclotomic field Q(omega),
omega = exp(2 pi i / N), of symbols E^{i,j}_n and a central symbol; the
central level stays symbolic in all bracket checks and is specialized to an
integer only when comparing with structure-function series.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import Cyc, rat
from .report import CheckRecord
from .series import LaurentWindow, VarBound, series_exp
from .structfn import g_series

CENTER = ("K",)


class GlElement:
    """Linear combination of E^{i,j}_n symbols and the center, over Q(omega)."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms=None):
        self.N = N
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def E(N: int, i: int, j: int, n: int, coeff=1) -> "GlElement":
        if not (1 <= i <= N and 1 <= j <= N):
            raise ValueError("matrix indices out of range")
        c = Cyc.const(2 * N, coeff) if not isinstance(coeff, Cyc) else coeff
        return GlElement(N, {("E", i, j, n): c})

    @staticmethod
    def center(N: int, coeff=1) -> "GlElement":
        c = Cyc.const(2 * N, coeff) if not isinstance(coeff, Cyc) else coeff
        return GlElement(N, {CENTER: c})

    @staticmethod
    def zero(N: int) -> "GlElement":
        return GlElement(N, {})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] + v if k in terms else v
        return GlElement(self.N, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, coeff) -> "GlElement":
        if not isinstance(coeff, Cyc):
            coeff = Cyc.const(2 * self.N, coeff)
        return GlElement(self.N, {k: v * coeff for k, v in self.terms.items()})

    def __eq__(self, other):
        return self.N == other.N and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, key):
        return self.terms.get(key, Cyc.const(2 * self.N, 0))

    def principal_degrees(self):
        """Set of principal degrees (j - i) + N n of the E-terms."""
        return {(k[2] - k[1]) + self.N * k[3]
                for k in self.terms if k != CENTER}

    def __repr__(self):
        bits = []
        for k in sorted(self.terms, key=str):
            if k == CENTER:
                bits.append(f"({self.terms[k]})*K")
            else:
                _, i, j, n = k
                bits.append(f"({self.terms[k]})*E[{i},{j};{n}]")
        return " + ".join(bits) if bits else "0"


def gl_bracket(a: GlElement, b: GlElement) -> GlElement:
    """[E^{i,j}_n, E^{i',j'}_m] = d^{ji'} E^{i,j'}_{n+m} - d^{ij'} E^{i',j}_{n+m}
    + d^{ij'} d^{ji'} n delta_{n+m,0} K, extended bilinearly; K is central."""
    N = a.N
    out = {}

    def add(key, coeff):
        if key in out:
            out[key] = out[key] + coeff
        else:
            out[key] = coeff

    for ka, ca in a.terms.items():
        if ka == CENTER:
            continue
        _, i, j, n = ka
        for kb, cb in b.terms.items():
            if kb == CENTER:
                continue
            _, i2, j2, m = kb
            c = ca * cb
            if j == i2:
                add(("E", i, j2, n + m), c)
            if i == j2:
                add(("E", i2, j, n + m), -c)
            if i == j2 and j == i2 and n + m == 0:
                add(CENTER, c * n)
    return GlElement(N, out)


def _omega_pow(N: int, k: int) -> Cyc:
    """omega^k = eta^{2k} for eta the primitive 2N-th root (omega^N = 1)."""
    return Cyc.root(2 * N, 2 * k)


def beta_gen(N: int, n: int) -> GlElement:
    """Principal Heisenberg generator, n not divisible by N."""
    if n % N == 0:
        raise ValueError("beta is defined for n not divisible by N")
    m, nu = divmod(n, N)
    acc = GlElement.zero(N)
    for i in range(1, N - nu + 1):
        acc = acc + GlElement.E(N, i, i + nu, m)
    for i in range(N - nu + 1, N + 1):
        acc = acc + GlElement.E(N, i, i + nu - N, m + 1)
    return acc


def x_gen(N: int, mu: int, n: int) -> GlElement:
    """Principal-basis generator x^{(mu)}_n (mu mod N, nonzero)."""
    if mu % N == 0:
        raise ValueError("flavor must be nonzero mod N")
    m, nu = divmod(n, N)
    acc = GlElement.zero(N)
    if nu:
        for i in range(1, N - nu + 1):
            acc = acc + GlElement.E(N, i, i + nu, m,
                                    _omega_pow(N, mu * (i + nu - 1)))
        for i in range(N - nu + 1, N + 1):
            acc = acc + GlElement.E(N, i, i + nu - N, m + 1,
                                    _omega_pow(N, mu * (i + nu - 1)))
        return acc
    one = Cyc.const(2 * N, 1)
    inv = (one - _omega_pow(N, mu)).inverse()
    for i in range(1, N):
        coeff = (one - _omega_pow(N, mu * i)) * inv
        # H^i_m = E^{i,i}_m - E^{i+1,i+1}_m
        acc = acc + GlElement.E(N, i, i, m, coeff)
        acc = acc + GlElement.E(N, i + 1, i + 1, m, -coeff)
    if m == 0:
        acc = acc + GlElement.center(N, -inv)
    return acc


def verify_principal_relations(N: int, k_value: int, window_n: int):
    """All brackets of realized principal generators match the principal
    relations, with the right sides realized through the same basis change;
    the central symbol stays formal.  Also checks principal-degree
    homogeneity of every realized generator."""
    case = f"N={N}:window={window_n}"
    rng = [n for n in range(-window_n, window_n + 1)]
    # each distinct generator is realized once per call, through the
    # module-level x_gen / beta_gen
    betas = {}
    xs = {}

    def beta_at(n):
        if n not in betas:
            betas[n] = beta_gen(N, n)
        return betas[n]

    def x_at(mu, n):
        if (mu, n) not in xs:
            xs[mu, n] = x_gen(N, mu, n)
        return xs[mu, n]

    def fail(msg):
        return CheckRecord("zalg", case, "fail", msg)

    # degree homogeneity
    for n in rng:
        if n % N:
            degs = beta_at(n).principal_degrees()
            if degs != {n}:
                return fail(f"beta_{n} not homogeneous: degrees {degs}")
        for mu in range(1, N):
            degs = x_at(mu, n).principal_degrees()
            if degs and degs != {n}:
                return fail(f"x^({mu})_{n} not homogeneous: degrees {degs}")

    for n in rng:
        for m in rng:
            if n % N and m % N:
                got = gl_bracket(beta_at(n), beta_at(m))
                want = GlElement.center(N, n) if n + m == 0 \
                    else GlElement.zero(N)
                if got != want:
                    return fail(f"[beta_{n}, beta_{m}] = {got}, want {want}")
            for nu in range(1, N):
                if n % N:
                    got = gl_bracket(beta_at(n), x_at(nu, m))
                    want = x_at(nu, n + m).scale(1 - _omega_pow(N, -nu * n))
                    if got != want:
                        return fail(f"[beta_{n}, x^({nu})_{m}] mismatch")
            for mu in range(1, N):
                for nu in range(1, N):
                    got = gl_bracket(x_at(mu, n), x_at(nu, m))
                    cf = _omega_pow(N, -mu * m) - _omega_pow(N, -nu * n)
                    if (mu + nu) % N:
                        want = x_at(mu + nu, n + m).scale(cf)
                    else:
                        want = GlElement.zero(N)
                        if cf:
                            if (n + m) % N == 0:
                                return fail(
                                    f"beta_(0 mod N) needed at x-bracket "
                                    f"({mu},{n}),({nu},{m})")
                            want = want + beta_at(n + m).scale(cf)
                        if n + m == 0:
                            want = want + GlElement.center(
                                N, _omega_pow(N, mu * n) * n)
                    if got != want:
                        return fail(
                            f"[x^({mu})_{n}, x^({nu})_{m}] = {got}, "
                            f"want {want}")
    return CheckRecord("zalg", case, "pass",
                       f"k symbolic; level {k_value} reserved for splitting")


def exchange_factor_series(N: int, k_value: int, mu: int, nu: int,
                           order: int) -> LaurentWindow:
    """Scalar factor from moving the Cartan exponential of flavor mu past the
    one of flavor nu: exp of the cross contraction, with [beta_n, beta_{-n}]
    taken from the gl_N realization (not assumed)."""
    if k_value == 0:
        raise ValueError("level must be nonzero")
    one = Cyc.const(2 * N, 1)
    terms = {}
    for n in range(1, order + 1):
        if n % N == 0:
            continue
        level_value = _beta_central(N, n) * k_value
        coeff = (one - _omega_pow(N, mu * n)) \
            * (one - _omega_pow(N, -nu * n)) \
            * level_value * rat(-1, k_value ** 2 * n ** 2)
        terms[(n,)] = coeff
    win = LaurentWindow(("zeta",), terms, [VarBound(0, order, True, False)])
    return series_exp(win)


@lru_cache(maxsize=None)
def _beta_central(N: int, n: int) -> Cyc:
    """The coefficient of the center in [beta_n, beta_{-n}] (n, times the
    formal center), bracketed once per (N, n); ArithmeticError if the
    bracket is not central."""
    bkt = gl_bracket(beta_gen(N, n), beta_gen(N, -n))
    if set(bkt.terms) - {CENTER}:
        raise ArithmeticError("beta bracket is not central")
    return bkt.coefficient(CENTER)


def verify_splitting_consistency(N: int, k_value: int, mu: int, nu: int,
                                 order: int = 12):
    """The exchange factor computed from the realized principal Heisenberg
    equals the Z-algebra structure function g^{mu,nu}, both orientations."""
    case = f"N={N}:k={k_value}:mu={mu}:nu={nu}:order={order}"
    for (a, b) in ((mu, nu), (nu, mu)):
        got = exchange_factor_series(N, k_value, a, b, order)
        want = g_series(N, k_value, a, b, order)
        for n in range(order + 1):
            if got.coefficient((n,)) != want.coefficient((n,)):
                return CheckRecord(
                    "zalg-split", case, "fail",
                    f"orientation ({a},{b}) coefficient zeta^{n}: "
                    f"{got.coefficient((n,))} != {want.coefficient((n,))}")
    return CheckRecord("zalg-split", case, "pass")
