import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from deformedw.exact import (Cyc, HbarSeries, QuadExt, RAT, RAT_ZERO,
                             _quad_raw, cyclotomic_poly, exp_coeffs,
                             inverse_coeffs, log_coeffs, rat)
from oracles import HbarModel

small_rats = st.builds(rat, st.integers(-20, 20), st.integers(1, 15))
# int and RAT scalars, both of which Cyc arithmetic takes as rationals
scalars = st.one_of(st.integers(-20, 20), small_rats)
# order 12's polynomial x^4 - x^2 + 1 has zero and negative coefficients
CYC_ORDERS = (4, 6, 8, 10, 12)


@st.composite
def cyc_lists(draw, count):
    """An order and `count` canonical coefficient lists of length phi."""
    order = draw(st.sampled_from(CYC_ORDERS))
    phi = len(cyclotomic_poly(order)) - 1
    lists = st.lists(small_rats, min_size=phi, max_size=phi)
    return (order,) + tuple(draw(lists) for _ in range(count))


def rand_rat(rng):
    return rat(rng.randint(-20, 20), rng.randint(1, 15))


def rand_cyc(rng, order):
    phi = len(cyclotomic_poly(order)) - 1
    return Cyc(order, [rand_rat(rng) for _ in range(phi)])


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)


def test_cyc_root_of_unity_orders():
    for N in (2, 3, 4, 5):
        order = 2 * N
        eta = Cyc.root(order)
        assert eta ** order == 1
        assert eta ** N == -1
        omega = eta * eta
        assert omega ** N == 1
        assert omega ** 1 != 1


def test_cyc_reduce_examples():
    # N=2 (order 4): eta^2 reduces to -1, i.e. omega = -1
    assert Cyc(4, [0, 0, 1]) == -1
    assert Cyc(4, [0, 0, 0, 0, 1]) == 1  # eta^4 = 1


def test_cyc_reduce_is_ring_hom():
    rng = random.Random(7)
    for order in (4, 6, 8, 10):
        phi = len(cyclotomic_poly(order)) - 1
        for _ in range(10):
            a = [rand_rat(rng) for _ in range(phi + 3)]
            b = [rand_rat(rng) for _ in range(phi + 2)]
            prod = [RAT(0)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
            assert Cyc(order, prod) == Cyc(order, a) * Cyc(order, b)


def test_field_axioms_cyc():
    rng = random.Random(3)
    for order in (4, 6, 8):
        for _ in range(8):
            a, b, c = (rand_cyc(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * a.inverse() == 1
                assert (1 / a) * a == 1


def test_quadext_field():
    rng = random.Random(11)
    p = rat(9, 10)
    for _ in range(20):
        a = QuadExt(rand_rat(rng), rand_rat(rng), p)
        b = QuadExt(rand_rat(rng), rand_rat(rng), p)
        assert (a + b) * (a - b) == a * a - b * b
        if a:
            assert a * a.inverse() == 1
            assert a ** -2 == (a * a).inverse()
    s = QuadExt(0, 1, p)
    assert s * s == p
    assert s ** 2 == QuadExt(p, 0, p)
    assert (1 / s) * s == 1


def test_quadext_mixes_with_rationals():
    p = rat(9, 10)
    s = QuadExt(0, 1, p)
    assert 1 + s == QuadExt(1, 1, p)
    assert rat(1, 2) * s == QuadExt(0, rat(1, 2), p)
    assert (2 - s) * (2 + s) == 4 - p


# p = q/t at the default points, and two more fields, one with s^2 < 0
QUAD_PS = (rat(9, 10), rat(10, 21), rat(2), rat(-3, 7))


@st.composite
def quad_operands(draw, count):
    """A field p and `count` scalars of it: rationals (int or RAT) and
    QuadExt values, some with a zero s part."""
    p = draw(st.sampled_from(QUAD_PS))
    out = []
    for _ in range(count):
        a = draw(scalars)
        if draw(st.booleans()):
            out.append(a)
        else:
            out.append(QuadExt(a, draw(st.sampled_from([0, 1, -2]) | small_rats),
                               p))
    return (p,) + tuple(out)


def assert_dropped(got, want):
    """`got` is the canonical scalar of the value `want`: a QuadExt with the
    same coordinates when the s part is nonzero, otherwise a RAT."""
    if isinstance(want, QuadExt) and want.B:
        assert type(got) is QuadExt
        assert (got.A, got.B, got.D, got.F) == (want.A, want.B, want.D, want.F)
    else:
        assert type(got) is RAT and got == want


def assert_reduced(r):
    """A normalized raw triple: ints, D > 0, gcd 1."""
    A, B, D = r
    assert all(type(v) is int for v in r)
    assert (A or B) and D > 0 and gcd(A, B, D) == 1


@given(quad_operands(3), st.integers(-4, 4))
def test_quad_raw_kernel_matches_quadext(data, n):
    p, x, y, z = data
    s = QuadExt(0, 1, p)
    lift, mul, add, norm, drop = _quad_raw(s.F)
    # the second operand shares x's denominator (x + n), divides it (x * n),
    # cancels x's s part (n - s part of x) or all of x (-x)
    sx = x * 0 + (x.b if isinstance(x, QuadExt) else 0) * s
    pairs = [(x, y), (y, z), (x, x + n), (x, x * n), (x + n, x * n),
             (x, n - sx), (x, -x), (y, -y + n * s)]
    for a, b in pairs:
        ra, rb = lift(a), lift(b)
        for r, v in ((ra, a), (rb, b)):
            assert (r is None) == (not v)
            assert_dropped(drop(r), v + 0 * s)
            if r is not None:
                assert_reduced(norm(r))
        if ra is None or rb is None:
            continue
        for got, want in ((mul(ra, rb), a * b), (add(ra, rb), a + b)):
            assert_dropped(drop(got), want + 0 * s)
            red = norm(got)
            if want:
                assert_reduced(red)
                assert_dropped(drop(red), want + 0 * s)
            else:
                assert red is None and drop(red) == 0
    # an unreduced chain: (x*y + y*z) * (x + z), normalized once
    terms = [lift(v) for v in (x, y, z)]
    if all(terms):
        rx, ry, rz = terms
        chain = mul(add(mul(rx, ry), mul(ry, rz)), add(rx, rz))
        want = (x * y + y * z) * (x + z)
        assert_dropped(drop(chain), want + 0 * s)
        assert_dropped(drop(norm(chain)), want + 0 * s)


def test_hbar_series_arithmetic():
    e = HbarSeries.exp_hbar(1, 8)
    em = HbarSeries.exp_hbar(-1, 8)
    assert e * em == 1
    assert e / e == 1
    assert (e - 1).valuation() == 1
    # precise truncation tracking: a product of two O(h) factors knows h^8
    prod = (e - 1) * (em - 1)
    assert prod.trunc == 9
    assert prod.coefficient(2) == -1


def test_hbar_exp_log_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [RAT(1)] + [rand_rat(rng) for _ in range(6)]
        f = HbarSeries(coeffs, 7)
        assert HbarSeries(log_coeffs(coeffs, RAT(0)), 7).exp() == f
        g = HbarSeries([RAT(0)] + [rand_rat(rng) for _ in range(6)], 7)
        assert log_coeffs(g.exp().coeffs, RAT(0)) == list(g.coeffs)


def test_hbar_division_with_valuation_cancellation():
    h = HbarSeries.hbar(8)
    e = HbarSeries.exp_hbar(1, 8)
    ratio = (e - 1) / h          # (e^h - 1)/h = 1 + h/2 + ...
    assert ratio.coefficient(0) == 1
    assert ratio.coefficient(1) == rat(1, 2)
    with pytest.raises(ValueError):
        (e - 0).shift(-1)


def test_hbar_cyc_coefficients():
    omega = Cyc.root(6, 2)
    f = HbarSeries.exp_hbar(rat(1, 3), 5) * omega
    g = f * f * f  # omega^3 = 1, exp(h)
    assert g == HbarSeries.exp_hbar(1, 5)


@given(st.lists(small_rats, max_size=8))
def test_exp_coeffs_inverts_log_coeffs(tail):
    f = [RAT(1)] + tail
    assert exp_coeffs(log_coeffs(f, RAT(0)), [RAT(1)], RAT(0)) == f


@given(small_rats.filter(bool), st.lists(small_rats, max_size=8))
def test_inverse_coeffs_times_series_is_one(c0, tail):
    f = [c0] + tail
    g = inverse_coeffs(f, 1 / c0, RAT(0))
    product = [sum((f[i] * g[n - i] for i in range(n + 1)), RAT(0))
               for n in range(len(f))]
    assert product == [1] + [0] * len(tail)


def convolve(a, b):
    out = [RAT(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def assert_int_coords(x):
    """`x` is stored as phi(order) int numerators over one int denominator,
    in the canonical form D > 0, gcd(D, *N) = 1, and reads back a tuple of
    RAT coefficients."""
    assert isinstance(x, Cyc)
    phi = len(cyclotomic_poly(x.order)) - 1
    assert type(x.N) is tuple and len(x.N) == phi
    assert all(type(n) is int for n in x.N) and type(x.D) is int
    assert x.D > 0 and gcd(x.D, *x.N) == 1
    assert type(x.coeffs) is tuple and len(x.coeffs) == phi
    assert all(type(c) is type(RAT_ZERO) for c in x.coeffs)


def assert_canonical(x, ref):
    """`x` equals the fully normalised reference, coordinate by coordinate,
    and its coordinates are canonical."""
    assert isinstance(x, Cyc) and x.order == ref.order
    assert_int_coords(x)
    assert (x.N, x.D) == (ref.N, ref.D)
    assert x.coeffs == ref.coeffs


@given(cyc_lists(2))
def test_cyc_ring_ops_match_full_normalisation(data):
    order, a, b = data
    x, y = Cyc(order, a), Cyc(order, b)
    assert_canonical(x + y, Cyc(order, [u + v for u, v in zip(a, b)]))
    assert_canonical(x - y, Cyc(order, [u - v for u, v in zip(a, b)]))
    assert_canonical(-x, Cyc(order, [-u for u in a]))
    assert_model(x * y, order, model_mul(order, a, b))


def test_cyc_mul_reduces_by_non_unit_coefficients():
    # 105 is the least order whose cyclotomic polynomial has a coefficient
    # other than 0 and +-1 (a -2)
    rng = random.Random(13)
    a, b = (rand_cyc(rng, 105) for _ in range(2))
    assert_model(a * b, 105, model_mul(105, a.coeffs, b.coeffs))


@given(cyc_lists(1), scalars)
def test_cyc_rational_ops_match_full_normalisation(data, r):
    order, a = data
    x = Cyc(order, a)
    rest = a[1:]
    assert_canonical(x + r, Cyc(order, [a[0] + r] + rest))
    assert_canonical(r + x, Cyc(order, [a[0] + r] + rest))
    assert_canonical(x - r, Cyc(order, [a[0] - r] + rest))
    assert_canonical(r - x, Cyc(order, [r - a[0]] + [-u for u in rest]))
    assert_canonical(x * r, Cyc(order, [u * r for u in a]))
    assert_canonical(r * x, Cyc(order, [u * r for u in a]))


@given(cyc_lists(1), cyc_lists(1))
def test_cyc_mixed_orders_raise(first, second):
    (m, a), (n, b) = first, second
    assume(m != n)
    x, y = Cyc(m, a), Cyc(n, b)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x == y):
        with pytest.raises(ValueError):
            op()


def test_hbar_product_coefficient_types():
    # a rational slot, a Cyc slot (one reached by a rational and a Cyc
    # product) and a slot no product reaches, which stays RAT zero; the
    # truncation follows the valuations: min(3 + 1, 5 + 0) = 4
    eta = Cyc.root(6)
    a = HbarSeries([rat(1, 2), eta], 3)
    b = HbarSeries([0, 3, 5], 5)
    prod = a * b
    assert prod.trunc == 4
    assert [type(c) for c in prod.coeffs] == [type(RAT_ZERO)] * 2 + [Cyc] * 2
    assert prod.coeffs[:2] == (0, rat(3, 2))
    assert prod.coeffs[2] == Cyc(6, [rat(5, 2), 3])
    assert prod.coeffs[3] == 5 * eta
    assert [type(c) for c in (b * a).coeffs] == [type(c) for c in prod.coeffs]


# -- Cyc against a reference model: a tuple of phi(order) Fractions, the
# coefficients of eta^0 .. eta^(phi-1), reduced by long division

# order 2 is Q itself (eta = -1), the only field here with negative norms
MODEL_ORDERS = (2,) + CYC_ORDERS + (105,)


@st.composite
def cyc_models(draw, count):
    """An order and `count` dense model values."""
    order = draw(st.sampled_from(MODEL_ORDERS))
    phi = len(cyclotomic_poly(order)) - 1
    lists = st.lists(small_rats, min_size=phi, max_size=phi)
    return (order,) + tuple(tuple(draw(lists)) for _ in range(count))


def model_const(order, r):
    phi = len(cyclotomic_poly(order)) - 1
    return (RAT(r),) + (RAT(0),) * (phi - 1)


def model_mul(order, u, v):
    mod = cyclotomic_poly(order)
    phi = len(mod) - 1
    raw = convolve(u, v)
    for i in range(len(raw) - 1, phi - 1, -1):
        c = raw[i]
        for j in range(phi + 1):
            raw[i - phi + j] -= c * mod[j]
    return tuple(raw[:phi])


def model_pow(order, u, n):
    out = model_const(order, 1)
    for _ in range(n):
        out = model_mul(order, out, u)
    return out


def assert_model(x, order, u):
    """`x` has the model value `u` and canonical integer coordinates."""
    assert x.order == order
    assert_int_coords(x)
    assert x.coeffs == tuple(u)


def assert_inverse_of(x, order, u):
    """`x` times the model value `u` is one, and `x` is canonical."""
    assert x.order == order
    assert_int_coords(x)
    assert model_mul(order, x.coeffs, u) == model_const(order, 1)


@given(cyc_models(2))
def test_cyc_ring_ops_match_reference(data):
    order, u, v = data
    x, y = Cyc(order, u), Cyc(order, v)
    assert_model(x, order, u)
    assert_model(x + y, order, [a + b for a, b in zip(u, v)])
    assert_model(x - y, order, [a - b for a, b in zip(u, v)])
    assert_model(-x, order, [-a for a in u])
    assert_model(x * y, order, model_mul(order, u, v))


@settings(deadline=None)
@given(cyc_models(2))
def test_cyc_inverse_and_division_match_reference(data):
    order, u, v = data
    x, y = Cyc(order, u), Cyc(order, v)
    if y:
        assert_inverse_of(y.inverse(), order, v)
        q = x / y
        assert_int_coords(q)
        assert model_mul(order, q.coeffs, v) == u
    else:
        for op in (y.inverse, lambda: x / y, lambda: 1 / y):
            with pytest.raises(ZeroDivisionError):
                op()


@settings(deadline=None)
@given(cyc_models(1), scalars)
def test_cyc_rational_operands_on_both_sides(data, r):
    order, u = data
    x = Cyc(order, u)
    rest = list(u[1:])
    assert_model(x + r, order, [u[0] + r] + rest)
    assert_model(r + x, order, [u[0] + r] + rest)
    assert_model(x - r, order, [u[0] - r] + rest)
    assert_model(r - x, order, [r - u[0]] + [-a for a in rest])
    assert_model(x * r, order, [a * r for a in u])
    assert_model(r * x, order, [a * r for a in u])
    if r:
        assert_model(x / r, order, [a / RAT(r) for a in u])
    else:
        with pytest.raises(ZeroDivisionError):
            x / r
    if x:
        q = r / x
        assert_int_coords(q)
        assert model_mul(order, q.coeffs, u) == model_const(order, r)
    assert (x == r) == (tuple(u) == model_const(order, r))
    assert (r == x) == (x == r)


@settings(deadline=None)
@given(cyc_models(1), st.integers(-4, 4))
def test_cyc_pow_matches_reference(data, n):
    order, u = data
    x = Cyc(order, u)
    assume(x or n >= 0)
    if n >= 0:
        assert_model(x ** n, order, model_pow(order, u, n))
    else:
        assert_inverse_of(x ** n, order, model_pow(order, u, -n))


@settings(deadline=None)
@given(cyc_models(2))
def test_cyc_coordinates_are_canonical(data):
    order, u, v = data
    x, y = Cyc(order, u), Cyc(order, v)
    eta = Cyc.root(order)
    by_powers = sum((a * eta ** i for i, a in enumerate(u)),
                    Cyc.const(order, 0))
    # equal values reached along different routes have identical coordinates
    routes = [((x + y) - y, x), (x * y, y * x), (by_powers, x),
              (x * eta ** order, x), ((x * 3) / 3, x), (-(-x), x)]
    if y:
        routes.append(((x * y) / y, x))
    for got, want in routes:
        assert (got.N, got.D) == (want.N, want.D)
        assert got == want


@given(cyc_models(2))
def test_cyc_equality_matches_reference(data):
    order, u, v = data
    x, y = Cyc(order, u), Cyc(order, v)
    assert (x == y) == (u == v)
    assert (x != y) == (u != v)
    if x:
        assert x != x / 2 and x != 2 * x


@given(cyc_models(1))
def test_cyc_coeffs_round_trip_and_zero_form(data):
    order, u = data
    x = Cyc(order, u)
    assert x.coeffs == u
    back = Cyc(order, x.coeffs)
    assert (back.N, back.D) == (x.N, x.D)
    phi = len(u)
    for zero in (x - x, x * 0, Cyc(order, []), Cyc.const(order, 0),
                 Cyc(order, [0] * phi)):
        assert (zero.N, zero.D) == ((0,) * phi, 1)
        assert not zero and zero == 0
    assert bool(x) == any(u)


@pytest.mark.parametrize("m", MODEL_ORDERS)
def test_cyc_root_is_power_of_eta(m):
    eta = Cyc.root(m)
    for k in range(-2 * m, 2 * m + 1):
        assert Cyc.root(m, k) == eta ** k


# -- Q(s) against a reference model: a + b*s as a pair of Fractions, s^2 = p

# non-square p, with numerators and denominators other than 1 so that the
# integral basis pd*s differs from s, and one negative p
QUAD_PS = (rat(9, 10), rat(2), rat(3, 5), rat(7, 12), rat(-5, 3), rat(1, 6))
quad_ps = st.sampled_from(QUAD_PS)
quad_pairs = st.tuples(small_rats, small_rats)


def ref_mul(x, y, p):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + b1 * b2 * p, a1 * b2 + a2 * b1)


def ref_inv(x, p):
    a, b = x
    n = a * a - b * b * p
    return (a / n, -b / n)


def ref_pow(x, n, p):
    if n < 0:
        return ref_pow(ref_inv(x, p), -n, p)
    out = (RAT(1), RAT(0))
    for _ in range(n):
        out = ref_mul(out, x, p)
    return out


def assert_quad(x, ref, p):
    """`x` has the value of the reference pair, rational coordinates read
    back as RAT, and integer coordinates in canonical form."""
    assert isinstance(x, QuadExt) and x.p == p
    assert (x.a, x.b) == tuple(ref)
    assert type(x.a) is type(RAT_ZERO) and type(x.b) is type(RAT_ZERO)
    assert all(type(v) is int for v in (x.A, x.B, x.D))
    assert x.D > 0 and gcd(x.A, x.B, x.D) == 1


@given(quad_ps, quad_pairs, quad_pairs)
def test_quad_ring_ops_match_reference(p, u, v):
    x, y = QuadExt(*u, p), QuadExt(*v, p)
    assert_quad(x + y, (u[0] + v[0], u[1] + v[1]), p)
    assert_quad(x - y, (u[0] - v[0], u[1] - v[1]), p)
    assert_quad(-x, (-u[0], -u[1]), p)
    assert_quad(x * y, ref_mul(u, v, p), p)
    if y:
        assert_quad(y.inverse(), ref_inv(v, p), p)
        assert_quad(x / y, ref_mul(u, ref_inv(v, p), p), p)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()


@given(quad_ps, quad_pairs, scalars)
def test_quad_rational_operands_on_both_sides(p, u, r):
    x = QuadExt(*u, p)
    a, b = u
    assert_quad(x + r, (a + r, b), p)
    assert_quad(r + x, (a + r, b), p)
    assert_quad(x - r, (a - r, b), p)
    assert_quad(r - x, (r - a, -b), p)
    assert_quad(x * r, (a * r, b * r), p)
    assert_quad(r * x, (a * r, b * r), p)
    if r:
        assert_quad(x / r, (a / RAT(r), b / RAT(r)), p)
    else:
        with pytest.raises(ZeroDivisionError):
            x / r
    if x:
        assert_quad(r / x, ref_mul((RAT(r), RAT(0)), ref_inv(u, p), p), p)


@given(quad_ps, quad_pairs, st.integers(-4, 4))
def test_quad_pow_matches_reference(p, u, n):
    x = QuadExt(*u, p)
    assume(x or n >= 0)
    assert_quad(x ** n, ref_pow(u, n, p), p)


@given(quad_ps, quad_pairs, quad_pairs, scalars)
def test_quad_equality_and_round_trip(p, u, v, r):
    x = QuadExt(*u, p)
    assert (x == QuadExt(*v, p)) == (u == v)
    if x:
        assert x != x / 2
    assert (x == r) == (u[1] == 0 and u[0] == r)
    assert (r == x) == (x == r)
    assert QuadExt(r, 0, p) == r and r == QuadExt(r, 0, p)
    back = QuadExt(x.a, x.b, p)
    assert (back.A, back.B, back.D) == (x.A, x.B, x.D)
    assert back == x and (back.a, back.b) == u


def test_quad_without_s_part_prints_as_its_rational():
    # a value prints the same whichever route made it: s*s is p
    p = rat(2, 3)
    s = QuadExt(0, 1, p)
    assert str(s * s) == str(p) == "2/3"
    assert str(s - s) == "0" and str(QuadExt(-5, 0, p)) == "-5"
    assert str(1 + s) == "(1 + 1*s)" and str(s / 2) == "(0 + 1/2*s)"


@given(quad_ps, quad_pairs)
def test_quad_prints_as_its_value(p, u):
    x = QuadExt(*u, p)
    assert str(x) == (str(x.a) if not u[1] else f"({x.a} + {x.b}*s)")
    if not u[1]:
        assert str(x) == str(RAT(u[0]))


@given(quad_ps, quad_pairs, quad_pairs)
def test_quad_coordinates_are_canonical(p, u, v):
    x, y = QuadExt(*u, p), QuadExt(*v, p)
    s = QuadExt(0, 1, p)
    # equal values reached along different routes have identical coordinates
    for got, want in (((x + y) - y, x), (x * y, y * x),
                      (x * s * s, x * p), (u[0] + u[1] * s, x)):
        assert (got.A, got.B, got.D) == (want.A, want.B, want.D)
        assert got == want
    if y:
        got = (x * y) / y
        assert (got.A, got.B, got.D) == (x.A, x.B, x.D)


@given(quad_ps, quad_ps, quad_pairs, quad_pairs)
def test_quad_mixed_extensions_raise(p1, p2, u, v):
    assume(p1 != p2)
    x, y = QuadExt(*u, p1), QuadExt(*v, p2)
    ops = [lambda: x + y, lambda: x - y, lambda: x * y, lambda: x == y]
    if y:
        ops.append(lambda: x / y)
    for op in ops:
        with pytest.raises(ValueError):
            op()


# -- HbarSeries against the reference model oracles.HbarModel, the
# coefficient-tuple series it replaced: one RAT or Cyc value per slot, every
# operation done slot by slot in the scalar types

# None draws rational-only series; orders 4 and 6 mix rational and Cyc slots
HBAR_ORDERS = (None, 4, 6)


def cyc_values(order):
    phi = len(cyclotomic_poly(order)) - 1
    return st.lists(small_rats, min_size=phi, max_size=phi).map(
        lambda u: Cyc(order, u))


def hbar_scalars(order):
    return scalars if order is None else st.one_of(scalars, cyc_values(order))


@st.composite
def hbar_values(draw, order):
    """(coefficient list, truncation): up to three leading zeros, so that
    valuations matter, then rational and (at an order) Cyc coefficients;
    the list may run past the truncation."""
    trunc = draw(st.integers(1, 9))
    lead = draw(st.integers(0, 3))
    body = draw(st.lists(hbar_scalars(order), max_size=trunc))
    return [RAT(0)] * lead + body, trunc


@st.composite
def hbar_models(draw, count):
    """An order from HBAR_ORDERS and `count` series drawn at it, each as a
    pair (HbarSeries, HbarModel) of the same coefficients."""
    order = draw(st.sampled_from(HBAR_ORDERS))
    out = [order]
    for _ in range(count):
        values, trunc = draw(hbar_values(order))
        out.append((HbarSeries(values, trunc), HbarModel(values, trunc)))
    return tuple(out)


def assert_hbar_canonical(x):
    """`x` stores one int or phi(order)-tuple of ints per known slot over one
    denominator D > 0 with gcd(D, all ints) = 1, its order is None exactly
    when no slot is cyclotomic, and it reads RAT and Cyc values back."""
    assert isinstance(x, HbarSeries)
    # a shift or quotient past the truncation leaves trunc < 0, no slots
    assert type(x.rows) is tuple and len(x.rows) == max(x.trunc, 0)
    assert type(x.D) is int and x.D > 0
    ints = [r for r in x.rows if type(r) is int]
    cyc = [r for r in x.rows if type(r) is not int]
    assert (x.order is None) == (not cyc)
    for r in cyc:
        assert type(r) is tuple
        assert len(r) == len(cyclotomic_poly(x.order)) - 1
        assert all(type(n) is int for n in r)
        ints.extend(r)
    assert gcd(x.D, *ints) == 1
    for r, c in zip(x.rows, x.coeffs):
        assert type(c) is (type(RAT_ZERO) if type(r) is int else Cyc)


def assert_hbar(x, ref):
    """`x` has the model's values, slot types and truncation, and canonical
    integer storage."""
    assert_hbar_canonical(x)
    assert x.trunc == ref.trunc
    assert [isinstance(c, Cyc) for c in x.coeffs] == \
        [isinstance(c, Cyc) for c in ref.coeffs]
    assert x.coeffs == ref.coeffs


def assert_same_outcome(op, model_op):
    """`op()` matches `model_op()`, or raises the same error type."""
    try:
        want = model_op()
    except (ZeroDivisionError, ValueError) as exc:
        with pytest.raises(type(exc)):
            op()
        return
    assert_hbar(op(), want)


@settings(deadline=None)
@given(hbar_models(2))
def test_hbar_ring_ops_match_model(data):
    _, (x, X), (y, Y) = data
    assert_hbar(x, X)
    assert_hbar(x + y, X + Y)
    assert_hbar(y + x, Y + X)
    assert_hbar(x - y, X - Y)
    assert_hbar(y - x, Y - X)
    assert_hbar(x * y, X * Y)
    assert_hbar(y * x, Y * X)
    assert_hbar(-x, -X)
    assert (x == y) == (X == Y)
    assert (x != y) == (X != Y)
    assert x == x and bool(x) == bool(X)
    assert x.valuation() == X.valuation()


@settings(deadline=None)
@given(hbar_models(1), st.data())
def test_hbar_scalar_operands_on_both_sides(data, draw):
    order, (x, X) = data
    # a Cyc scalar on a rational-only series brings in an order of its own
    r = draw.draw(hbar_scalars(order or 4))
    assert_hbar(x + r, X + r)
    assert_hbar(r + x, r + X)
    assert_hbar(x - r, X - r)
    assert_hbar(r - x, r - X)
    assert_hbar(x * r, X * r)
    assert_hbar(r * x, r * X)
    assert_same_outcome(lambda: x / r, lambda: X / r)
    assert_same_outcome(lambda: r / x, lambda: r / X)
    assert (x == r) == (X == r)
    assert (r == x) == (x == r)


@settings(deadline=None)
@given(hbar_models(1), st.integers(-4, 4))
def test_hbar_shift_matches_model(data, k):
    _, (x, X) = data
    assert_same_outcome(lambda: x.shift(k), lambda: X.shift(k))
    v = X.valuation()
    if v:
        assert_hbar(x.shift(-v), X.shift(-v))


@settings(deadline=None)
@given(hbar_models(2), st.integers(-3, 3))
def test_hbar_inverse_division_pow_match_model(data, n):
    _, (x, X), (y, Y) = data
    assert_same_outcome(x.inverse, X.inverse)
    assert_same_outcome(lambda: x / y, lambda: X / Y)
    assert_same_outcome(lambda: x ** n, lambda: X ** n)


@settings(deadline=None)
@given(hbar_models(1))
def test_hbar_exp_matches_model(data):
    _, (x, X) = data
    assert_same_outcome(x.exp, X.exp)
    tail = x - x.coefficient(0)
    assert_hbar(tail.exp(), (X - X.coeffs[0]).exp())


@st.composite
def cyclotomic_series(draw, order):
    """A series at `order` with at least one Cyc slot."""
    values, trunc = draw(hbar_values(order))
    values = (values + [RAT(0)] * trunc)[:trunc]
    values[draw(st.integers(0, trunc - 1))] = draw(cyc_values(order))
    return HbarSeries(values, trunc)


@given(cyclotomic_series(4), cyclotomic_series(6))
def test_hbar_mixed_orders_raise(x, y):
    assert (x.order, y.order) == (4, 6)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x == y,
               lambda: y * Cyc.root(4), lambda: x + Cyc.root(6)):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        HbarSeries([Cyc.root(4), Cyc.root(6)], 2)
