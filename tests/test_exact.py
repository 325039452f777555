import random

import pytest
from hypothesis import assume, given, strategies as st

from deformedw.exact import (Cyc, HbarSeries, QuadExt, RAT, RAT_ZERO,
                             cyc_reduce, cyclotomic_poly, exp_coeffs,
                             inverse_coeffs, log_coeffs, rat)

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
    assert cyc_reduce(4, [0, 0, 1]) == -1
    assert cyc_reduce(4, [0, 0, 0, 0, 1]) == 1  # eta^4 = 1


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
            assert cyc_reduce(order, prod) == cyc_reduce(order, a) * cyc_reduce(order, b)


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
        assert f.log().exp() == f
        g = HbarSeries([RAT(0)] + [rand_rat(rng) for _ in range(6)], 7)
        assert g.exp().log() == g


def test_hbar_division_with_valuation_cancellation():
    h = HbarSeries.hbar(8)
    e = HbarSeries.exp_hbar(1, 8)
    ratio = (e - 1) / h          # (e^h - 1)/h = 1 + h/2 + ...
    assert ratio.coefficient(0) == 1
    assert ratio.coefficient(1) == rat(1, 2)
    with pytest.raises(ValueError):
        (e - 0).shift(-1)


def test_hbar_cyc_coefficients():
    omega = Cyc.root(6).root_pow(2)
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


def assert_canonical(x, ref):
    """`x` equals the fully normalised reference, and its coefficients are
    a tuple of phi(order) RAT values."""
    assert isinstance(x, Cyc) and x.order == ref.order
    assert type(x.coeffs) is tuple
    assert len(x.coeffs) == len(cyclotomic_poly(x.order)) - 1
    assert all(type(c) is type(RAT_ZERO) for c in x.coeffs)
    assert x.coeffs == ref.coeffs


@given(cyc_lists(2))
def test_cyc_ring_ops_match_full_normalisation(data):
    order, a, b = data
    x, y = Cyc(order, a), Cyc(order, b)
    assert_canonical(x + y, Cyc(order, [u + v for u, v in zip(a, b)]))
    assert_canonical(x - y, Cyc(order, [u - v for u, v in zip(a, b)]))
    assert_canonical(-x, Cyc(order, [-u for u in a]))
    assert_canonical(x * y, cyc_reduce(order, convolve(a, b)))


def test_cyc_mul_reduces_by_non_unit_coefficients():
    # 105 is the least order whose cyclotomic polynomial has a coefficient
    # other than 0 and +-1 (a -2)
    rng = random.Random(13)
    a, b = (rand_cyc(rng, 105) for _ in range(2))
    assert_canonical(a * b, cyc_reduce(105, convolve(a.coeffs, b.coeffs)))


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
