import random

import pytest

from deformedw.exact import rat
from deformedw.series import (LaurentWindow, VarBound, WindowError,
                              geometric_factor, rational_reconstruct,
                              series_exp)
from oracles import delta_window, is_empty, series_log, window_from_terms


def brute_convolution(terms_a, terms_b, expo):
    """Oracle: full convolution over all integer splits (operands are dicts
    with complete support, so this is the true product coefficient)."""
    acc = rat(0)
    for e1, c1 in terms_a.items():
        e2 = tuple(x - y for x, y in zip(expo, e1))
        if e2 in terms_b:
            acc += c1 * terms_b[e2]
    return acc


def rand_sparse(rng, vars_n, lo, hi, nterms):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(lo, hi) for _ in range(vars_n))
        out[e] = rat(rng.randint(-9, 9), rng.randint(1, 7))
    return out


def test_window_shrink_matches_brute_force_polynomials():
    rng = random.Random(42)
    for _ in range(25):
        ta = rand_sparse(rng, 2, -4, 4, 6)
        tb = rand_sparse(rng, 2, -4, 4, 6)
        A = window_from_terms(("x", "y"), ta)
        B = window_from_terms(("x", "y"), tb)
        P = A * B
        # hard x hard: every coefficient is exact
        for e in list(P.coeffs) + [(0, 0), (3, -2)]:
            assert P.coefficient(e) == brute_convolution(ta, tb, e)


def test_window_shrink_truncated_times_polynomial():
    rng = random.Random(1)
    ta = rand_sparse(rng, 1, 0, 6, 5)          # known only on [0, 6]
    tb = rand_sparse(rng, 1, -2, 3, 4)         # exact Laurent polynomial
    A = LaurentWindow(("x",), ta, [VarBound(0, 6, True, False)])
    B = window_from_terms(("x",), tb)
    P = A * B
    b = P.bounds[0]
    assert (b.lo, b.hi, b.lo_hard, b.hi_hard) == (-2, 4, True, False)
    for e in range(-2, 5):
        assert P.coefficient((e,)) == brute_convolution(ta, tb, (e,))
    with pytest.raises(WindowError):
        P.coefficient((5,))


def test_delta_window_times_taylor_is_all_unknown():
    d = delta_window("x", 6)
    t = LaurentWindow.taylor("x", [rat(1)] * 5)
    P = d * t
    assert is_empty(P)


def test_two_truncated_factors():
    A = LaurentWindow.taylor("x", [rat(1)] * 8)
    B = LaurentWindow.taylor("x", [rat(1), rat(2), rat(3)])
    P = A * B
    assert P.bounds[0].hi == 2  # limited by B's window
    assert P.coefficient((2,)) == 1 * 3 + 1 * 2 + 1 * 1


def test_series_exp_examples():
    zero = LaurentWindow(("x",), {}, [VarBound(0, 3, True, False)])
    assert series_exp(zero).coefficient((0,)) == 1
    x = LaurentWindow(("x",), {(1,): rat(1)}, [VarBound(0, 3, True, False)])
    e = series_exp(x)
    assert [e.coefficient((k,)) for k in range(4)] == \
        [1, 1, rat(1, 2), rat(1, 6)]
    # exp(log(1-x)) = 1 - x
    log1mx = LaurentWindow(("x",), {(n,): rat(-1, n) for n in range(1, 4)},
                           [VarBound(0, 3, True, False)])
    g = series_exp(log1mx)
    assert [g.coefficient((k,)) for k in range(4)] == [1, -1, 0, 0]


def test_series_log_roundtrip():
    rng = random.Random(9)
    coeffs = [rat(1)] + [rat(rng.randint(-5, 5), rng.randint(1, 5))
                         for _ in range(7)]
    f = LaurentWindow.taylor("x", coeffs)
    g = series_exp(series_log(f))
    assert [g.coefficient((k,)) for k in range(8)] == coeffs


def test_geometric_factor():
    g = geometric_factor("x", rat(2), -1, 5)
    assert [g.coefficient((k,)) for k in range(6)] == [1, 2, 4, 8, 16, 32]
    h = geometric_factor("x", rat(2), 2, 5)
    assert [h.coefficient((k,)) for k in range(6)] == [1, -4, 4, 0, 0, 0]
    assert h.bounds[0].hi_hard


def test_rational_reconstruct_geometric():
    win = LaurentWindow.taylor("x", [rat(1)] * 10)
    num, den = rational_reconstruct(win, 0, 1)
    assert num == [1]
    assert den == [1, -1]


def test_rational_reconstruct_two_sided():
    # (1-x)/(1+x) = 1 - 2x + 2x^2 - ...
    coeffs = [rat(1)] + [rat(2) * (-1) ** n for n in range(1, 10)]
    win = LaurentWindow.taylor("x", coeffs)
    num, den = rational_reconstruct(win, 1, 1)
    assert num == [1, -1]
    assert den == [1, 1]


def test_rational_reconstruct_detects_non_rational():
    coeffs = [rat(1)]
    for n in range(1, 10):
        coeffs.append(coeffs[-1] / n)
    win = LaurentWindow.taylor("x", coeffs)  # exp(x) to x^9
    assert rational_reconstruct(win, 4, 4) is None


def test_rational_reconstruct_insufficient_window():
    win = LaurentWindow.taylor("x", [rat(1)] * 4)
    with pytest.raises(ValueError):
        rational_reconstruct(win, 2, 2)
