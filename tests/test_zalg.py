import random

from deformedw import zalg
from deformedw.exact import Cyc
from deformedw.zalg import (GlElement, _omega_pow, beta_gen,
                            exchange_factor_series, gl_bracket,
                            verify_principal_relations,
                            verify_splitting_consistency, x_gen)


def rand_element(rng, N, nterms=3):
    acc = GlElement.zero(N)
    for _ in range(nterms):
        i = rng.randint(1, N)
        j = rng.randint(1, N)
        n = rng.randint(-2, 2)
        c = rng.randint(-4, 4)
        acc = acc + GlElement.E(N, i, j, n, c)
    return acc


def test_bracket_examples():
    N = 4
    h = gl_bracket(GlElement.E(N, 1, 2, 0), GlElement.E(N, 2, 1, 0))
    assert h == GlElement.E(N, 1, 1, 0) + GlElement.E(N, 2, 2, 0).scale(-1)
    withk = gl_bracket(GlElement.E(N, 1, 2, 1), GlElement.E(N, 2, 1, -1))
    assert withk == h + GlElement.center(N)
    assert not gl_bracket(GlElement.E(N, 1, 2, 0), GlElement.E(N, 3, 4, 5))


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(17)
    for N in (2, 3):
        for _ in range(6):
            a, b, c = (rand_element(rng, N) for _ in range(3))
            assert gl_bracket(a, b) == gl_bracket(b, a).scale(-1)
            jac = gl_bracket(a, gl_bracket(b, c)) \
                + gl_bracket(b, gl_bracket(c, a)) \
                + gl_bracket(c, gl_bracket(a, b))
            assert not jac


def test_beta_example_N2():
    b1 = beta_gen(2, 1)
    assert b1 == GlElement.E(2, 1, 2, 0) + GlElement.E(2, 2, 1, 1)
    assert gl_bracket(b1, beta_gen(2, -1)) == GlElement.center(2)


def test_x_bracket_central_N2():
    # [x^(1)_1, x^(1)_{-1}] = -K at N=2 (omega = -1)
    got = gl_bracket(x_gen(2, 1, 1), x_gen(2, 1, -1))
    omega = Cyc.root(4, 2)
    assert got == GlElement.center(2, omega)  # omega^{1*1} * 1 = -1


def test_principal_degree_homogeneity():
    for N in (2, 3):
        for n in range(-4, 5):
            if n % N:
                assert beta_gen(N, n).principal_degrees() == {n}
            for mu in range(1, N):
                degs = x_gen(N, mu, n).principal_degrees()
                assert degs <= {n}


def test_principal_relations():
    for N in (2, 3):
        rec = verify_principal_relations(N, 1, 2 * N + 1)
        assert rec.ok, rec.detail


def test_exchange_factor_equals_g():
    rec = verify_splitting_consistency(2, 2, 1, 1, order=10)
    assert rec.ok, rec.detail
    rec = verify_splitting_consistency(3, 1, 1, 2, order=10)
    assert rec.ok, rec.detail


def test_exchange_factor_constant_term():
    win = exchange_factor_series(3, 2, 1, 2, 6)
    assert win.coefficient((0,)) == 1


def test_closed_form_omega_powers():
    # the canonical Cyc form makes eta^{2k} identical to repeated squaring
    # and the Euclid inverse
    for N in range(2, 6):
        omega = Cyc.root(2 * N, 2)
        for k in range(-2 * N, 2 * N + 1):
            assert _omega_pow(N, k).coeffs == (omega ** k).coeffs


def test_splitting_brackets_each_beta_pair_once(monkeypatch):
    # [beta_n, beta_-n] is bracketed once per (N, n), whatever the level,
    # orientation or number of calls
    zalg._beta_central.cache_clear()
    pairs = []
    bracket = zalg.gl_bracket

    def counted(a, b):
        pairs.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(zalg, "gl_bracket", counted)
    for k in (1, 2):
        assert verify_splitting_consistency(3, k, 1, 2, order=6).ok
    assert len(pairs) == 4  # n = 1, 2, 4, 5
