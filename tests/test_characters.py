import pytest

from deformedw.characters import (QSeries, admissible_spins, dza_character,
                                  partition_series, rocha_caridi,
                                  verify_char_identity)
from deformedw.exact import rat
from oracles import leading, partition_count


def brute_partitions(n, maxpart=None):
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        return 1
    if n < 0 or maxpart == 0:
        return 0
    return brute_partitions(n - maxpart, maxpart) + \
        brute_partitions(n, maxpart - 1)


def test_partition_series_against_brute_force():
    for n in range(31):
        assert partition_count(n) == brute_partitions(n)


def test_qseries_mul_shift():
    a = QSeries(1, 5, {0: rat(1), 1: rat(2)})
    b = QSeries(2, 10, {1: rat(3)})        # 3 y^{1/2}
    p = a * b
    assert p.coefficient(rat(1, 2)) == 3
    assert p.coefficient(rat(3, 2)) == 6
    s = a.shift(rat(1, 3))
    assert s.coefficient(rat(4, 3)) == 2


def test_rocha_caridi_ising_vacuum():
    ch = rocha_caridi(3, 4, 1, 1, 8)
    assert [int(ch.coefficient(n)) for n in range(7)] == [1, 0, 1, 1, 2, 2, 3]


def test_rocha_caridi_leading_coefficient():
    for (p1, p2, r, s) in ((2, 4, 1, 2), (2, 5, 1, 3), (3, 4, 1, 2)):
        ch = rocha_caridi(p1, p2, r, s, 10)
        assert ch.coefficient(0) == 1


def test_dza_character_examples():
    # k=2, j=1: leading exponent 1/8; alternating sum 1 - y - y^3 + y^6 + ...
    d = dza_character(2, 1, 12)
    e0, c0 = leading(d)
    assert (e0, c0) == (rat(1, 8), 1)
    # raw sum times partition series: check a few exact coefficients
    # at exponents 1/8 + n
    parts = partition_series(12)

    def psum(n):
        # partition convolution of the alternating sum 1 - y - y^3 + y^6...
        signs = {0: 1, 1: -1, 3: -1, 6: 1, 10: 1}
        acc = 0
        for e, sg in signs.items():
            if n - e >= 0:
                acc += sg * int(parts.coefficient(n - e))
        return acc

    for n in range(9):
        assert int(d.coefficient(rat(1, 8) + n)) == psum(n)


def test_dza_spin_symmetry():
    for k in (2, 3, 4):
        for j in admissible_spins(k):
            assert dza_character(k, j, 12) == dza_character(k, -j, 12)


def test_dza_rejects_bad_spin():
    with pytest.raises(ValueError):
        dza_character(2, rat(1, 2), 10)
    with pytest.raises(ValueError):
        dza_character(2, 2, 10)


def test_char_identity():
    for k in (2, 3):
        for j in admissible_spins(k):
            rec = verify_char_identity(k, j, 16)
            assert rec.ok, (k, j, rec.detail)


def test_sum_termination_margin():
    # a larger cutoff widens the summation range; the common region is
    # untouched (the extra summands contribute nothing below the old cutoff)
    a = dza_character(3, rat(1, 2), 14)
    b = dza_character(3, rat(1, 2), 20)
    assert a == b
    ra = rocha_caridi(2, 5, 1, 2, 12)
    rb = rocha_caridi(2, 5, 1, 2, 18)
    assert ra == rb
