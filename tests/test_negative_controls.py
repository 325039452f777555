"""Negative controls: a deliberately wrong ingredient must turn a verdict
into `fail`.  A checker that cannot fail proves nothing, so each mutation
below is applied through a monkeypatch fixture and the check that normally
passes is required to report `fail`."""

import pytest

from deformedw import characters, limits, relations, structfn, suites, \
    zalg, zeta
from deformedw.context import ScalarCtx
from deformedw.exact import Cyc, HbarSeries, rat
from deformedw.fock import HighestWeight
from deformedw.series import LaurentWindow, geometric_factor

# (N, level, i, j) at order_x <= 5; the central cases (i + j = N) carry the
# derivative-delta term
LIMIT2_CASES = [(2, 2, 1, 1), (3, 1, 1, 1), (3, 1, 1, 2), (3, 2, 2, 1)]
CENTRAL_CASES = [c for c in LIMIT2_CASES if (c[2] + c[3]) % c[0] == 0]


@pytest.fixture
def doubled_f1_in_reduction(monkeypatch):
    """The l = 1 coefficient of the recentered f, as the reduction sees it,
    scaled by 2; the separate f -> g check keeps the true coefficients, so
    the failure has to come from the reduction itself."""
    sides = limits.reduction_sides
    true_coeffs = limits.recentered_f_coeffs

    def scaled_coeffs(ctx, i, j, order_x):
        coeffs = true_coeffs(ctx, i, j, order_x)
        coeffs[1] = 2 * coeffs[1]
        return coeffs

    def mutated_sides(*args):
        with monkeypatch.context() as m:
            m.setattr(limits, "recentered_f_coeffs", scaled_coeffs)
            return sides(*args)

    monkeypatch.setattr(limits, "reduction_sides", mutated_sides)


@pytest.fixture
def no_derivative_delta(monkeypatch):
    """z_algebra_expression without its central derivative-delta term, the
    word-free entries (A, -A, ())."""
    expression = limits.z_algebra_expression

    def mutated(*args):
        return {key: v for key, v in expression(*args).items() if key[2]}

    monkeypatch.setattr(limits, "z_algebra_expression", mutated)


@pytest.mark.parametrize("N,k,i,j", LIMIT2_CASES)
def test_limit2_fails_on_scaled_f_coefficient(doubled_f1_in_reduction,
                                              N, k, i, j):
    ctx = ScalarCtx.limit2(N, k, trunc=4)
    rec = limits.verify_limit_II_relation(ctx, i, j, order_x=3)
    assert rec.status == "fail"
    assert rec.detail.startswith("hbar^2 at "), rec.detail


@pytest.mark.parametrize("N,k,i,j", CENTRAL_CASES)
def test_limit2_fails_without_derivative_delta(no_derivative_delta,
                                               N, k, i, j):
    ctx = ScalarCtx.limit2(N, k, trunc=4)
    rec = limits.verify_limit_II_relation(ctx, i, j, order_x=3)
    assert rec.status == "fail"
    assert "()" in rec.detail, rec.detail


@pytest.mark.parametrize("N,k,i,j", LIMIT2_CASES)
def test_limit2_controls_pass_unmutated(N, k, i, j):
    ctx = ScalarCtx.limit2(N, k, trunc=4)
    assert limits.verify_limit_II_relation(ctx, i, j, order_x=3).ok


# relations at generic points, where every scalar lives in Q(s): (check,
# N, i, j) for w1wj (i = 1) and wiwj, the normal-ordering rewrite at
# r = s^8 and both fusion relations, all at window 1, level 1; the fusion
# cases fail on their rank-1 side, whose right side is -+A W^{j+1}
RELATION_CASES = [("wiwj", 2, 1, 1), ("wiwj", 3, 1, 2), ("wiwj", 3, 2, 2),
                  ("noww", 3, 1, 2), ("fusion", 3, 1, 1), ("fusion", 3, 1, 2)]
RELATION_POINT = ("3/2", "5/3")


def _relation_id(case):
    check, *nij = case
    tag = "-".join(map(str, nij))
    return tag if check == "wiwj" else f"{check}-{tag}"


@pytest.fixture
def doubled_prefactor(monkeypatch):
    """The prefactor A = (1 - q)(1 - 1/t)/(1 - p) of every delta term,
    scaled by 2."""
    prefactor = ScalarCtx.prefactor
    monkeypatch.setattr(ScalarCtx, "prefactor", lambda ctx: 2 * prefactor(ctx))


def _relation_record(check, N, i, j):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    if check == "noww":
        return relations.verify_nowwj(ctx, i, j, 8, window=1, level=1)
    if check == "fusion":
        return relations.verify_fusion(ctx, i, j, window=1, level=1)
    if i == 1:
        return relations.verify_w1wj(ctx, j, window=1, level=1)
    return relations.verify_wiwj(ctx, i, j, window=1, level=1)


@pytest.mark.parametrize("case", RELATION_CASES, ids=_relation_id)
def test_relations_fail_on_doubled_prefactor(doubled_prefactor, case):
    rec = _relation_record(*case)
    assert rec.status == "fail", rec.detail
    # the two sides were compared, and differ
    assert " lhs=" in rec.detail and " rhs=" in rec.detail, rec.detail


@pytest.mark.parametrize("case", RELATION_CASES, ids=_relation_id)
def test_relations_controls_pass_unmutated(case):
    rec = _relation_record(*case)
    assert rec.status == "pass", rec.detail


# order reversal of the pinned pairs the relation uses, (N, i, j) at the
# default window and level
REVERSAL_CASES = [(3, 1, 1), (3, 2, 2), (4, 2, 2)]


@pytest.fixture
def doubled_reversed_pair(monkeypatch):
    """Every reversed pinned pair f^{b,a}(p^{-c}) W^b W^a (dress (b, a) with
    b > a) that the relations read, scaled by 2."""
    pinned = relations.pinned_mode_value

    def mutated(ctx, hw, bra, pin, ket, M):
        val = pinned(ctx, hw, bra, pin, ket, M)
        a, b = pin[4]
        return 2 * val if a > b else val

    monkeypatch.setattr(relations, "pinned_mode_value", mutated)


@pytest.mark.parametrize("N,i,j", REVERSAL_CASES)
def test_order_reversal_fails_on_doubled_reversed_pair(doubled_reversed_pair,
                                                      N, i, j):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    rec = relations.order_reversal_check(ctx, i, j)
    assert rec.status == "fail", rec.detail
    assert " fwd=" in rec.detail and " rev=" in rec.detail, rec.detail


@pytest.mark.parametrize("N,i,j", REVERSAL_CASES)
def test_order_reversal_passes_unmutated(N, i, j):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    rec = relations.order_reversal_check(ctx, i, j)
    assert rec.status == "pass", rec.detail


# the general side of fusion, (N, i, j) at window and level 1; with i = 2 its
# coefficient A gamma(p^{3/2}) reads a gamma ladder with one factor
FUSION_GENERAL_CASES = [(4, 2, 2), (5, 2, 3)]


@pytest.fixture
def short_gamma_ladder(monkeypatch):
    """The gamma ladder prod_{l=1}^{k-1} gamma(p^{l+1/2}), as the relations
    read it, without its last factor."""
    ladder = relations.gamma_ladder
    monkeypatch.setattr(relations, "gamma_ladder",
                        lambda ctx, k: ladder(ctx, k - 1))


def _fusion_record(N, i, j):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    return relations.verify_fusion(ctx, i, j, window=1, level=1)


@pytest.mark.parametrize("N,i,j", FUSION_GENERAL_CASES)
def test_fusion_general_side_fails_on_short_gamma_ladder(short_gamma_ladder,
                                                         N, i, j):
    rec = _fusion_record(N, i, j)
    assert rec.status == "fail", rec.detail
    assert rec.case.endswith(":general:sign=+1"), rec.case
    assert " lhs=" in rec.detail and " rhs=" in rec.detail, rec.detail


@pytest.mark.parametrize("N,i,j", FUSION_GENERAL_CASES)
def test_fusion_general_side_passes_unmutated(N, i, j):
    rec = _fusion_record(N, i, j)
    assert rec.status == "pass", rec.detail


# the rank-2 relation in printed form and its cross check against the
# rewrite route, (N, j) at window and level 1, all with j + 1 <= N, so that
# the printed right side carries composite normal-ordered W^1 W^{j+1} terms
W2_CASES = [(3, 2), (4, 2), (4, 3)]


@pytest.fixture
def doubled_composite(monkeypatch):
    """Every composite normal-ordered mode that the printed rank-2 right side
    reads, scaled by 2."""
    composite = relations.composite_no_mode
    monkeypatch.setattr(relations, "composite_no_mode",
                        lambda *args: 2 * composite(*args))


def _w2_records(N, j):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    return (relations.verify_w2wj(ctx, j, window=1, level=1),
            relations.cross_check_w2_route(ctx, j, window=1, level=1))


@pytest.mark.parametrize("N,j", W2_CASES)
def test_w2_relations_fail_on_doubled_composite(doubled_composite, N, j):
    printed, route = _w2_records(N, j)
    assert printed.status == "fail", printed.detail
    assert " lhs=" in printed.detail and " rhs=" in printed.detail
    assert route.status == "fail", route.detail
    assert " paper=" in route.detail and " rewrite=" in route.detail


@pytest.mark.parametrize("N,j", W2_CASES)
def test_w2_relations_pass_unmutated(N, j):
    for rec in _w2_records(N, j):
        assert rec.status == "pass", rec.detail


# the vacuum eigenvalue of W^i_0 at the generic point, (N, i)
VACUUM_CASES = [(2, 1), (3, 0), (4, 2)]


@pytest.fixture
def doubled_p_binomial(monkeypatch):
    """The p-binomial the vacuum eigenvalue is compared with, scaled by 2."""
    binomial = zeta.p_binomial
    monkeypatch.setattr(zeta, "p_binomial",
                        lambda *args: 2 * binomial(*args))


def _vacuum_record(N, i):
    return zeta.verify_vacuum_eigenvalue(
        ScalarCtx.generic(N, *RELATION_POINT), i)


@pytest.mark.parametrize("N,i", VACUUM_CASES)
def test_vacuum_eigenvalue_fails_on_doubled_p_binomial(doubled_p_binomial,
                                                       N, i):
    rec = _vacuum_record(N, i)
    assert rec.status == "fail"
    assert " != " in rec.detail, rec.detail


@pytest.mark.parametrize("N,i", VACUUM_CASES)
def test_vacuum_eigenvalue_passes_unmutated(N, i):
    assert _vacuum_record(N, i).ok


# the zeta identity (N, i, beta), both beta = (N+1)/N and N/(N+1), M = 6
ZETA_CASES = [(2, 1, rat(3, 2)), (3, 1, rat(3, 4)), (4, 2, rat(5, 4))]


@pytest.fixture
def shifted_bernoulli(monkeypatch):
    """The Bernoulli table moved one place: B_{m+1} under key m, for the
    zeta values and the log-sinh series alike."""
    table = zeta.bernoulli_table

    def shifted(M):
        true = table(M + 1)
        return {m: true[m + 1] for m in range(1, M + 1)}

    monkeypatch.setattr(zeta, "bernoulli_table", shifted)


@pytest.mark.parametrize("N,i,beta", ZETA_CASES)
def test_zeta_identity_fails_on_shifted_bernoulli(shifted_bernoulli,
                                                  N, i, beta):
    rec = zeta.verify_zeta_identity(N, i, beta)
    assert rec.status == "fail"
    assert rec.detail.startswith("hbar^"), rec.detail


@pytest.mark.parametrize("N,i,beta", ZETA_CASES)
def test_zeta_identity_passes_unmutated(N, i, beta):
    assert zeta.verify_zeta_identity(N, i, beta).ok


def test_log_sinh_fails_on_shifted_bernoulli(shifted_bernoulli):
    assert zeta.log_sinh_identity_holds(6) is False


def test_log_sinh_holds_unmutated():
    assert zeta.log_sinh_identity_holds(6) is True


# the f-identities suite at one generic point, order 4
F_IDENTITIES_CFG = {"n_values": "2 3", "order": "4",
                    "points": ",".join(RELATION_POINT)}


@pytest.fixture
def doubled_gamma_series(monkeypatch):
    """gamma(s^a z), as the product identities read it, scaled by 2."""
    gamma_series = structfn.gamma_series

    def doubled(ctx, var, a, order):
        return gamma_series(ctx, var, a, order) * \
            LaurentWindow.constant((var,), 2)

    monkeypatch.setattr(structfn, "gamma_series", doubled)


def test_f_identities_fail_on_doubled_gamma(doubled_gamma_series):
    records = suites.suite_f_identities(F_IDENTITIES_CFG)
    assert [r.status for r in records] == ["fail", "fail"]
    for rec in records:
        assert "coefficient x^0" in rec.detail, rec.detail


def test_f_identities_pass_unmutated():
    records = suites.suite_f_identities(F_IDENTITIES_CFG)
    assert [r.status for r in records] == ["pass", "pass"]


# limit I: (N, beta, i) at window 1 and the default truncation hbar^7
LIMIT1_CASES = [(2, rat(3, 2), 1), (3, rat(3, 4), 2), (3, rat(4, 3), 1)]


@pytest.fixture
def hbar1_in_matrix_elements(monkeypatch):
    """Every low-mode matrix element gains the term hbar^1."""
    element = limits.w_mode_matrix_element

    def mutated(ctx, *args):
        return element(ctx, *args) + HbarSeries.hbar(ctx.trunc)

    monkeypatch.setattr(limits, "w_mode_matrix_element", mutated)


@pytest.fixture
def odd_term_in_p_binomial(monkeypatch):
    """The vacuum eigenvalue gains the odd term hbar^3; its hbar^0 part, the
    binomial coefficient, is untouched."""
    binomial = limits.p_binomial

    def mutated(ctx, N, i):
        pb = binomial(ctx, N, i)
        return pb + HbarSeries.hbar(pb.trunc) ** 3

    monkeypatch.setattr(limits, "p_binomial", mutated)


def _limit1_record(N, beta, i):
    return limits.verify_limit_I_appendix(ScalarCtx.limit1(N, beta), i,
                                          window=1)


@pytest.mark.parametrize("N,beta,i", LIMIT1_CASES)
def test_limit1_fails_on_hbar1_matrix_element(hbar1_in_matrix_elements,
                                              N, beta, i):
    rec = _limit1_record(N, beta, i)
    assert rec.status == "fail"
    assert rec.detail.endswith("has hbar^1 term"), rec.detail


@pytest.mark.parametrize("N,beta,i", LIMIT1_CASES)
def test_limit1_fails_on_odd_eigenvalue_term(odd_term_in_p_binomial,
                                             N, beta, i):
    rec = _limit1_record(N, beta, i)
    assert rec.status == "fail"
    assert rec.detail.startswith("odd hbar^3 "), rec.detail


@pytest.mark.parametrize("N,beta,i", LIMIT1_CASES)
def test_limit1_controls_pass_unmutated(N, beta, i):
    assert _limit1_record(N, beta, i).ok


# the principal relations at (N, window); the splitting at (N, k, mu, nu)
ZALG_CASES = [(2, 5), (3, 3)]
SPLIT_CASES = [(2, 1, 1, 1), (3, 2, 1, 2)]


@pytest.fixture
def rotated_x_generator(monkeypatch):
    """x^{(1)}_1 alone is realized times omega."""
    x_gen = zalg.x_gen

    def mutated(N, mu, n):
        x = x_gen(N, mu, n)
        return x.scale(zalg._omega_pow(N, 1)) if (mu, n) == (1, 1) else x

    monkeypatch.setattr(zalg, "x_gen", mutated)


@pytest.fixture
def nudged_g_coefficient(monkeypatch):
    """The zeta^1 coefficient of g^{mu,nu} is shifted by 1."""
    g_series = zalg.g_series

    def mutated(*args):
        win = g_series(*args)
        coeffs = dict(win.coeffs)
        coeffs[(1,)] = coeffs.get((1,), win.zero) + 1
        return LaurentWindow(win.vars, coeffs, win.bounds, win.zero)

    monkeypatch.setattr(zalg, "g_series", mutated)


@pytest.mark.parametrize("N,window", ZALG_CASES)
def test_principal_relations_fail_on_rotated_generator(rotated_x_generator,
                                                       N, window):
    rec = zalg.verify_principal_relations(N, 2, window)
    assert rec.status == "fail", rec.detail


@pytest.mark.parametrize("N,window", ZALG_CASES)
def test_principal_relations_pass_unmutated(N, window):
    assert zalg.verify_principal_relations(N, 2, window).ok


@pytest.mark.parametrize("N,k,mu,nu", SPLIT_CASES)
def test_splitting_fails_on_nudged_g(nudged_g_coefficient, N, k, mu, nu):
    rec = zalg.verify_splitting_consistency(N, k, mu, nu, order=4)
    assert rec.status == "fail"
    assert "coefficient zeta^1" in rec.detail, rec.detail


@pytest.mark.parametrize("N,k,mu,nu", SPLIT_CASES)
def test_splitting_passes_unmutated(N, k, mu, nu):
    assert zalg.verify_splitting_consistency(N, k, mu, nu, order=4).ok


# (N, level, n points) at order_x = 4.  The mutation below leaves (3, 1, 2)
# at `pass`, and moving only the root of unity in t leaves every case at
# `pass`, so the control moves s and p.
CORR_CASES = [(2, 2, 2), (2, 2, 3), (3, 1, 3)]


def _corr_record(N, k, n, wrong_root):
    """The correlator-order check on a fresh limit II context; with
    `wrong_root` its s and p carry eta^2 and eta^4 in place of eta and
    omega = eta^2, set before any power of them is cached."""
    ctx = ScalarCtx.limit2(N, k, trunc=n + 1)
    if wrong_root:
        ctx.s = HbarSeries.exp_hbar(rat(-k, 2 * N), ctx.trunc) \
            * Cyc.root(2 * N, 2)
        ctx.p = HbarSeries.exp_hbar(rat(-k, N), ctx.trunc) \
            * Cyc.root(2 * N, 4)
    return limits.verify_correlator_order(ctx, n, order_x=4)


@pytest.mark.parametrize("N,k,n", CORR_CASES)
def test_correlator_order_fails_on_wrong_root(N, k, n):
    rec = _corr_record(N, k, n, wrong_root=True)
    assert rec.status == "fail"
    assert rec.detail.startswith("profile "), rec.detail


@pytest.mark.parametrize("N,k,n", CORR_CASES)
def test_correlator_order_passes_unmutated(N, k, n):
    assert _corr_record(N, k, n, wrong_root=False).ok


# characters at (k, j), cutoff 10: an odd level and both parities of 2j at
# even levels
CHAR_CASES = [(2, rat(1)), (3, rat(1, 2)), (4, rat(-2)), (4, rat(0))]


@pytest.fixture
def nudged_character(monkeypatch):
    """The third coefficient (by exponent) of the alternating-sum character
    is shifted by 1; returns the exponents of y that were moved."""
    dza = characters.dza_character
    moved = []

    def mutated(k, j, cutoff):
        ch = dza(k, j, cutoff)
        key = sorted(ch.coeffs)[2]
        coeffs = dict(ch.coeffs)
        coeffs[key] += 1
        moved.append(rat(key, ch.res))
        return characters.QSeries(ch.res, ch.cutoff, coeffs)

    monkeypatch.setattr(characters, "dza_character", mutated)
    return moved


@pytest.mark.parametrize("k,j", CHAR_CASES)
def test_char_identity_fails_on_nudged_coefficient(nudged_character, k, j):
    rec = characters.verify_char_identity(k, j, cutoff=10)
    assert rec.status == "fail"
    assert rec.detail == f"first difference at exponent {nudged_character[-1]}"


@pytest.mark.parametrize("k,j", CHAR_CASES)
def test_char_identity_passes_unmutated(k, j):
    assert characters.verify_char_identity(k, j, cutoff=10).ok


# pole reconstruction of f^{i,j}(x) <W^i(z1) W^j(z2)>, (N, i, j) at the
# relation point, with the vacuum and the generic highest weight
POLE_CASES = [(N, i, j, hw) for N, i, j in ((2, 1, 1), (3, 1, 2), (3, 2, 2))
              for hw in ("vacuum", "generic")]


def _pole_id(case):
    N, i, j, hw = case
    return f"{N}-{i}-{j}-{hw}"


def _dressing_times(monkeypatch, factors):
    """f_series as the pole check reads it, times prod (1 - s^a x)^e over
    factors(i, j) = [(a, e), ...]."""
    f_series = relations.f_series

    def mutated(ctx, i, j, order, var="x"):
        win = f_series(ctx, i, j, order, var)
        for a, e in factors(i, j):
            win = win * geometric_factor(var, ctx.s_pow(a), e, order,
                                         ctx.zero)
        return win

    monkeypatch.setattr(relations, "f_series", mutated)


@pytest.fixture
def moved_pole(monkeypatch):
    """The pole at x = s^r, r = j - i + 2, moved to x = s^{r+3}: the
    dressing times (1 - s^{-r} x)/(1 - s^{-(r+3)} x)."""
    _dressing_times(monkeypatch, lambda i, j: [(i - j - 2, 1),
                                               (i - j - 5, -1)])


@pytest.fixture
def extra_pole(monkeypatch):
    """The dressing times 1/(1 - s x): one pole more than claimed."""
    _dressing_times(monkeypatch, lambda i, j: [(1, -1)])


def _pole_record(N, i, j, hw):
    ctx = ScalarCtx.generic(N, *RELATION_POINT)
    weight = HighestWeight.vacuum(ctx) if hw == "vacuum" \
        else HighestWeight.generic(ctx)
    return relations.verify_poles(ctx, i, j, hw=weight)


@pytest.mark.parametrize("case", POLE_CASES, ids=_pole_id)
def test_poles_fail_on_moved_pole(moved_pole, case):
    rec = _pole_record(*case)
    assert rec.status == "fail", rec.detail
    assert "is not a denominator root" in rec.detail, rec.detail


@pytest.mark.parametrize("case", POLE_CASES, ids=_pole_id)
def test_poles_inconclusive_on_extra_pole(extra_pole, case):
    rec = _pole_record(*case)
    assert rec.status == "inconclusive", rec.detail


@pytest.mark.parametrize("case", POLE_CASES, ids=_pole_id)
def test_poles_pass_unmutated(case):
    rec = _pole_record(*case)
    assert rec.status == "pass", rec.detail
