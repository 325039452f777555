"""Test-side constructors and oracles that the package itself never calls:
exact Laurent polynomials and the formal delta distribution as windows, the
empty-window test, a partition count and the leading term of a q-series."""

from deformedw.characters import partition_series
from deformedw.exact import rat
from deformedw.series import LaurentWindow, VarBound


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


def partition_count(n: int) -> int:
    return int(partition_series(n + 1).coefficient(n))


def leading(qs):
    """(exponent, coefficient) of the lowest term of a nonzero QSeries."""
    k = min(qs.coeffs)
    return rat(k, qs.res), qs.coeffs[k]
