"""Free-field layer: highest-weight data, exponentiated boson insertions
and their exact multi-point correlators.

States are never materialized as oscillator monomials; every matrix element
is a product of pairwise contraction kernels times zero-mode eigenvalues,
expanded in consecutive-point ratio variables with explicit truncation.

Zero modes are taken central (the paper-level data never pairs them): each
insertion of flavor f contributes the eigenvalue a_f * s^{N+1-2f}.  Highest
weights are normalized so that the product of all a_f is 1 (the trace
constraint sum_i p^{i n} h^i_n = 0 at n = 0), which is also what makes the
full rank-N current the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .context import ScalarCtx
from .exact import scalar_inv
from .series import LaurentWindow, VarBound
from .structfn import logkernel_entry, pair_logkernel


@dataclass(frozen=True)
class HighestWeight:
    """Zero-mode eigenvalues a_1..a_N (exact scalars, all nonzero)."""

    N: int
    a: tuple
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # built once: every zero mode and block key of the weight reads it
        object.__setattr__(self, "_key", ",".join(str(x) for x in self.a))

    @staticmethod
    def vacuum(ctx: ScalarCtx) -> "HighestWeight":
        return HighestWeight(ctx.N, tuple(ctx.one for _ in range(ctx.N)))

    @staticmethod
    def from_rationals(ctx: ScalarCtx, values) -> "HighestWeight":
        """First N-1 eigenvalues as given; the last is fixed by prod a_i = 1."""
        from .exact import RAT
        vals = [RAT(v) for v in values[:ctx.N - 1]]
        prod = ctx.one
        for v in vals:
            prod = prod * v
        return HighestWeight(ctx.N, tuple(ctx.one * v for v in vals)
                             + (scalar_inv(prod),))

    @staticmethod
    def generic(ctx: ScalarCtx) -> "HighestWeight":
        primes = (2, 3, 5, 7, 11, 13, 17)
        return HighestWeight.from_rationals(ctx, primes[:ctx.N - 1])

    def key(self) -> str:
        return self._key


@dataclass(frozen=True)
class Insertion:
    """One exponentiated boson at (s^sshift * var); `group` marks blocks whose
    internal contractions are excluded (normal ordering / prepaid pinning)."""

    flavor: int
    var: str
    sshift: int
    group: int


def zero_mode(ctx: ScalarCtx, hw: HighestWeight, flavor: int):
    return hw.a[flavor - 1] * ctx.s_pow(ctx.N + 1 - 2 * flavor)


def kernel_coeffs(ctx: ScalarCtx, slotsA, slotsB, order: int):
    """Taylor coefficients, at least order + 1 of them, of the contraction
    kernel of two slot lists, prod_{a in A, b in B} C_{f_a f_b}(s^{s_b - s_a}
    x), as raw values of ctx.raw (drop reads them back).

    The kernel is one exponential of one summed log-kernel
    (structfn.pair_logkernel), cached per slot-list pair as
    ctx.caches[("K", slotsA, slotsB)] (structfn.logkernel_entry, whose raw
    coefficients are its item 3) and grown in place.  Callers may read that
    list directly and call this only to build or grow it."""
    return logkernel_entry(ctx, ("K", slotsA, slotsB),
                           partial(pair_logkernel, ctx.N, slotsA, slotsB),
                           order)[3]


def hw_eigenvalue_w(ctx: ScalarCtx, hw: HighestWeight, i: int):
    """w^i(lambda): i-th elementary symmetric polynomial of the zero-mode
    factors a_f * s^{N+1-2f}."""
    if not 0 <= i <= ctx.N:
        raise ValueError("rank out of range")
    # elementary symmetric via the generating product
    es = [ctx.one] + [ctx.zero] * i
    for f in range(1, ctx.N + 1):
        z = zero_mode(ctx, hw, f)
        for k in range(min(i, f) , 0, -1):
            es[k] = es[k] + es[k - 1] * z
    return es[i]


def lambda_correlator(ctx: ScalarCtx, hw: HighestWeight, insertions,
                      orders, points=None) -> LaurentWindow:
    """<lambda| product of insertions |lambda> expanded in the ratio variables
    between consecutive distinct points, exactly up to the given per-gap
    orders.  Insertions sharing a named point must share a group (their mutual
    contraction is prepaid or excluded by normal ordering).  `points` may list
    the point sequence explicitly, so that points without oscillator content
    keep their place in the window.
    """
    ins = list(insertions)
    # distinct consecutive variables define the expansion gaps
    varseq = []
    for it in ins:
        if not varseq or varseq[-1] != it.var:
            if it.var in varseq:
                raise ValueError("insertions of one point must be contiguous")
            varseq.append(it.var)
    if points is not None:
        sub = [v for v in points if v in varseq]
        if sub != varseq:
            raise ValueError("insertion points must follow the given order")
        varseq = list(points)
    if not varseq:
        return LaurentWindow.constant((), ctx.one, ctx.zero, ctx.raw)
    gaps = len(varseq) - 1
    if len(orders) != gaps:
        raise ValueError(f"need {gaps} gap orders, got {len(orders)}")
    gap_index = {v: k for k, v in enumerate(varseq)}

    zm = ctx.one
    for it in ins:
        zm = zm * zero_mode(ctx, hw, it.flavor)

    # the sum runs on the raw kernel: each pair reads its raw kernel
    # coefficients, every entry is normalized once per pair and dropped back
    # to a scalar at the end (a cancelled entry is removed)
    lift, mul, add, norm, drop = ctx.raw
    acc = {(0,) * gaps: lift(zm)}
    for a in range(len(ins)):
        for b in range(a + 1, len(ins)):
            A, B = ins[a], ins[b]
            if A.group == B.group:
                continue
            if A.var == B.var:
                raise ValueError("cross-group contraction at a shared point "
                                 "needs prepaid pinning")
            span = range(gap_index[A.var], gap_index[B.var])
            cap = min(orders[g] for g in span)
            if cap <= 0:
                continue
            # one-slot lists translated to A at shift 0, so pairs of equal
            # shift difference share one kernel
            kc = kernel_coeffs(ctx, ((A.flavor, 0),),
                               ((B.flavor, B.sshift - A.sshift),), cap)
            new = {}
            for e, c in acc.items():
                room = min(orders[g] - e[g] for g in span)
                for ell in range(0, min(cap, room) + 1):
                    if ell:
                        k = kc[ell]
                        if not k:
                            continue
                        ne = tuple(x + ell if g in span else x
                                   for g, x in enumerate(e))
                        v = mul(c, k)
                    else:
                        ne, v = e, c
                    old = new.get(ne)
                    new[ne] = v if old is None else add(old, v)
            acc = {}
            for e, v in new.items():
                v = norm(v)
                if v is not None:
                    acc[e] = v
    bounds = [VarBound(0, orders[g], True, False) for g in range(gaps)]
    varnames = tuple(f"{varseq[k + 1]}/{varseq[k]}" for k in range(gaps))
    return LaurentWindow(varnames, {e: drop(c) for e, c in acc.items()},
                         bounds, ctx.zero, ctx.raw)
