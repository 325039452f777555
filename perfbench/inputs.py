"""Seeded inputs for the benchmark workloads.

A seed fixes every free parameter the suites accept: the generic sample
points (q, t) and the limit II levels k.  Grid sizes, windows and orders are
part of the workload definition and do not depend on the seed.

The generator excludes only degenerate inputs.  It never looks at how a case
behaves (verdict or speed) at a point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

MAX_TERM = 7          # numerators and denominators are at most this
LEVELS = (1, 2, 3)    # limit II levels k

WORKLOADS = ("relations", "limit2", "mix-jobs2")


def prime_support(x: Fraction) -> frozenset:
    """Primes dividing the numerator or the denominator of x."""
    out = set()
    for n in (abs(x.numerator), x.denominator):
        d = 2
        while d * d <= n:
            while n % d == 0:
                out.add(d)
                n //= d
            d += 1
        if n > 1:
            out.add(n)
    return frozenset(out)


def is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    a, b = x.numerator, x.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


def is_generic_point(q: Fraction, t: Fraction) -> bool:
    """True when (q, t) is a valid generic sample point.

    q and t are not 0 or +-1 and have disjoint prime supports, so no
    nontrivial monomial in q, t and s = (q/t)^(1/2) equals 1; p = q/t is not a
    rational square, so Q(s) is a field and not a product of two copies of Q.
    """
    if q in (0, 1, -1) or t in (0, 1, -1):
        return False
    if prime_support(q) & prime_support(t):
        return False
    return not is_rational_square(q / t)


def draw_rational(rng: random.Random) -> Fraction:
    while True:
        a = rng.randint(1, MAX_TERM)
        b = rng.randint(1, MAX_TERM)
        if gcd(a, b) == 1:
            return Fraction(a, b)


def draw_point(rng: random.Random) -> tuple:
    """A generic (q, t) of positive rationals whose numerators and
    denominators are at most MAX_TERM, as in the default points."""
    while True:
        q, t = draw_rational(rng), draw_rational(rng)
        if is_generic_point(q, t):
            return q, t


def _fmt_pairs(pairs) -> str:
    return "; ".join(f"{n},{k}" for n, k in pairs)


class Inputs:
    """The input of one verify invocation: repetition `rep` of a run of
    `workload` at `seed`.

    A run repeats short invocations and reports medians, because on a shared
    machine the speed of one core drifts by tens of percent within seconds.
    Each repetition draws its own point and levels, so the median also
    averages over the cost of different inputs.
    """

    def __init__(self, workload: str, seed: int, rep: int = 0):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        rng = random.Random(f"{workload}:{seed}:{rep}")
        self.workload = workload
        self.point = draw_point(rng)
        # (2, k1) and (2, k2) label cases of one rank, which must not repeat
        k1, k2 = rng.sample(LEVELS, 2)
        k3 = rng.choice(LEVELS)
        # the first limit II context also feeds the exact-layer
        # microbenchmarks, so every workload draws levels
        self.limit2_pairs = [(2, k1), (2, k2), (3, k3)]
        self.jobs = 2 if workload == "mix-jobs2" else 1
        self.sections = self._sections()

    def _sections(self) -> dict:
        q, t = self.point
        point = f"{q},{t}"
        (_, k1), _, (_, k3) = self.limit2_pairs
        if self.workload == "relations":
            # rank-1 at level 2: at level 3 one case alone takes 17-30 s, and
            # its cost varies with the point by a third
            return {"relations": {
                "n_values": "2 3", "window_rank1": "3", "level_rank1": "2",
                "window": "2", "level": "2", "points": point}}
        if self.workload == "limit2":
            return {"limit2": {
                "nk_pairs": _fmt_pairs(self.limit2_pairs), "order_x": "6",
                "correlator_nk_pairs": _fmt_pairs([(2, k1), (3, k3)]),
                "correlator_points": "3", "correlator_order_x": "6"}}
        # mix-jobs2: every suite on a light grid at the seeded point and
        # level.  Relations keeps its built-in ranks N = 2, 3, 4 because only
        # N = 4 takes the resummed route for pinned pairs.
        return {
            "relations": {"window_rank1": "1", "level_rank1": "1",
                          "window": "1", "level": "1", "points": point},
            "f-identities": {"points": point},
            "poles": {"points": point},
            "fusion": {"points": point},
            "limit1": {"n_values": "2 3 4"},
            "limit2": {"nk_pairs": f"2,{k1}", "order_x": "6",
                       "correlator_nk_pairs": f"2,{k1}",
                       "correlator_points": "2", "correlator_order_x": "6"},
            "zalgebra": {"n_values": "2 3"},
            "characters": {},
            "zeta": {"points": point},
        }

    @property
    def suites(self) -> list:
        return sorted(self.sections)

    def config_text(self) -> str:
        lines = ["[suites]"]
        lines += [f"{name} = true" for name in self.suites]
        for name in self.suites:
            lines.append("")
            lines.append(f"[{name}]")
            lines += [f"{k} = {v}" for k, v in self.sections[name].items()]
        return "\n".join(lines) + "\n"

    def expected_records(self) -> int:
        """Number of records the invocation must report, counted from the
        suite grids as the suites document them."""
        return sum(expected_count(name, self.sections[name])
                   for name in self.suites)


def _ints(cfg, key, default):
    raw = cfg.get(key)
    if raw is None:
        return list(default)
    return [int(x) for x in raw.replace(",", " ").split()]


def _pairs(cfg, key, default):
    raw = cfg.get(key, default)
    return [tuple(int(x) for x in chunk.split(",")) for chunk in raw.split(";")]


def _npoints(cfg):
    raw = cfg.get("points")
    return 2 if raw is None else len(raw.split(";"))


def _tri(N):
    """Number of pairs 0 <= i <= j <= N."""
    return (N + 1) * (N + 2) // 2


def expected_count(suite: str, cfg: dict) -> int:
    if suite == "relations":
        per_point = 0
        for N in _ints(cfg, "n_values", (2, 3, 4)):
            per_point += N + 1                      # w1wj, nowwj(1,1)
            if N >= 3:
                # w2wj, wiwj, w2 route, order reversal, nowwj(1,2)
                per_point += (N - 1) + _tri(N) + 3
        return _npoints(cfg) * per_point
    if suite == "f-identities":
        return _npoints(cfg) * len(_ints(cfg, "n_values", (2, 3, 4)))
    if suite == "poles":
        return _npoints(cfg) * len(_ints(cfg, "n_values", (2, 3))) * 6
    if suite == "fusion":
        return _npoints(cfg) * sum(_tri(N) for N in _ints(cfg, "n_values", (2, 3)))
    if suite == "limit1":
        return sum(2 * (N + 1) for N in _ints(cfg, "n_values", (2, 3, 4, 5)))
    if suite == "limit2":
        rel = sum((N - 1) ** 2 for N, _ in
                  _pairs(cfg, "nk_pairs", "2,2; 2,3; 3,1; 3,2"))
        corr = len(_pairs(cfg, "correlator_nk_pairs", "2,2; 3,2")) * \
            int(cfg.get("correlator_points", 4))
        return rel + corr
    if suite == "zalgebra":
        return len(_ints(cfg, "n_values", (2, 3, 4))) + sum(
            (N - 1) ** 2 for N, _ in
            _pairs(cfg, "nk_pairs", "2,1; 2,2; 3,1; 3,2"))
    if suite == "characters":
        return sum(k + 1 for k in _ints(cfg, "k_values", (2, 3, 4)))
    if suite == "zeta":
        ns = _ints(cfg, "n_values", (2, 3, 4, 5))
        return 2 + sum(2 * (N - 1) for N in ns) + \
            _npoints(cfg) * sum(N + 1 for N in ns)
    raise ValueError(f"unknown suite {suite!r}")
