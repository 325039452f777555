"""Currents of rank i as sums of shifted boson blocks, their correlators,
exact mode matrix elements, and the composite normal ordering.

Matrix elements are evaluated by enumerating contraction patterns: an
assignment of a power to every pair of current insertions (plus the
structure-function weight of a dressed gap), bounded by the exponent budget
that the requested modes put on each consecutive-point gap.  Insertion
flavors are summed per pattern, and blocks untouched by a pattern contribute
their zero-mode eigenvalue w^rank(lambda).
All sums are provably finite: a pattern outside the budget cannot contribute
to the requested coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .context import ScalarCtx
from .fock import HighestWeight, Insertion, kernel_coeffs, \
    lambda_correlator, zero_mode
from .series import LaurentWindow
from .structfn import GammaFactors, PoleError, contraction_logkernel, \
    f_coeffs, f_logkernel


@dataclass(frozen=True)
class WInsertion:
    """Current of the given rank at (s^sshift * var); rank 0 and N are the
    constant 1, ranks outside 0..N are the zero current."""

    rank: int
    var: str
    sshift: int = 0


def _subsets(N: int, rank: int):
    return list(combinations(range(1, N + 1), rank))


@lru_cache(maxsize=None)
def block_slots(rank: int, base_shift: int, flavors):
    """Slot list of one normal-ordered block: internal shifts run from
    rank-1 down to -(rank-1) in steps of 2.  Cached, so the many blocks,
    engines, kernel keys and transfer states that name one slot list share
    one tuple (flavors must be a tuple)."""
    return tuple((f, base_shift + (rank - 1) - 2 * r)
                 for r, f in enumerate(flavors))


class Block:
    """One insertion point: a list of (coefficient, slots) alternatives."""

    __slots__ = ("var", "options", "key")

    def __init__(self, var, options, key):
        self.var = var
        self.options = options
        self.key = key


def current_block(ctx: ScalarCtx, hw: HighestWeight, w: WInsertion):
    """Block for one W-current; None encodes the zero current."""
    if w.rank < 0 or w.rank > ctx.N:
        return None
    if w.rank == 0 or w.rank == ctx.N:
        # the constant current: no oscillator content, eigenvalue 1
        return Block(w.var, [(ctx.one, ())], ("const", w.var))
    options = []
    for J in _subsets(ctx.N, w.rank):
        coeff = ctx.one
        for f in J:
            coeff = coeff * zero_mode(ctx, hw, f)
        options.append((coeff, block_slots(w.rank, w.sshift, J)))
    return Block(w.var, options, ("W", w.rank, w.var, w.sshift, hw.key()))


def dressed_pin_factors(ctx: ScalarCtx, dress, slots1, slots2,
                        pinexp: int) -> GammaFactors:
    """Gamma-factor form of f^{dress}(x) * prod of the slot-pair contractions
    in the convention where x = 1 realizes the pinned ratio s^pinexp (the f
    log-kernel is shifted by pinexp, the slot kernels by their absolute shift
    differences)."""
    key = ("pingf", dress, slots1, slots2, pinexp)
    if key in ctx.caches:
        return ctx.caches[key]
    lk = f_logkernel(ctx.N, dress[0], dress[1]).shifted(pinexp)
    for f1, s1 in slots1:
        for f2, s2 in slots2:
            lk = lk + contraction_logkernel(ctx.N, f1, f2).shifted(s2 - s1)
    gf = lk.resum(ctx.N)
    ctx.caches[key] = gf
    return gf


def dressed_pin_value(ctx: ScalarCtx, dress, slots1, slots2, pinexp: int,
                      clear_sexp=None):
    """Exact value of f^{dress}(x) * prod of the slot-pair contractions, with
    the two currents pinned so that x (the ratio of the two current
    arguments) equals s^pinexp; slot shifts are absolute.  clear_sexp
    multiplies in the pole-clearing factor (1 - s^{clear_sexp} x) used by
    fusion limits."""
    key = ("pin", dress, slots1, slots2, pinexp, clear_sexp)
    if key in ctx.caches:
        return ctx.caches[key]
    gf = dressed_pin_factors(ctx, dress, slots1, slots2, pinexp)
    if clear_sexp is None:
        val = gf.value(ctx, 0)
    else:
        val = gf.cleared_value(ctx, 0, ("s", clear_sexp + pinexp))
    ctx.caches[key] = val
    return val


def pinned_block(ctx: ScalarCtx, hw: HighestWeight, var: str,
                 rank1: int, shift1: int, rank2: int, shift2: int,
                 dress=None, clear_sexp=None):
    """Two currents pinned to proportional arguments s^{shift1} var and
    s^{shift2} var, dressed with the structure function f^{dress} evaluated at
    the pinned ratio.  This is the exact realization of a delta-term content
    f^{a,b}(p^c) W^a(..) W^b(..), of the left side of the normal-ordering
    rewrite, and (with clear_sexp) of a fusion limit."""
    if rank1 < 0 or rank1 > ctx.N or rank2 < 0 or rank2 > ctx.N:
        return None
    if dress is None:
        dress = (rank1, rank2)
    pinexp = shift2 - shift1
    options = []
    for J1 in _subsets(ctx.N, rank1):
        s1 = block_slots(rank1, shift1, J1)
        zm1 = ctx.one
        for f in J1:
            zm1 = zm1 * zero_mode(ctx, hw, f)
        for J2 in _subsets(ctx.N, rank2):
            s2 = block_slots(rank2, shift2, J2)
            coeff = dressed_pin_value(ctx, dress, s1, s2, pinexp, clear_sexp)
            if not coeff:
                continue
            zm = zm1
            for f in J2:
                zm = zm * zero_mode(ctx, hw, f)
            options.append((coeff * zm, s1 + s2))
    if not options:
        options = [(ctx.zero, ())]
    return Block(var, options, ("pin", rank1, shift1, rank2, shift2, dress,
                                clear_sexp, var, hw.key()))


def _pair_kernel(ctx: ScalarCtx, slotsA, slotsB, order: int):
    """Coefficients of prod_{a in A, b in B} C_{f_a f_b}(s^{s_b - s_a} x),
    at least order + 1 of them, as raw values of ctx.raw (drop reads them
    back).

    ctx.caches holds the partial product after each slot pair (or the
    constant 1 for no pair), and a larger order only appends to each:
    coefficient m of a partial product needs coefficients 0..m of the one
    before and of the pair's kernel.  Each new coefficient is one unreduced
    raw sum, normalized once."""
    key = ("KB", slotsA, slotsB)
    stages = ctx.caches.get(key, ())
    done = len(stages[-1]) if stages else 0
    if done <= order:
        lift, mul, add, norm, _ = ctx.raw
        zero = lift(ctx.zero)
        # the constant 1, then the product over the first p + 1 slot pairs
        prev = (lift(ctx.one),) + (zero,) * order
        grown = []
        pairs = ((fa, fb, sb - sa) for fa, sa in slotsA for fb, sb in slotsB)
        for p, (fa, fb, delta) in enumerate(pairs):
            # coefficient 0 is 1 times the previous stage's; order 0 asks
            # no kernel
            kc = [lift(k) for k in
                  kernel_coeffs(ctx, fa, fb, delta, order)[:order + 1]] \
                if order else ()
            new = []
            for m in range(done, order + 1):
                acc = zero
                for i in range(m + 1):
                    c = prev[i]
                    if not c:
                        continue
                    if i < m:
                        k = kc[m - i]
                        if not k:
                            continue
                        c = mul(c, k)
                    acc = c if acc is None else add(acc, c)
                new.append(acc if acc is None else norm(acc))
            prev = (stages[p] if stages else ()) + tuple(new)
            grown.append(prev)
        stages = ctx.caches[key] = tuple(grown) or (prev,)
    return stages[-1]


# ctx.caches key of the transfer states shared by every engine of a context;
# suites drop it after each case to bound its size
PREFIX_MEMO = "ME-prefix"


class ModeEngine:
    """Exact coefficient extraction from <lambda| prod blocks |lambda>.

    Transfer evaluation: blocks are absorbed left to right; the state is the
    multiset of open contraction flows, each (source slots, units still to
    land on later blocks).  Crossing the boundary behind block c, the open
    units must total exactly profile[c], so the state space stays tiny and
    every enumeration is finite.  When a flow lands on a block it contributes
    one cached kernel coefficient; flavor summation happens automatically
    because states only remember the slot content of their open sources.

    dress is None or (gap, i, j): the structure function f^{i,j} of the ratio
    of the points of blocks gap + 1 and gap weights that gap.  There the
    block takes yw of its own units with the Taylor coefficient f_yw; those
    units open no flow, since f depends on that one ratio alone.

    The states behind every block but the last are memoized in
    ctx.caches[PREFIX_MEMO] under (prefix_keys[c], profile[:c+1]), so a
    profile resumes from the deepest prefix that any engine of the context
    has already absorbed.  The engine keeps no context: value takes it at
    each call, so an engine cached in ctx.caches does not refer back to it.

    Every product and sum runs on the context's raw kernel ctx.raw =
    (lift, mul, add, norm, drop): bare integer triples over Q(s) with no
    gcd and no object per operation (exact._quad_raw), the scalars and
    their operators in the hbar limits, so all rings take this one path
    with today's association.  The engine lifts its option coefficients
    once, with the lift `mode_engine` passes, and keeps them in place of
    the blocks; f-weight coefficients are lifted once per split and kernel
    coefficients once per slot pair (_pair_kernel stores raw stages).
    Each new state's weight is normalized once when its block finishes,
    which bounds the integers across blocks; a weight that cancelled (norm
    gives None) is dropped, and the memo holds the normalized states.  The
    total is dropped back to a canonical scalar once per profile.
    """

    def __init__(self, blocks, lift, dress=None):
        # per block the options with nonzero coefficient, lifted by the
        # context's lift; the engine keeps no Block
        self.options = [[(lift(coeff), slots)
                         for coeff, slots in block.options if coeff]
                        for block in blocks]
        self.gaps = len(blocks) - 1
        self.dress = dress
        self.value_cache = {}
        self.weight_splits = {}
        # everything the state after block c depends on, except the profile:
        # prefix_keys[c] names blocks[:c+1] and the dress once it is behind
        prefix = ()
        self.prefix_keys = []
        for c, block in enumerate(blocks[:-1]):
            prefix += (block.key, dress) if dress and dress[0] == c \
                else (block.key,)
            self.prefix_keys.append(prefix)

    def value(self, profile, ctx: ScalarCtx):
        """Exact coefficient at the given gap-exponent profile."""
        profile = tuple(profile)
        if len(profile) != self.gaps or any(p < 0 for p in profile):
            raise ValueError("bad profile")
        if profile in self.value_cache:
            return self.value_cache[profile]
        lift, mul, add, norm, drop = ctx.raw
        # state: sorted tuple of open flows (slots, units)
        memo = ctx.caches.setdefault(PREFIX_MEMO, {})
        start, states = 0, {(): lift(ctx.one)}
        for c in range(self.gaps - 1, -1, -1):
            hit = memo.get((self.prefix_keys[c], profile[:c + 1]))
            if hit is not None:
                start, states = c + 1, hit
                break
        for c in range(start, len(self.options)):
            budget = profile[c] if c < self.gaps else 0
            new_states = {}
            for state, weight in states.items():
                patterns = {}
                for coeff, slots in self.options[c]:
                    has_slots = bool(slots)
                    if has_slots not in patterns:
                        patterns[has_slots] = self._landing_patterns(
                            state, c, budget, has_slots, ctx)
                    # accs[k]: the product of the pattern's first k factors
                    accs = [mul(weight, coeff)]
                    for share, factors, rest, free in patterns[has_slots]:
                        del accs[share + 1:]
                        for sslots, fac in factors[len(accs) - 1:]:
                            if sslots is not None:
                                # a landing: fac is its unit count
                                fac = _pair_kernel(ctx, sslots, slots,
                                                   fac)[fac]
                                if not fac:
                                    break
                            accs.append(mul(accs[-1], fac))
                        else:
                            key = rest if not free else tuple(sorted(
                                rest + ((slots, free),)))
                            old = new_states.get(key)
                            new_states[key] = accs[-1] if old is None \
                                else add(old, accs[-1])
            # one gcd per state; a raw weight that cancelled is dropped
            states = {}
            for key, weight in new_states.items():
                weight = norm(weight)
                if weight is not None:
                    states[key] = weight
            if c < self.gaps:
                memo[(self.prefix_keys[c], profile[:c + 1])] = states
        total = lift(ctx.zero)
        weight = states.get(())
        if weight is not None:
            total = weight if total is None else add(total, weight)
        total = self.value_cache[profile] = drop(total)
        return total

    def _landing_patterns(self, state, c, budget, has_slots, ctx):
        """The ways the open flows of `state` continue through block c, in
        the order the transfer sum visits them: every open flow lands 0..x of
        its x units on the block (the first flow outermost), the units left
        open plus the block's own units fill the budget, and on the dressed
        gap the weight takes some of the block's own units.  A block without
        slots takes no landing and opens no flow of its own.

        Returns a list of (share, factors, rest, free): `factors` lists
        (source slots, ell) per landing, whose kernel coefficient depends on
        the option's slots, then (None, raw coefficient) of the weight if it
        takes units; its first `share` entries equal those of the previous
        pattern, so their product can be reused.  `rest` is the sorted tuple of flows
        still open, and `free` the own units of the block left, which open
        the flow (slots, free) when nonzero.
        """
        units = sum(x for _, x in state)
        ranges = [range(x + 1) if has_slots else (0,) for _, x in state]
        out = []
        prev = ()
        for ells in product(*ranges):
            free = budget - units + sum(ells)
            if free < 0:
                continue
            lands, rest = [], []
            for fl, ell in zip(state, ells):
                if not ell:
                    rest.append(fl)
                    continue
                lands.append((fl[0], ell))
                if ell < fl[1]:
                    rest.append((fl[0], fl[1] - ell))
            rest = tuple(sorted(rest))
            for wfactors, left in self._weight_splits(c, free, has_slots,
                                                      ctx):
                factors = lands + wfactors
                share = 0
                for f, g in zip(factors, prev):
                    if not (f is g or (f[0] is not None and f == g)):
                        break
                    share += 1
                prev = factors
                out.append((share, tuple(factors), rest, left))
        return out

    def _weight_splits(self, c, free, has_slots, ctx):
        """The ways block c keeps its `free` own units: (factors, units
        left).  Off the dressed gap all of them are left; on it the weight
        takes yw of them with the factor (None, raw f_yw) (none for yw = 0),
        without the splits whose coefficient vanishes.  A block without
        slots keeps no unit of its own."""
        if self.dress is None or c != self.dress[0]:
            return (([], free),) if has_slots or not free else ()
        key = (free, has_slots)
        if key not in self.weight_splits:
            _, i, j = self.dress
            fc = f_coeffs(ctx, i, j, free)
            lift = ctx.raw[0]
            self.weight_splits[key] = [
                ([(None, lift(fc[yw]))] if yw else [], free - yw)
                for yw in range(free + 1)
                if (has_slots or yw == free) and (not yw or fc[yw])]
        return self.weight_splits[key]


def mode_engine(ctx: ScalarCtx, blocks, dress=None):
    """Cached ModeEngine per block assembly and dress."""
    key = ("ME", tuple(b.key for b in blocks), dress)
    if key not in ctx.caches:
        ctx.caches[key] = ModeEngine(blocks, ctx.raw[0], dress)
    return ctx.caches[key]


# ---------------------------------------------------------------------------
# public operations


def w_correlator(ctx: ScalarCtx, hw: HighestWeight, winsertions,
                 orders) -> LaurentWindow:
    """<lambda| W^{i_1}(u_1) ... W^{i_m}(u_m) |lambda> by literal expansion of
    every current into its boson blocks and summing lambda_correlator over the
    index subsets (no internal contractions inside one current)."""
    ws = list(winsertions)
    if any(w.rank < 0 or w.rank > ctx.N for w in ws):
        varseq = list(dict.fromkeys(w.var for w in ws))
        varnames = tuple(f"{varseq[k + 1]}/{varseq[k]}"
                         for k in range(len(varseq) - 1))
        return LaurentWindow.constant(varnames, ctx.zero, ctx.zero)
    points = list(dict.fromkeys(w.var for w in ws))
    choice_lists = [_subsets(ctx.N, w.rank) for w in ws]
    out = None
    for combo in product(*choice_lists):
        insertions = []
        for g, (w, J) in enumerate(zip(ws, combo)):
            for f, sh in block_slots(w.rank, w.sshift, J):
                insertions.append(Insertion(f, w.var, sh, g))
        win = lambda_correlator(ctx, hw, insertions, orders, points=points)
        out = win if out is None else out + win
    return out


def mode_profile(bra, mid_exps, ket):
    """Gap-exponent profile for bra modes (annihilation side, W_{+h}),
    explicit point exponents for the mid section, and ket creation magnitudes
    (W_{-k} listed as (rank, k >= 0)); None when any gap is negative (the
    matrix element vanishes)."""
    exps = [-h for _, h in bra] + list(mid_exps) + [k for _, k in ket]
    if sum(exps) != 0:
        return None
    prof = []
    run = 0
    for e in exps[:-1]:
        run -= e
        if run < 0:
            return None
        prof.append(run)
    return tuple(prof)


def _aux_blocks(ctx, hw, modes, prefix):
    return [current_block(ctx, hw, WInsertion(r, f"{prefix}{k}", 0))
            for k, (r, _) in enumerate(modes)]


def two_current_mode_table(ctx: ScalarCtx, hw: HighestWeight, bra,
                           first, second, ket, dress, nm_list):
    """Modes (n, m) of f^{dress}(x) W^{r1}(s^{a1} z_first) W^{r2}(s^{a2} z_sec)
    between the given bra/ket mode monomials; x is the ratio of the two
    current points. Returns {(n, m): scalar}; missing keys are exact zeros."""
    r1, a1 = first
    r2, a2 = second
    b1 = current_block(ctx, hw, WInsertion(r1, "zA", a1))
    b2 = current_block(ctx, hw, WInsertion(r2, "zB", a2))
    if b1 is None or b2 is None:
        return {nm: ctx.zero for nm in nm_list}
    blocks = _aux_blocks(ctx, hw, bra, "b") + [b1, b2] + \
        _aux_blocks(ctx, hw, ket, "k")
    eng = mode_engine(ctx, blocks,
                      None if dress is None else (len(bra), *dress))
    out = {}
    for n, m in nm_list:
        prof = mode_profile(bra, (-n, -m), ket)
        out[(n, m)] = eng.value(prof, ctx) if prof is not None else ctx.zero
    return out


def pinned_mode_value(ctx: ScalarCtx, hw: HighestWeight, bra, pinned, ket,
                      total_mode: int):
    """Matrix element of the z-mode `total_mode` of a pinned dressed pair
    (see pinned_block) between bra/ket monomials.

    The per-option gamma closed form is used when every option is regular at
    the pinning; when an individual option is singular there (the regularity
    of the full product is a statement about the sum), the evaluation falls
    back to exact resummation of the unpinned mode series against the known
    denominator."""
    try:
        blk = pinned_block(ctx, hw, "z", *pinned["ranks_shifts"],
                           dress=pinned.get("dress"),
                           clear_sexp=pinned.get("clear_sexp"))
    except PoleError:
        return pinned_mode_value_resummed(ctx, hw, bra, pinned, ket, total_mode)
    if blk is None:
        return ctx.zero
    blocks = _aux_blocks(ctx, hw, bra, "b") + [blk] + \
        _aux_blocks(ctx, hw, ket, "k")
    prof = mode_profile(bra, (-total_mode,), ket)
    if prof is None:
        return ctx.zero
    return mode_engine(ctx, blocks).value(prof, ctx)


def _poly_mul_factor(ctx, poly, c, exponent):
    """Multiply a dense polynomial by (1 - c x)^exponent, exponent >= 0."""
    for _ in range(exponent):
        poly = [(poly[k] if k < len(poly) else ctx.zero) -
                (c * poly[k - 1] if k >= 1 else ctx.zero)
                for k in range(len(poly) + 1)]
    return poly


def pinned_mode_value_resummed(ctx: ScalarCtx, hw: HighestWeight, bra, pinned,
                               ket, total_mode: int):
    """Pinned dressed pair via exact resummation.

    Per flavor subset the dressed pair is a finite gamma product (a rational
    function of the unpinned ratio); the external contractions multiply it by
    a small polynomial E.  The engine's full values V also carry the direct
    pair kernel K, the one contraction that crosses only the middle gap, so
    V = K * E in the middle-gap exponent and E follows by dividing K out.
    Everything is put over the union denominator, factors vanishing at the
    pinning are divided out exactly (their survival in the numerator would
    contradict the regularity of the full product and raises), and the
    result is evaluated.
    """
    r1, sh1, r2, sh2 = pinned["ranks_shifts"]
    dress = pinned.get("dress") or (r1, r2)
    clearing = pinned.get("clear_sexp") is not None
    key = ("pinres", tuple(bra), tuple(ket), total_mode,
           (r1, sh1, r2, sh2), dress, clearing, hw.key())
    if key in ctx.caches:
        return ctx.caches[key]
    if r1 < 0 or r1 > ctx.N or r2 < 0 or r2 > ctx.N:
        return ctx.zero
    pinexp = sh2 - sh1
    braSum = sum(h for _, h in bra)
    ketSum = sum(k for _, k in ket)
    ext_deg = braSum + ketSum
    drop = ctx.raw[4]
    options = []
    denom = {}
    for J1 in _subsets(ctx.N, r1):
        s1 = block_slots(r1, sh1, J1)
        for J2 in _subsets(ctx.N, r2):
            s2 = block_slots(r2, sh2, J2)
            gf = dressed_pin_factors(ctx, dress, s1, s2, pinexp)
            options.append((s1, s2, gf))
            for fkey, mult in gf.factors.items():
                if mult < 0:
                    denom[fkey] = max(denom.get(fkey, 0), -mult)
    helper = GammaFactors()
    P = [ctx.zero]
    for s1, s2, gf in options:
        zm = ctx.one
        for f, _ in s1 + s2:
            zm = zm * zero_mode(ctx, hw, f)
        # the option's rational function times D: a polynomial
        numpoly = [zm]
        for fkey, mult in sorted(gf.factors.items()):
            c = helper.base(ctx, fkey)
            extra = mult + denom.get(fkey, 0)
            if extra < 0:
                raise PoleError("denominator union miscounted")
            numpoly = _poly_mul_factor(ctx, numpoly, c, extra)
        for fkey, mult in sorted(denom.items()):
            if fkey not in gf.factors:
                numpoly = _poly_mul_factor(ctx, numpoly,
                                           helper.base(ctx, fkey), mult)
        # external contraction polynomial: E[g] = V[g] - sum_l K[l] E[g-l]
        b1 = Block("zA", [(ctx.one, s1)], ("fix", s1, "zA"))
        b2 = Block("zB", [(ctx.one, s2)], ("fix", s2, "zB"))
        blocks = _aux_blocks(ctx, hw, bra, "b") + [b1, b2] + \
            _aux_blocks(ctx, hw, ket, "k")
        eng = mode_engine(ctx, blocks)
        K = [drop(k) for k in _pair_kernel(ctx, s1, s2, ext_deg)]
        E = []
        for g in range(ext_deg + 1):
            n1 = g - braSum
            prof = mode_profile(bra, (-n1, -(total_mode - n1)), ket)
            e = eng.value(prof, ctx) if prof is not None else ctx.zero
            for ell in range(1, g + 1):
                if K[ell]:
                    e = e - K[ell] * E[g - ell]
            E.append(e)
        # P += numpoly * E
        conv = [ctx.zero] * (len(numpoly) + len(E) - 1)
        for a, pa in enumerate(numpoly):
            if not pa:
                continue
            for b, eb in enumerate(E):
                if eb:
                    conv[a + b] = conv[a + b] + pa * eb
        if len(conv) > len(P):
            P = P + [ctx.zero] * (len(conv) - len(P))
        for k2, v in enumerate(conv):
            P[k2] = P[k2] + v
    while len(P) > 1 and not P[-1]:
        P.pop()
    # divide out factors vanishing at the pinning (x = 1 in this convention)
    bases = []
    for fkey, mult in sorted(denom.items()):
        bases.extend([helper.base(ctx, fkey)] * mult)
    vanishing = [c for c in bases if not (1 - c)]
    m = len(vanishing)
    to_clear = m - 1 if clearing else m
    if clearing and m == 0:
        ctx.caches[key] = ctx.zero
        return ctx.zero
    for c in vanishing[:to_clear]:
        if len(P) == 1:
            if not P[0]:
                continue
            raise PoleError("pinned matrix element is genuinely singular")
        Q = [P[0]]
        for k2 in range(1, len(P) - 1):
            Q.append(P[k2] + c * Q[k2 - 1])
        if P[-1] + c * Q[-1]:
            raise PoleError("pinned matrix element is genuinely singular "
                            "at the pinning")
        P = Q
    num = ctx.zero
    for pk in P:
        num = num + pk
    den = ctx.one
    skipped = 0
    for c in bases:
        if skipped < m and not (1 - c):
            skipped += 1
            continue
        den = den * (1 - c)
    val = num / den
    ctx.caches[key] = val
    return val


def single_current_mode_value(ctx, hw, bra, rank, sshift, ket, total_mode):
    return pinned_mode_value(ctx, hw, bra,
                             {"ranks_shifts": (0, 0, rank, sshift),
                              "dress": (0, rank)},
                             ket, total_mode)


def w_mode_matrix_element(ctx: ScalarCtx, hw: HighestWeight, bra, ket):
    """<lambda| prod W (bra, annihilation modes) prod W (ket, creation modes)
    |lambda>, an exact scalar.

    bra is a list of (rank, mode >= 0), ket a list of (rank, mode <= 0).
    """
    for _, h in bra:
        if h < 0:
            raise ValueError("bra modes must be annihilation side (>= 0)")
    for _, k in ket:
        if k > 0:
            raise ValueError("ket modes must be creation side (<= 0)")
    kets = [(r, -k) for r, k in ket]
    prof = mode_profile(bra, (), kets)
    if prof is None:
        return ctx.zero
    blocks = _aux_blocks(ctx, hw, bra, "b") + _aux_blocks(ctx, hw, kets, "k")
    return mode_engine(ctx, blocks).value(prof, ctx)


def composite_no_mode(ctx: ScalarCtx, hw: HighestWeight, i: int, j: int,
                      r_sexp: int, n: int, bra, ket, margin: int = 0):
    """Mode n of the composite normal-ordered product of W^i(r z) and W^j(z),
    r = s^{r_sexp}, via the double mode sum; the sums terminate because high
    annihilation modes kill the ket and the engine bounds them through the
    gap budget (margin extends the bound for tail checks)."""
    ket_level = sum(k for _, k in ket)
    acc = ctx.zero
    # the r-dependence is explicit in the weights, so the matrix elements are
    # of plain current modes (unshifted insertion points)
    m_top1 = max(-1, ket_level - n) + margin
    m_top2 = max(-1, ket_level - 1) + margin
    fc = f_coeffs(ctx, i, j, max(m_top1, m_top2))
    for m in range(0, m_top1 + 1):
        me = two_current_mode_table(ctx, hw, bra, (i, 0), (j, 0), ket,
                                    None, [(-m, n + m)])[(-m, n + m)]
        if not me:
            continue
        w = ctx.zero
        for ell in range(0, m + 1):
            fl = fc[ell]
            if fl:
                w = w + fl * ctx.s_pow(r_sexp * (m - ell))
        acc = acc + w * me
    for m in range(0, m_top2 + 1):
        me = two_current_mode_table(ctx, hw, bra, (j, 0), (i, 0), ket,
                                    None, [(n - m - 1, m + 1)])[(n - m - 1, m + 1)]
        if not me:
            continue
        w = ctx.zero
        for ell in range(0, m + 1):
            fl = fc[ell]
            if fl:
                w = w + fl * ctx.s_pow(r_sexp * (ell - m - 1))
        acc = acc + w * me
    return acc
