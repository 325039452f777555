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
from .structfn import GammaFactors, PoleError, f_coeffs, f_logkernel, \
    pair_logkernel


@dataclass(frozen=True)
class WInsertion:
    """Current of the given rank at (s^sshift * var); rank 0 and N are the
    constant 1, ranks outside 0..N are the zero current (the block of no
    options)."""

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
    """One insertion point: a list of (coefficient, slots) alternatives,
    named by its ctx.caches key, which is its content."""

    __slots__ = ("options", "key")

    def __init__(self, options, key):
        self.options = options
        self.key = key


def _zero_modes(ctx: ScalarCtx, hw: HighestWeight, flavors):
    """Product of the flavors' zero-mode eigenvalues, folded from ctx.one in
    flavor order."""
    out = ctx.one
    for f in flavors:
        out = out * zero_mode(ctx, hw, f)
    return out


def current_block(ctx: ScalarCtx, hw: HighestWeight, rank: int,
                  sshift: int = 0):
    """Block of the rank-`rank` current at s^sshift times its point, built
    once per context; a rank outside 0..N is the zero current, the block of
    no options, which the engine gives the value zero."""
    if rank < 0 or rank > ctx.N:
        key, subsets = ("zero",), []
    elif rank == 0 or rank == ctx.N:
        # the constant current has no oscillator content and eigenvalue 1
        key, subsets = ("const",), [()]
    else:
        key, subsets = ("W", rank, sshift, hw.key()), _subsets(ctx.N, rank)
    block = ctx.caches.get(key)
    if block is None:
        block = ctx.caches[key] = Block(
            [(_zero_modes(ctx, hw, J), block_slots(rank, sshift, J))
             for J in subsets], key)
    return block


def dressed_pin_factors(ctx: ScalarCtx, dress, slots1, slots2,
                        pinexp: int) -> GammaFactors:
    """Gamma-factor form of f^{dress}(x) * prod of the slot-pair contractions
    in the convention where x = 1 realizes the pinned ratio s^pinexp (the f
    log-kernel is shifted by pinexp, the slot kernels by their absolute shift
    differences)."""
    return (f_logkernel(ctx.N, dress[0], dress[1]).shifted(pinexp)
            + pair_logkernel(ctx.N, slots1, slots2)).resum(ctx.N)


def pinned_block(ctx: ScalarCtx, hw: HighestWeight, rank1: int, shift1: int,
                 rank2: int, shift2: int, dress=None, clear_sexp=None):
    """Two currents pinned to proportional arguments s^{shift1} z and
    s^{shift2} z, dressed with the structure function f^{dress} (default
    (rank1, rank2)) evaluated at the pinned ratio.  This is the exact
    realization of a delta-term content f^{a,b}(p^c) W^a(..) W^b(..), of the
    left side of the normal-ordering rewrite, and (with clear_sexp) of a
    fusion limit: clear_sexp multiplies in the pole-clearing factor
    (1 - s^{clear_sexp} x).  A pinning is the tuple of these arguments after
    hw.  An option's coefficient is the dressed slot-pair product at the
    pinning times its zero modes.  Built once per context; a pinning
    singular for some option raises PoleError, and the context remembers
    that as Block(None, key), so every later call raises a fresh PoleError
    without rebuilding the gamma factors."""
    if rank1 < 0 or rank1 > ctx.N or rank2 < 0 or rank2 > ctx.N:
        return current_block(ctx, hw, -1)  # the zero current
    pin = (rank1, shift1, rank2, shift2, dress or (rank1, rank2), clear_sexp)
    key = ("pin",) + pin + (hw.key(),)
    block = ctx.caches.get(key)
    if block is not None:
        if block.options is None:
            raise PoleError("pinning singular for some option")
        return block
    options = []
    try:
        for s1, s2, gf, zm in _pin_options(ctx, hw, pin):
            coeff = gf.value(ctx, 0) if clear_sexp is None else \
                gf.cleared_value(ctx, 0, ("s", clear_sexp + shift2 - shift1))
            if coeff:
                options.append((coeff * zm, s1 + s2))
    except PoleError:
        # the exception itself is not kept: its traceback holds the context
        ctx.caches[key] = Block(None, key)
        raise
    block = ctx.caches[key] = Block(options or [(ctx.zero, ())], key)
    return block


def _pin_options(ctx, hw, pin):
    """Per flavor-subset pair of the pinning, in order: its two slot lists,
    the gamma factors of the dressed pair and the zero-mode product."""
    rank1, shift1, rank2, shift2, dress, _ = pin
    dress = dress or (rank1, rank2)
    for J1 in _subsets(ctx.N, rank1):
        s1 = block_slots(rank1, shift1, J1)
        for J2 in _subsets(ctx.N, rank2):
            s2 = block_slots(rank2, shift2, J2)
            yield (s1, s2, dressed_pin_factors(ctx, dress, s1, s2,
                                               shift2 - shift1),
                   _zero_modes(ctx, hw, J1 + J2))


# ctx.caches keys of the transfer states and of the transfer steps that every
# engine of a context shares; suites drop both after each case to bound their
# size
PREFIX_MEMO = "ME-prefix"
STEP_STORE = "ME-step"


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

    Caches.  Blocks, engines ("ME") and contraction kernels ("K", one per
    slot-list pair, fock.kernel_coeffs) live in ctx.caches for the context;
    blocks are keyed by content, so engines on equal blocks share every
    entry below.  Two caches are shared by every engine and dropped by the
    suites after each case: PREFIX_MEMO holds the states behind every block
    but the last, so a profile resumes from the deepest prefix any engine
    has absorbed, and STEP_STORE the transfer steps, since what a state
    feeds into the next block does not depend on the state's weight.
    value_cache keeps the value per profile, which the relation checks ask
    of one engine many times.  Without the memo or the value cache, `verify`
    on the seed-0 perfbench relations config took about 1.5x as long.  The
    engine keeps no context, so nothing in ctx.caches refers back to it.

    Every product and sum runs on the context's raw kernel ctx.raw = (lift,
    mul, add, norm, drop): bare integer triples over Q(s) with no gcd and no
    object per operation (exact._quad_raw), the scalars and their operators
    in the hbar limits, so all rings take this one path.  The engine lifts
    its option coefficients once, with the lift `mode_engine` passes, and
    keeps them in place of the blocks; f-weight coefficients are lifted
    where a landing pattern takes them, and a landing's kernel coefficient
    is read in place, with no call, from the `raw` list of its slot-list
    pair's "K" entry (fock.kernel_coeffs only builds or grows it).  A step's
    factor is an option's coefficient times its landing kernel coefficients
    and its f-weight factor, taken left to right.  Over Q(s) the factors of
    one new state are summed inside the step and normalized once, which is
    exact; in the hbar limits, whose truncation follows valuations, they
    stay unmerged and in the order of the options and patterns, so a state's
    weight meets the same products as option by option, associated as
    weight * (coefficient * kernels).  Each new state's weight is normalized
    once when its block finishes, which bounds the integers across blocks; a
    weight that cancelled (norm gives None) is dropped, and the memo holds
    the normalized states.  The total is dropped back to a canonical scalar
    once per profile.
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
        # everything a step of block c depends on besides state and budget:
        # the block and the f^{i,j} on its gap
        self.step_keys = [(block.key, dress[1:] if dress and dress[0] == c
                           else None) for c, block in enumerate(blocks)]
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
        steps, keys = ctx.caches.setdefault(STEP_STORE, ({}, {}))
        start, states = 0, {(): lift(ctx.one)}
        for c in range(self.gaps - 1, -1, -1):
            hit = memo.get((self.prefix_keys[c], profile[:c + 1]))
            if hit is not None:
                start, states = c + 1, hit
                break
        for c in range(start, len(self.options)):
            budget = profile[c] if c < self.gaps else 0
            at = self.step_keys[c]
            new_states = {}
            for state, weight in states.items():
                step = steps.get((at, state, budget))
                if step is None:
                    step = steps[(at, state, budget)] = \
                        self._step(c, state, budget, ctx, keys)
                for key, fac in zip(*step):
                    acc = mul(weight, fac)
                    old = new_states.get(key)
                    new_states[key] = acc if old is None else add(old, acc)
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

    def _step(self, c, state, budget, ctx, keys):
        """What `state` feeds into block c at this budget: parallel tuples
        (new-state keys, raw factors), the keys interned in `keys`.

        Per option and landing pattern, in that order, the factor is the
        option's coefficient times the pattern's kernel coefficients and
        f-weight factor; a pattern whose kernel coefficient vanishes gives
        none.  Over Q(s) (ctx.mode generic) the factors of one key are summed
        and normalized once, and a sum that cancelled is dropped; in the
        hbar limits every factor stays an entry of its own."""
        _, mul, add, norm, _ = ctx.raw
        caches = ctx.caches
        entries = []
        patterns = {}
        for coeff, slots in self.options[c]:
            has_slots = bool(slots)
            if has_slots not in patterns:
                patterns[has_slots] = self._landing_patterns(
                    state, c, budget, has_slots, ctx)
            for factors, rest, free in patterns[has_slots]:
                acc = coeff
                for sslots, fac in factors:
                    if sslots is not None:
                        # a landing: fac is its unit count, and the
                        # entry's raw kernel list is read in place unless
                        # it must be built or grown
                        entry = caches.get(("K", sslots, slots))
                        kc = entry.raw if entry is not None else ()
                        if len(kc) <= fac:
                            kc = kernel_coeffs(ctx, sslots, slots, fac)
                        fac = kc[fac]
                        if not fac:
                            break
                    acc = mul(acc, fac)
                else:
                    key = rest if not free else tuple(sorted(
                        rest + ((slots, free),)))
                    entries.append((key, acc))
        if ctx.mode == "generic":
            merged = {}
            for key, acc in entries:
                old = merged.get(key)
                merged[key] = acc if old is None else add(old, acc)
            entries = []
            for key, acc in merged.items():
                acc = norm(acc)
                if acc is not None:
                    entries.append((key, acc))
        return (tuple(keys.setdefault(key, key) for key, _ in entries),
                tuple(fac for _, fac in entries))

    def _landing_patterns(self, state, c, budget, has_slots, ctx):
        """The ways the open flows of `state` continue through block c, in
        the order the transfer sum visits them: every open flow lands 0..x of
        its x units on the block (the first flow outermost), the units left
        open plus the block's own units fill the budget, and on the dressed
        gap the weight takes some of the block's own units.  A block without
        slots takes no landing and opens no flow of its own.

        Returns a list of (factors, rest, free): `factors` lists (source
        slots, ell) per landing, whose kernel coefficient depends on the
        option's slots, then (None, raw coefficient) of the weight if it
        takes units.  `rest` is the sorted tuple of flows still open, and
        `free` the own units of the block left, which open the flow (slots,
        free) when nonzero.
        """
        units = sum(x for _, x in state)
        ranges = [range(x + 1) if has_slots else (0,) for _, x in state]
        out = []
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
                out.append((lands + wfactors, rest, left))
        return out

    def _weight_splits(self, c, free, has_slots, ctx):
        """The ways block c keeps its `free` own units: (factors, units
        left).  Off the dressed gap all of them are left; on it the weight
        takes yw of them with the factor (None, raw f_yw) (none for yw = 0),
        without the splits whose coefficient vanishes.  A block without
        slots keeps no unit of its own."""
        if self.dress is None or c != self.dress[0]:
            return (([], free),) if has_slots or not free else ()
        _, i, j = self.dress
        fc = f_coeffs(ctx, i, j, free)
        lift = ctx.raw[0]
        return [([(None, lift(fc[yw]))] if yw else [], free - yw)
                for yw in range(free + 1)
                if (has_slots or yw == free) and (not yw or fc[yw])]


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
        return LaurentWindow.constant(varnames, ctx.zero, ctx.zero, ctx.raw)
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


def _sandwich(ctx, hw, bra, middle, ket, dress=None):
    """The engine on the bra's current blocks, the middle blocks and the
    ket's; dress (i, j) weights the gap behind the first middle block."""
    blocks = [current_block(ctx, hw, r) for r, _ in bra] + middle + \
        [current_block(ctx, hw, r) for r, _ in ket]
    return mode_engine(ctx, blocks,
                       None if dress is None else (len(bra), *dress))


def two_current_mode_table(ctx: ScalarCtx, hw: HighestWeight, bra,
                           first, second, ket, dress, nm_list):
    """Modes (n, m) of f^{dress}(x) W^{r1}(s^{a1} z_first) W^{r2}(s^{a2} z_sec)
    between the given bra/ket mode monomials; x is the ratio of the two
    current points. Returns {(n, m): scalar}; missing keys are exact zeros."""
    r1, a1 = first
    r2, a2 = second
    eng = _sandwich(ctx, hw, bra, [current_block(ctx, hw, r1, a1),
                                   current_block(ctx, hw, r2, a2)], ket, dress)
    out = {}
    for n, m in nm_list:
        prof = mode_profile(bra, (-n, -m), ket)
        out[(n, m)] = eng.value(prof, ctx) if prof is not None else ctx.zero
    return out


def pinned_mode_value(ctx: ScalarCtx, hw: HighestWeight, bra, pin, ket,
                      total_mode: int):
    """Matrix element of the z-mode `total_mode` of a pinned dressed pair
    between bra/ket monomials; pin is the pinning (rank1, shift1, rank2,
    shift2, dress, clear_sexp) of pinned_block.

    The per-option gamma closed form is used when every option is regular at
    the pinning; when an individual option is singular there (the regularity
    of the full product is a statement about the sum), the evaluation falls
    back to exact resummation of the unpinned mode series against the known
    denominator."""
    try:
        blk = pinned_block(ctx, hw, *pin)
    except PoleError:
        return pinned_mode_value_resummed(ctx, hw, bra, pin, ket, total_mode)
    return _middle_mode_value(ctx, hw, bra, blk, ket, total_mode)


def _middle_mode_value(ctx, hw, bra, blk, ket, total_mode):
    """z-mode `total_mode` of the one block blk between bra and ket; the zero
    current, the block of no options, gives zero without an engine."""
    prof = mode_profile(bra, (-total_mode,), ket)
    if prof is None or not blk.options:
        return ctx.zero
    return _sandwich(ctx, hw, bra, [blk], ket).value(prof, ctx)


def _times_factor(raw, poly, mc, exponent):
    """poly * (1 + mc x)^exponent on the raw kernel `raw` (mc is the raw -c
    of a factor 1 - c x), each new coefficient normalized once; a zero is
    None or a falsy scalar."""
    _, mul, add, norm, _ = raw
    for _ in range(exponent):
        out = [poly[0]]
        for k in range(1, len(poly) + 1):
            v = poly[k] if k < len(poly) else None
            p = poly[k - 1]
            if p:
                t = mul(mc, p)
                v = t if v is None else add(v, t)
            out.append(v if v is None else norm(v))
        poly = out
    return poly


def pinned_mode_value_resummed(ctx: ScalarCtx, hw: HighestWeight, bra, pin,
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

    The polynomials, the E recurrence, the convolution and the division run
    on the raw kernel ctx.raw, with K read raw from kernel_coeffs; each new
    coefficient is normalized once, a zero is None or a falsy scalar, and
    the numerator is dropped back to a scalar once, before the division by
    the surviving denominator factors.
    """
    clearing = pin[5] is not None  # clear_sexp: a fusion limit
    braSum = sum(h for _, h in bra)
    ketSum = sum(k for _, k in ket)
    ext_deg = braSum + ketSum
    raw = ctx.raw
    lift, mul, add, norm, drop = raw
    minus = lift(-1)
    options = list(_pin_options(ctx, hw, pin))
    denom = {}
    for _, _, gf, _ in options:
        for fkey, mult in gf.factors.items():
            if mult < 0:
                denom[fkey] = max(denom.get(fkey, 0), -mult)
    mbase = {}  # per factor key the raw -c of its factor 1 - c x

    def times(poly, fkey, exponent):
        if fkey not in mbase:
            mbase[fkey] = lift(-GammaFactors.base(ctx, fkey))
        return _times_factor(raw, poly, mbase[fkey], exponent)

    P = [None]
    for s1, s2, gf, zm in options:
        # the option's rational function times D: a polynomial
        numpoly = [lift(zm)]
        for fkey, mult in sorted(gf.factors.items()):
            extra = mult + denom.get(fkey, 0)
            if extra < 0:
                raise PoleError("denominator union miscounted")
            numpoly = times(numpoly, fkey, extra)
        for fkey, mult in sorted(denom.items()):
            if fkey not in gf.factors:
                numpoly = times(numpoly, fkey, mult)
        # external contraction polynomial: E[g] = V[g] - sum_l K[l] E[g-l]
        eng = _sandwich(ctx, hw, bra, [Block([(ctx.one, s1)], ("fix", s1)),
                                       Block([(ctx.one, s2)], ("fix", s2))],
                        ket)
        K = kernel_coeffs(ctx, s1, s2, ext_deg)
        negK = [mul(minus, k) if k else None for k in K[:ext_deg + 1]]
        E = []
        for g in range(ext_deg + 1):
            n1 = g - braSum
            prof = mode_profile(bra, (-n1, -(total_mode - n1)), ket)
            e = lift(eng.value(prof, ctx)) if prof is not None else None
            for ell in range(1, g + 1):
                k, eg = negK[ell], E[g - ell]
                if k is not None and eg:
                    t = mul(k, eg)
                    e = t if e is None else add(e, t)
            E.append(e if e is None else norm(e))
        # P += numpoly * E
        P += [None] * (len(numpoly) + len(E) - 1 - len(P))
        for a, pa in enumerate(numpoly):
            if not pa:
                continue
            for b, eb in enumerate(E):
                if eb:
                    t = mul(pa, eb)
                    old = P[a + b]
                    P[a + b] = t if old is None else add(old, t)
        P = [v if v is None else norm(v) for v in P]
    while len(P) > 1 and not P[-1]:
        P.pop()
    # divide out factors vanishing at the pinning (x = 1 in this convention)
    bases = []
    for fkey, mult in sorted(denom.items()):
        bases.extend([GammaFactors.base(ctx, fkey)] * mult)
    vanishing = [c for c in bases if not (1 - c)]
    m = len(vanishing)
    to_clear = m - 1 if clearing else m
    if clearing and m == 0:
        return ctx.zero
    for c in vanishing[:to_clear]:
        if len(P) == 1:
            if not P[0]:
                continue
            raise PoleError("pinned matrix element is genuinely singular")
        # synthetic division by 1 - c x: Q[k] = P[k] + c Q[k-1], and the
        # remainder P[-1] + c Q[-1] must vanish
        lc = lift(c)
        Q = [P[0]]
        for v in P[1:]:
            q = Q[-1]
            if q:
                t = mul(lc, q)
                v = t if v is None else add(v, t)
            Q.append(v if v is None else norm(v))
        if Q.pop():
            raise PoleError("pinned matrix element is genuinely singular "
                            "at the pinning")
        P = Q
    num = lift(ctx.zero)
    for pk in P:
        if pk:
            num = pk if num is None else add(num, pk)
    den = ctx.one
    for c in bases:
        if 1 - c:
            den = den * (1 - c)
    return drop(num) / den


def single_current_mode_value(ctx, hw, bra, rank, sshift, ket, total_mode):
    """z-mode `total_mode` of W^rank(s^sshift z) between bra/ket monomials."""
    blk = current_block(ctx, hw, rank, sshift)
    return _middle_mode_value(ctx, hw, bra, blk, ket, total_mode)


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
    return _sandwich(ctx, hw, bra, [], kets).value(prof, ctx)


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
