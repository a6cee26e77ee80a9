"""Composite-coding inner bound, evaluated exactly.

One composite rate variable S_P >= 0 exists per nonempty subset P of the
messages.  For a fixed decoding choice (one decoding set K_j per user j
with D_j <= K_j and K_j disjoint from A_j), the achievable rates are cut
out by two families of linear constraints in bits:

* decompression, per user j:  sum of S_P over P not contained in A_j
  is at most the channel size c;
* decoding, per user j and nonempty J <= K_j:
  sum of rates R_i over i in J is at most
  v_J = sum of S_P over P <= A_j | K_j with P meeting J.

The symmetric rate maximizes a common R over every decoding choice (the
achievable region is the union over choices, and the maximum over a
union is the maximum of the per-choice maxima).  Because the union of
the per-choice polyhedra is generally not convex, time sharing between
choices can beat every single choice; time_shared_symmetric_rate
computes the symmetric rate of the convex hull of the union by exact
column generation.  All arithmetic is exact rational via the integer
simplex in lp.py; symmetric rates are reported normalized per channel
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np

from .instance import IndexCodingInstance, NotMultipleUnicast, require_valid_instance
from .lp import OPTIMAL, Constraint, LinearProgram, _int_array, _simplex, _Tableau
from .lp import solve_lp  # noqa: F401  unused; perfbench/tracing.py wraps icl.composite.solve_lp
from .outer import acyclic_symmetric_bound

# Composite variables grow as 2^N; past this many messages neither the
# LP columns nor the choice enumeration are tractable.
_MAX_MESSAGES = 16

# Most decoding choices any search enumerates or sweeps.
_MAX_CHOICES = 1 << 24

# Most new points the hull's pool takes per pricing sweep.  More did not
# cut sweeps further: 200 per round gave the same counts.
_POINTS_PER_ROUND = 64

# Objective of the symmetric LP: maximize its one summed rate column.
_ONE = _int_array([1])

RationalLike = Fraction | int


class SearchSpaceOverflow(Exception):
    """The decoding-choice product or variable count exceeds the limit."""


class InvalidDecodingSet(ValueError):
    """A decoding set violates D <= K <= messages minus A."""


@dataclass(frozen=True)
class DecodingChoice:
    """One decoding set per user, aligned with the instance's user order."""

    sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class CompositeResult:
    symmetric_rate: Fraction            # per channel bit
    best_choice: DecodingChoice
    allocation: dict[frozenset[int], Fraction]   # S_P in bits, zeros omitted
    channel_bits: int


@dataclass(frozen=True)
class WeightedResult:
    value: Fraction                     # optimal weighted sum, in bits
    best_choice: DecodingChoice
    rates: dict[int, Fraction]          # R_i in bits
    allocation: dict[frozenset[int], Fraction]


def _mask(messages) -> int:
    m = 0
    for i in messages:
        m |= 1 << (i - 1)
    return m


def _members(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _subsets_of(mask: int) -> Iterator[int]:
    """All submasks of mask, nonempty, in no particular order."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _require_valid(inst: IndexCodingInstance) -> None:
    require_valid_instance(inst)
    if inst.num_messages > _MAX_MESSAGES:
        raise SearchSpaceOverflow(
            f"{inst.num_messages} messages: composite enumeration needs 2^N variables"
        )


def decoding_options(inst: IndexCodingInstance, user: int, per_user_cap: int | None = None) -> list[frozenset[int]]:
    """All decoding sets for one user (0-based index), lexicographically.

    A decoding set is D_j plus any subset of the messages outside
    A_j | D_j; per_user_cap bounds how many extra messages are added.
    Raises ValueError when per_user_cap is negative.
    """
    if per_user_cap is not None and per_user_cap < 0:
        raise ValueError(f"per_user_cap must be >= 0, got {per_user_cap}")
    spec = inst.users[user]
    free = sorted(set(inst.message_ids()) - spec.demands - spec.knows)
    cap = len(free) if per_user_cap is None else min(per_user_cap, len(free))
    options = []
    for r in range(cap + 1):
        for extra in combinations(free, r):
            options.append(frozenset(spec.demands | set(extra)))
    options.sort(key=lambda s: tuple(sorted(s)))
    return options


def _option_indices(counts: Sequence[int], idx: int) -> list[int]:
    """Per-user option indices of choice idx, in enumerate_decoding_choices
    order: mixed radix with the last user's option varying fastest."""
    opt = [0] * len(counts)
    for j in range(len(counts) - 1, -1, -1):
        idx, opt[j] = divmod(idx, counts[j])
    return opt


def _counted_options(
    inst: IndexCodingInstance, per_user_cap: int | None, max_choices: int
) -> tuple[list[list[frozenset[int]]], int]:
    """Every user's decoding options and the number of choices they make;
    SearchSpaceOverflow past max_choices.  Validates inst first."""
    _require_valid(inst)
    per_user = [decoding_options(inst, j, per_user_cap) for j in range(inst.num_users)]
    total = math.prod(len(opts) for opts in per_user)
    if total > max_choices:
        raise SearchSpaceOverflow(f"{total} decoding choices exceed the limit {max_choices}")
    return per_user, total


def enumerate_decoding_choices(
    inst: IndexCodingInstance,
    per_user_cap: int | None = None,
    max_choices: int = _MAX_CHOICES,
) -> Iterator[DecodingChoice]:
    """Yield every decoding choice, user-major, options in lex order.

    Raises SearchSpaceOverflow before yielding anything if the product
    of per-user option counts exceeds max_choices.
    """
    per_user, _ = _counted_options(inst, per_user_cap, max_choices)

    def gen() -> Iterator[DecodingChoice]:
        from itertools import product

        for sets in product(*per_user):
            yield DecodingChoice(tuple(sets))

    return gen()


def check_decoding_set(inst: IndexCodingInstance, user: int, K: frozenset[int]) -> None:
    """Raise InvalidDecodingSet unless D <= K <= messages minus A for user (1-based).

    Raises ValueError for a user outside 1..num_users.
    """
    if not 1 <= user <= inst.num_users:
        raise ValueError(f"user {user} is outside 1..{inst.num_users}")
    spec = inst.users[user - 1]
    if not spec.demands <= K <= set(inst.message_ids()) - spec.knows:
        raise InvalidDecodingSet(f"user {user}: decoding set must satisfy D <= K <= messages minus A")


def _check_choice(inst: IndexCodingInstance, choice: DecodingChoice) -> None:
    if len(choice.sets) != inst.num_users:
        raise ValueError("choice must name one decoding set per user")
    for j, K in enumerate(choice.sets, start=1):
        check_decoding_set(inst, j, K)


def _var_name(subset: tuple[int, ...]) -> str:
    return "S[" + ",".join(str(i) for i in subset) + "]"


def build_composite_lp(
    inst: IndexCodingInstance,
    choice: DecodingChoice,
    weights: Mapping[int, RationalLike] | None = None,
) -> LinearProgram:
    """The exact rate LP for one decoding choice.

    Without weights the symmetric program is built: a single variable R
    maximized subject to the decompression and decoding constraints.
    With weights, per-message variables R_i are used and the objective
    is the weighted sum of the rates.
    """
    _require_valid(inst)
    _check_choice(inst, choice)
    n = inst.num_messages
    c = inst.channel_bits
    subsets = [_members(m) for m in range(1, 1 << n)]
    svars = [_var_name(s) for s in subsets]
    if weights is None:
        rate_vars = ("R",)
        rate_of = {i: "R" for i in inst.message_ids()}
        objective: dict[str, RationalLike] = {"R": 1}
    else:
        stray = set(weights) - set(inst.message_ids())
        if stray:
            raise ValueError(f"weights name unknown messages {sorted(stray)}")
        rate_vars = tuple(f"R_{i}" for i in inst.message_ids())
        rate_of = {i: f"R_{i}" for i in inst.message_ids()}
        objective = {f"R_{i}": Fraction(w) for i, w in weights.items()}

    cons: list[Constraint] = []
    for spec in inst.users:
        amask = _mask(spec.knows)
        coeffs = {
            svars[p - 1]: 1 for p in range(1, 1 << n) if p & ~amask
        }
        cons.append(Constraint(coeffs, "<=", c))
    for spec, K in zip(inst.users, choice.sets):
        akmask = _mask(spec.knows) | _mask(K)
        for jmask in _subsets_of(_mask(K)):
            coeffs: dict[str, RationalLike] = {}
            for p in _subsets_of(akmask):
                if p & jmask:
                    coeffs[svars[p - 1]] = -1
            for i in _members(jmask):
                name = rate_of[i]
                coeffs[name] = coeffs.get(name, 0) + 1
            cons.append(Constraint(coeffs, "<=", 0))
    return LinearProgram(rate_vars + tuple(svars), objective, tuple(cons))


def check_rate_point(
    inst: IndexCodingInstance,
    choice: DecodingChoice,
    rates: Sequence[Fraction],
    allocation: Mapping[frozenset[int], Fraction],
) -> bool:
    """Exact feasibility check of a per-message rate vector for one choice.

    rates[i-1] is the rate of message i in bits; allocation values are
    in bits.  Verifies nonnegativity, every decompression constraint,
    and every decoding constraint of the choice.
    """
    _check_choice(inst, choice)
    if len(rates) != inst.num_messages:
        raise ValueError("one rate per message expected")
    if any(r < 0 for r in rates) or any(v < 0 for v in allocation.values()):
        return False
    for spec, K in zip(inst.users, choice.sets):
        load = sum((v for P, v in allocation.items() if not P <= spec.knows), Fraction(0))
        if load > inst.channel_bits:
            return False
        ak = spec.knows | K
        for r in range(1, len(K) + 1):
            for J in combinations(sorted(K), r):
                jset = set(J)
                v_J = sum(
                    (v for P, v in allocation.items() if P <= ak and P & jset),
                    Fraction(0),
                )
                if sum(rates[i - 1] for i in J) > v_J:
                    return False
    return True


def check_certificate(
    inst: IndexCodingInstance,
    choice: DecodingChoice,
    symmetric_rate: Fraction,
    allocation: Mapping[frozenset[int], Fraction],
) -> bool:
    """Exact feasibility check of (symmetric rate, allocation) for one choice.

    symmetric_rate is per channel bit; allocation values are in bits.
    """
    R = symmetric_rate * inst.channel_bits
    if R < 0:
        return False
    return check_rate_point(inst, choice, [R] * inst.num_messages, allocation)


@dataclass(frozen=True)
class _PriceData:
    """Per-instance precomputation for the exact sweep over every choice.

    Columns are [R_1..R_n | S_1..S_{2^n-1}]; the S column for mask p
    sits at index n + p (index n itself is unused).  Each block lists
    its decoding rows by descending J mask, the order in which the
    pricing and symmetric LPs take the fewest pivots.

    relax, built for the symmetric search only, holds for each depth d
    the relaxation rows of users d.. and the S masks they hit.  User
    j's relaxation rows are the rows J <= D_j with v_J taken over A_j
    and the union of j's options: every option K has D_j <= K, and v_J
    only grows with K because S >= 0, so these rows hold whichever
    option j takes.
    """

    n: int
    c: int
    cvec: np.ndarray                    # [c] as lp._int_array stores it
    decomp: np.ndarray
    options: list[list[frozenset[int]]]
    total: int                          # number of decoding choices
    blocks: list[list[np.ndarray]]      # blocks[j][o]: decoding rows for option o
    used: list[list[int]]               # used[j][o]: bitmask of S masks hit
    relax: list[tuple[np.ndarray, int]] | None = None


def _decoding_block(n: int, akmask: int, jmasks: Sequence[int]) -> tuple[np.ndarray, int]:
    """Rows sum_{i in J} R_i - v_J <= 0 for each J mask, v_J over the
    S_P with P <= akmask meeting J; and the bitmask of S masks hit."""
    block = np.zeros((len(jmasks), n + (1 << n)), dtype=np.int64)
    used = 0
    for i, jmask in enumerate(jmasks):
        for b in _members(jmask):
            block[i, b - 1] = 1
        for p in _subsets_of(akmask):
            if p & jmask:
                block[i, n + p] = -1
                used |= 1 << p
    return block, used


def _prepare_price(inst: IndexCodingInstance, per_user_cap: int | None, relax: bool = False) -> _PriceData:
    """Count inst's choices before building any row, so an oversized
    search raises SearchSpaceOverflow at once."""
    options, total = _counted_options(inst, per_user_cap, _MAX_CHOICES)
    n = inst.num_messages
    width = n + (1 << n)
    decomp_rows = []
    seen_amask = set()
    for spec in inst.users:
        amask = _mask(spec.knows)
        if amask in seen_amask:
            continue
        seen_amask.add(amask)
        row = np.zeros(width, dtype=np.int64)
        for p in range(1, 1 << n):
            if p & ~amask:
                row[n + p] = 1
        decomp_rows.append(row)
    blocks: list[list[np.ndarray]] = []
    used: list[list[int]] = []
    for j, spec in enumerate(inst.users):
        amask = _mask(spec.knows)
        pairs = [
            _decoding_block(n, amask | _mask(K), sorted(_subsets_of(_mask(K)), reverse=True))
            for K in options[j]
        ]
        blocks.append([b for b, _ in pairs])
        used.append([u for _, u in pairs])
    tails = None
    if relax:
        tails = [(np.zeros((0, width), dtype=np.int64), 0)]
        for j in range(inst.num_users - 1, -1, -1):
            spec = inst.users[j]
            umask = _mask(frozenset().union(*options[j]))
            block, bits = _decoding_block(
                n, _mask(spec.knows) | umask, sorted(_subsets_of(_mask(spec.demands)), reverse=True)
            )
            rows, tailbits = tails[-1]
            tails.append((np.concatenate((block, rows), axis=0), bits | tailbits))
        tails.reverse()
    c = inst.channel_bits
    decomp = np.array(decomp_rows, dtype=np.int64)
    return _PriceData(n, c, _int_array([c]), decomp, options, total, blocks, used, tails)


def _solve(
    data: _PriceData, blocks: Sequence[np.ndarray], usedbits: int, wvec: np.ndarray | None
) -> tuple[_Tableau, int, list[int]]:
    """Solve the LP over the decompression rows and then `blocks`.

    Its columns are the rate columns and the S columns whose masks are
    set in usedbits; an S column no row of blocks hits only loads the
    decompression rows, so leaving it out changes no optimum.  The
    objective weights the rate columns by wvec; wvec None sums the n
    rate columns into one column R and maximizes R.  Returns the optimal
    tableau, its right-hand-side column and the LP's columns in the
    [R_1..R_n | S] numbering, rate columns first.
    """
    n = data.n
    k = 1 if wvec is None else n
    bits = np.frombuffer(usedbits.to_bytes((usedbits.bit_length() + 7) // 8, "little"), np.uint8)
    scols = np.flatnonzero(np.unpackbits(bits, bitorder="little")) + n
    cols = list(range(k)) + scols.tolist()
    A = np.concatenate([data.decomp, *blocks], axis=0)
    if wvec is None:
        A = np.concatenate((A[:, :n].sum(axis=1, keepdims=True), A[:, scols]), axis=1)
        wvec = _ONE
    else:
        A = A[:, cols]
    obj = np.zeros(len(cols), dtype=wvec.dtype)
    obj[:k] = wvec
    rhs = np.zeros(A.shape[0], dtype=data.cvec.dtype)
    rhs[: data.decomp.shape[0]] = data.cvec
    status, tab, width = _simplex(A, rhs, obj)
    if status != OPTIMAL:
        raise AssertionError("composite LP is feasible and bounded by construction")
    return tab, width, cols


def _choice_lp(
    data: _PriceData, idx: int, wvec: np.ndarray | None
) -> tuple[_Tableau, int, list[int]]:
    """_solve on choice idx: every user's option block, in user order."""
    opt = _option_indices([len(o) for o in data.options], idx)
    usedbits = 0
    for j, o in enumerate(opt):
        usedbits |= data.used[j][o]
    return _solve(data, [data.blocks[j][o] for j, o in enumerate(opt)], usedbits, wvec)


def _allocation(tab: _Tableau, width: int, cols: list[int], n: int) -> dict[int, Fraction]:
    """Nonzero S values by mask, in basis-row order; cols as _solve's."""
    alloc: dict[int, Fraction] = {}
    for r in range(tab.nrows):
        jcol = tab.basis[r]
        if jcol < len(cols) and cols[jcol] > n:
            v = Fraction(int(tab.t[r, width]), int(tab.t[r, jcol]))
            if v:
                alloc[cols[jcol] - n] = v
    return alloc


def _price_range(
    data: _PriceData,
    wnum: np.ndarray | None,
    wden: int,
    start: int,
    stop: int,
    keep: int,
) -> list[tuple[Fraction, int, tuple[Fraction, ...], dict[int, Fraction]]]:
    """Scan choice indices [start, stop) maximizing the weighted rate sum.

    The weight of message i is wnum[i-1]/wden.  wnum None maximizes the
    symmetric rate instead: the n rate columns are summed into one
    column R, the value is R and the rate vector (R,)*n.  Returns up to
    `keep` entries (value in bits, choice index, rate vector in bits,
    S values by mask), best value first, duplicate rate vectors dropped.
    """
    n = data.n
    k = 1 if wnum is None else n        # rate columns of the solved LP
    ws = [1] if wnum is None else [int(w) for w in wnum]
    cands: list[tuple[Fraction, int, tuple[Fraction, ...], dict[int, Fraction]]] = []
    # The reduced (numerator, denominator) pairs of every point ever
    # kept; every denominator is positive, so equal pairs are equal
    # points.  One dropped from a full cands cannot come back: its value
    # is fixed and the cut below only rises.
    seen: set[tuple[tuple[int, int], ...]] = set()
    for idx in range(start, stop):
        tab, width, cols = _choice_lp(data, idx, wnum)
        t = tab.t
        rhs = t[: tab.nrows, width].tolist()
        nums = [0] * k
        dens = [1] * k
        for r, jcol in enumerate(tab.basis):
            if jcol < k:
                nums[jcol] = rhs[r]
                dens[jcol] = int(t[r, jcol])
        # The value is num / (wden * den), over the product of the rate
        # denominators; the cut compares it by cross-multiplication.
        den = math.prod(dens)
        num = sum(w * x * (den // d) for w, x, d in zip(ws, nums, dens))
        if len(cands) == keep:
            cut = cands[-1][0]
            if num * cut.denominator <= cut.numerator * wden * den:
                continue
        key = tuple((x // (g := math.gcd(x, d)), d // g) for x, d in zip(nums, dens))
        if key in seen:
            continue
        seen.add(key)
        value = Fraction(num, wden * den)
        if wnum is None:
            point = (value,) * n
        else:
            point = tuple(map(Fraction, nums, dens))
        cands.append((value, idx, point, _allocation(tab, width, cols, n)))
        cands.sort(key=lambda e: (-e[0], e[1]))
        del cands[keep:]
    return cands


def _node_bound(data: _PriceData, prefix: Sequence[int]) -> Fraction:
    """Upper bound, in bits, on the symmetric LP value of every choice
    whose first len(prefix) users take the options in prefix.

    The LP keeps the decompression rows and the fixed users' blocks and
    puts each unfixed user's relaxation rows in place of its block.
    """
    d = len(prefix)
    tail, usedbits = data.relax[d]
    for j, o in enumerate(prefix):
        usedbits |= data.used[j][o]
    blocks = [data.blocks[j][o] for j, o in enumerate(prefix)] + [tail]
    tab, width, _ = _solve(data, blocks, usedbits, None)
    return tab.value_of(0, width)


def _search_range(
    data: _PriceData, start: int, stop: int, ceiling: Fraction | None = None
) -> list[tuple[Fraction, int, tuple[Fraction, ...], dict[int, Fraction]]]:
    """_price_range(data, None, 1, start, stop, 1) by branch and bound.

    Depth-first over users in enumeration order; a node fixes the
    options of a prefix of users and holds the choices of [start, stop)
    that extend it.  A node is pruned when its _node_bound is <= the
    best leaf so far, which keeps the first maximizer.  No bound is
    solved before a first leaf, nor for a node with one child in range
    (its child's bound is at least as tight); a node holding one choice
    is that leaf.  A leaf runs exactly the flat scan's LP, so value,
    choice and allocation are the flat scan's.

    ceiling, in bits, is a value no choice can exceed.  The search ends
    at the first leaf that reaches it: every subtree pruned before had a
    bound at most an earlier best, below the ceiling, so that leaf is
    the first maximizer.  A leaf above the ceiling raises AssertionError.
    """
    counts = [len(o) for o in data.options]
    spans = [math.prod(counts[d:]) for d in range(len(counts) + 1)]
    best = None
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())] if start < stop else []
    while stack:
        base, prefix = stack.pop()
        d = len(prefix)
        lo = max(base, start)
        if min(base + spans[d], stop) - lo == 1:
            tab, width, cols = _choice_lp(data, lo, None)
            value = tab.value_of(0, width)
            if best is None or value > best[0]:
                best = (value, lo, (value,) * data.n, _allocation(tab, width, cols, data.n))
            if ceiling is not None and value >= ceiling:
                if value > ceiling:
                    raise AssertionError(f"choice {lo} beats the outer bound {ceiling} bits")
                break
            continue
        span = spans[d + 1]
        kids = [
            (child, prefix + (o,))
            for o in range(counts[d])
            if (child := base + o * span) < stop and child + span > start
        ]
        if len(kids) > 1 and best is not None and _node_bound(data, prefix) <= best[0]:
            continue
        stack.extend(reversed(kids))
    return [best] if best is not None else []


def _scaled_weights(weights: Sequence[RationalLike]) -> tuple[np.ndarray, int]:
    """Clear denominators: (integer numerators, common denominator).

    The numerators take the simplex's dtype rule (lp._int_array), so
    large ones run the pricing LPs on object tableaus.
    """
    fracs = [Fraction(w) for w in weights]
    wden = math.lcm(*(w.denominator for w in fracs))
    return _int_array([int(w * wden) for w in fracs]), wden


def _merge_candidates(
    lists: Sequence[list],
    keep: int,
) -> list[tuple[Fraction, int, tuple[Fraction, ...], dict[int, Fraction]]]:
    merged = sorted((c for lst in lists for c in lst), key=lambda e: (-e[0], e[1]))
    out: list = []
    seen: set[tuple[Fraction, ...]] = set()
    for cand in merged:
        if cand[2] in seen:
            continue
        seen.add(cand[2])
        out.append(cand)
        if len(out) == keep:
            break
    return out


def _sweep(
    data: _PriceData,
    wnum: np.ndarray | None,
    wden: int,
    keep: int,
    threads: int,
    ceiling: Fraction | None = None,
) -> list[tuple[Fraction, int, tuple[Fraction, ...], dict[int, Fraction]]]:
    """The best `keep` of all data.total choices, split across forked workers.

    Weighted sweeps run _price_range; the symmetric one (wnum None,
    keep 1) runs _search_range with `ceiling`, and each worker prunes
    with its own best leaf and stops at its own first leaf that reaches
    the ceiling.  Where the platform cannot fork, the sweep runs serially;
    the merged candidates equal the serial ones either way.  threads < 1
    raises ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if wnum is None:
        scan, head = partial(_search_range, ceiling=ceiling), (data,)
    else:
        scan, head = partial(_price_range, keep=keep), (data, wnum, wden)
    total = data.total
    if threads > 1 and total > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            nchunks = min(threads, total)
            bounds = [total * i // nchunks for i in range(nchunks + 1)]
            args = [(*head, bounds[i], bounds[i + 1]) for i in range(nchunks)]
            with multiprocessing.get_context("fork").Pool(nchunks) as workers:
                return _merge_candidates(workers.starmap(scan, args), keep)
    return scan(*head, 0, total)


def _certificate(
    data: _PriceData, idx: int, alloc: Mapping[int, Fraction]
) -> tuple[DecodingChoice, dict[frozenset[int], Fraction]]:
    """Choice idx, and S values keyed by message set instead of mask."""
    opt = _option_indices([len(o) for o in data.options], idx)
    choice = DecodingChoice(tuple(options[o] for options, o in zip(data.options, opt)))
    return choice, {frozenset(_members(p)): v for p, v in alloc.items()}


def _acyclic_ceiling(inst: IndexCodingInstance, c: int) -> tuple[Fraction | None, frozenset[int]]:
    """The acyclic outer bound c/s in bits and its re-checked witness of
    size s; (None, empty set) on an instance that is not multiple-unicast."""
    try:
        bound = acyclic_symmetric_bound(inst)
    except NotMultipleUnicast:
        return None, frozenset()
    return bound.symmetric_upper * c, bound.witness


def max_symmetric_rate(
    inst: IndexCodingInstance,
    per_user_cap: int | None = None,
    threads: int = 1,
) -> CompositeResult:
    """Best symmetric composite rate over every decoding choice.

    Exact rational arithmetic throughout; the result carries the
    maximizing choice (first in enumeration order on ties) and its
    composite-rate allocation, and is re-checked against the constraint
    system before being returned.  The rate is normalized per channel
    bit.  The choices are searched by branch and bound over users
    (_search_range), which returns what the exhaustive sweep would.
    On a multiple-unicast instance the search ends at the first leaf
    that meets the acyclic outer bound c/s bits (s the size of the
    acyclic set acyclic_symmetric_bound re-checks), since no choice can
    beat it; that leaf is still the first maximizer.  Other instances
    have no such bound and are searched to the end.  threads < 1 raises
    ValueError.
    """
    data = _prepare_price(inst, per_user_cap, relax=True)
    ceiling, _ = _acyclic_ceiling(inst, data.c)
    [(best, idx, _, alloc)] = _sweep(data, None, 1, 1, threads, ceiling)
    choice, allocation = _certificate(data, idx, alloc)
    rate = best / data.c
    if not check_certificate(inst, choice, rate, allocation):
        raise AssertionError("optimal allocation failed the certificate re-check")
    return CompositeResult(rate, choice, allocation, data.c)


@dataclass(frozen=True)
class HullPoint:
    """One achievable rate vector (in bits) with its certificate."""

    rates: tuple[Fraction, ...]
    choice: DecodingChoice
    allocation: dict[frozenset[int], Fraction]


@dataclass(frozen=True)
class HullResult:
    """Symmetric rate of the convex hull of the per-choice regions.

    symmetric_rate is certified by the mixture (time sharing weights
    over achievable points, from the last master LP's duals); upper_bound
    is certified by the separating message weights.  The two coincide exactly when converged is True.
    rounds is the number of pricing sweeps run: column generation stops
    as soon as the pool value reaches the least sweep maximum, so the
    sweep that proves the bound is often not the last round's.  rounds
    is 0 when one decoding choice already meets the acyclic outer bound;
    the mixture is then that one point, and the weights are uniform on
    the acyclic witness and 0 elsewhere.  Rates are per channel bit;
    HullPoint rates are in bits.
    """

    symmetric_rate: Fraction
    upper_bound: Fraction
    converged: bool
    mixture: tuple[tuple[Fraction, HullPoint], ...]
    weights: tuple[Fraction, ...]
    channel_bits: int
    rounds: int


def _hull_master(
    points: Sequence[tuple[Fraction, ...]], n: int
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Master LP of the point pool; returns (tau, w, mixture).

    Solves min tau s.t. tau >= w . v for every pool point v, w in the
    simplex (re-checked): row 0 is sum w = 1, row 1 + s is -tau + w . v_s
    <= 0 scaled by the lcm of v_s's denominators.  tau is the best
    symmetric value of a mixture of the pool, and w the pool's best
    separating weights.  The mixture is the master's dual: the prices of
    the point rows, normalized to sum to one, which by complementary
    slackness reach tau while tau > 0.  Every price is zero only when
    tau = 0; then the first pool point alone is returned.
    """
    scales = [math.lcm(*(x.denominator for x in v)) for v in points]
    rows = [[0] + [1] * n] + [[-s] + [int(x * s) for x in v] for v, s in zip(points, scales)]
    eq = np.zeros(len(rows), dtype=bool)
    eq[0] = True
    status, tab, width = _simplex(
        _int_array(rows), _int_array([1] + [0] * len(points)), _int_array([-1] + [0] * n), eq
    )
    if status != OPTIMAL:
        raise AssertionError("weight-finding LP is feasible and bounded by construction")
    tau = tab.value_of(0, width)
    weights = tuple(tab.value_of(1 + i, width) for i in range(n))
    if min(weights) < 0 or sum(weights) != 1:
        raise AssertionError("master weights must lie in the simplex")
    prices = [p * s for p, s in zip(tab.prices(), scales)]
    total = sum(prices)
    if not total:
        prices, total = [1] + [0] * (len(points) - 1), 1
    return tau, weights, tuple(Fraction(p, total) for p in prices)


def time_shared_symmetric_rate(
    inst: IndexCodingInstance,
    per_user_cap: int | None = None,
    threads: int = 1,
    max_rounds: int = 64,
    trace=None,
) -> HullResult:
    """Symmetric rate of the convex hull of all per-choice rate regions.

    Time sharing between decoding choices (and composite allocations) is
    admissible because any two achievable schemes can be interleaved
    over consecutive channel uses; the resulting region is the convex
    hull of the union of the per-choice polyhedra, which can strictly
    exceed every single choice's symmetric rate.

    Exact column generation: a pool of achievable rate points grows one
    pricing sweep at a time.  Each round sweeps every decoding choice
    maximizing the weighted rate sum under the current message weights
    (uniform in round 1), adds up to _POINTS_PER_ROUND of the best new
    points to the pool, and then solves one exact master LP for the pool
    value tau and separating weights, which the next round prices; the
    mixture that reaches tau comes from the master's duals.  Every sweep
    maximum bounds the hull's value from above; upper is the least of
    them.  The run stops, converged, at the end of the first round with
    tau >= upper.  The last master's tau and mixture and the weights of
    the sweep that set upper are independently re-checkable, exact
    certificates of both bounds.  rounds counts the pricing sweeps run,
    at most max_rounds; max_rounds < 1 or threads < 1 raises ValueError.

    Before any pricing sweep, an instance that is multiple-unicast with
    every message demanded runs max_symmetric_rate's search with its
    ceiling, the acyclic outer bound c/s bits over the re-checked
    witness S of size s.  Every achievable point, and so every mixture,
    has sum_{i in S} R_i <= c, so the hull cannot exceed c/s.  When one
    choice reaches it, the hull returns at once with rounds 0, that one
    point as the mixture and weights 1/s on S, 0 elsewhere, which price
    no point above c/s.  Otherwise column generation runs from round 1
    as if the search had not run.

    trace, when given, is called after every pricing sweep with
    (round, pool value before the sweep, sweep maximum), all in bits.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    data = _prepare_price(inst, per_user_cap, relax=True)
    n = data.n
    c = data.c
    pool: list[HullPoint] = []
    pool_keys: set[tuple[Fraction, ...]] = set()
    tau = Fraction(-1)
    weights = upper_weights = tuple(Fraction(1, n) for _ in range(n))
    upper = Fraction(c)
    converged = False
    rounds = 0

    ceiling, witness = _acyclic_ceiling(inst, c)
    demanded = set().union(*(spec.demands for spec in inst.users))
    if ceiling is not None and len(demanded) == n:
        [(best, idx, rates, alloc)] = _sweep(data, None, 1, 1, threads, ceiling)
        if best == ceiling:
            # No mixture beats the acyclic bound, and this point meets it.
            pool.append(HullPoint(rates, *_certificate(data, idx, alloc)))
            tau = upper = best
            upper_weights = tuple(Fraction(int(i in witness), len(witness)) for i in inst.message_ids())
            mixture_weights = (Fraction(1),)
            converged = True

    if not converged:
        for rounds in range(1, max_rounds + 1):
            cands = _sweep(data, *_scaled_weights(weights), _POINTS_PER_ROUND, threads)
            best_value = cands[0][0]
            if best_value <= upper:
                # Report the weights that certify the bound, not the last ones.
                upper, upper_weights = best_value, weights
            if trace is not None:
                trace(rounds, tau, best_value)
            if best_value > tau:
                added = False
                for value, idx, rates, alloc in cands:
                    if value > tau and rates not in pool_keys:
                        pool.append(HullPoint(rates, *_certificate(data, idx, alloc)))
                        pool_keys.add(rates)
                        added = True
                if not added:
                    raise AssertionError("an improving point must be new to the pool")
                # Round 1 always gets here: every sweep maximum is >= 0 > tau.
                tau, weights, mixture_weights = _hull_master([p.rates for p in pool], n)
            if tau >= upper:
                # The weights of the sweep that set upper already prove tau optimal.
                converged = True
                break

    mixture = tuple((mu, pt) for mu, pt in zip(mixture_weights, pool) if mu)

    # Exact re-check of the achievability certificate.
    if sum((mu for mu, _ in mixture), Fraction(0)) != 1:
        raise AssertionError("mixture weights must sum to one")
    for mu, pt in mixture:
        if mu < 0 or not check_rate_point(inst, pt.choice, pt.rates, pt.allocation):
            raise AssertionError("mixture point failed the certificate re-check")
    for i in range(n):
        if sum((mu * pt.rates[i] for mu, pt in mixture), Fraction(0)) < tau:
            raise AssertionError("mixture does not cover the reported symmetric value")

    return HullResult(
        symmetric_rate=tau / c,
        upper_bound=upper / c,
        converged=converged,
        mixture=mixture,
        weights=upper_weights,
        channel_bits=c,
        rounds=rounds,
    )


def max_weighted_rate(
    inst: IndexCodingInstance,
    weights: Mapping[int, RationalLike],
    per_user_cap: int | None = None,
    threads: int = 1,
) -> WeightedResult:
    """Best weighted rate sum over every decoding choice.

    The per-choice regions are polyhedra whose union is generally not
    convex; a linear functional still attains its supremum over the
    union at one of the per-choice optima, so one exact pricing sweep
    over every choice finds it.  The first maximizing choice in
    enumeration order is returned, and its rates and allocation are
    re-checked against that choice's polyhedron before returning.
    A message missing from weights has weight 0.  Values are in bits.

    Raises ValueError when threads < 1, when weights name unknown
    messages, or give a positive weight to a message no user demands:
    with every K_j = D_j nothing bounds that message's rate, so the
    supremum is infinite.
    """
    data = _prepare_price(inst, per_user_cap)
    stray = set(weights) - set(inst.message_ids())
    if stray:
        raise ValueError(f"weights name unknown messages {sorted(stray)}")
    w = [Fraction(weights.get(i, 0)) for i in inst.message_ids()]
    demanded = set().union(*(spec.demands for spec in inst.users))
    unbounded = [i for i in inst.message_ids() if w[i - 1] > 0 and i not in demanded]
    if unbounded:
        raise ValueError(
            f"weighted rate sum is unbounded: messages {unbounded} have positive "
            "weight but no user demands them"
        )

    [(value, idx, point, alloc)] = _sweep(data, *_scaled_weights(w), 1, threads)
    choice, allocation = _certificate(data, idx, alloc)
    if not check_rate_point(inst, choice, point, allocation):
        raise AssertionError("optimal allocation failed the certificate re-check")
    rates = {i: point[i - 1] for i in inst.message_ids()}
    return WeightedResult(value, choice, rates, allocation)
