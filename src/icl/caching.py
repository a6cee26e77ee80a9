"""Bit-exact coded caching: placement, delivery, decoding, loads.

A server holds N files of B bits each; K users each cache up to M files
worth of bits, placed without knowing the demands.  Placement is
uncoded, so the cache state is described by subfiles F_{i,W}: the bits
of file i held exactly by the users in W.  After demands d_1..d_K are
revealed, the server broadcasts XOR payloads; each user recovers its
demanded file from the payloads plus its cache by solving a GF(2)
linear system over subfile symbols.  Everything is bit-exact: payloads
are computed by integer XOR, loads are exact fractions of B, and the
closed-form load formulas are evaluated in rational arithmetic.

Subfile bit values are packed integers, bit j of the value being the
file bit at the j-th position of the subfile's position array (both
little-endian).  The delivery phase for a fixed placement and demand
vector is itself an index coding problem; reduce_to_index_coding
materializes it, reduced_delivery builds it for centralized placement,
and synthesize_delivery_scheme turns the reduced payload set into a
certified GF(2) linear index code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .composite import DecodingChoice
from .gf2 import Gf2Matrix, rref
from .instance import IndexCodingInstance, UserSpec
from .schemes import LinearScheme, check_scheme, zero_error_decode_check


class Indivisible(Exception):
    """The file size does not split into the required equal subfiles."""


class DomainError(Exception):
    """An argument is outside the formula's or operation's domain."""


class EmptyDemand(Exception):
    """Every user fully caches its own demand; no delivery problem remains."""


class DecodeFailure(Exception):
    """A user's linear system does not determine its demanded file."""

    def __init__(self, user: int, detail: str = ""):
        self.user = user
        suffix = f": {detail}" if detail else ""
        super().__init__(f"user {user} cannot decode its demanded file{suffix}")


SubfileKey = tuple[int, frozenset[int]]   # (file id, cached-by user set)


def _pack_bits(bits: np.ndarray) -> int:
    """Little-endian: bit j of the result is bits[j]."""
    raw = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(raw.tobytes(), "little")


def _unpack_bits(value: int, length: int) -> np.ndarray:
    raw = value.to_bytes((length + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=length)


@dataclass(frozen=True)
class FileLibrary:
    """N files of exactly file_bits bits each, as packed integers."""

    files: tuple[int, ...]
    file_bits: int

    def __post_init__(self) -> None:
        if self.file_bits < 1 or not self.files:
            raise ValueError("need at least one file of at least one bit")
        if any(not 0 <= f < 1 << self.file_bits for f in self.files):
            raise ValueError("file value exceeds the declared bit length")

    @property
    def num_files(self) -> int:
        return len(self.files)


def random_library(num_files: int, file_bits: int, seed: int) -> FileLibrary:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_files, file_bits), dtype=np.uint8)
    return FileLibrary(tuple(_pack_bits(row) for row in bits), file_bits)


@dataclass(frozen=True, eq=False)
class SubfileMap:
    """Partition of every file's bit positions by exact cached-by set.

    positions[(i, W)] lists file i's bit positions held exactly by the
    users in W; values[(i, W)] packs those bits.  Subfiles with no bits
    do not appear.  placement_t is the centralized parameter (None for
    decentralized placement).
    """

    num_users: int
    num_files: int
    file_bits: int
    positions: dict[SubfileKey, np.ndarray]
    values: dict[SubfileKey, int]
    placement_t: int | None = None

    def length(self, key: SubfileKey) -> int:
        pos = self.positions.get(key)
        return 0 if pos is None else len(pos)


@dataclass(frozen=True, eq=False)
class CacheState:
    """Per-user cache contents plus the public subfile layout.

    contents[k-1] maps each subfile key with k in W to its bit value;
    layout is position metadata only (no uncached values), so decoding
    from a CacheState can never peek at bits the user does not hold.
    """

    num_users: int
    cache_files: Fraction
    layout: dict[SubfileKey, np.ndarray]
    contents: tuple[dict[SubfileKey, int], ...]


@dataclass(frozen=True)
class Payload:
    """One broadcast XOR: bits over the users in S, zero-padded to nbits."""

    users: frozenset[int]
    bits: int
    nbits: int


@dataclass(frozen=True)
class DeliveryTranscript:
    payloads: tuple[Payload, ...]
    file_bits: int
    total_bits: int
    load: Fraction
    mode: str


def _check_demand(d: tuple[int, ...] | list[int], num_users: int, num_files: int) -> None:
    if len(d) != num_users:
        raise ValueError(f"demand vector names {len(d)} users, expected {num_users}")
    if any(not 1 <= di <= num_files for di in d):
        raise ValueError("demanded file id out of range")


def leaders(d: Iterable[int]) -> frozenset[int]:
    """Lowest-indexed user per distinct demanded file."""
    first: dict[int, int] = {}
    for k, di in enumerate(tuple(d), start=1):
        first.setdefault(di, k)
    return frozenset(first.values())


def _with_caches(subfiles: SubfileMap, cache_files: Fraction) -> tuple[CacheState, SubfileMap]:
    """Each user caches every subfile whose cached-by set holds it."""
    K = subfiles.num_users
    contents: tuple[dict[SubfileKey, int], ...] = tuple({} for _ in range(K))
    for key, v in subfiles.values.items():
        for k in key[1]:
            contents[k - 1][key] = v
    return CacheState(K, cache_files, subfiles.positions, contents), subfiles


def cman_place(num_users: int, t: int, library: FileLibrary) -> tuple[CacheState, SubfileMap]:
    """Centralized placement: split each file into binom(K,t) equal
    subfiles indexed by the t-subsets of users, each user caching every
    subfile whose index set contains it.  Cache occupancy is exactly
    t*N/K files per user.
    """
    K = num_users
    if K < 1:
        raise ValueError("need at least one user")
    _require_t(K, t)
    n_sub = comb(K, t)
    B = library.file_bits
    if B % n_sub:
        raise Indivisible(f"binom({K},{t}) = {n_sub} does not divide B = {B}")
    chunk = B // n_sub
    groups = [frozenset(W) for W in combinations(range(1, K + 1), t)]
    positions: dict[SubfileKey, np.ndarray] = {}
    values: dict[SubfileKey, int] = {}
    mask = (1 << chunk) - 1
    for i, packed in enumerate(library.files, start=1):
        for gi, W in enumerate(groups):
            key = (i, W)
            positions[key] = np.arange(gi * chunk, (gi + 1) * chunk)
            values[key] = (packed >> gi * chunk) & mask
    subfiles = SubfileMap(K, library.num_files, B, positions, values, placement_t=t)
    return _with_caches(subfiles, Fraction(t * library.num_files, K))


def dman_place(
    num_users: int,
    cache_files: Fraction | int,
    library: FileLibrary,
    seed: int,
) -> tuple[CacheState, SubfileMap]:
    """Decentralized placement: each user caches each file bit
    independently with probability exactly M/N, drawn from the seeded
    generator (users outer, files inner), then bits are grouped into
    subfiles by their exact cached-by set.  Reproducible given the seed.
    At most 64 users: the cached-by set of a bit is coded in 64 bits, and
    dman_deliver enumerates every subset of the users anyway.
    """
    K = num_users
    N = library.num_files
    B = library.file_bits
    M = Fraction(cache_files)
    if K < 1:
        raise ValueError("need at least one user")
    if K > 64:
        raise DomainError(f"decentralized placement supports at most 64 users, got {K}")
    if not 0 < M < N:
        raise DomainError(f"cache size must satisfy 0 < M < N, got M={M}, N={N}")
    p = M / N
    rng = np.random.default_rng(seed)
    # cached[k-1][i-1] is a boolean row over file i's bit positions.
    cached = [
        [rng.integers(0, p.denominator, size=B) < p.numerator for _ in range(N)]
        for _ in range(K)
    ]
    positions: dict[SubfileKey, np.ndarray] = {}
    values: dict[SubfileKey, int] = {}
    # NumPy's stable argsort radix-sorts codes of at most 16 bits, about ten
    # times faster than it sorts int64 codes.  Past 16 users the code is
    # int64, whose sign bit holds user 64; the order is np.unique's either way.
    dtype = np.uint16 if K <= 16 else np.int64
    for i, packed in enumerate(library.files, start=1):
        code = np.zeros(B, dtype=dtype)
        for k in range(1, K + 1):
            code |= cached[k - 1][i - 1].astype(dtype) << (k - 1)
        # A stable sort groups the positions by code, each group ascending
        # and the groups in increasing code order; the file is packed once
        # in that order, so each subfile is a run of its bits.
        order = np.argsort(code, kind="stable")
        ranked = code[order]
        bounds = [0, *(np.flatnonzero(np.diff(ranked)) + 1).tolist(), B]
        run = _pack_bits(_unpack_bits(packed, B)[order])
        for lo, hi in zip(bounds, bounds[1:]):
            w = int(ranked[lo])
            W = frozenset(k for k in range(1, K + 1) if w >> (k - 1) & 1)
            key = (i, W)
            positions[key] = order[lo:hi]
            values[key] = (run >> lo) & ((1 << (hi - lo)) - 1)
    subfiles = SubfileMap(K, N, B, positions, values)
    return _with_caches(subfiles, M)


def _payload_keys(users: frozenset[int], d: tuple[int, ...]) -> list[SubfileKey]:
    """The subfiles a payload over users XORs: for each s in users, user
    s's demanded file as cached by the others."""
    return [(d[s - 1], users - {s}) for s in sorted(users)]


def _group_payloads(
    subfiles: SubfileMap,
    d: tuple[int, ...],
    t: int,
    lead: frozenset[int] | None,
) -> list[Payload]:
    """XOR payloads for the size-(t+1) user subsets, lexicographically.

    lead=None keeps every subset; otherwise only subsets meeting the
    leader set.  Members missing from the subfile map contribute
    nothing; shorter members are zero-padded to the longest, which for
    integer XOR needs no explicit padding.  Payloads with no bits are
    dropped.
    """
    K = subfiles.num_users
    payloads: list[Payload] = []
    for S in map(frozenset, combinations(range(1, K + 1), t + 1)):
        if lead is not None and lead.isdisjoint(S):
            continue
        bits = 0
        nbits = 0
        for key in _payload_keys(S, d):
            val = subfiles.values.get(key)
            if val is None:
                continue
            bits ^= val
            nbits = max(nbits, len(subfiles.positions[key]))
        if nbits:
            payloads.append(Payload(S, bits, nbits))
    return payloads


def _transcript(payloads: list[Payload], subfiles: SubfileMap, mode: str) -> DeliveryTranscript:
    total = sum(p.nbits for p in payloads)
    return DeliveryTranscript(
        tuple(payloads), subfiles.file_bits, total, Fraction(total, subfiles.file_bits), mode
    )


def deliver(subfiles: SubfileMap, d: Iterable[int], mode: str = "full") -> DeliveryTranscript:
    """Centralized delivery: one XOR payload per (t+1)-subset of users.

    full mode sends all of them; reduced mode keeps only subsets that
    meet the leader set (lowest-indexed user per distinct demanded
    file), which removes exactly the payloads reconstructible from the
    rest.
    """
    if subfiles.placement_t is None:
        raise DomainError("deliver requires centralized placement; see dman_deliver")
    if mode not in ("full", "reduced"):
        raise ValueError(f"mode must be 'full' or 'reduced', got {mode!r}")
    d = tuple(d)
    _check_demand(d, subfiles.num_users, subfiles.num_files)
    lead = leaders(d) if mode == "reduced" else None
    return _transcript(_group_payloads(subfiles, d, subfiles.placement_t, lead), subfiles, mode)


def dman_deliver(subfiles: SubfileMap, d: Iterable[int]) -> DeliveryTranscript:
    """Decentralized delivery: for each t, the subfiles cached by
    exactly t users form a group delivered in reduced mode, zero-padding
    subfiles within each XOR to the longest member.
    """
    if subfiles.placement_t is not None:
        raise DomainError("dman_deliver requires decentralized placement; see deliver")
    d = tuple(d)
    _check_demand(d, subfiles.num_users, subfiles.num_files)
    lead = leaders(d)
    payloads: list[Payload] = []
    for t in range(subfiles.num_users):
        payloads.extend(_group_payloads(subfiles, d, t, lead))
    return _transcript(payloads, subfiles, "decentralized")


def _decode_columns(
    layout: dict[SubfileKey, np.ndarray], payloads: Sequence[Payload], d: tuple[int, ...]
) -> tuple[list[SubfileKey], list[tuple[list[tuple[SubfileKey, int]], int, int]], int]:
    """decode_all_users's user-independent part: one column per payload member.

    Returns the members sorted longest first, each payload's members
    with their column bits, its bits and nbits, and the row width.  Every
    user's unknown symbols are a subset of the members in the same
    relative order, so the columns serve every user.
    """
    members = [[key for key in _payload_keys(pl.users, d) if key in layout] for pl in payloads]
    symbols = sorted(
        {key for keys in members for key in keys},
        key=lambda key: (-len(layout[key]), _subfile_order(key)),
    )
    column = {key: 1 << i for i, key in enumerate(symbols)}
    eqs = [
        ([(key, column[key]) for key in keys], pl.bits, pl.nbits)
        for keys, pl in zip(members, payloads)
    ]
    return symbols, eqs, len(symbols) + max((pl.nbits for pl in payloads), default=0)


def decode_all_users(
    cache: CacheState,
    transcript: DeliveryTranscript,
    d: Iterable[int],
) -> list[int]:
    """Recover every user's demanded file, bit-exactly, or raise.

    Each user turns every payload into a GF(2) equation over its
    unknown (uncached) subfile symbols by XORing out the cached
    members, then solves all of them with one gf2.rref.  A row packs
    the symbol mask in its low bits and the payload's nbits-bit
    right-hand side above them; symbols are ordered longest first.
    Bit position b of the files is the system with every symbol of
    length <= b zero-padded away, i.e. a suffix of the symbol columns
    set to zero, and zeroing a suffix of columns maps the RREF onto the
    RREF of the projection.  So one elimination is exactly the bit-level
    system: it is inconsistent iff some reduced row's pivot lies in the
    right-hand side or its right-hand side has a bit at or above its
    pivot symbol's length, and a symbol is decoded iff its reduced row
    holds no other symbol.  Raises DecodeFailure naming the first user
    whose demanded file is not fully determined.
    """
    d = tuple(d)
    K = cache.num_users
    if len(d) != K:
        raise ValueError(f"demand vector names {len(d)} users, expected {K}")
    layout = cache.layout
    B = transcript.file_bits
    # Per file: its subfiles in layout order and their positions end to end.
    parts: dict[int, list[tuple[SubfileKey, int]]] = {}
    for key, pos in layout.items():
        parts.setdefault(key[0], []).append((key, len(pos)))
    spots = {
        i: np.concatenate([layout[key] for key, _ in parts[i]]) for i in set(d) if i in parts
    }
    if d[0] not in parts:
        raise ValueError(f"user 1 demands unknown file {d[0]}")
    symbols, eqs, width = _decode_columns(layout, transcript.payloads, d)
    n = len(symbols)
    out: list[int] = []
    for k in range(1, K + 1):
        if d[k - 1] not in parts:
            raise ValueError(f"user {k} demands unknown file {d[k - 1]}")
        cached = cache.contents[k - 1]
        # Payload -> equation: mask over unknown symbols, rhs above it.
        rows = []
        for keyed, rhs, nb in eqs:
            mask = 0
            for key, bit in keyed:
                held = cached.get(key)
                if held is None:
                    mask |= bit
                else:
                    rhs ^= held
            rows.append(mask | (rhs & ((1 << nb) - 1)) << n)
        solved: dict[SubfileKey, int] = {}
        for col, row in zip(*rref(rows, width)):
            if col >= n or row >> n >> len(layout[symbols[col]]):
                raise DecodeFailure(k, "inconsistent payload equations")
            if row & ((1 << n) - 1) == 1 << col:
                solved[symbols[col]] = row >> n
        value = 0
        shift = 0
        for key, size in parts[d[k - 1]]:
            if k in key[1]:
                val = cached[key]
            elif key in solved:
                val = solved[key]
            else:
                raise DecodeFailure(k, f"subfile {key[0]},{sorted(key[1])} undetermined")
            value |= val << shift
            shift += size
        fb = np.zeros(B, dtype=np.uint8)
        fb[spots[d[k - 1]]] = _unpack_bits(value, shift)
        out.append(_pack_bits(fb))
    return out


def _require_positive_int(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return value


def _require_t(K: int, t) -> None:
    if not isinstance(t, int) or not 0 <= t <= K:
        raise DomainError(f"t must lie in [0..{K}], got {t!r}")


def reduced_payload_count(K: int, t: int, distinct: int) -> int:
    """Payloads of reduced centralized delivery when `distinct` files are
    demanded: binom(K,t+1) - binom(K-distinct,t+1)."""
    return comb(K, t + 1) - comb(K - distinct, t + 1)


def r_cman(K: int, t: int) -> Fraction:
    """Full-delivery load binom(K,t+1)/binom(K,t)."""
    _require_positive_int("K", K)
    _require_t(K, t)
    return Fraction(comb(K, t + 1), comb(K, t))


def r_c_opt(K: int, N: int, t: int) -> Fraction:
    """Reduced-delivery worst-case load
    (binom(K,t+1) - binom(K-min(N,K),t+1)) / binom(K,t)."""
    _require_positive_int("K", K)
    _require_positive_int("N", N)
    _require_t(K, t)
    return Fraction(reduced_payload_count(K, t, min(N, K)), comb(K, t))


def r_c_opt_envelope(K: int, N: int, M) -> Fraction:
    """Memory sharing: lower convex envelope of the points
    (t*N/K, r_c_opt(K,N,t)) for t in [0..K], interpolated at M."""
    _require_positive_int("K", K)
    _require_positive_int("N", N)
    M = Fraction(M)
    if not 0 <= M <= N:
        raise DomainError(f"cache size must satisfy 0 <= M <= N, got {M}")
    pts = [(Fraction(t * N, K), r_c_opt(K, N, t)) for t in range(K + 1)]
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= M <= x2:
            return y1 + (y2 - y1) * (M - x1) / (x2 - x1)
    return hull[-1][1]


def r_dman(K: int, N: int, M) -> Fraction:
    """Decentralized full-group load (1-f)/f * (1 - (1-f)^K), f = M/N."""
    _require_positive_int("K", K)
    _require_positive_int("N", N)
    M = Fraction(M)
    if not 0 < M <= N:
        raise DomainError(f"cache size must satisfy 0 < M <= N, got {M}")
    f = M / N
    if f == 1:
        return Fraction(0)
    return (1 - f) / f * (1 - (1 - f) ** K)


def r_d_opt(K: int, N: int, M) -> Fraction:
    """Decentralized reduced load (1-f)/f * (1 - (1-f)^min(K,N)): r_dman
    for min(K,N) users."""
    _require_positive_int("K", K)
    _require_positive_int("N", N)
    return r_dman(min(K, N), N, M)


_FORMULAS = {
    "r_cman": (r_cman, ("int", "int")),
    "r_c_opt": (r_c_opt, ("int", "int", "int")),
    "r_c_opt_envelope": (r_c_opt_envelope, ("int", "int", "frac")),
    "r_dman": (r_dman, ("int", "int", "frac")),
    "r_d_opt": (r_d_opt, ("int", "int", "frac")),
}


def formula_loads(query: str) -> Fraction:
    """Evaluate a closed-form load query like "r_cman(4,2)" exactly.

    Supported: r_cman(K,t), r_c_opt(K,N,t), r_c_opt_envelope(K,N,M),
    r_dman(K,N,M), r_d_opt(K,N,M); M may be an integer, a fraction like
    1/2, or a decimal like 0.75.  Raises DomainError on malformed
    queries and out-of-range arguments.
    """
    m = re.fullmatch(r"\s*([a-z_0-9]+)\s*\(([^()]*)\)\s*", query)
    if m is None:
        raise DomainError(f"malformed query {query!r}")
    name, argstr = m.group(1), m.group(2)
    if name not in _FORMULAS:
        raise DomainError(f"unknown formula {name!r}")
    func, kinds = _FORMULAS[name]
    parts = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    if len(parts) != len(kinds):
        raise DomainError(f"{name} takes {len(kinds)} arguments, got {len(parts)}")
    args = []
    for text, kind in zip(parts, kinds):
        try:
            args.append(int(text) if kind == "int" else Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"bad argument {text!r} in {query!r}")
    return func(*args)


@dataclass(frozen=True)
class MessageLabels:
    """Ties reduced-instance ids back to the caching problem.

    by_id maps message id -> (file, W); users[j-1] is the original user
    index behind instance user j; dropped_users lists users removed
    because they fully cache their own demand.
    """

    by_id: dict[int, SubfileKey]
    users: tuple[int, ...]
    dropped_users: tuple[int, ...]


def _subfile_order(key: SubfileKey) -> tuple:
    return (key[0], len(key[1]), tuple(sorted(key[1])))


def reduce_to_index_coding(
    subfiles: SubfileMap,
    d: Iterable[int],
    channel_bits: int = 1,
) -> tuple[IndexCodingInstance, MessageLabels]:
    """The delivery phase as an index coding problem.

    One message per nonempty subfile of a demanded file; user k demands
    the subfiles of file d_k it does not cache and knows every demanded
    file's subfiles it does cache.  Users whose demand set would be
    empty are dropped and reported in the label map; messages no
    remaining user references are dropped as well.  Raises EmptyDemand
    if no user needs anything.
    """
    d = tuple(d)
    _check_demand(d, subfiles.num_users, subfiles.num_files)
    nd = set(d)
    all_keys = sorted((key for key in subfiles.positions if key[0] in nd), key=_subfile_order)
    kept_users: list[int] = []
    dropped: list[int] = []
    raw_specs: list[tuple[set[SubfileKey], set[SubfileKey]]] = []
    for k in range(1, subfiles.num_users + 1):
        demand = {key for key in all_keys if key[0] == d[k - 1] and k not in key[1]}
        knows = {key for key in all_keys if k in key[1]}
        if not demand:
            dropped.append(k)
            continue
        kept_users.append(k)
        raw_specs.append((demand, knows))
    if not raw_specs:
        raise EmptyDemand("every user already caches its demanded file")
    referenced = set()
    for demand, knows in raw_specs:
        referenced |= demand | knows
    keys = [key for key in all_keys if key in referenced]
    ids = {key: mid for mid, key in enumerate(keys, start=1)}
    specs = tuple(
        UserSpec(frozenset(ids[key] for key in demand), frozenset(ids[key] for key in knows))
        for demand, knows in raw_specs
    )
    inst = IndexCodingInstance(len(keys), specs, channel_bits)
    labels = MessageLabels(
        by_id={mid: key for key, mid in ids.items()},
        users=tuple(kept_users),
        dropped_users=tuple(dropped),
    )
    return inst, labels


def _check_delivery(K: int, N: int, t: int, d: Iterable[int], k_bits: int) -> tuple[int, ...]:
    """Validate the arguments of a synthesized delivery; returns d as a tuple."""
    _require_positive_int("K", K)
    _require_positive_int("N", N)
    _require_positive_int("k_bits", k_bits)
    d = tuple(d)
    _check_demand(d, K, N)
    _require_t(K, t)
    return d


def reduced_delivery(
    K: int, N: int, t: int, d: Iterable[int], k_bits: int = 1
) -> tuple[SubfileMap, IndexCodingInstance, MessageLabels]:
    """Reduced centralized delivery for demand d as an index coding instance.

    The layout is centralized placement over N all-zero files, one bit per
    subfile (the reduction reads positions, never file bits).  The channel
    carries k_bits * (binom(K,t+1) - binom(K-|N(d)|,t+1)) bits, the closed
    form.  Raises EmptyDemand at t = K, where every user caches its demand.
    """
    d = _check_delivery(K, N, t, d, k_bits)
    layout = cman_place(K, t, FileLibrary((0,) * N, comb(K, t)))[1]
    c = k_bits * reduced_payload_count(K, t, len(set(d)))
    inst, labels = reduce_to_index_coding(layout, d, channel_bits=c)
    return layout, inst, labels


def synthesize_delivery_scheme(
    K: int,
    N: int,
    t: int,
    d: Iterable[int],
    k_bits: int = 1,
) -> tuple[IndexCodingInstance, LinearScheme, DecodingChoice]:
    """Reduced centralized delivery as a certified linear index code.

    The instance and its closed-form channel size are reduced_delivery's,
    every message carrying k_bits bits.  The scheme has one XOR composite
    per reduced-mode payload, over the messages of that payload's
    subfiles, and the decoding choice is K_j = D_j.  Raises DomainError
    for t = K, where nothing needs delivering.
    """
    d = _check_delivery(K, N, t, d, k_bits)
    if t == K:
        raise DomainError("t = K leaves nothing to deliver; there is no scheme to build")
    layout, inst, labels = reduced_delivery(K, N, t, d, k_bits)
    ids = {key: mid for mid, key in labels.by_id.items()}
    total = inst.num_messages * k_bits
    composites: list[tuple[frozenset[int], Gf2Matrix]] = []
    for pl in _group_payloads(layout, d, t, leaders(d)):
        P = frozenset(ids[key] for key in _payload_keys(pl.users, d))
        rows = tuple(sum(1 << ((i - 1) * k_bits + r) for i in P) for r in range(k_bits))
        composites.append((P, Gf2Matrix(rows, total)))
    scheme = LinearScheme((k_bits,) * inst.num_messages, inst.channel_bits, tuple(composites))
    choice = DecodingChoice(tuple(spec.demands for spec in inst.users))
    return inst, scheme, choice


@dataclass(frozen=True)
class DeliveryVerification:
    """Certification outcome for one synthesized delivery scheme.

    load is channel bits per file (bits / (k_bits * binom(K,t)));
    expected_load is the closed form, set when |N(d)| = min(N,K);
    sum_rate_inverse is 1 / (symmetric rate * subfiles per file), which
    must reproduce the load.  Failures are data, not exceptions.
    """

    passed: bool
    scheme_passed: bool | None
    zero_error_passed: bool | None
    load: Fraction
    expected_load: Fraction | None
    sum_rate_inverse: Fraction | None
    note: str = ""


def _closed_form_load(K: int, N: int, t: int, d: Sequence[int]) -> Fraction | None:
    """r_c_opt(K, N, t) when d demands min(N, K) distinct files, else None."""
    return r_c_opt(K, N, t) if len(set(d)) == min(N, K) else None


def verify_delivery_scheme(K: int, N: int, t: int, d: Iterable[int], k_bits: int = 1) -> DeliveryVerification:
    """Synthesize and fully certify the reduced delivery for (K,N,t,d)."""
    d = _check_delivery(K, N, t, d, k_bits)
    if t == K:
        expected = _closed_form_load(K, N, t, d)
        return DeliveryVerification(
            passed=expected is None or expected == 0,
            scheme_passed=None,
            zero_error_passed=None,
            load=Fraction(0),
            expected_load=expected,
            sum_rate_inverse=None,
            note="empty delivery: every user caches the whole library",
        )
    return _certify_delivery(K, N, t, d, k_bits, synthesize_delivery_scheme(K, N, t, d, k_bits))


def _certify_delivery(
    K: int,
    N: int,
    t: int,
    d: Sequence[int],
    k_bits: int,
    synthesized: tuple[IndexCodingInstance, LinearScheme, DecodingChoice],
) -> DeliveryVerification:
    """Certify synthesize_delivery_scheme(K, N, t, d, k_bits)'s triple, t < K."""
    inst, scheme, choice = synthesized
    expected = _closed_form_load(K, N, t, d)
    verdict = check_scheme(inst, scheme, choice)
    zero = all(zero_error_decode_check(inst, scheme, mode="algebraic"))
    load = Fraction(scheme.channel_bits, k_bits * comb(K, t))
    inverse = Fraction(1) / (verdict.symmetric_rate * comb(K, t)) if load else None
    passed = (
        verdict.passed
        and zero
        and (expected is None or load == expected)
        and inverse == load
    )
    return DeliveryVerification(
        passed=passed,
        scheme_passed=verdict.passed,
        zero_error_passed=zero,
        load=load,
        expected_load=expected,
        sum_rate_inverse=inverse,
    )


def canonical_worst_demand(K: int, N: int) -> tuple[int, ...]:
    """A demand vector with |N(d)| = min(N,K): cycle through the files."""
    m = min(N, K)
    return tuple(i % m + 1 for i in range(K))


def iter_demands(K: int, N: int) -> Iterator[tuple[int, ...]]:
    """All N^K demand vectors, lexicographically."""
    return product(range(1, N + 1), repeat=K)


def transcript_log(transcript: DeliveryTranscript) -> str:
    """One line per payload: S={users} bits=<hex>, hex width from nbits."""
    lines = []
    for p in transcript.payloads:
        users = ",".join(str(u) for u in sorted(p.users))
        width = (p.nbits + 3) // 4
        lines.append("S={%s} bits=%0*x" % (users, width, p.bits))
    return "\n".join(lines)


def load_csv_row(K: int, N: int, t, d: Iterable[int], mode: str, load: Fraction) -> str:
    """CSV row `K,N,t,d,mode,load_num,load_den` with d dash-joined."""
    dstr = "-".join(str(x) for x in d)
    return f"{K},{N},{t},{dstr},{mode},{load.numerator},{load.denominator}"
