"""The fixed input lists of the benchmark, made from a seed.

The make-up of each list is fixed: the instances, their decoding-choice
caps, and the caching scenarios never change.  The run seed varies the
data inside that make-up, so that runs with different seeds do the same
amount of work:

* index coding: the random instances are drawn once from the constant
  LIST_SEED; the run seed shuffles their user order (and with it the
  order in which decoding choices are enumerated) and draws the message
  weights of ic-weighted.  Message labels stay those of LIST_SEED:
  relabelling messages changes the number of pricing rounds of one
  instance from 2 to 8, which would make the work depend on the seed;
* caching: the run seed draws the library bits, the demand vectors (with
  a fixed number of distinct demanded files) and the decentralized
  placement seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from icl.composite import decoding_options
from icl.instance import IndexCodingInstance, UserSpec, builtin_instance
from icl.outer import acyclic_symmetric_bound

LIST_SEED = 20170223


@dataclass(frozen=True)
class IcItem:
    """One index-coding input, with what the checks know about it."""

    name: str
    inst: IndexCodingInstance
    cap: int | None
    choices: int
    weights: dict[int, Fraction]
    mais_upper: Fraction | None           # 1/MAIS, multiple unicast only
    known_hull: Fraction | None = None
    known_pure: Fraction | None = None
    weighted_known: str | None = None     # "max": c*max w, "sum": c*sum w
    group: str | None = None              # same group: equal rate per channel bit


@dataclass(frozen=True)
class CacheItem:
    """One caching scenario: placement, delivery, decode, maybe certify."""

    name: str
    K: int
    N: int
    B: int
    demand: tuple[int, ...]
    files: tuple[int, ...]
    t: int | None = None                  # centralized placement parameter
    M: Fraction | None = None             # decentralized cache size
    mode: str = "reduced"
    certify: bool = False
    placement_seed: int = 0

    @property
    def centralized(self) -> bool:
        return self.t is not None


def num_choices(inst: IndexCodingInstance, cap: int | None) -> int:
    return prod(len(decoding_options(inst, j, cap)) for j in range(inst.num_users))


def _instance(n: int, specs) -> IndexCodingInstance:
    return IndexCodingInstance(n, tuple(UserSpec.of(d, a) for d, a in specs))


def _random_base(rng: random.Random, n: int, users: int, p: float, cap, lo: int, hi: int):
    """A random instance with lo..hi decoding choices at cap.

    Users 1..n demand messages 1..n; extra users demand a random message
    again.  Each user knows each other message with probability p.
    """
    while True:
        demands = list(range(1, n + 1)) + [rng.randint(1, n) for _ in range(users - n)]
        specs = []
        for d in demands:
            knows = [i for i in range(1, n + 1) if i != d and rng.random() < p]
            specs.append(({d}, knows))
        inst = _instance(n, specs)
        if lo <= num_choices(inst, cap) <= hi:
            return inst


def _relabel(inst: IndexCodingInstance, rng: random.Random):
    """Permute message ids; returns (instance, old -> new id map)."""
    new_ids = list(range(1, inst.num_messages + 1))
    rng.shuffle(new_ids)
    to_new = dict(zip(range(1, inst.num_messages + 1), new_ids))
    users = tuple(
        UserSpec(frozenset(to_new[i] for i in u.demands), frozenset(to_new[i] for i in u.knows))
        for u in inst.users
    )
    return IndexCodingInstance(inst.num_messages, users, inst.channel_bits), to_new


def _shuffle_users(inst: IndexCodingInstance, rng: random.Random, c: int = 1):
    users = list(inst.users)
    rng.shuffle(users)
    return IndexCodingInstance(inst.num_messages, tuple(users), c)


def _mais_upper(inst: IndexCodingInstance) -> Fraction | None:
    demanded = [next(iter(u.demands)) for u in inst.users if len(u.demands) == 1]
    if len(demanded) != inst.num_users or len(set(demanded)) != len(demanded):
        return None
    return acyclic_symmetric_bound(inst).symmetric_upper


def _random_weights(rng: random.Random, n: int) -> dict[int, Fraction]:
    return {i: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for i in range(1, n + 1)}


# Random bases: (name, messages, users, side-information density, cap,
# decoding-choice window).  Two bases have a message demanded twice.
_BASES = (
    ("r4-sparse", 4, 4, 0.30, 2, 150, 300),
    ("r4-half", 4, 4, 0.50, None, 30, 80),
    ("r5-half", 5, 5, 0.50, 1, 120, 250),
    ("r5-dense", 5, 5, 0.70, None, 30, 80),
    ("r6-dense", 6, 6, 0.70, 1, 60, 150),
    ("r6-half", 6, 6, 0.45, 1, 150, 300),
    ("r4-dup", 4, 5, 0.40, 1, 60, 200),
    ("r5-dup", 5, 6, 0.50, 1, 100, 250),
)

# Metamorphic copies: bases again at another channel size, and one base
# with its messages relabelled.
_CHANNEL_COPIES = (("r4-half", 2), ("r5-dense", 3))
_RELABELLED = "r5-half"


def ic_list(seed: int) -> list[IcItem]:
    """The index-coding list shared by ic-hull, ic-pure and ic-weighted."""
    base_rng = random.Random(LIST_SEED)
    bases = {
        name: _random_base(base_rng, n, k, p, cap, lo, hi) for name, n, k, p, cap, lo, hi in _BASES
    }
    caps = {name: cap for name, _, _, _, cap, _, _ in _BASES}
    rng = random.Random(seed)
    items: list[IcItem] = []

    def add(name, inst, cap, **known):
        weights = known.pop("weights", None) or _random_weights(rng, inst.num_messages)
        items.append(
            IcItem(name, inst, cap, num_choices(inst, cap), weights, _mais_upper(inst), **known)
        )

    one = Fraction(1)
    complete4 = _instance(4, [({i}, set(range(1, 5)) - {i}) for i in range(1, 5)])
    cycle4 = _instance(4, [({i}, {i % 4 + 1}) for i in range(1, 5)])
    add("xor2", builtin_instance("xor2"), None, known_hull=one, known_pure=one, weighted_known="sum")
    add(
        "no-side-info(4)", builtin_instance("no-side-info(4)"), 1,
        known_hull=Fraction(1, 4), known_pure=Fraction(1, 4), weighted_known="max",
    )
    add("complete(4)", complete4, None, known_hull=one, known_pure=one, weighted_known="sum")
    add("cycle(4)", cycle4, None, known_hull=Fraction(1, 3), known_pure=Fraction(1, 3))
    add(
        "example1-cap1", builtin_instance("example1"), 1,
        known_hull=Fraction(2, 7), known_pure=Fraction(4, 15),
    )
    # Message 3 is known but demanded by nobody: the hull and weighted
    # LPs are unbounded on it (a fault of the program, kept as a failure).
    add("side-only", _instance(3, [({1}, {3}), ({2}, ())]), None)

    weights = {name: _random_weights(rng, base.num_messages) for name, base in bases.items()}
    for name, base in bases.items():
        add(name, _shuffle_users(base, rng), caps[name], weights=weights[name], group=name)
    for name, c in _CHANNEL_COPIES:
        inst = _shuffle_users(bases[name], rng, c)
        add(f"{name}-c{c}", inst, caps[name], weights=weights[name], group=name)
    inst, to_new = _relabel(bases[_RELABELLED], base_rng)
    moved = {to_new[i]: w for i, w in weights[_RELABELLED].items()}
    add(f"{_RELABELLED}-relabelled", _shuffle_users(inst, rng), caps[_RELABELLED],
        weights=moved, group=_RELABELLED)
    return items


# Caching scenarios: (K, N, t or M, bits per subfile or per file, mode,
# distinct demanded files, certify).  Centralized B is the subfile count
# times the given chunk; decentralized B is given directly.
_CENTRAL = (
    (3, 3, 1, 400, "full", 3, True),
    (4, 2, 1, 300, "reduced", 2, True),
    (4, 4, 2, 200, "reduced", 3, True),
    (5, 5, 2, 200, "full", 5, True),
    (5, 3, 1, 400, "reduced", 3, True),
    (5, 2, 2, 200, "reduced", 2, True),
    (6, 4, 1, 200, "reduced", 4, True),
    (6, 6, 4, 100, "full", 6, True),
    (6, 2, 2, 100, "reduced", 2, True),
    (7, 7, 2, 64, "reduced", 7, False),
    (8, 8, 2, 50, "reduced", 8, False),
    (8, 4, 3, 40, "reduced", 4, False),
    (8, 8, 4, 20, "full", 6, False),
    (10, 10, 3, 10, "reduced", 10, False),
)
_DECENTRAL = (
    (3, 3, Fraction(3, 2), 20000, 3),
    (4, 4, Fraction(1), 20000, 4),
    (4, 2, Fraction(1, 2), 10000, 2),
    (5, 5, Fraction(5, 2), 10000, 5),
    (6, 3, Fraction(1), 20000, 3),
    (6, 6, Fraction(3), 20000, 6),
    (7, 7, Fraction(7, 2), 3000, 7),
    (8, 8, Fraction(4), 2000, 8),
)


def _demand(rng: random.Random, K: int, N: int, distinct: int) -> tuple[int, ...]:
    """K demands over exactly `distinct` of the N files, in random order."""
    files = rng.sample(range(1, N + 1), distinct)
    d = files + [rng.choice(files) for _ in range(K - distinct)]
    rng.shuffle(d)
    return tuple(d)


def cache_list(seed: int) -> list[CacheItem]:
    """The caching scenarios of cache-sim."""
    rng = random.Random(seed)
    items: list[CacheItem] = []
    for K, N, t, chunk, mode, distinct, certify in _CENTRAL:
        B = comb(K, t) * chunk
        files = tuple(rng.getrandbits(B) for _ in range(N))
        items.append(
            CacheItem(
                f"central-K{K}-N{N}-t{t}-{mode}", K, N, B, _demand(rng, K, N, distinct), files,
                t=t, mode=mode, certify=certify,
            )
        )
    for K, N, M, B, distinct in _DECENTRAL:
        files = tuple(rng.getrandbits(B) for _ in range(N))
        items.append(
            CacheItem(
                f"decentral-K{K}-N{N}-M{M}", K, N, B, _demand(rng, K, N, distinct), files,
                M=M, placement_seed=rng.getrandbits(32),
            )
        )
    return items
