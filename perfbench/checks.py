"""Correctness checks written apart from the program.

Each check returns a list of problems, empty when the output is right.
The composite-coding inequalities are written here from their
definition, in Fractions, and the caching loads from math.comb and the
placement's subfile sizes; none of them calls the program's own
checkers or closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from inputs import CacheItem, IcItem


def _nonempty_subsets(s: frozenset[int]):
    items = sorted(s)
    for r in range(1, len(items) + 1):
        for sub in combinations(items, r):
            yield frozenset(sub)


def point_in_polyhedron(
    inst,
    sets: Sequence[frozenset[int]],
    rates: Sequence[Fraction],
    allocation: Mapping[frozenset[int], Fraction],
) -> bool:
    """Is (rates, allocation), both in bits, inside the choice's polyhedron?

    For user j with side information A and decoding set K:
      decompression  sum of S_P over P not inside A  <=  c;
      decoding       for every nonempty J inside K,
                     sum of R_i over J  <=  sum of S_P over P inside A|K meeting J.
    """
    full = frozenset(range(1, inst.num_messages + 1))
    if len(sets) != inst.num_users or len(rates) != inst.num_messages:
        return False
    if any(r < 0 for r in rates) or any(v < 0 for v in allocation.values()):
        return False
    if any(not P or not P <= full for P in allocation):
        return False
    for user, K in zip(inst.users, sets):
        if not user.demands <= K <= full - user.knows:
            return False
        if sum(v for P, v in allocation.items() if not P <= user.knows) > inst.channel_bits:
            return False
        visible = user.knows | K
        for J in _nonempty_subsets(K):
            capacity = sum(v for P, v in allocation.items() if P <= visible and P & J)
            if sum(rates[i - 1] for i in J) > capacity:
                return False
    return True


def _rate_bounds(item: IcItem, rate: Fraction) -> list[str]:
    problems = []
    if rate < Fraction(1, item.inst.num_messages):
        problems.append(f"rate {rate} below time division 1/{item.inst.num_messages}")
    if item.mais_upper is not None and rate > item.mais_upper:
        problems.append(f"rate {rate} above the acyclic bound {item.mais_upper}")
    return problems


def check_hull(item: IcItem, res) -> list[str]:
    c = item.inst.channel_bits
    problems = _rate_bounds(item, res.symmetric_rate)
    if not res.converged or res.symmetric_rate != res.upper_bound:
        problems.append(f"not converged: rate {res.symmetric_rate}, bound {res.upper_bound}")
    if item.known_hull is not None and res.symmetric_rate != item.known_hull:
        problems.append(f"hull {res.symmetric_rate} != known {item.known_hull}")
    mus = [mu for mu, _ in res.mixture]
    if any(mu < 0 for mu in mus) or sum(mus) != 1:
        problems.append("mixture weights are not a distribution")
    for mu, pt in res.mixture:
        if not point_in_polyhedron(item.inst, pt.choice.sets, pt.rates, pt.allocation):
            problems.append(f"mixture point {pt.rates} is outside its polyhedron")
    target = res.symmetric_rate * c
    for i in range(item.inst.num_messages):
        if sum(mu * pt.rates[i] for mu, pt in res.mixture) < target:
            problems.append(f"mixture gives message {i + 1} less than {target}")
    return problems


def check_pure(item: IcItem, res) -> list[str]:
    problems = _rate_bounds(item, res.symmetric_rate)
    if item.known_pure is not None and res.symmetric_rate != item.known_pure:
        problems.append(f"pure {res.symmetric_rate} != known {item.known_pure}")
    R = res.symmetric_rate * item.inst.channel_bits
    if not point_in_polyhedron(
        item.inst, res.best_choice.sets, [R] * item.inst.num_messages, res.allocation
    ):
        problems.append(f"allocation does not achieve rate {res.symmetric_rate}")
    return problems


def check_weighted(item: IcItem, res) -> list[str]:
    problems = []
    c = item.inst.channel_bits
    w = item.weights
    rates = [res.rates[i] for i in range(1, item.inst.num_messages + 1)]
    if res.value != sum(w[i] * rates[i - 1] for i in w):
        problems.append(f"value {res.value} is not the weighted sum of its rates")
    if not point_in_polyhedron(item.inst, res.best_choice.sets, rates, res.allocation):
        problems.append("optimal rates are outside their polyhedron")
    low, high = c * max(w.values()), c * sum(w.values())
    if not low <= res.value <= high:
        problems.append(f"value {res.value} outside [{low}, {high}]")
    known = {"max": low, "sum": high}.get(item.weighted_known)
    if known is not None and res.value != known:
        problems.append(f"value {res.value} != known {known}")
    return problems


def check_groups(items: Sequence[IcItem], values: Mapping[str, Fraction]) -> list[str]:
    """Items of one group must reach equal values per channel bit."""
    seen: dict[str, tuple[str, Fraction]] = {}
    problems = []
    for item in items:
        if item.group is None or item.name not in values:
            continue
        v = values[item.name]
        first = seen.setdefault(item.group, (item.name, v))
        if first[1] != v:
            problems.append(f"{item.name} gives {v}, {first[0]} gives {first[1]}")
    return problems


def leaders(d: Sequence[int]) -> frozenset[int]:
    first: dict[int, int] = {}
    for k, f in enumerate(d, start=1):
        first.setdefault(f, k)
    return frozenset(first.values())


def centralized_load(K: int, t: int, demand: Sequence[int], mode: str) -> Fraction:
    """C(K,t+1)/C(K,t) for full delivery; reduced drops the subsets that
    miss every leader, C(K-|d|,t+1) of them, |d| the distinct demands."""
    sent = comb(K, t + 1)
    if mode == "reduced":
        sent -= comb(K - len(set(demand)), t + 1)
    return Fraction(sent, comb(K, t))


def decentralized_bits(lengths: Mapping[tuple[int, frozenset[int]], int], demand, K: int) -> int:
    """Bits of the redundancy-removed decentralized delivery: one XOR per
    user subset S meeting the leaders, as long as its longest member
    subfile F_{d_s, S minus s}."""
    lead = leaders(demand)
    total = 0
    for size in range(1, K + 1):
        for S in combinations(range(1, K + 1), size):
            if lead.isdisjoint(S):
                continue
            total += max(lengths.get((demand[s - 1], frozenset(S) - {s}), 0) for s in S)
    return total


def check_cache(item: CacheItem, transcript, decoded, subfile_lengths, verification) -> list[str]:
    problems = []
    for k, f in enumerate(item.demand, start=1):
        if decoded[k - 1] != item.files[f - 1]:
            problems.append(f"user {k} decoded file {f} wrongly")
    if item.centralized:
        want = centralized_load(item.K, item.t, item.demand, item.mode)
    else:
        want = Fraction(decentralized_bits(subfile_lengths, item.demand, item.K), item.B)
    for f in range(1, item.N + 1):
        if sum(n for (i, _), n in subfile_lengths.items() if i == f) != item.B:
            problems.append(f"subfiles of file {f} do not cover its {item.B} bits")
    if Fraction(transcript.total_bits, item.B) != want or transcript.load != want:
        problems.append(f"load {transcript.load} ({transcript.total_bits} bits) != {want}")
    if verification is not None:
        reduced = centralized_load(item.K, item.t, item.demand, "reduced")
        if not verification.passed or verification.load != reduced:
            problems.append(f"certified delivery: passed {verification.passed}, "
                            f"load {verification.load} != {reduced}")
    return problems
