"""Acyclic-subset outer bound on the side-information digraph.

Any acyclic induced subgraph of size s forces s sequential recoveries
out of one channel use, so the symmetric rate is at most c/s bits, i.e.
1/s per channel bit for the largest such s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .instance import IndexCodingInstance, SideInfoGraph, build_side_info_graph, require_valid_instance


class TooManyVertices(Exception):
    """The exact subset search is limited to small graphs."""


@dataclass(frozen=True)
class AcyclicBoundResult:
    mais_size: int
    witness: frozenset[int]
    symmetric_upper: Fraction        # per channel bit


def _peel(succ: list[int], sub: int) -> tuple[int, list[int]]:
    """Remove sinks of the induced subgraph until no sink is left.

    Returns what is left, 0 exactly when sub is acyclic, and the order
    in which the other vertices were removed.
    """
    live, prev, order = sub, 0, []
    while live != prev:
        prev = v_bits = live
        while v_bits:
            low = v_bits & -v_bits
            v_bits ^= low
            v = low.bit_length() - 1
            if succ[v] & live == 0:
                live ^= low
                order.append(v)
    return live, order


def _cycle_in(succ: list[int], stuck: int) -> int:
    """Bitmask of a cycle inside a remainder that _peel could not remove.

    Every vertex there has a successor there, so the walk along lowest
    successors revisits a vertex, and its second lap is the cycle.
    """
    seen = cycle = 0
    v = (stuck & -stuck).bit_length() - 1
    while not cycle >> v & 1:
        if seen >> v & 1:
            cycle |= 1 << v
        seen |= 1 << v
        nxt = succ[v] & stuck
        v = (nxt & -nxt).bit_length() - 1
    return cycle


def _check_order(succ: list[int], sub: int, order: list[int]) -> None:
    """Each vertex's successors in sub come earlier in order, which lists sub once."""
    done = 0
    for v in order:
        if done >> v & 1 or succ[v] & sub & ~done:
            raise AssertionError(f"peeling order {order} does not certify the witness")
        done |= 1 << v
    if done != sub:
        raise AssertionError(f"peeling order {order} does not list the witness")


def mais(graph: SideInfoGraph, max_vertices: int = 22) -> AcyclicBoundResult:
    """Largest acyclic induced vertex subset, exactly.

    Subsets are scanned largest-first by peeling sinks, skipping
    supersets of the cycles found in the subsets that fail to peel; the
    winning subset's peeling order is re-checked before it is returned,
    and it is the lexicographically smallest witness of its size.
    Raises TooManyVertices beyond max_vertices vertices.
    """
    verts = list(graph.vertices)
    n = len(verts)
    if n > max_vertices:
        raise TooManyVertices(f"{n} vertices exceed the limit {max_vertices}")
    if n == 0:
        raise ValueError("graph has no vertices")
    index = {v: i for i, v in enumerate(verts)}
    succ = [0] * n
    for (i, j) in graph.edges:
        succ[index[i]] |= 1 << index[j]

    cores: list[int] = []
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            sub = 0
            for i in combo:
                sub |= 1 << i
            if any(core & sub == core for core in cores):
                continue
            stuck, order = _peel(succ, sub)
            if not stuck:
                _check_order(succ, sub, order)
                witness = frozenset(verts[i] for i in combo)
                return AcyclicBoundResult(size, witness, Fraction(1, size))
            if len(cores) < 128:
                cycle = _cycle_in(succ, stuck)
                if cycle not in cores:
                    cores.append(cycle)
    raise AssertionError("a single vertex is always acyclic")


def acyclic_symmetric_bound(inst: IndexCodingInstance, max_vertices: int = 22) -> AcyclicBoundResult:
    """The outer bound for a valid multiple-unicast instance."""
    require_valid_instance(inst)
    return mais(build_side_info_graph(inst), max_vertices)
