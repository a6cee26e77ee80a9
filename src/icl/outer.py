"""Acyclic-subset outer bound on the side-information digraph.

Any acyclic induced subgraph of size s forces s sequential recoveries
out of one channel use, so the symmetric rate is at most c/s bits, i.e.
1/s per channel bit for the largest such s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    Branch and bound over vertices: an acyclic set grows by the lowest
    candidate (a vertex that keeps it acyclic), include first, and a
    branch is pruned when the set and its candidates cannot beat the
    best.  Only a larger set replaces the best, so the witness is the
    lexicographically smallest of its size; its peeling order is
    re-checked before it is returned.  Looped vertices never join it.
    Raises TooManyVertices beyond max_vertices vertices, and ValueError
    for a malformed graph or one whose every vertex has a self-loop.
    """
    verts = list(graph.vertices)
    n = len(verts)
    if n > max_vertices:
        raise TooManyVertices(f"{n} vertices exceed the limit {max_vertices}")
    if n == 0:
        raise ValueError("graph has no vertices")
    index = {v: i for i, v in enumerate(verts)}
    if len(index) < n:
        raise ValueError(f"repeated vertices in {graph.vertices}")
    stray = sorted(e for e in graph.edges if e[0] not in index or e[1] not in index)
    if stray:
        raise ValueError(f"edges with an end that is not a vertex: {stray}")
    succ = [0] * n
    for (i, j) in graph.edges:
        succ[index[i]] |= 1 << index[j]

    best = 0

    def search(kept: int, free: int) -> None:
        nonlocal best
        cands = 0
        for v in range(n):
            if free >> v & 1 and not _peel(succ, kept | 1 << v)[0]:
                cands |= 1 << v
        while kept.bit_count() + cands.bit_count() > best.bit_count():
            if not cands:
                best = kept
                return
            low = cands & -cands
            cands ^= low
            search(kept | low, cands)

    search(0, (1 << n) - 1)
    if not best:
        raise ValueError("every vertex has a self-loop")
    _check_order(succ, best, _peel(succ, best)[1])
    size = best.bit_count()
    witness = frozenset(verts[i] for i in range(n) if best >> i & 1)
    return AcyclicBoundResult(size, witness, Fraction(1, size))


def acyclic_symmetric_bound(inst: IndexCodingInstance, max_vertices: int = 22) -> AcyclicBoundResult:
    """The outer bound for a valid multiple-unicast instance."""
    require_valid_instance(inst)
    return mais(build_side_info_graph(inst), max_vertices)
