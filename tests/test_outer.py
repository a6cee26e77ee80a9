"""Acyclic-subset outer bound on the side-information digraph."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from icl import outer
from icl.cli import main
from icl.instance import (
    IndexCodingInstance,
    SideInfoGraph,
    UserSpec,
    build_side_info_graph,
    builtin_instance,
    parse_instance,
)
from icl.outer import TooManyVertices, acyclic_symmetric_bound, mais


def _nilpotent(adj: np.ndarray) -> bool:
    """A digraph is acyclic exactly when some power of its adjacency matrix is 0."""
    power = np.eye(len(adj), dtype=np.int64)
    for _ in range(len(adj)):
        power = np.minimum(power @ adj, 1)
    return not power.any()


def _brute_mais(vertices, edges) -> tuple[int, frozenset[int]]:
    """Size and witness of the first acyclic subset, in the scan order of mais."""
    index = {v: i for i, v in enumerate(vertices)}
    adj = np.zeros((len(vertices), len(vertices)), dtype=np.int64)
    for i, j in edges:
        adj[index[i], index[j]] = 1
    for size in range(len(vertices), 0, -1):
        for combo in combinations(range(len(vertices)), size):
            if _nilpotent(adj[np.ix_(combo, combo)]):
                return size, frozenset(vertices[i] for i in combo)
    raise AssertionError("a single vertex without a self-loop is acyclic")


def test_example1_bound_is_one_third():
    res = acyclic_symmetric_bound(builtin_instance("example1"))
    assert res.mais_size == 3
    assert res.symmetric_upper == Fraction(1, 3)


def test_example1_witness_is_acyclic():
    res = acyclic_symmetric_bound(builtin_instance("example1"))
    graph = build_side_info_graph(builtin_instance("example1"))
    assert (res.mais_size, res.witness) == _brute_mais(graph.vertices, graph.edges)
    assert res.witness == {1, 2, 3}


def test_mutual_side_info_pair_bound_is_one():
    res = acyclic_symmetric_bound(builtin_instance("xor2"))
    assert res.mais_size == 1
    assert res.symmetric_upper == 1


def test_no_side_info_bound_matches_message_count():
    for k in (1, 2, 3, 4, 5):
        res = acyclic_symmetric_bound(builtin_instance(f"no-side-info({k})"))
        assert res.mais_size == k
        assert res.symmetric_upper == Fraction(1, k)


def test_bound_is_per_channel_bit():
    # The bound is normalized per channel bit, so widening the channel
    # leaves it unchanged (the absolute bit budget scales separately).
    res = acyclic_symmetric_bound(builtin_instance("no-side-info(2)", channel_bits=4))
    assert res.symmetric_upper == Fraction(1, 2)


# Users in a ring, each knowing only the next message: the digraph is a
# single directed cycle, so dropping any one vertex is acyclic.
RING5 = IndexCodingInstance(5, tuple(UserSpec.of({i}, {i % 5 + 1}) for i in range(1, 6)), 1)


def test_directed_cycle_graph():
    res = acyclic_symmetric_bound(RING5)
    assert res.mais_size == 4


def test_reversed_peeling_order_fails_the_recheck(monkeypatch):
    peel = outer._peel

    def reversed_peel(succ, sub):
        stuck, order = peel(succ, sub)
        return stuck, order[::-1]

    monkeypatch.setattr(outer, "_peel", reversed_peel)
    with pytest.raises(AssertionError, match="does not certify the witness"):
        acyclic_symmetric_bound(RING5)


# The path 0 -> 1 -> 2 as successor masks; a sink peels first.
PATH3 = [0b010, 0b100, 0b000]


@pytest.mark.parametrize(
    "order, message",
    [
        ([2, 1], "does not list the witness"),
        ([2, 1, 0, 0], "does not certify the witness"),
        ([2, 0, 1], "does not certify the witness"),
    ],
    ids=["missing", "repeated", "successor-later"],
)
def test_check_order_refuses_bad_orders(order, message):
    outer._check_order(PATH3, 0b111, [2, 1, 0])
    with pytest.raises(AssertionError, match=message):
        outer._check_order(PATH3, 0b111, order)


@st.composite
def _digraphs(draw):
    """A digraph on n <= 9 vertices, without self-loops, at any edge density."""
    n = draw(st.integers(1, 9))
    density = draw(st.floats(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j and rng.random() < density]
    return n, edges


@given(_digraphs(), st.randoms(use_true_random=False))
def test_mais_matches_brute_force(digraph, rng):
    n, edges = digraph
    users = tuple(UserSpec.of({i}, {j for a, j in edges if a == i}) for i in range(1, n + 1))
    res = acyclic_symmetric_bound(IndexCodingInstance(n, users))
    assert (res.mais_size, res.witness) == _brute_mais(range(1, n + 1), edges)
    assert res.symmetric_upper == Fraction(1, res.mais_size)
    # The same digraph on other labels, given as a graph.
    label = dict(zip(range(1, n + 1), sorted(rng.sample(range(1, 40), n))))
    vertices = tuple(label.values())
    relabelled = frozenset((label[i], label[j]) for i, j in edges)
    res = mais(SideInfoGraph(vertices, relabelled))
    assert (res.mais_size, res.witness) == _brute_mais(vertices, relabelled)


def _scan_mais(succ: list[int]) -> tuple[int, int]:
    """Size and bitmask of the first acyclic subset, largest first.

    The subset scan mais ran before its branch and bound: it skips
    supersets of up to 128 cycles, each found by walking lowest
    successors inside a remainder that failed to peel until a vertex
    repeats.
    """
    n = len(succ)
    cores: list[int] = []
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            sub = sum(1 << i for i in combo)
            if any(core & sub == core for core in cores):
                continue
            stuck, _ = outer._peel(succ, sub)
            if not stuck:
                return size, sub
            seen = cycle = 0
            v = (stuck & -stuck).bit_length() - 1
            while not cycle >> v & 1:
                if seen >> v & 1:
                    cycle |= 1 << v
                seen |= 1 << v
                nxt = succ[v] & stuck
                v = (nxt & -nxt).bit_length() - 1
            if len(cores) < 128 and cycle not in cores:
                cores.append(cycle)
    raise AssertionError("a single vertex without a self-loop is acyclic")


def _seeded_graph(n: int, density: float, rng: random.Random) -> SideInfoGraph:
    edges = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j and rng.random() < density)
    return SideInfoGraph(tuple(range(1, n + 1)), edges)


def test_mais_matches_the_subset_scan_past_brute_force():
    rng = random.Random(16)
    for _ in range(60):
        graph = _seeded_graph(rng.randint(10, 16), rng.random(), rng)
        succ = [sum(1 << (j - 1) for a, j in graph.edges if a == i) for i in graph.vertices]
        size, sub = _scan_mais(succ)
        res = mais(graph)
        assert (res.mais_size, res.witness) == (size, frozenset(v + 1 for v in range(len(succ)) if sub >> v & 1))


def test_mais_on_a_seeded_22_vertex_digraph():
    # Size and witness pinned from the subset scan, which took several
    # seconds on this graph.
    graph = _seeded_graph(22, 0.35, random.Random(22))
    assert len(graph.edges) == 174
    res = mais(graph)
    assert (res.mais_size, res.witness) == (10, frozenset({3, 4, 5, 7, 10, 11, 13, 15, 18, 20}))


@given(st.integers(1, 8), st.floats(0, 1), st.randoms(use_true_random=False))
def test_looped_vertices_stay_out_of_the_witness(n, density, rng):
    vertices = tuple(range(1, n + 1))
    edges = frozenset((i, j) for i in vertices for j in vertices if rng.random() < density)
    if all((v, v) in edges for v in vertices):
        with pytest.raises(ValueError, match="every vertex has a self-loop"):
            mais(SideInfoGraph(vertices, edges))
    else:
        res = mais(SideInfoGraph(vertices, edges))
        assert (res.mais_size, res.witness) == _brute_mais(vertices, edges)


@pytest.mark.parametrize("vertices", [(1,), (1, 2)])
def test_every_vertex_looped_is_a_value_error(vertices):
    graph = SideInfoGraph(vertices, frozenset((v, v) for v in vertices))
    with pytest.raises(ValueError, match="every vertex has a self-loop"):
        mais(graph)


@pytest.mark.parametrize(
    "graph, message",
    [
        (SideInfoGraph((1, 1, 2), frozenset({(1, 2)})), r"repeated vertices in \(1, 1, 2\)"),
        (SideInfoGraph((1, 2), frozenset({(1, 3)})), r"edges with an end that is not a vertex: \[\(1, 3\)\]"),
    ],
    ids=["repeated-vertex", "stray-edge"],
)
def test_malformed_graph_is_a_value_error(graph, message):
    with pytest.raises(ValueError, match=message):
        mais(graph)


def test_vertex_limit_guard():
    inst = builtin_instance("no-side-info(25)")
    with pytest.raises(TooManyVertices):
        acyclic_symmetric_bound(inst, max_vertices=24)


def test_mais_on_graph_object_directly():
    graph = build_side_info_graph(builtin_instance("example1"))
    res = mais(graph)
    assert res.mais_size == 3


INVALID = [
    ("messages 2\nuser 1 demands 1 knows 1\nuser 2 demands 2 knows 1\n",
     "user 1: demand/side-info overlap [1]"),
    ("messages 3\nuser 1 demands 1 knows 3\nuser 2 demands 2 knows 9\n",
     "user 2: message ids out of range [9]"),
    ("messages 2\nuser 1 demands 1 knows 1\nuser 2 demands 2 knows 2\n",
     "user 1: demand/side-info overlap [1]; user 2: demand/side-info overlap [2]"),
]


@pytest.mark.parametrize("text, problems", INVALID, ids=["overlap", "out-of-range", "self-loops"])
def test_invalid_instance_is_refused(tmp_path, capsys, text, problems):
    with pytest.raises(ValueError) as exc:
        acyclic_symmetric_bound(parse_instance(text))
    assert str(exc.value) == f"invalid instance: {problems}"
    path = tmp_path / "bad.ic"
    path.write_text(text)
    assert main(["mais", "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (f"instance: {path}\n", f"error: invalid instance: {problems}\n")
