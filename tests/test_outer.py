"""Acyclic-subset outer bound on the side-information digraph."""

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


@given(_digraphs())
def test_cycle_in_a_stuck_remainder_is_cyclic(digraph):
    n, edges = digraph
    succ = [0] * n
    for i, j in edges:
        succ[i - 1] |= 1 << (j - 1)
    stuck, order = outer._peel(succ, (1 << n) - 1)
    assert sorted(order + [v for v in range(n) if stuck >> v & 1]) == list(range(n))
    if stuck:
        cycle = outer._cycle_in(succ, stuck)
        members = [v for v in range(n) if cycle >> v & 1]
        adj = np.array([[succ[u] >> v & 1 for v in members] for u in members], dtype=np.int64)
        assert cycle & stuck == cycle and not _nilpotent(adj)


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
