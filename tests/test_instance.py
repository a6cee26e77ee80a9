"""Instance model: validation, parsing, builtins, side-information graph."""

import pytest

from icl.instance import (
    IndexCodingInstance,
    NotMultipleUnicast,
    UnknownName,
    UserSpec,
    build_side_info_graph,
    builtin_instance,
    format_instance,
    parse_instance,
    validate_instance,
)


def _inst(users, n, c=1):
    return IndexCodingInstance(n, tuple(UserSpec.of(d, k) for d, k in users), c)


def test_valid_instance_has_no_problems():
    inst = _inst([({1}, {2}), ({2}, {1})], 2)
    assert validate_instance(inst) == []


def test_empty_demand_reported():
    inst = _inst([(set(), {2}), ({2}, {1})], 2)
    assert any("demand" in p for p in validate_instance(inst))


def test_demand_known_overlap_reported():
    inst = _inst([({1}, {1}), ({2}, set())], 2)
    assert any("overlap" in p or "knows" in p for p in validate_instance(inst))


def test_out_of_range_reported():
    inst = _inst([({3}, set()), ({2}, set())], 2)
    assert validate_instance(inst)


def test_unreferenced_message_reported():
    inst = _inst([({1}, set()), ({2}, set())], 3)
    assert any("3" in p for p in validate_instance(inst))


def test_orphan_list_stops_after_ten_ids():
    inst = _inst([({2}, {13})], 14)
    assert validate_instance(inst) == [
        "messages referenced by no user: [1, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 2 more"
    ]
    inst = _inst([({2}, {13}), ({14}, {12})], 14)
    assert validate_instance(inst) == ["messages referenced by no user: [1, 3, 4, 5, 6, 7, 8, 9, 10, 11]"]


def test_validation_does_not_walk_every_declared_message():
    # A set of 10^12 ids would never fit in memory.
    inst = _inst([({1}, {2, 10**13}), ({2}, set())], 10**12)
    assert validate_instance(inst) == [
        "user 1: message ids out of range [10000000000000]",
        "messages referenced by no user: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 999999999988 more",
    ]


def test_known_but_never_demanded_is_legal():
    # Reduction instances rely on messages that appear only as side
    # information.
    inst = _inst([({1}, {2}), ({1}, {2})], 2)
    assert validate_instance(inst) == []


def test_builtin_example1_structure():
    inst = builtin_instance("example1")
    assert inst.num_messages == 6
    assert [sorted(u.demands) for u in inst.users] == [[1], [2], [3], [4], [5], [6]]
    assert [sorted(u.knows) for u in inst.users] == [
        [3, 4],
        [4, 5],
        [5, 6],
        [2, 3, 6],
        [1, 4, 6],
        [1, 2],
    ]
    assert inst.channel_bits == 1


def test_builtin_no_side_info_family():
    inst = builtin_instance("no-side-info(4)")
    assert inst.num_messages == 4
    assert all(u.knows == frozenset() for u in inst.users)


def test_unknown_builtin_raises():
    with pytest.raises(UnknownName):
        builtin_instance("nope")


def test_parse_format_roundtrip():
    inst = builtin_instance("example1")
    again = parse_instance(format_instance(inst))
    assert again == inst


def test_parse_rejects_gap_in_user_ids():
    text = "messages 2\nuser 1 demands 1 knows\nuser 3 demands 2 knows\n"
    with pytest.raises(ValueError):
        parse_instance(text)


def test_parse_comments_and_blank_lines():
    text = "# sample\nmessages 2\n\nuser 1 demands 1 knows 2\nuser 2 demands 2 knows 1 # cycle\n"
    inst = parse_instance(text)
    assert inst.users[1].knows == frozenset({1})


def test_side_info_graph_edges():
    graph = build_side_info_graph(builtin_instance("xor2"))
    assert graph.vertices == (1, 2)
    assert set(graph.edges) == {(1, 2), (2, 1)}


def test_side_info_graph_needs_multiple_unicast():
    inst = _inst([({1, 2}, set())], 2)
    with pytest.raises(NotMultipleUnicast):
        build_side_info_graph(inst)
