"""GF(2) linear schemes: certification, zero-error decoding, embedding."""

from fractions import Fraction

import pytest

import icl
from icl.composite import DecodingChoice, build_composite_lp, check_rate_point, max_symmetric_rate
from icl.gf2 import Gf2Matrix
from icl.instance import builtin_instance
from icl.schemes import (
    EnumerationTooLarge,
    InvalidDecodingSet,
    LinearScheme,
    builtin_scheme,
    check_scheme,
    conditional_entropy,
    embed_composite_allocation,
    format_scheme,
    kappa,
    parse_scheme,
    zero_error_decode_check,
)

EX1 = builtin_instance("example1")
EX2 = builtin_scheme("example2")


def test_three_xor_scheme_passes_at_one_third():
    verdict = check_scheme(EX1, EX2)
    assert verdict.passed
    assert verdict.symmetric_rate == Fraction(1, 3)
    assert all(used <= 3 for used in verdict.channel_use)


def test_three_xor_scheme_zero_error_both_modes():
    for mode in ("algebraic", "enumerate"):
        assert all(zero_error_decode_check(EX1, EX2, mode=mode))


def test_channel_use_is_conditional_entropy():
    # User 1 knows {3,4}; the three XOR payloads stay independent given
    # them, so it still needs all three channel bits.
    assert conditional_entropy(EX2, {3, 4}) == 3
    # Knowing everything leaves nothing to receive.
    assert conditional_entropy(EX2, {1, 2, 3, 4, 5, 6}) == 0
    assert conditional_entropy(EX2) == 3


def test_kappa_counts_joint_decoding_margin():
    # kappa(J) = H(X | A,K minus J) - H(X | A,K): the channel bits that
    # remain informative about J for that user.
    value = kappa(EX1, EX2, 1, frozenset({1}), frozenset({1}))
    assert value >= 1


def test_dropping_a_payload_breaks_decoding():
    truncated = LinearScheme(EX2.msg_bits, EX2.channel_bits, EX2.composites[:2])
    per_user = zero_error_decode_check(EX1, truncated, mode="algebraic")
    assert not all(per_user)
    verdict = check_scheme(EX1, truncated)
    assert not verdict.passed


def test_zero_error_modes_agree_on_small_random_schemes():
    import numpy as np

    rng = np.random.default_rng(3)
    inst = builtin_instance("xor2")
    for _ in range(40):
        rows = tuple(int(rng.integers(0, 4)) for _ in range(2))
        scheme = LinearScheme((1, 1), 2, ((frozenset({1, 2}), Gf2Matrix(rows, 2)),))
        a = zero_error_decode_check(inst, scheme, mode="algebraic")
        b = zero_error_decode_check(inst, scheme, mode="enumerate")
        assert a == b


def test_enumerate_mode_refuses_large_schemes():
    # A user with no side information faces 22 unknown bits, past the cap.
    big = LinearScheme((11, 11), 4, ((frozenset({1, 2}), Gf2Matrix((0, 0, 0, 0), 22)),))
    with pytest.raises(EnumerationTooLarge):
        zero_error_decode_check(builtin_instance("no-side-info(2)"), big, mode="enumerate")


def test_parse_format_roundtrip():
    again = parse_scheme(format_scheme(EX2))
    assert again == EX2


def test_parse_rejects_row_outside_composite():
    text = "channel_bits 1\nmsg_bits 1 1\ncomposite 1 row 11\n"
    with pytest.raises(ValueError):
        parse_scheme(text)


def test_composite_allocation_embedding_xor2():
    # An integer composite allocation is realizable as a linear scheme
    # with the same rates: the inner bound's allocation becomes code rows.
    inst = builtin_instance("xor2")
    res = max_symmetric_rate(inst)
    allocation = {P: int(v) for P, v in res.allocation.items()}
    scheme = embed_composite_allocation(inst.num_messages, inst.channel_bits, allocation)
    verdict = check_scheme(inst, scheme, res.best_choice)
    assert verdict.passed
    assert verdict.symmetric_rate == res.symmetric_rate == 1
    assert all(zero_error_decode_check(inst, scheme, mode="algebraic"))


def test_composite_allocation_embedding_no_side_info():
    # At c = 3 the symmetric optimum allocates one bit per singleton.
    inst = builtin_instance("no-side-info(3)", channel_bits=3)
    res = max_symmetric_rate(inst)
    assert res.symmetric_rate == Fraction(1, 3)
    allocation = {P: int(v) for P, v in res.allocation.items()}
    assert sum(allocation.values()) <= 3
    scheme = embed_composite_allocation(inst.num_messages, inst.channel_bits, allocation)
    verdict = check_scheme(inst, scheme, res.best_choice)
    assert verdict.passed
    assert verdict.symmetric_rate == Fraction(1, 3)
    assert all(zero_error_decode_check(inst, scheme, mode="enumerate"))


def _user1_decodes(K):
    return DecodingChoice((K,) + tuple(spec.demands for spec in EX1.users[1:]))


# Example 1's user 1 demands {1} and knows {3, 4}.
@pytest.mark.parametrize("K", [frozenset({2}), frozenset({1, 3})], ids=["misses-demand", "meets-side-info"])
@pytest.mark.parametrize(
    "call",
    [
        lambda K: check_scheme(EX1, EX2, _user1_decodes(K)),
        lambda K: kappa(EX1, EX2, 1, {1}, K),
        lambda K: check_rate_point(EX1, _user1_decodes(K), [Fraction(0)] * 6, {}),
        lambda K: build_composite_lp(EX1, _user1_decodes(K)),
    ],
    ids=["check_scheme", "kappa", "check_rate_point", "build_composite_lp"],
)
def test_bad_decoding_set_raises_invalid_decoding_set(call, K):
    with pytest.raises(ValueError) as exc:
        call(K)
    assert type(exc.value) is InvalidDecodingSet
    assert str(exc.value) == "user 1: decoding set must satisfy D <= K <= messages minus A"


@pytest.mark.parametrize("J", [(), (5,), (2,)], ids=["empty", "outside-K", "misses-demand"])
def test_kappa_rejects_bad_message_sets(J):
    with pytest.raises(InvalidDecodingSet, match="^user 1: need nonempty J <= K meeting D$"):
        kappa(EX1, EX2, 1, J, {1, 2})


def test_invalid_decoding_set_is_one_class():
    assert icl.InvalidDecodingSet is InvalidDecodingSet is icl.composite.InvalidDecodingSet
    assert issubclass(InvalidDecodingSet, ValueError)
