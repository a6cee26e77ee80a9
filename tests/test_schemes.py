"""GF(2) linear schemes: certification, zero-error decoding, embedding."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import icl
from icl.caching import canonical_worst_demand, synthesize_delivery_scheme
from icl.composite import DecodingChoice, build_composite_lp, check_rate_point, max_symmetric_rate
from icl.gf2 import Gf2Matrix, nullspace, rank_of
from icl.instance import IndexCodingInstance, UserSpec, builtin_instance
from icl.oracle import exhaustive_conditional_entropy
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


def _zero_error_by_nullspace(inst, scheme):
    """Reference zero-error rule: a user decodes iff every null vector of
    X on its unknown columns vanishes on its demanded columns."""
    rows, off = scheme.global_rows(), scheme.offsets()

    def columns(messages):
        return sum(((1 << (off[i] - off[i - 1])) - 1) << off[i - 1] for i in messages)

    return tuple(
        all(
            v & columns(spec.demands) == 0
            for v in nullspace(rows, scheme.total_bits, allowed=columns(set(inst.message_ids()) - spec.knows))
        )
        for spec in inst.users
    )


# User 1 demands 1 and knows nothing; user 2 demands 2 and knows 1.
@pytest.mark.parametrize(
    "row",
    [0b10, 0b11],
    ids=["demanded-free-column", "demanded-pivot-row-holds-free-column"],
)
def test_zero_error_fails_on_a_demanded_column_the_null_space_reaches(row):
    inst = IndexCodingInstance(2, (UserSpec.of({1}), UserSpec.of({2}, {1})))
    scheme = LinearScheme((1, 1), 1, ((frozenset({1, 2}), Gf2Matrix((row,), 2)),))
    assert _zero_error_by_nullspace(inst, scheme) == (False, True)
    for mode in ("algebraic", "enumerate"):
        assert zero_error_decode_check(inst, scheme, mode=mode) == (False, True)
    assert check_scheme(inst, scheme).decodes == (False, True)


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


def _check_scheme_by_subsets(inst, scheme, choice=None):
    """Reference certification: every entropy is a rank of the full rows.

    H(X | U_T) is the rank of X on the columns of the messages outside
    T, taken afresh for the channel use and for each J.  Returns the
    channel use, channel_ok, per user the table J -> (kappa_J, ok) over
    every J <= K_j meeting D_j, and the symmetric rate.
    """
    if choice is None:
        choice = DecodingChoice(tuple(spec.demands for spec in inst.users))
    rows, off = scheme.global_rows(), scheme.offsets()

    def entropy(known):
        unknown = 0
        for i in set(inst.message_ids()) - set(known):
            unknown |= ((1 << (off[i] - off[i - 1])) - 1) << off[i - 1]
        return rank_of(row & unknown for row in rows)

    channel_use, channel_ok, tables = [], [], []
    for spec, K in zip(inst.users, choice.sets):
        use = entropy(spec.knows)
        channel_use.append(use)
        channel_ok.append(use <= scheme.channel_bits)
        table = {}
        ak = spec.knows | K
        h_ak = entropy(ak)
        for r in range(1, len(K) + 1):
            for J in combinations(sorted(K), r):
                jset = frozenset(J)
                if not jset & spec.demands:
                    continue
                cap = entropy(ak - jset) - h_ak
                table[jset] = (cap, sum(scheme.msg_bits[i - 1] for i in jset) <= cap)
        tables.append(table)
    demanded = set().union(*(spec.demands for spec in inst.users))
    sym = Fraction(min(scheme.msg_bits[i - 1] for i in demanded), scheme.channel_bits)
    return tuple(channel_use), tuple(channel_ok), tuple(tables), sym


def _assert_same_verdict(inst, scheme, choice):
    """check_scheme agrees with the subset reference, and zero-error
    decoding with the null-space rule; returns the verdict."""
    got = check_scheme(inst, scheme, choice)
    channel_use, channel_ok, tables, sym = _check_scheme_by_subsets(inst, scheme, choice)
    assert got.channel_use == channel_use
    assert got.channel_ok == channel_ok
    assert got.symmetric_rate == sym
    assert got.decodes == tuple(all(ok for _, ok in table.values()) for table in tables)
    assert got.passed == (all(channel_ok) and all(ok for table in tables for _, ok in table.values()))
    assert zero_error_decode_check(inst, scheme) == _zero_error_by_nullspace(inst, scheme)
    sets = choice.sets if choice is not None else tuple(spec.demands for spec in inst.users)
    for user, (K, table) in enumerate(zip(sets, tables), start=1):
        for J, (cap, _) in table.items():
            assert kappa(inst, scheme, user, J, K) == cap
    return got


def _demands_up_to_relabeling(K):
    """Every demand vector whose files appear in first-use order 1, 2, ..."""
    if K == 0:
        yield ()
        return
    for head in _demands_up_to_relabeling(K - 1):
        for f in range(1, max(head, default=0) + 2):
            yield head + (f,)


@pytest.mark.parametrize("K", range(1, 6))
def test_check_scheme_matches_subset_ranks_on_every_small_delivery(K):
    for d in _demands_up_to_relabeling(K):
        for t in range(K):
            for k_bits in (1, 2):
                _assert_same_verdict(*synthesize_delivery_scheme(K, max(d), t, d, k_bits))


@pytest.mark.parametrize("N", range(1, 7))
def test_check_scheme_matches_subset_ranks_on_six_user_deliveries(N):
    d = canonical_worst_demand(6, N)
    for t in range(6):
        for k_bits in (1, 2):
            _assert_same_verdict(*synthesize_delivery_scheme(6, N, t, d, k_bits))


@pytest.mark.parametrize("K", range(1, 5))
def test_check_scheme_and_subset_ranks_fail_a_delivery_with_one_bit_cleared(K):
    # Clearing one message bit from one XOR leaves the users that demand
    # that bit one equation short, so both certifications must refuse.
    for d in _demands_up_to_relabeling(K):
        for t in range(K):
            for k_bits in (1, 2):
                inst, scheme, choice = synthesize_delivery_scheme(K, max(d), t, d, k_bits)
                for c, (P, mat) in enumerate(scheme.composites):
                    head, *rest = mat.rows
                    cleared = Gf2Matrix((head & head - 1, *rest), mat.cols)
                    composites = scheme.composites[:c] + ((P, cleared),) + scheme.composites[c + 1 :]
                    broken = LinearScheme(scheme.msg_bits, scheme.channel_bits, composites)
                    assert not _assert_same_verdict(inst, broken, choice).passed
                    assert not all(zero_error_decode_check(inst, broken))


@st.composite
def _instances_schemes_and_choices(draw):
    n = draw(st.integers(1, 5))
    # Per user and message: 0 neither, 1 demanded, 2 known.
    role = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    roles = draw(st.lists(role, min_size=1, max_size=4))
    for user in roles:
        if 1 not in user:
            user[draw(st.integers(0, n - 1))] = 1
    for i in range(n):
        if not any(user[i] for user in roles):
            roles[0][i] = 1
    users = tuple(
        UserSpec.of(
            (i + 1 for i, r in enumerate(user) if r == 1),
            (i + 1 for i, r in enumerate(user) if r == 2),
        )
        for user in roles
    )
    inst = IndexCodingInstance(n, users)
    bits = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    off = [0]
    for L in bits:
        off.append(off[-1] + L)
    composites = []
    for _ in range(draw(st.integers(0, 3))):
        P = draw(st.frozensets(st.integers(1, n), min_size=1))
        support = sum(((1 << bits[i - 1]) - 1) << off[i - 1] for i in P)
        rows = draw(st.lists(st.integers(0, (1 << off[-1]) - 1), max_size=3))
        composites.append((P, Gf2Matrix(tuple(row & support for row in rows), off[-1])))
    scheme = LinearScheme(tuple(bits), draw(st.integers(1, 4)), tuple(composites))
    sets = []
    for spec in users:
        free = sorted(set(inst.message_ids()) - spec.knows - spec.demands)
        extra = draw(st.frozensets(st.sampled_from(free))) if free else frozenset()
        sets.append(spec.demands | extra)
    return inst, scheme, DecodingChoice(tuple(sets))


@settings(max_examples=300)
@given(_instances_schemes_and_choices())
def test_check_scheme_matches_subset_ranks_on_random_schemes(case):
    inst, scheme, choice = case
    _assert_same_verdict(inst, scheme, choice)
    _assert_same_verdict(inst, scheme, None)


@settings(max_examples=300)
@given(_instances_schemes_and_choices())
def test_zero_error_modes_agree_on_small_random_schemes(case):
    # Up to 10 unknown bits, zero-bit messages among them.
    inst, scheme, _ = case
    verdict = _zero_error_by_nullspace(inst, scheme)
    assert zero_error_decode_check(inst, scheme, mode="algebraic") == verdict
    assert zero_error_decode_check(inst, scheme, mode="enumerate") == verdict


@pytest.mark.parametrize("user", [0, -1, 7])
def test_kappa_refuses_users_out_of_range(user):
    with pytest.raises(ValueError, match=rf"^user {user} is outside 1\.\.6$"):
        kappa(EX1, EX2, user, {1}, {1})


def test_kappa_refuses_a_third_user_of_two():
    inst = builtin_instance("xor2")
    scheme = LinearScheme((1, 1), 1, ((frozenset({1, 2}), Gf2Matrix((0b11,), 2)),))
    with pytest.raises(ValueError, match=r"^user 3 is outside 1\.\.2$"):
        kappa(inst, scheme, 3, {1}, {1})


@pytest.mark.parametrize(
    "known, entropy",
    [
        pytest.param(known, entropy, id=f"known{k}{tag}")
        for entropy, tag in ((conditional_entropy, ""), (exhaustive_conditional_entropy, "-oracle"))
        for k, known in enumerate(({3}, {0}, {-1}, {1, 7}))
    ],
)
def test_conditional_entropy_refuses_unknown_ids(known, entropy):
    scheme = LinearScheme((1, 1), 1, ((frozenset({1, 2}), Gf2Matrix((0b11,), 2)),))
    with pytest.raises(ValueError, match=r"is outside 1\.\.2$"):
        entropy(scheme, known)
