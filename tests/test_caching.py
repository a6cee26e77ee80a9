"""Coded caching: placement, delivery, decoding, loads, reduction."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from icl.caching import (
    DecodeFailure,
    DeliveryTranscript,
    DomainError,
    EmptyDemand,
    FileLibrary,
    Indivisible,
    Payload,
    canonical_worst_demand,
    cman_place,
    decode_all_users,
    deliver,
    dman_deliver,
    dman_place,
    formula_loads,
    iter_demands,
    leaders,
    load_csv_row,
    r_c_opt,
    r_c_opt_envelope,
    r_cman,
    r_d_opt,
    r_dman,
    random_library,
    reduce_to_index_coding,
    reduced_delivery,
    synthesize_delivery_scheme,
    transcript_log,
    verify_delivery_scheme,
)
from icl.instance import validate_instance
from icl.schemes import check_scheme


def test_two_users_one_payload():
    lib = random_library(2, 8, seed=1)
    cache, sub = cman_place(2, 1, lib)
    tr = deliver(sub, (1, 2), mode="full")
    assert len(tr.payloads) == 1
    assert tr.load == Fraction(1, 2)
    assert decode_all_users(cache, tr, (1, 2)) == list(lib.files)


def test_repeated_demand_reduced_keeps_leader_groups():
    lib = random_library(1, 12, seed=2)
    cache, sub = cman_place(3, 1, lib)
    assert leaders((1, 1, 1)) == frozenset({1})
    tr = deliver(sub, (1, 1, 1), mode="reduced")
    assert sorted(tuple(sorted(p.users)) for p in tr.payloads) == [(1, 2), (1, 3)]
    assert tr.load == Fraction(2, 3)
    assert decode_all_users(cache, tr, (1, 1, 1)) == [lib.files[0]] * 3


def test_full_mode_load_matches_closed_form():
    lib = random_library(3, 2 * comb(4, 2), seed=3)
    cache, sub = cman_place(4, 2, lib)
    for d in [(1, 2, 3, 1), (1, 1, 1, 1), (2, 3, 2, 3)]:
        tr = deliver(sub, d, mode="full")
        assert tr.load == r_cman(4, 2)
        decoded = decode_all_users(cache, tr, d)
        assert decoded == [lib.files[i - 1] for i in d]


def test_reduced_mode_load_depends_on_distinct_demands():
    lib = random_library(2, 4 * comb(4, 1), seed=4)
    cache, sub = cman_place(4, 1, lib)
    d = (1, 2, 1, 2)
    tr = deliver(sub, d, mode="reduced")
    assert tr.load == r_c_opt(4, 2, 1) == Fraction(5, 4)
    assert decode_all_users(cache, tr, d) == [lib.files[i - 1] for i in d]


def test_placement_requires_divisible_file_size():
    lib = random_library(2, 7, seed=5)
    with pytest.raises(Indivisible):
        cman_place(3, 1, lib)


def test_placement_occupancy_is_exact():
    lib = random_library(4, comb(4, 2), seed=6)
    cache, sub = cman_place(4, 2, lib)
    assert cache.cache_files == Fraction(2 * 4, 4)
    # Every user caches exactly t/K of every file's bits.
    for k in range(1, 5):
        for i in range(1, 5):
            bits = sum(
                len(sub.positions[key])
                for key in cache.contents[k - 1]
                if key[0] == i
            )
            assert bits == lib.file_bits * 2 // 4


def test_truncated_transcript_raises_decode_failure():
    lib = random_library(2, 8, seed=7)
    cache, sub = cman_place(2, 1, lib)
    tr = deliver(sub, (1, 2), mode="full")
    empty = DeliveryTranscript((), tr.file_bits, 0, Fraction(0), "full")
    with pytest.raises(DecodeFailure) as info:
        decode_all_users(cache, empty, (1, 2))
    assert info.value.user == 1


@pytest.mark.parametrize(
    "tamper, match",
    [
        (lambda tr: replace(tr, payloads=tr.payloads + (Payload(frozenset({1, 4}), 1, 4),)),
         "a payload names user 4, outside 1..3"),
        (lambda tr: replace(tr, payloads=tr.payloads + (Payload(frozenset({0, 1}), 1, 4),)),
         "a payload names user 0, outside 1..3"),
        (lambda tr: replace(tr, file_bits=tr.file_bits - 1),
         "transcript has 11-bit files, the layout 12-bit files"),
    ],
    ids=["user K+1", "user 0", "file bits"],
)
def test_decode_refuses_a_transcript_foreign_to_the_layout(tamper, match):
    lib = random_library(2, 4 * comb(3, 1), seed=8)
    cache, sub = cman_place(3, 1, lib)
    d = (1, 2, 1)
    tr = deliver(sub, d, mode="full")
    with pytest.raises(ValueError, match=match):
        decode_all_users(cache, tamper(tr), d)


def test_corrupted_payload_detected_or_mismatched():
    lib = random_library(2, 4 * comb(3, 1), seed=8)
    cache, sub = cman_place(3, 1, lib)
    d = (1, 2, 1)
    tr = deliver(sub, d, mode="full")
    flipped = tr.payloads[0]
    bad = DeliveryTranscript(
        (flipped.__class__(flipped.users, flipped.bits ^ 1, flipped.nbits),)
        + tr.payloads[1:],
        tr.file_bits,
        tr.total_bits,
        tr.load,
        tr.mode,
    )
    try:
        decoded = decode_all_users(cache, bad, d)
        assert decoded != [lib.files[i - 1] for i in d]
    except DecodeFailure:
        pass


def test_closed_form_values():
    assert r_cman(4, 2) == Fraction(2, 3)
    assert r_c_opt(4, 2, 1) == Fraction(5, 4)
    assert r_d_opt(2, 2, 1) == Fraction(3, 4)
    assert r_cman(3, 0) == 3
    assert r_c_opt(3, 1, 0) == 1
    assert r_dman(3, 3, Fraction(3, 2)) == Fraction(7, 8)


def test_formula_domain_errors():
    with pytest.raises(DomainError):
        r_cman(4, 9)
    with pytest.raises(DomainError):
        r_d_opt(2, 2, 0)
    with pytest.raises(DomainError):
        r_c_opt_envelope(2, 2, 3)


def test_formula_query_parser():
    assert formula_loads("r_cman(4,2)") == Fraction(2, 3)
    assert formula_loads(" r_d_opt( 2 , 2 , 1 ) ") == Fraction(3, 4)
    assert formula_loads("r_c_opt_envelope(4,4,1/2)") == r_c_opt_envelope(4, 4, Fraction(1, 2))
    with pytest.raises(DomainError):
        formula_loads("nope(1)")
    with pytest.raises(DomainError):
        formula_loads("r_cman(4)")
    with pytest.raises(DomainError):
        formula_loads("r_cman(4,x)")


def test_envelope_interpolates_between_corner_points():
    K, N = 4, 4
    # At the corner memories the envelope equals the closed form...
    for t in range(K + 1):
        M = Fraction(t * N, K)
        assert r_c_opt_envelope(K, N, M) <= r_c_opt(K, N, t)
    # ...and between corners it is the chord, hence convex.
    M_half = Fraction(N, 2)
    left = r_c_opt_envelope(K, N, M_half - Fraction(1, 8))
    mid = r_c_opt_envelope(K, N, M_half)
    right = r_c_opt_envelope(K, N, M_half + Fraction(1, 8))
    assert left + right >= 2 * mid
    assert r_c_opt_envelope(K, N, 0) == r_c_opt(K, N, 0)
    assert r_c_opt_envelope(K, N, N) == 0


def test_decentralized_placement_concentrates():
    # Each subfile group's share concentrates around f^|W| (1-f)^(K-|W|).
    lib = random_library(1, 10**5, seed=9)
    cache, sub = dman_place(3, Fraction(1, 2), lib, seed=10)
    for W in [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]:
        share = Fraction(sub.length((1, W)), lib.file_bits)
        assert abs(float(share) - 0.125) < 0.03 * 1  # within 3% absolute of 1/8


def test_decentralized_positions_partition_each_file():
    lib = random_library(3, 1000, seed=11)
    cache, sub = dman_place(4, Fraction(3, 4), lib, seed=12)
    for i in (1, 2, 3):
        counts = sum(len(pos) for key, pos in sub.positions.items() if key[0] == i)
        assert counts == 1000
    seen = np.zeros(1000, dtype=int)
    for key, pos in sub.positions.items():
        if key[0] == 1:
            seen[pos] += 1
    assert (seen == 1).all()


def test_decentralized_is_reproducible():
    lib = random_library(2, 500, seed=13)
    a = dman_place(3, 1, lib, seed=14)[1]
    b = dman_place(3, 1, lib, seed=14)[1]
    assert a.values == b.values
    assert set(a.positions) == set(b.positions)


def test_decentralized_decode_with_repeats():
    lib = random_library(2, 2000, seed=15)
    cache, sub = dman_place(4, 1, lib, seed=16)
    d = (1, 2, 1, 2)
    tr = dman_deliver(sub, d)
    assert decode_all_users(cache, tr, d) == [lib.files[i - 1] for i in d]


def _subset_scan_delivery(subfiles, d, mode):
    """Reference delivery: every (t+1)-subset S of the users in
    itertools.combinations order, for the placement's t or, decentralized,
    for t = 0..K-1; full mode keeps every S, the others those meeting the
    leaders.  S sends the XOR of (d_s, S - {s}) over s in S, zero-padded to
    its longest member, and nothing when no member is in the layout."""
    K = subfiles.num_users
    ts = range(K) if subfiles.placement_t is None else [subfiles.placement_t]
    lead = frozenset(range(1, K + 1)) if mode == "full" else leaders(d)
    payloads = []
    for t in ts:
        for S in map(frozenset, combinations(range(1, K + 1), t + 1)):
            if lead.isdisjoint(S):
                continue
            bits = nbits = 0
            for s in S:
                key = (d[s - 1], S - {s})
                if key in subfiles.values:
                    bits ^= subfiles.values[key]
                    nbits = max(nbits, subfiles.length(key))
            if nbits:
                payloads.append(Payload(S, bits, nbits))
    return tuple(payloads)


def _delivery_grid():
    """Both placements at K = 1..10, N = 1..3, four demands each, 7- and
    64-bit subfiles (centralized) or files (decentralized), every t and
    cache sizes M = 1/2, N/2 and N - 1/2."""
    for K in range(1, 11):
        for N in (1, 2, 3):
            for seed in (1, 2, 3, 4):
                rng = np.random.default_rng(100 * K + 10 * N + seed)
                d = tuple(int(x) for x in rng.integers(1, N + 1, size=K))
                for B in (7, 64):
                    for t in range(K + 1):
                        if comb(K, t) * B <= 4000:
                            sub = cman_place(K, t, random_library(N, comb(K, t) * B, seed))[1]
                            yield sub, d, "full", deliver(sub, d, mode="full")
                            yield sub, d, "reduced", deliver(sub, d, mode="reduced")
                    for M in sorted({Fraction(1, 2), Fraction(N, 2), N - Fraction(1, 2)}):
                        sub = dman_place(K, M, random_library(N, B, seed), seed)[1]
                        yield sub, d, "decentralized", dman_deliver(sub, d)


def test_delivery_matches_the_subset_scan():
    cases = 0
    for sub, d, mode, tr in _delivery_grid():
        want = _subset_scan_delivery(sub, d, mode)
        assert tr.payloads == want, (sub.num_users, sub.placement_t, d, mode)
        assert tr.total_bits == sum(p.nbits for p in want)
        assert tr.load == Fraction(tr.total_bits, sub.file_bits)
        assert (tr.file_bits, tr.mode) == (sub.file_bits, mode)
        cases += 1
    assert cases > 3000


def test_decentralized_domain():
    lib = random_library(2, 100, seed=17)
    with pytest.raises(DomainError):
        dman_place(3, 2, lib, seed=0)   # M = N not allowed
    with pytest.raises(DomainError):
        dman_place(3, 0, lib, seed=0)
    # The generator draws below M/N's denominator, which must fit its range.
    with pytest.raises(DomainError, match=rf"at most 2\^63, got M=1/{1 << 64}, N=2"):
        dman_place(3, Fraction(1, 1 << 64), lib, seed=0)
    dman_place(3, Fraction(1, 1 << 62), lib, seed=0)   # denominator 2^63 is in range


def test_reduction_example_labels():
    lib = random_library(2, 2, seed=18)
    _, sub = cman_place(2, 1, lib)
    inst, labels = reduce_to_index_coding(sub, (1, 2))
    assert inst.num_messages == 4
    assert validate_instance(inst) == []
    d1 = {labels.by_id[m] for m in inst.users[0].demands}
    a1 = {labels.by_id[m] for m in inst.users[0].knows}
    assert d1 == {(1, frozenset({2}))}
    assert a1 == {(1, frozenset({1})), (2, frozenset({1}))}
    assert labels.dropped_users == ()


def test_reduction_drops_fully_cached_users():
    lib = random_library(1, 3, seed=19)
    _, sub = cman_place(3, 2, lib)
    # User 1 demands file 1; subfiles {1,2},{1,3} cached, {2,3} missing.
    inst, labels = reduce_to_index_coding(sub, (1, 1, 1))
    assert labels.dropped_users == ()
    assert validate_instance(inst) == []


def test_reduction_raises_when_nothing_is_needed():
    lib = random_library(1, 1, seed=20)
    _, sub = cman_place(2, 2, lib)   # t = K: everything cached
    with pytest.raises(EmptyDemand):
        reduce_to_index_coding(sub, (1, 1))


def test_reduction_instance_always_validates():
    lib = random_library(3, comb(4, 2), seed=21)
    _, sub = cman_place(4, 2, lib)
    for d in [(1, 2, 3, 1), (2, 2, 2, 2), (1, 1, 2, 3)]:
        inst, labels = reduce_to_index_coding(sub, d)
        assert validate_instance(inst) == [], d


def test_synthesized_scheme_certifies_known_loads():
    for (K, N, t, d, want) in [
        (4, 2, 1, (1, 2, 1, 2), Fraction(5, 4)),
        (3, 3, 1, (1, 2, 3), Fraction(1)),
        (2, 1, 1, (1, 1), Fraction(1, 2)),
        # Each user decodes 21 subfiles: 2^21 - 1 sets J, settled by one rank.
        (8, 8, 2, tuple(range(1, 9)), r_cman(8, 2)),
        # binom(14,7) = 3,432 subfiles per file: one elimination per user
        # keeps this under a second.
        (14, 2, 7, (1, 2) * 7, r_c_opt(14, 2, 7)),
    ]:
        report = verify_delivery_scheme(K, N, t, d)
        assert report.passed, (K, N, t, d, report)
        assert report.load == want
        assert report.sum_rate_inverse == want


def test_synthesis_everything_cached_is_trivial():
    report = verify_delivery_scheme(2, 2, 2, (1, 2))
    assert report.passed
    assert report.load == 0
    with pytest.raises(DomainError):
        synthesize_delivery_scheme(2, 2, 2, (1, 2))


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize(
    "K, N, d, error, match",
    [
        (2, 2, (5, 7), ValueError, "demanded file id out of range"),
        (2, 2, (1,), ValueError, "demand vector names 1 users"),
        (0, 2, (), DomainError, "K must be a positive integer"),
        (2, 0, (1, 1), DomainError, "N must be a positive integer"),
    ],
)
def test_verify_delivery_checks_arguments_at_every_t(K, N, t, d, error, match):
    with pytest.raises(error, match=match):
        verify_delivery_scheme(K, N, t, d)


def test_verify_delivery_rejects_t_past_K():
    with pytest.raises(DomainError, match=r"t must lie in \[0\.\.2\], got 3"):
        verify_delivery_scheme(2, 2, 3, (1, 2))


@pytest.mark.parametrize("call", [reduced_delivery, synthesize_delivery_scheme, verify_delivery_scheme])
def test_oversized_delivery_is_refused_before_placement(monkeypatch, call):
    import icl.caching as caching

    # binom(30,15) = 155,117,520 subfiles per file: the layout alone would
    # exhaust memory, so the guard must fire before cman_place runs.
    def refuse(*args):
        raise AssertionError("the layout was allocated before the size check")

    monkeypatch.setattr(caching, "cman_place", refuse)
    with pytest.raises(DomainError, match=r"^K=30, t=15: N\*binom\(K,t\) = 310235040 subfiles exceed"):
        call(30, 2, 15, (1, 2) * 15)


def test_oversized_placement_is_refused_before_any_subfile():
    # The library is two 155,117,520-bit zero files; the subfiles would be
    # 310,235,040 arrays.
    with pytest.raises(DomainError, match=r"^K=30, t=15: N\*binom\(K,t\) = 310235040 subfiles exceed"):
        cman_place(30, 15, FileLibrary((0, 0), comb(30, 15)))


def test_delivery_size_budget_boundary():
    from icl.caching import _MAX_DELIVERY_SUBFILES, _check_delivery

    # 16 * binom(16, 1) files' subfiles: the budget exactly, then one file more.
    N = _MAX_DELIVERY_SUBFILES // 16
    assert _check_delivery(16, N, 1, (1,) * 16, 1) == (1,) * 16
    with pytest.raises(DomainError, match=f"= {_MAX_DELIVERY_SUBFILES + 16} subfiles exceed"):
        _check_delivery(16, N + 1, 1, (1,) * 16, 1)


def test_synthesized_scheme_multi_bit_messages():
    inst, scheme, choice = synthesize_delivery_scheme(3, 3, 1, (1, 2, 3), k_bits=2)
    assert inst.channel_bits == 2 * (comb(3, 2) - comb(0, 2))
    verdict = check_scheme(inst, scheme, choice)
    assert verdict.passed
    assert verdict.symmetric_rate == Fraction(2, inst.channel_bits)


def test_worst_demand_covers_min_files():
    assert canonical_worst_demand(4, 2) == (1, 2, 1, 2)
    assert canonical_worst_demand(3, 5) == (1, 2, 3)
    assert len(set(canonical_worst_demand(5, 3))) == 3


def test_demand_iteration_is_exhaustive():
    demands = list(iter_demands(3, 2))
    assert len(demands) == 8
    assert demands[0] == (1, 1, 1) and demands[-1] == (2, 2, 2)


def test_transcript_log_format():
    lib = random_library(2, 8, seed=22)
    _, sub = cman_place(2, 1, lib)
    tr = deliver(sub, (1, 2), mode="full")
    lines = transcript_log(tr).splitlines()
    assert len(lines) == len(tr.payloads)
    assert lines[0].startswith("S={1,2} bits=")


def test_csv_row_format():
    row = load_csv_row(4, 2, 1, (1, 2, 1, 2), "reduced", Fraction(5, 4))
    assert row == "4,2,1,1-2-1-2,reduced,5,4"


def _decode_bit_by_bit(cache, transcript, d):
    """Reference decoder: one GF(2) system per file bit position b.

    The unknowns at b are the uncached symbols longer than b, the
    equations the payloads with nbits > b, each with a one-bit right-hand
    side.  Returns the decoded files, or (user, kind) for the first user
    whose systems are inconsistent or leave a demanded bit open.
    """
    out = []
    for k in range(1, cache.num_users + 1):
        cached = cache.contents[k - 1]
        eqs = []
        for pl in transcript.payloads:
            rhs, unknown = pl.bits, []
            for s in pl.users:
                key = (d[s - 1], pl.users - {s})
                if key in cached:
                    rhs ^= cached[key]
                elif key in cache.layout:
                    unknown.append(key)
            eqs.append((unknown, rhs, pl.nbits))
        symbols = sorted({key for unk, _, _ in eqs for key in unk}, key=repr)
        length = {key: len(cache.layout[key]) for key in symbols}
        width = max([nb for _, _, nb in eqs] + list(length.values()), default=0)
        value = dict.fromkeys(symbols, 0)
        known = {key: set() for key in symbols}
        for b in range(width):
            # Pivot on the highest symbol index; rows are (mask, rhs bit).
            basis = {}
            for unk, rhs, nb in eqs:
                if nb <= b:
                    continue
                m = sum(1 << i for i, key in enumerate(symbols) if key in unk and length[key] > b)
                r = rhs >> b & 1
                while m and m.bit_length() - 1 in basis:
                    pm, pr = basis[m.bit_length() - 1]
                    m, r = m ^ pm, r ^ pr
                if m:
                    basis[m.bit_length() - 1] = (m, r)
                elif r:
                    return k, "inconsistent"
            for top in sorted(basis):
                m, r = basis[top]
                for other in basis:
                    if other > top and basis[other][0] >> top & 1:
                        basis[other] = (basis[other][0] ^ m, basis[other][1] ^ r)
            for top, (m, r) in basis.items():
                if m == 1 << top:
                    value[symbols[top]] |= r << b
                    known[symbols[top]].add(b)
        bits = np.zeros(transcript.file_bits, dtype=np.uint8)
        for key, pos in cache.layout.items():
            if key[0] != d[k - 1]:
                continue
            if key in cached:
                val = cached[key]
            elif key in known and len(known[key]) == len(pos):
                val = value[key]
            else:
                return k, "undetermined"
            bits[pos] = [val >> j & 1 for j in range(len(pos))]
        out.append(sum(int(bit) << j for j, bit in enumerate(bits)))
    return out


def _corrupted_transcripts(seed):
    """Small random deliveries, clean or with one payload corrupted."""
    rng = np.random.default_rng(seed)
    while True:
        K = int(rng.integers(2, 6))
        N = int(rng.integers(1, 4))
        d = tuple(int(x) for x in rng.integers(1, N + 1, size=K))
        if rng.random() < 0.5:
            t = int(rng.integers(0, K))
            chunk = int(rng.integers(1, 60 // comb(K, t) + 1))
            lib = random_library(N, chunk * comb(K, t), seed=int(rng.integers(1 << 30)))
            cache, sub = cman_place(K, t, lib)
            tr = deliver(sub, d, mode=str(rng.choice(["full", "reduced"])))
        else:
            M = Fraction(int(rng.integers(1, 2 * N)), 2)
            lib = random_library(N, int(rng.integers(1, 61)), seed=int(rng.integers(1 << 30)))
            cache, sub = dman_place(K, M, lib, seed=int(rng.integers(1 << 30)))
            tr = dman_deliver(sub, d)
        payloads = list(tr.payloads)
        if payloads:
            i = int(rng.integers(len(payloads)))
            p = payloads[i]
            flipped = Payload(p.users, p.bits ^ 1 << int(rng.integers(p.nbits)), p.nbits)
            how = int(rng.integers(4))
            if how == 1:
                payloads[i] = flipped
            elif how == 2:
                del payloads[i]
            elif how == 3:
                payloads.insert(int(rng.integers(len(payloads) + 1)), flipped)
        yield cache, replace(tr, payloads=tuple(payloads)), d, lib


def test_decode_matches_bit_by_bit_reference():
    cases = _corrupted_transcripts(2024)
    outcomes = set()
    for _ in range(250):
        cache, tr, d, lib = next(cases)
        expected = _decode_bit_by_bit(cache, tr, d)
        try:
            got = decode_all_users(cache, tr, d)
        except DecodeFailure as exc:
            kind = "inconsistent" if "inconsistent" in str(exc) else "undetermined"
            got = (exc.user, kind)
        assert got == expected, (d, tr)
        outcomes.add(expected[1] if isinstance(expected, tuple) else expected == [lib.files[i - 1] for i in d])
    # Clean decodes, wrong decodes and both kinds of failure all occur.
    assert outcomes == {True, False, "inconsistent", "undetermined"}


def _placement_digest(cache, sub):
    """Key order, positions and values of a placement, and every user's cache."""
    h = hashlib.sha256()
    for key, pos in sub.positions.items():
        h.update(repr((key[0], sorted(key[1]), pos.tolist(), sub.values[key])).encode())
    for contents in cache.contents:
        h.update(repr([(key[0], sorted(key[1]), v) for key, v in contents.items()]).encode())
    return h.hexdigest()[:16]


def _subfile_table(sub):
    return [(key, pos.tolist(), sub.values[key]) for key, pos in sub.positions.items()]


def test_centralized_placement_is_pinned():
    _, sub = cman_place(3, 1, FileLibrary((0b101101, 0b011011), 6))
    assert _subfile_table(sub) == [
        ((1, frozenset({1})), [0, 1], 1),
        ((1, frozenset({2})), [2, 3], 3),
        ((1, frozenset({3})), [4, 5], 2),
        ((2, frozenset({1})), [0, 1], 3),
        ((2, frozenset({2})), [2, 3], 2),
        ((2, frozenset({3})), [4, 5], 1),
    ]
    for args, want in [
        ((4, 2, random_library(3, 6 * 5, seed=31)), "7a6891de901d3b11"),
        ((5, 0, random_library(2, 7, seed=32)), "fcb556a59ef17673"),
    ]:
        assert _placement_digest(*cman_place(*args)) == want, args[:2]


def test_decentralized_placement_is_pinned():
    # Groups come in increasing cached-by code (bit k-1 for user k), each
    # with its positions ascending.
    _, sub = dman_place(2, 1, FileLibrary((0b10110110, 0b01101101), 8), seed=3)
    assert _subfile_table(sub) == [
        ((1, frozenset()), [0, 6, 7], 4),
        ((1, frozenset({1})), [1], 1),
        ((1, frozenset({2})), [5], 1),
        ((1, frozenset({1, 2})), [2, 3, 4], 5),
        ((2, frozenset({1})), [2, 3, 5, 6, 7], 15),
        ((2, frozenset({2})), [4], 0),
        ((2, frozenset({1, 2})), [0, 1], 1),
    ]
    for args, want in [
        ((4, Fraction(3, 2), random_library(3, 300, seed=33), 34), "faa765002b62a4aa"),
        ((9, 1, random_library(2, 500, seed=35), 36), "da0b2107c9249be2"),
        ((16, 1, random_library(2, 200, seed=41), 42), "8a5e539384cac7d1"),
        ((17, 1, random_library(2, 200, seed=43), 44), "7513e93808ce59aa"),
        ((20, Fraction(1, 3), random_library(1, 400, seed=37), 38), "b43daa0dc1031746"),
        ((40, 1, random_library(2, 100, seed=39), 40), "bd050d4e618a6ab4"),
        ((64, 1, random_library(2, 64, seed=5), 5), "4ff9bb0f89a45559"),
    ]:
        assert _placement_digest(*dman_place(*args)) == want, args[0]


def test_decentralized_placement_at_64_users_follows_the_draws():
    K, N, B, seed = 64, 2, 64, 5
    lib = random_library(N, B, seed=seed)
    cache, sub = dman_place(K, 1, lib, seed=seed)
    # The documented draw: users outer, files inner, bit cached iff
    # integers(0, 2) < 1 for M/N = 1/2.
    rng = np.random.default_rng(seed)
    draws = [[rng.integers(0, 2, size=B) < 1 for _ in range(N)] for _ in range(K)]
    for k in range(1, K + 1):
        for i in range(1, N + 1):
            held = sorted(
                p for key in cache.contents[k - 1] if key[0] == i for p in sub.positions[key]
            )
            assert held == np.flatnonzero(draws[k - 1][i - 1]).tolist(), (k, i)
    for key, pos in sub.positions.items():
        bits = [lib.files[key[0] - 1] >> int(p) & 1 for p in pos]
        assert sub.values[key] == sum(b << j for j, b in enumerate(bits))
    # Delivery reads the layout, not the 2^64 user subsets.
    d = tuple(k % N + 1 for k in range(K))
    assert decode_all_users(cache, dman_deliver(sub, d), d) == [lib.files[i - 1] for i in d]


def test_decentralized_delivery_at_32_users_decodes_bit_exactly():
    K, N, B = 32, 2, 500
    lib = random_library(N, B, seed=6)
    cache, sub = dman_place(K, 1, lib, seed=6)
    d = tuple(k % N + 1 for k in range(K))
    tr = dman_deliver(sub, d)
    assert decode_all_users(cache, tr, d) == [lib.files[i - 1] for i in d]
    # With 500 bits over 2^32 cached-by sets, almost every bit is its own
    # subfile: the load stays far above the asymptotic 3/4.
    assert tr.load > 10


def test_decentralized_placement_refuses_more_than_64_users():
    lib = random_library(2, 64, seed=5)
    with pytest.raises(DomainError, match="at most 64 users, got 65"):
        dman_place(65, 1, lib, seed=5)
