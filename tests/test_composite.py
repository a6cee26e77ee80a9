"""Composite-coding inner bound: LP construction, sweep, time sharing."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from icl.composite import (
    DecodingChoice,
    SearchSpaceOverflow,
    _choice_lp,
    _hull_master,
    _merge_candidates,
    _node_bound,
    _option_indices,
    _prepare_price,
    _price_range,
    _scaled_weights,
    _search_range,
    build_composite_lp,
    check_certificate,
    check_rate_point,
    decoding_options,
    enumerate_decoding_choices,
    max_symmetric_rate,
    max_weighted_rate,
    time_shared_symmetric_rate,
)
from icl.instance import IndexCodingInstance, UserSpec, builtin_instance, validate_instance
from icl.lp import OPTIMAL, Constraint, LinearProgram, solve_lp


EX1 = builtin_instance("example1")


def test_decoding_options_counts():
    # User 1 demands {1} and knows {3,4}: extras come from {2,5,6}.
    opts = decoding_options(EX1, 0)
    assert len(opts) == 8
    assert frozenset({1}) in opts and frozenset({1, 2, 5, 6}) in opts
    assert all(frozenset({1}) <= K for K in opts)


def test_choice_space_size_example1():
    assert sum(1 for _ in enumerate_decoding_choices(EX1)) == 65536


def test_choice_space_cap_zero_is_demands_only():
    choices = list(enumerate_decoding_choices(EX1, per_user_cap=0))
    assert len(choices) == 1
    assert choices[0].sets == tuple(u.demands for u in EX1.users)


def test_choice_space_overflow_guard():
    with pytest.raises(SearchSpaceOverflow):
        list(enumerate_decoding_choices(EX1, max_choices=10))


@pytest.mark.parametrize(
    "call",
    [
        max_symmetric_rate,
        time_shared_symmetric_rate,
        lambda inst: max_weighted_rate(inst, {1: 1}),
    ],
    ids=["pure", "hull", "weighted"],
)
def test_overflow_raises_before_building_rows(monkeypatch, call):
    # 256 options for each of 9 users: 2^72 choices.
    def no_block(*args):
        raise AssertionError("no decoding block may be built")

    monkeypatch.setattr("icl.composite._decoding_block", no_block)
    with pytest.raises(SearchSpaceOverflow):
        call(builtin_instance("no-side-info(9)"))


@pytest.mark.parametrize(
    "call",
    [
        lambda cap: decoding_options(EX1, 0, cap),
        lambda cap: list(enumerate_decoding_choices(EX1, cap)),
        lambda cap: max_symmetric_rate(EX1, cap),
        lambda cap: max_weighted_rate(EX1, {1: 1}, cap),
        lambda cap: time_shared_symmetric_rate(EX1, cap),
    ],
    ids=["options", "enumerate", "pure", "weighted", "hull"],
)
def test_negative_cap_is_a_value_error(call):
    with pytest.raises(ValueError, match="per_user_cap must be >= 0"):
        call(-1)


def test_xor2_single_bit_each():
    inst = builtin_instance("xor2")
    res = max_symmetric_rate(inst)
    assert res.symmetric_rate == 1
    # The optimal vertex is not unique; whatever allocation comes back
    # must certify the rate point exactly.
    assert check_rate_point(inst, res.best_choice, (1, 1), res.allocation)


def test_no_side_info_splits_channel():
    res = max_symmetric_rate(builtin_instance("no-side-info(3)"))
    assert res.symmetric_rate == Fraction(1, 3)


def test_example1_demands_only_choice():
    res = max_symmetric_rate(EX1, per_user_cap=0)
    assert res.symmetric_rate == Fraction(1, 4)


def test_example1_one_extra_message():
    res = max_symmetric_rate(EX1, per_user_cap=1)
    assert res.symmetric_rate == Fraction(4, 15)


def test_example1_uncapped():
    res = max_symmetric_rate(EX1)
    assert res.symmetric_rate == Fraction(3, 11)
    assert res.best_choice.sets == tuple(
        frozenset(K) for K in ({1}, {2}, {1, 3}, {1, 4}, {2, 3, 5}, {6})
    )


def test_example1_demands_only_agrees_with_float_solver():
    scipy = pytest.importorskip("scipy")
    import numpy as np

    choice = DecodingChoice(tuple(u.demands for u in EX1.users))
    lp = build_composite_lp(EX1, choice)
    names = list(lp.variables)
    idx = {v: i for i, v in enumerate(names)}
    c = np.zeros(len(names))
    for v, w in lp.objective.items():
        c[idx[v]] = -float(w)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = np.zeros(len(names))
        for v, w in con.coeffs.items():
            row[idx[v]] = float(w)
        if con.relation == "<=":
            A_ub.append(row)
            b_ub.append(float(con.rhs))
        else:
            A_eq.append(row)
            b_eq.append(float(con.rhs))
    res = scipy.optimize.linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        method="highs",
    )
    assert res.status == 0
    assert abs(-res.fun - 0.25) < 1e-9
    exact = solve_lp(lp)
    assert exact.optimum == Fraction(1, 4)


def test_certificate_accepts_optimum_and_rejects_above():
    res = max_symmetric_rate(builtin_instance("xor2"))
    assert check_certificate(
        builtin_instance("xor2"), res.best_choice, res.symmetric_rate, res.allocation
    )
    assert not check_certificate(
        builtin_instance("xor2"),
        res.best_choice,
        res.symmetric_rate + Fraction(1, 100),
        res.allocation,
    )


def test_rate_point_checker_is_per_message():
    inst = builtin_instance("example1")
    choice = DecodingChoice(
        (
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({1, 4}),
            frozenset({2, 3, 5}),
            frozenset({3, 4, 5, 6}),
        )
    )
    rates = [Fraction(0), Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    allocation = {frozenset({2, 4}): Fraction(1)}
    assert check_rate_point(inst, choice, rates, allocation)
    too_much = [r + Fraction(1, 10) for r in rates]
    assert not check_rate_point(inst, choice, too_much, allocation)


def test_weighted_mode_reports_rates():
    res = max_weighted_rate(builtin_instance("xor2"), {1: 1, 2: 1})
    assert res.value == 2
    assert res.rates == {1: Fraction(1), 2: Fraction(1)}


def test_weighted_mode_respects_weights():
    res = max_weighted_rate(builtin_instance("no-side-info(2)"), {1: 2, 2: 1})
    # The whole channel bit goes to the heavier message.
    assert res.value == 2
    assert res.rates[1] == 1 and res.rates[2] == 0


def _weighted_by_generic_lp(inst, weights, cap=None):
    """Reference: one generic LP per decoding choice, first maximizer kept."""
    best = None
    for choice in enumerate_decoding_choices(inst, cap):
        sol = solve_lp(build_composite_lp(inst, choice, weights=weights), verify=True)
        assert sol.status == OPTIMAL
        if best is None or sol.optimum > best[0]:
            best = (sol.optimum, choice)
    return best


def test_weighted_weights_past_int64():
    # The common denominator of these weights is about 2^99, so the
    # scaled objective cannot be an int64 vector.
    weights = {1: Fraction(1, 2**33 + 17), 2: Fraction(1, 2**33 + 25), 3: Fraction(1, 2**33 + 31)}
    res = max_weighted_rate(builtin_instance("no-side-info(3)"), weights)
    assert res.value == Fraction(1, 8589934609)
    assert res.best_choice.sets == (frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3}))
    assert res.rates == {1: 1, 2: 0, 3: 0}


SIDE_ONLY = IndexCodingInstance(3, (UserSpec.of({1}, {3}), UserSpec.of({2})))


def test_weighted_rejects_unbounded_sum():
    # Message 3 is known by user 1 and demanded by nobody.
    with pytest.raises(ValueError, match=r"messages \[3\]"):
        max_weighted_rate(SIDE_ONLY, {1: 1, 2: 1, 3: Fraction(1, 2)})
    with pytest.raises(ValueError, match="unknown messages"):
        max_weighted_rate(SIDE_ONLY, {4: 1})


@pytest.mark.parametrize("w3", [0, -1, None])
def test_weighted_undemanded_message_without_positive_weight(w3):
    weights = {1: 1, 2: 2} if w3 is None else {1: 1, 2: 2, 3: w3}
    res = max_weighted_rate(SIDE_ONLY, weights)
    assert (res.value, res.best_choice) == _weighted_by_generic_lp(SIDE_ONLY, weights)
    assert res.value == 2


def _draw_users(draw, n, alphabet="-dk"):
    """2-4 users on n messages, each demanding one or more of them; each
    other message is free (-), demanded (d) or known (k) as drawn from
    alphabet."""
    users = []
    for _ in range(draw(st.integers(2, 4))):
        demand = draw(st.integers(1, n))
        roles = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
        demands = {demand} | {i for i in range(1, n + 1) if roles[i - 1] == "d"}
        knows = {i for i in range(1, n + 1) if roles[i - 1] == "k"} - demands
        users.append(UserSpec.of(demands, knows))
    return users


@st.composite
def _weighted_cases(draw):
    """A valid instance, a cap and weights that keep the weighted sum finite."""
    n = draw(st.integers(2, 4))
    users = _draw_users(draw, n)
    inst = IndexCodingInstance(n, tuple(users), draw(st.integers(1, 3)))
    assume(not validate_instance(inst))
    cap = draw(st.sampled_from([None, 1]))
    # Keep the generic reference loop to a few hundred LPs per example.
    assume(sum(1 for _ in enumerate_decoding_choices(inst, cap)) <= 256)
    weight = st.fractions(min_value=-2, max_value=3, max_denominator=6)
    drawn = draw(st.lists(st.one_of(st.none(), weight), min_size=n, max_size=n))
    weights = {i: w for i, w in enumerate(drawn, start=1) if w is not None}
    demanded = set().union(*(u.demands for u in users))
    assume(all(w <= 0 or i in demanded for i, w in weights.items()))
    return inst, cap, weights


@given(_weighted_cases())
def test_weighted_sweep_matches_generic_lp(case):
    inst, cap, weights = case
    res = max_weighted_rate(inst, weights, per_user_cap=cap)
    assert (res.value, res.best_choice) == _weighted_by_generic_lp(inst, weights, cap)
    rates = [res.rates[i] for i in inst.message_ids()]
    assert check_rate_point(inst, res.best_choice, rates, res.allocation)
    assert res.value == sum(Fraction(w) * res.rates[i] for i, w in weights.items())

    # Object-dtype weights run the same pivots on Python integers.
    data = _prepare_price(inst, cap)
    total = sum(1 for _ in enumerate_decoding_choices(inst, cap))
    wnum, wden = _scaled_weights([weights.get(i, 0) for i in inst.message_ids()])
    assert _price_range(data, wnum.astype(object), wden, 0, total, 3) == _price_range(
        data, wnum, wden, 0, total, 3
    )


@given(_weighted_cases())
def test_symmetric_sweep_matches_generic_lp(case):
    inst, cap, _ = case
    res = max_symmetric_rate(inst, per_user_cap=cap)
    # Without weights the generic loop solves the symmetric LP, in bits.
    rate, choice = _weighted_by_generic_lp(inst, None, cap)
    assert (res.symmetric_rate, res.best_choice) == (rate / inst.channel_bits, choice)
    assert check_certificate(inst, res.best_choice, res.symmetric_rate, res.allocation)


# Decoding extra messages lifts this instance's symmetric rate from 1/4
# (every K_j = D_j) to 1/3: user 1 also decodes message 1 and user 4
# message 2.  Random instances this small almost never gain from extras,
# so a bound that ignored them would go unnoticed on those alone.
EXTRAS_HELP = IndexCodingInstance(
    4, (UserSpec.of({2}, {3, 4}), UserSpec.of({4}), UserSpec.of({1}, {2}), UserSpec.of({3}, {1, 4}))
)


def _search_cases(max_choices):
    """An instance, a cap and a sub-range [start, stop) of its at most
    max_choices choices.

    The instance is random, with repeated users and a 2- or 3-bit
    channel so that many choices tie, or EXTRAS_HELP with its messages
    relabelled, its users shuffled and maybe one repeated.  The cap is
    0, 1 or none; the range is all choices half the time.
    """

    @st.composite
    def random_instances(draw):
        n = draw(st.integers(3, 4))
        # Mostly free messages, so that most users have several options.
        users = _draw_users(draw, n, alphabet="---dk")
        users += draw(st.lists(st.sampled_from(users), max_size=2))
        return IndexCodingInstance(n, tuple(draw(st.permutations(users))), draw(st.sampled_from([2, 3])))

    @st.composite
    def extras_help(draw):
        new = dict(zip(range(1, 5), draw(st.permutations(range(1, 5)))))
        users = [
            UserSpec.of({new[i] for i in u.demands}, {new[i] for i in u.knows})
            for u in EXTRAS_HELP.users
        ]
        users += draw(st.lists(st.sampled_from(users), max_size=1))
        return IndexCodingInstance(4, tuple(draw(st.permutations(users))), draw(st.sampled_from([2, 3])))

    @st.composite
    def cases(draw):
        inst = draw(st.one_of(random_instances(), extras_help()))
        assume(not validate_instance(inst))
        # Cap 0 leaves one choice, so it is drawn less often.
        cap = draw(st.sampled_from([None, 1, None, 1, 0]))
        total = sum(1 for _ in enumerate_decoding_choices(inst, cap))
        assume(total <= max_choices)
        if draw(st.booleans()):
            return inst, cap, 0, total
        start = draw(st.integers(0, total - 1))
        return inst, cap, start, draw(st.integers(start + 1, total))

    return cases()


def _assert_search_matches_flat_scan(data, start, stop):
    tree = _search_range(data, start, stop)
    flat = _price_range(data, None, 1, start, stop, 1)
    # Value, first maximizing choice index, rate point and allocation;
    # the leaf runs the flat scan's LP, so even the dict order agrees.
    assert tree == flat
    assert list(tree[0][3].items()) == list(flat[0][3].items())


@given(_search_cases(max_choices=256))
def test_search_matches_flat_scan(case):
    inst, cap, start, stop = case
    _assert_search_matches_flat_scan(_prepare_price(inst, cap, relax=True), start, stop)


@st.composite
def _pricing_cases(draw):
    """One of _search_cases' instances, weights and keep.  The weights
    are small integers, positive on every demanded message and 0
    elsewhere, or None for the symmetric objective, so that values and
    rate vectors often tie."""
    inst, cap, _, _ = draw(_search_cases(max_choices=256))
    demanded = set().union(*(u.demands for u in inst.users))
    weights = [draw(st.integers(1, 3)) if i in demanded else 0 for i in inst.message_ids()]
    if draw(st.booleans()):
        weights = None
    return inst, cap, weights, draw(st.sampled_from([1, 3, 64]))


@given(_pricing_cases())
def test_price_range_matches_declarative_merge(case):
    # The streaming scan keeps what the declarative rule keeps: order all
    # choices by (-value, index), keep the first index of each rate
    # vector, take `keep`.
    inst, cap, weights, keep = case
    data = _prepare_price(inst, cap)
    wnum, wden = (None, 1) if weights is None else _scaled_weights(weights)
    each = [_price_range(data, wnum, wden, i, i + 1, 1) for i in range(data.total)]
    assert _price_range(data, wnum, wden, 0, data.total, keep) == _merge_candidates(each, keep)


def test_price_range_many_ties_matches_declarative_merge():
    # example1 at cap 1 under uniform weights: 2,304 choices share 57
    # distinct rate vectors, so the integer dedupe decides most choices
    # and keep=64 is never reached, as in the hull's first round.
    data = _prepare_price(EX1, 1)
    wnum, wden = _scaled_weights([Fraction(1, 6)] * 6)
    each = [_price_range(data, wnum, wden, i, i + 1, 1) for i in range(data.total)]
    kept = _price_range(data, wnum, wden, 0, data.total, 64)
    assert kept == _merge_candidates(each, 64)
    points = [point for _, _, point, _ in kept]
    assert len(set(points)) == len(points) == 57


CYCLE4 = IndexCodingInstance(4, tuple(UserSpec.of({i}, {i % 4 + 1}) for i in range(1, 5)))


def test_search_matches_flat_scan_past_int64():
    inst = IndexCodingInstance(4, CYCLE4.users + CYCLE4.users[:1], 2**70)
    data = _prepare_price(inst, None, relax=True)
    assert _choice_lp(data, 0, None)[0].t.dtype == object
    for start, stop in [(0, 1024), (300, 701)]:
        _assert_search_matches_flat_scan(data, start, stop)


@given(_search_cases(max_choices=64))
def test_node_bound_covers_every_leaf_below(case):
    inst, cap, _, _ = case
    data = _prepare_price(inst, cap, relax=True)
    counts = [len(o) for o in data.options]
    bounds = {}
    for idx in range(sum(1 for _ in enumerate_decoding_choices(inst, cap))):
        tab, width, _ = _choice_lp(data, idx, None)
        leaf = tab.value_of(0, width)
        opt = tuple(_option_indices(counts, idx))
        for d in range(len(opt) + 1):
            if opt[:d] not in bounds:
                bounds[opt[:d]] = _node_bound(data, opt[:d])
            assert bounds[opt[:d]] >= leaf
        # With every user fixed the bound LP is the leaf's own LP.
        assert bounds[opt] == leaf


@settings(max_examples=25)
@given(_search_cases(max_choices=256))
def test_pure_threads_match_serial_on_random_instances(case):
    inst, cap, _, _ = case
    serial = max_symmetric_rate(inst, cap)
    forked = max_symmetric_rate(inst, cap, threads=2)
    assert forked == serial and repr(forked) == repr(serial)


@settings(max_examples=25)
@given(_search_cases(max_choices=64))
def test_hull_threads_match_serial_on_random_instances(case):
    inst, cap, _, _ = case

    def outcome(threads):
        # A message known but demanded by nobody makes the hull's LPs
        # unbounded, a known fault; both paths must then fail alike.
        try:
            return repr(time_shared_symmetric_rate(inst, cap, threads=threads))
        except AssertionError as exc:
            return f"AssertionError: {exc}"

    assert outcome(2) == outcome(1)


def test_threads_match_serial():
    inst = builtin_instance("no-side-info(3)")
    assert max_symmetric_rate(inst, threads=2) == max_symmetric_rate(inst)
    assert time_shared_symmetric_rate(inst, threads=2) == time_shared_symmetric_rate(inst)


def test_time_sharing_trivial_instances():
    hull = time_shared_symmetric_rate(builtin_instance("xor2"))
    assert hull.converged
    assert hull.symmetric_rate == hull.upper_bound == 1
    assert sum(w for w, _ in hull.mixture) == 1

    hull3 = time_shared_symmetric_rate(builtin_instance("no-side-info(3)"))
    assert hull3.converged
    assert hull3.symmetric_rate == Fraction(1, 3)


def test_time_sharing_never_below_single_choice():
    inst = builtin_instance("no-side-info(2)")
    pure = max_symmetric_rate(inst)
    hull = time_shared_symmetric_rate(inst)
    assert hull.converged
    assert hull.symmetric_rate >= pure.symmetric_rate


def test_mixture_points_are_achievable():
    hull = time_shared_symmetric_rate(builtin_instance("no-side-info(3)"))
    for _, point in hull.mixture:
        assert check_rate_point(
            builtin_instance("no-side-info(3)"),
            point.choice,
            point.rates,
            point.allocation,
        )


# User 1 knows both other messages, users 2 and 3 know message 1.  The
# hull reaches 1/2 only on its fourth pricing sweep.
FOUR_SWEEPS = IndexCodingInstance(
    3, (UserSpec.of({1}, {2, 3}), UserSpec.of({2}, {1}), UserSpec.of({3}, {1}))
)


@pytest.mark.parametrize("max_rounds", [1, 2, 3])
def test_hull_round_limit_reports_valid_bounds(max_rounds):
    inst = FOUR_SWEEPS
    hull = time_shared_symmetric_rate(inst, max_rounds=max_rounds)
    assert not hull.converged and hull.rounds == max_rounds
    assert hull.symmetric_rate <= hull.upper_bound
    for _, point in hull.mixture:
        assert check_rate_point(inst, point.choice, point.rates, point.allocation)
    # The reported weights certify the upper bound: re-pricing them gives it back.
    priced = max_weighted_rate(inst, dict(enumerate(hull.weights, start=1)))
    assert priced.value / inst.channel_bits == hull.upper_bound


def test_channel_bits_past_int64():
    inst = IndexCodingInstance(3, builtin_instance("no-side-info(3)").users, 2**70)
    assert max_symmetric_rate(inst).symmetric_rate == Fraction(1, 3)
    hull = time_shared_symmetric_rate(inst)
    assert hull.converged and hull.symmetric_rate == hull.upper_bound == Fraction(1, 3)
    assert max_weighted_rate(inst, {1: 1, 2: 1, 3: 1}).value == 2**70


def test_weight_past_int64_stays_exact():
    # numpy alone would store these numerators as float64.
    res = max_weighted_rate(builtin_instance("no-side-info(3)"), {1: 2**63 + 1, 2: 1, 3: 1})
    assert res.value == 2**63 + 1


def test_hull_stops_once_the_pool_meets_the_bound():
    assert time_shared_symmetric_rate(FOUR_SWEEPS).rounds == 4
    # One sweep proves 1/3; the pool it adds already reaches it.
    hull = time_shared_symmetric_rate(builtin_instance("no-side-info(3)"), max_rounds=1)
    assert hull.converged and hull.rounds == 1
    assert hull.symmetric_rate == hull.upper_bound == Fraction(1, 3)


def test_hull_trace_reports_every_sweep():
    calls = []
    hull = time_shared_symmetric_rate(FOUR_SWEEPS, trace=lambda *args: calls.append(args))
    assert [r for r, _, _ in calls] == list(range(1, hull.rounds + 1)) == [1, 2, 3, 4]
    taus = [tau for _, tau, _ in calls]
    assert taus[1:] == sorted(taus[1:])
    least = min(best for _, _, best in calls)
    assert least == hull.upper_bound * hull.channel_bits == Fraction(1, 2)


def test_hull_needs_a_round():
    with pytest.raises(ValueError, match="max_rounds must be >= 1"):
        time_shared_symmetric_rate(FOUR_SWEEPS, max_rounds=0)


@pytest.mark.parametrize("threads", [0, -4])
@pytest.mark.parametrize(
    "call",
    [
        time_shared_symmetric_rate,
        max_symmetric_rate,
        lambda inst, threads: max_weighted_rate(inst, {1: 1}, threads=threads),
    ],
    ids=["hull", "pure", "weighted"],
)
def test_threads_below_one_is_a_value_error(call, threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        call(FOUR_SWEEPS, threads=threads)


@pytest.mark.parametrize(
    "inst, cap", [(FOUR_SWEEPS, None), (EX1, 1)], ids=["four-sweeps", "example1-cap1"]
)
def test_hull_threads_match_serial(inst, cap):
    assert time_shared_symmetric_rate(inst, cap, threads=2) == time_shared_symmetric_rate(inst, cap)


@pytest.mark.parametrize(
    "inst, cap", [(FOUR_SWEEPS, None), (EX1, 1)], ids=["four-sweeps", "example1-cap1"]
)
@pytest.mark.parametrize("skew", [1, 3], ids=["uniform", "skewed"])
def test_weighted_threads_match_serial(monkeypatch, inst, cap, skew):
    import multiprocessing

    # Uniform weights tie many choices; the merge must keep the serial sweep's first.
    weights = {i: Fraction(skew if i == 1 else 1) for i in inst.message_ids()}
    serial = max_weighted_rate(inst, weights, cap)
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: contexts.append(m) or get_context(m))
    forked = max_weighted_rate(inst, weights, cap, threads=2)
    assert contexts == ["fork"]
    assert forked == serial and repr(forked) == repr(serial)


def test_sweep_without_fork_runs_serially(monkeypatch):
    import multiprocessing

    serial = time_shared_symmetric_rate(FOUR_SWEEPS)

    def no_context(*args, **kwargs):
        raise AssertionError("no start method may be requested")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_context)
    assert time_shared_symmetric_rate(FOUR_SWEEPS, threads=2) == serial
    assert max_symmetric_rate(FOUR_SWEEPS, threads=2).symmetric_rate == Fraction(1, 2)


# Two decoding choices: user 1 may or may not also decode message 2.
TWO_CHOICES = IndexCodingInstance(2, (UserSpec.of({1}, set()), UserSpec.of({2}, {1})))


@pytest.mark.parametrize(
    "inst, total, threads, processes",
    [(TWO_CHOICES, 2, 3, 2), (FOUR_SWEEPS, 4, 3, 3), (FOUR_SWEEPS, 4, 2, 2)],
    ids=["two-choices-3-threads", "four-choices-3-threads", "four-choices-2-threads"],
)
def test_sweep_forks_one_worker_per_chunk(monkeypatch, inst, total, threads, processes):
    import multiprocessing

    assert _prepare_price(inst, None).total == total
    serial = max_weighted_rate(inst, {1: 2, 2: 1})
    asked = []
    get_context = multiprocessing.get_context

    def spying_context(method):
        context = get_context(method)
        pool = context.Pool

        class Spy:
            def Pool(self, n):
                asked.append(n)
                return pool(n)

        return Spy()

    monkeypatch.setattr(multiprocessing, "get_context", spying_context)
    forked = max_weighted_rate(inst, {1: 2, 2: 1}, threads=threads)
    assert asked == [processes]
    assert forked == serial and repr(forked) == repr(serial)


def _hull_by_disjunctive_lp(inst, cap):
    """Reference: the hull's symmetric value in bits as one disjunctive LP.

    Balas's formulation of the convex hull of a union of polyhedra: every
    decoding choice k gets its own copy x^k of the rate LP's variables,
    with right-hand sides scaled by a time share lambda_k >= 0, and the
    shares sum to one.  The symmetric value t is at most every message's
    total rate sum_k R_i^k.
    """
    variables = ["t"]
    cons = []
    shares = {}
    totals = {i: {"t": 1} for i in inst.message_ids()}
    for k, choice in enumerate(enumerate_decoding_choices(inst, cap)):
        lp = build_composite_lp(inst, choice, weights={1: 1})
        share = f"lambda{k}"
        copy = {v: f"{v}#{k}" for v in lp.variables}
        variables += [share, *copy.values()]
        shares[share] = 1
        for con in lp.constraints:
            coeffs = {copy[v]: a for v, a in con.coeffs.items()}
            if con.rhs:
                coeffs[share] = -con.rhs
            cons.append(Constraint(coeffs, con.relation, 0))
        for i in inst.message_ids():
            totals[i][copy[f"R_{i}"]] = -1
    cons.append(Constraint(shares, "=", 1))
    cons += [Constraint(coeffs, "<=", 0) for coeffs in totals.values()]
    sol = solve_lp(LinearProgram(tuple(variables), {"t": 1}, tuple(cons)))
    assert sol.status == OPTIMAL
    return sol.optimum


@st.composite
def _hull_cases(draw):
    """A valid instance on at most 3 messages, every one demanded, and a cap."""
    n = draw(st.integers(2, 3))
    users = []
    for _ in range(draw(st.integers(2, 4))):
        roles = draw(st.lists(st.sampled_from("-dk"), min_size=n, max_size=n))
        demands = {draw(st.integers(1, n))} | {i for i in range(1, n + 1) if roles[i - 1] == "d"}
        knows = {i for i in range(1, n + 1) if roles[i - 1] == "k"} - demands
        users.append(UserSpec.of(demands, knows))
    inst = IndexCodingInstance(n, tuple(users), draw(st.integers(1, 3)))
    assume(not validate_instance(inst))
    assume(set().union(*(u.demands for u in users)) == set(inst.message_ids()))
    cap = draw(st.sampled_from([None, 1]))
    assume(sum(1 for _ in enumerate_decoding_choices(inst, cap)) <= 16)
    return inst, cap


@given(_hull_cases())
def test_hull_matches_disjunctive_lp(case):
    inst, cap = case
    hull = time_shared_symmetric_rate(inst, cap)
    assert hull.converged
    oracle = _hull_by_disjunctive_lp(inst, cap) / inst.channel_bits
    assert hull.symmetric_rate == hull.upper_bound == oracle
    # The returned weights certify the bound: re-pricing them gives it back.
    priced = max_weighted_rate(inst, dict(enumerate(hull.weights, start=1)), per_user_cap=cap)
    assert priced.value / inst.channel_bits == hull.upper_bound


def _mixing_lp(points, n):
    """Reference: max r s.t. the mixture mu sums to one and r <= sum_s mu_s v_s[i]."""
    names = tuple(f"m{s}" for s in range(len(points)))
    cons = [Constraint({nm: 1 for nm in names}, "=", 1)]
    for i in range(n):
        coeffs = {"r": 1}
        for nm, v in zip(names, points):
            if v[i]:
                coeffs[nm] = -v[i]
        cons.append(Constraint(coeffs, "<=", 0))
    sol = solve_lp(LinearProgram(("r",) + names, {"r": 1}, tuple(cons)))
    assert sol.status == OPTIMAL
    return sol.optimum


@st.composite
def _pools(draw):
    """1-6 points of small nonnegative rationals in 2-4 coordinates.

    Half the pools are zero in one coordinate of every point, so that no
    mixture is positive everywhere and tau = 0.
    """
    n = draw(st.integers(2, 4))
    coord = st.fractions(min_value=0, max_value=3, max_denominator=5)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        points = [v[:i] + (Fraction(0),) + v[i + 1 :] for v in points]
    return points, n


@given(_pools())
def test_hull_master_dual_mixture_matches_mixing_lp(pool):
    points, n = pool
    tau, w, mixture = _hull_master(points, n)
    assert tau == _mixing_lp(points, n)
    assert len(mixture) == len(points)
    assert min(mixture) >= 0 and sum(mixture) == 1
    for i in range(n):
        assert sum(mu * v[i] for mu, v in zip(mixture, points)) >= tau
    assert min(w) >= 0 and sum(w) == 1
    assert tau == max(sum(wi * vi for wi, vi in zip(w, v)) for v in points)
