"""Acceptance gate: the seven headline guarantees, one line each.

Every test prints a single ``[PASS]/[FAIL] criterion-N: ...`` line before
asserting, so the terminal summary (``-rP`` is in addopts) shows exactly
one status line per criterion, with the measured numbers inline.
"""

import os
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from icl.caching import (
    canonical_worst_demand,
    cman_place,
    decode_all_users,
    deliver,
    dman_deliver,
    dman_place,
    iter_demands,
    r_c_opt,
    r_d_opt,
    random_library,
    verify_delivery_scheme,
)
from icl.composite import (
    enumerate_decoding_choices,
    max_symmetric_rate,
    time_shared_symmetric_rate,
)
from icl.gf2 import Gf2Matrix
from icl.instance import builtin_instance
from icl.lp import Constraint, LinearProgram, solve_lp
from icl.oracle import exhaustive_conditional_entropy, lp_optimum_by_enumeration
from icl.outer import acyclic_symmetric_bound
from icl.schemes import (
    LinearScheme,
    builtin_scheme,
    check_scheme,
    conditional_entropy,
    embed_composite_allocation,
    zero_error_decode_check,
)

EXAMPLE1 = builtin_instance("example1")
RATE_LIMIT_SECONDS = 600.0
GRID_LIMIT_SECONDS = 900.0


def _report(ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


@pytest.fixture(scope="module")
def example1_hull():
    """The headline computation, shared by criteria 1 and 2."""
    configurations = sum(1 for _ in enumerate_decoding_choices(EXAMPLE1))
    start = time.perf_counter()
    res = time_shared_symmetric_rate(EXAMPLE1, threads=os.cpu_count() or 1)
    elapsed = time.perf_counter() - start
    return res, elapsed, configurations


@pytest.mark.slow
def test_criterion_1_composite_rate(example1_hull):
    res, elapsed, configurations = example1_hull
    rounded = f"{float(res.symmetric_rate):.4f}"
    ok = (
        rounded == "0.2963"
        and res.converged
        and res.upper_bound == res.symmetric_rate
        and configurations <= 65536
        and elapsed <= RATE_LIMIT_SECONDS
    )
    _report(
        ok,
        f"criterion-1: composite rate of the six-user benchmark = "
        f"{res.symmetric_rate} ({float(res.symmetric_rate):.6f}, rounds to {rounded}) "
        f"with matching exact upper bound, {configurations} decoding configurations "
        f"swept in {elapsed:.0f}s (limit {RATE_LIMIT_SECONDS:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_2_linear_scheme_beats_composite(example1_hull):
    hull, _, _ = example1_hull
    scheme = builtin_scheme("example2")
    verdict = check_scheme(EXAMPLE1, scheme)
    zero_alg = all(zero_error_decode_check(EXAMPLE1, scheme, mode="algebraic"))
    zero_enum = all(zero_error_decode_check(EXAMPLE1, scheme, mode="enumerate"))
    ok = (
        verdict.passed
        and zero_alg
        and zero_enum
        and verdict.symmetric_rate == Fraction(1, 3)
        and scheme.channel_bits == 3
        and hull.symmetric_rate < Fraction(1, 3)
    )
    _report(
        ok,
        f"criterion-2: hand-built scheme certified (joint-decoding {verdict.passed}, "
        f"zero-error algebraic {zero_alg} / enumerate {zero_enum}) at symmetric rate "
        f"{verdict.symmetric_rate} of {scheme.channel_bits} channel bits; composite "
        f"rate {hull.symmetric_rate} is strictly smaller",
    )


def test_criterion_3_outer_bound_met():
    outer = acyclic_symmetric_bound(EXAMPLE1)
    achieved = check_scheme(EXAMPLE1, builtin_scheme("example2")).symmetric_rate
    ok = (
        outer.mais_size == 3
        and outer.symmetric_upper == Fraction(1, 3)
        and achieved == outer.symmetric_upper
    )
    _report(
        ok,
        f"criterion-3: largest acyclic induced subgraph has size {outer.mais_size}, "
        f"upper bound {outer.symmetric_upper} per channel bit, met exactly by the "
        f"certified scheme rate {achieved}",
    )


def _sweep_centralized() -> tuple[str | None, int]:
    checked = 0
    for K in range(1, 6):
        for N in range(1, 6):
            for t in range(K + 1):
                B = 4 * comb(K, t)
                lib = random_library(N, B, seed=1000 + 100 * K + 10 * N + t)
                cache, sub = cman_place(K, t, lib)
                for d in iter_demands(K, N):
                    served = len(set(d))
                    wanted = {
                        "full": Fraction(comb(K, t + 1), comb(K, t)),
                        "reduced": Fraction(
                            comb(K, t + 1) - comb(K - served, t + 1), comb(K, t)
                        ),
                    }
                    for mode, want in wanted.items():
                        tr = deliver(sub, d, mode=mode)
                        if tr.load != want:
                            return (
                                f"load {tr.load} != {want} at K={K} N={N} t={t} "
                                f"d={d} mode={mode}",
                                checked,
                            )
                        decoded = decode_all_users(cache, tr, d)
                        bad = [
                            k
                            for k in range(1, K + 1)
                            if decoded[k - 1] != lib.files[d[k - 1] - 1]
                        ]
                        if bad:
                            return (
                                f"users {bad} misdecoded at K={K} N={N} t={t} "
                                f"d={d} mode={mode}",
                                checked,
                            )
                        checked += 1
    return None, checked


def test_criterion_4_centralized_loads_exhaustive():
    start = time.perf_counter()
    err, checked = _sweep_centralized()
    elapsed = time.perf_counter() - start
    ok = err is None and elapsed <= GRID_LIMIT_SECONDS
    _report(
        ok,
        f"criterion-4: {checked} deliver+decode runs over K<=5, N<=5, t in [0..K], "
        f"every demand vector, both modes: loads match the closed forms exactly and "
        f"every user decoded bit-exactly in {elapsed:.0f}s (limit "
        f"{GRID_LIMIT_SECONDS:.0f}s)" + (f"; first failure: {err}" if err else ""),
    )


def _sweep_synthesis() -> tuple[str | None, int]:
    checked = 0
    for K in range(1, 6):
        for N in range(1, 6):
            d = canonical_worst_demand(K, N)
            for t in range(K + 1):
                rep = verify_delivery_scheme(K, N, t, d)
                ref = r_c_opt(K, N, t)
                where = f"K={K} N={N} t={t} d={d}"
                if not rep.passed:
                    return f"certification failed at {where}: {rep}", checked
                if rep.load != ref or rep.expected_load != ref:
                    return (
                        f"load {rep.load} / closed form {rep.expected_load} != {ref} "
                        f"at {where}",
                        checked,
                    )
                if t < K and rep.sum_rate_inverse != ref:
                    return (
                        f"sum-rate inversion {rep.sum_rate_inverse} != {ref} at {where}",
                        checked,
                    )
                checked += 1
    return None, checked


def test_criterion_5_synthesized_delivery_schemes():
    err, checked = _sweep_synthesis()
    ok = err is None
    _report(
        ok,
        f"criterion-5: {checked} synthesized delivery schemes over the same grid with "
        f"worst-case demands all certified, and inverting the certified symmetric rate "
        f"reproduces the centralized optimum exactly"
        + (f"; first failure: {err}" if err else ""),
    )


def _sweep_decentralized():
    shrink = 0
    pairs = 0
    worst_rel = Fraction(0)
    decoded_runs = 0
    for K in (2, 3, 4):
        N = K
        d = canonical_worst_demand(K, N)
        for ratio in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            M = N * ratio
            ref = r_d_opt(K, N, M)
            devs: dict[int, list[Fraction]] = {}
            for B in (10**5, 10**3):
                loads = []
                for seed in range(20):
                    lib = random_library(N, B, seed=40_000 + seed)
                    cache, sub = dman_place(K, M, lib, seed=50_000 + seed)
                    tr = dman_deliver(sub, d)
                    decoded = decode_all_users(cache, tr, d)
                    bad = [
                        k
                        for k in range(1, K + 1)
                        if decoded[k - 1] != lib.files[d[k - 1] - 1]
                    ]
                    if bad:
                        return (
                            f"users {bad} misdecoded at K={K} M/N={ratio} B={B} "
                            f"seed={seed}",
                            0,
                            0,
                            worst_rel,
                            decoded_runs,
                        )
                    decoded_runs += 1
                    loads.append(tr.load)
                devs[B] = [abs(x - ref) for x in loads]
                if B == 10**5:
                    rel = abs(sum(loads, Fraction(0)) / len(loads) - ref) / ref
                    worst_rel = max(worst_rel, rel)
                    if rel > Fraction(1, 10):
                        return (
                            f"mean load off by {float(rel):.4f} at K={K} M/N={ratio}",
                            0,
                            0,
                            worst_rel,
                            decoded_runs,
                        )
            for big, small in zip(devs[10**5], devs[10**3]):
                pairs += 1
                shrink += big < small
    return None, shrink, pairs, worst_rel, decoded_runs


def test_criterion_6_decentralized_statistics():
    err, shrink, pairs, worst_rel, decoded_runs = _sweep_decentralized()
    ok = err is None and 10 * shrink >= 9 * pairs
    _report(
        ok,
        f"criterion-6: {decoded_runs} decentralized runs (K in 2..4, three cache "
        f"ratios, 20 seeds, two file sizes) all decoded bit-exactly; worst mean "
        f"deviation from the asymptotic load {float(worst_rel) * 100:.2f}% (limit "
        f"10%); deviation shrank with file size for {shrink}/{pairs} seed pairs "
        f"(need 90%)" + (f"; first failure: {err}" if err else ""),
    )


def _random_bounded_lp(rng) -> LinearProgram:
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 11 - n))
    names = tuple(f"x{i}" for i in range(n))
    rows = []
    for _ in range(m):
        coeffs = {names[i]: int(rng.integers(-4, 5)) for i in range(n)}
        rows.append(Constraint(coeffs, "<=", int(rng.integers(0, 7))))
    for i in range(n):
        rows.append(Constraint({names[i]: 1}, "<=", 5))
    objective = {names[i]: int(rng.integers(-3, 4)) for i in range(n)}
    return LinearProgram(names, objective, tuple(rows))


def _random_scheme(rng) -> LinearScheme:
    n = int(rng.integers(2, 5))
    bits = [int(rng.integers(1, 4)) for _ in range(n)]
    while sum(bits) > 10:
        bits[int(rng.integers(0, n))] = 1
    total = sum(bits)
    offs = [0]
    for L in bits:
        offs.append(offs[-1] + L)
    composites = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, n + 1))
        P = frozenset(
            int(i) for i in rng.choice(np.arange(1, n + 1), size=size, replace=False)
        )
        support = 0
        for i in P:
            support |= ((1 << bits[i - 1]) - 1) << offs[i - 1]
        nrows = int(rng.integers(1, 4))
        rows = tuple(int(rng.integers(0, 1 << total)) & support for _ in range(nrows))
        composites.append((P, Gf2Matrix(rows, total)))
    channel = sum(len(m.rows) for _, m in composites)
    return LinearScheme(tuple(bits), channel, tuple(composites))


def _oracle_agreement() -> str | None:
    for seed in range(100):
        rng = np.random.default_rng(seed)
        lp = _random_bounded_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            return f"LP seed {seed}: solver status {sol.status}"
        if sol.optimum != lp_optimum_by_enumeration(lp):
            return f"LP seed {seed}: simplex and vertex enumeration disagree"
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        scheme = _random_scheme(rng)
        n = len(scheme.msg_bits)
        known = set(
            int(i)
            for i in rng.choice(
                np.arange(1, n + 1), size=int(rng.integers(0, n + 1)), replace=False
            )
        )
        for cond in ((), known):
            if conditional_entropy(scheme, cond) != exhaustive_conditional_entropy(
                scheme, cond
            ):
                return f"scheme seed {seed}: entropy mismatch given {sorted(cond)}"
    return None


def _embedding_spot_checks() -> str | None:
    for name, c, want in (("xor2", 1, Fraction(1)), ("no-side-info(3)", 3, Fraction(1, 3))):
        inst = builtin_instance(name, channel_bits=c)
        res = max_symmetric_rate(inst)
        if res.symmetric_rate != want:
            return f"{name}: composite rate {res.symmetric_rate} != {want}"
        if any(v.denominator != 1 for v in res.allocation.values()):
            return f"{name}: allocation is not integral, cannot embed"
        scheme = embed_composite_allocation(
            inst.num_messages, c, {P: int(v) for P, v in res.allocation.items()}
        )
        verdict = check_scheme(inst, scheme, res.best_choice)
        if not verdict.passed or verdict.symmetric_rate != want:
            return f"{name}: embedded scheme not certified at rate {want}"
        if not all(zero_error_decode_check(inst, scheme, mode="enumerate")):
            return f"{name}: embedded scheme is not zero-error"
    return None


def test_criterion_7_oracle_agreement():
    err = _oracle_agreement() or _embedding_spot_checks()
    ok = err is None
    _report(
        ok,
        "criterion-7: exact simplex matches vertex enumeration on 100 seeded LPs; "
        "rank-based conditional entropy matches exhaustive enumeration on 50 seeded "
        "schemes (conditioned and unconditioned); composite allocations embed into "
        "certified zero-error linear schemes on both spot-check instances"
        + (f"; first failure: {err}" if err else ""),
    )
