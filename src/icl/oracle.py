"""Brute-force baselines for cross-checking the analytic paths.

Everything here is deliberately exhaustive: enumerate every GF(2)
encoding matrix up to a budget, every basis of a small LP, every
message-bit pattern of a small scheme.  The main modules never import
this; it exists so tests can compare fast algorithms against slow,
obviously-correct ones on instances small enough to enumerate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .gf2 import Gf2Matrix
from .instance import IndexCodingInstance
from .lp import Constraint, LinearProgram
from .schemes import LinearScheme, _unknown_ids, zero_error_decode_check


class BudgetExceeded(Exception):
    """The exhaustive search would not fit in the given budget."""


class TooLarge(Exception):
    """The problem exceeds the enumerator's hard size limits."""


@dataclass(frozen=True)
class SearchBudget:
    """Limits for exhaustive scheme search; all fields must be positive."""

    max_channel_bits: int = 2
    max_message_bits: int = 1
    max_candidates: int = 1 << 20
    time_cap_seconds: float = 120.0

    def __post_init__(self) -> None:
        if min(self.max_channel_bits, self.max_message_bits, self.max_candidates) < 1:
            raise ValueError("budget limits must be positive")
        if self.time_cap_seconds <= 0:
            raise ValueError("time cap must be positive")


def best_scalar_linear_rate(
    inst: IndexCodingInstance,
    budget: SearchBudget = SearchBudget(),
) -> tuple[Fraction, LinearScheme | None]:
    """Best symmetric rate of any uniform-length GF(2) linear scheme.

    Enumerates every c x (n*L) encoding matrix for every channel size
    c <= budget.max_channel_bits and message length
    L <= budget.max_message_bits, keeps those where every user decodes
    with zero error, and maximizes min_i L_i / c = L / c.  Returns the
    first witness in enumeration order, or (0, None) if nothing passes.
    Hard-limited to 4 messages and 2 channel bits; raises BudgetExceeded
    beyond that, when the candidate count would exceed the budget, or on
    the time cap.
    """
    n = inst.num_messages
    if n > 4:
        raise BudgetExceeded(f"exhaustive scheme search handles at most 4 messages, got {n}")
    if budget.max_channel_bits > 2:
        raise BudgetExceeded("exhaustive scheme search handles at most 2 channel bits")
    deadline = time.monotonic() + budget.time_cap_seconds
    best = Fraction(0)
    witness: LinearScheme | None = None
    tried = 0
    for L in range(1, budget.max_message_bits + 1):
        total = n * L
        everything = frozenset(range(1, n + 1))
        for c in range(1, budget.max_channel_bits + 1):
            if Fraction(L, c) <= best:
                continue
            count = 1 << (c * total)
            if tried + count > budget.max_candidates:
                raise BudgetExceeded(
                    f"{tried + count} candidate matrices exceed the budget of {budget.max_candidates}"
                )
            target = replace(inst, channel_bits=c)
            mask = (1 << total) - 1
            for enc in range(count):
                tried += 1
                if tried % 4096 == 0 and time.monotonic() > deadline:
                    raise BudgetExceeded("time cap reached during scheme enumeration")
                rows = tuple(enc >> (r * total) & mask for r in range(c))
                scheme = LinearScheme(
                    (L,) * n, c, ((everything, Gf2Matrix(rows, total)),)
                )
                if all(zero_error_decode_check(target, scheme, mode="algebraic")):
                    best = Fraction(L, c)
                    witness = scheme
                    break
    return best, witness


def _solve_square(M: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Exact solution of M x = b, or None when M is singular."""
    n = len(b)
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def enumerate_lp_vertices(lp: LinearProgram) -> list[dict[str, Fraction]]:
    """Every basic feasible point of {x >= 0, constraints}, exactly.

    Tries all ways to make n of the constraint/bound hyperplanes active,
    solves each square system in rational arithmetic, and keeps the
    solutions satisfying everything.  Equality rows need not be among
    the active ones, since the feasibility check enforces them, so
    dependent equalities do not hide a vertex.  Raises TooLarge beyond
    6 variables or 10 constraints.  The feasible region's vertices are
    a subset of the result; on an infeasible program the result is
    empty.
    """
    names = lp.variables
    n = len(names)
    m = len(lp.constraints)
    if n > 6 or m > 10:
        raise TooLarge(f"vertex enumeration handles <= 6 variables and <= 10 constraints, got {n}, {m}")
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for con in lp.constraints:
        rows.append([Fraction(con.coeffs.get(v, 0)) for v in names])
        rhs.append(Fraction(con.rhs))
    # Hyperplane pool: constraint rows, then coordinate planes x_i = 0.
    pool = list(range(m + n))
    points: list[dict[str, Fraction]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for active in combinations(pool, n):
        M: list[list[Fraction]] = []
        b: list[Fraction] = []
        for a in active:
            if a < m:
                M.append(rows[a])
                b.append(rhs[a])
            else:
                M.append([Fraction(int(j == a - m)) for j in range(n)])
                b.append(Fraction(0))
        x = _solve_square(M, b)
        if x is None or any(v < 0 for v in x):
            continue
        ok = True
        for i in range(m):
            lhs = sum(c * v for c, v in zip(rows[i], x))
            if (lhs != rhs[i]) if lp.constraints[i].relation == "=" else (lhs > rhs[i]):
                ok = False
                break
        if ok and tuple(x) not in seen:
            seen.add(tuple(x))
            points.append(dict(zip(names, x)))
    return points


def lp_optimum_by_enumeration(lp: LinearProgram) -> Fraction | None:
    """Max of the objective over enumerate_lp_vertices; None if empty."""
    best: Fraction | None = None
    for point in enumerate_lp_vertices(lp):
        val = sum((Fraction(c) * point[v] for v, c in lp.objective.items()), Fraction(0))
        if best is None or val > best:
            best = val
    return best


def exhaustive_conditional_entropy(scheme: LinearScheme, known: Iterable[int] = ()) -> int:
    """H(X | U_known) by enumerating the unknown bits directly.

    Runs every assignment of the unknown message bits (known bits fixed
    to zero; a linear map's image size is translation invariant),
    collects the distinct channel outputs, and returns log2 of their
    count, which for a linear map is always an integer.  Raises TooLarge
    beyond 20 unknown bits and ValueError for a known id outside 1..n.
    """
    offs = scheme.offsets()
    cols = [b for i in _unknown_ids(scheme, known) for b in range(offs[i - 1], offs[i])]
    if len(cols) > 20:
        raise TooLarge(f"exhaustive entropy handles <= 20 unknown bits, got {len(cols)}")
    rows = scheme.global_rows()
    outputs = set()
    for pattern in range(1 << len(cols)):
        v = 0
        for i, col in enumerate(cols):
            if pattern >> i & 1:
                v |= 1 << col
        out = 0
        for j, row in enumerate(rows):
            out |= ((row & v).bit_count() & 1) << j
        outputs.add(out)
    count = len(outputs)
    bits = count.bit_length() - 1
    if 1 << bits != count:
        raise AssertionError("linear map image size must be a power of two")
    return bits
