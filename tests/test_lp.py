"""Exact rational LP solver: unit cases and the vertex-enumeration oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from icl.composite import _choice_lp, _prepare_price, _scaled_weights
from icl.instance import builtin_instance
from icl.lp import (
    _LAZY_NORMALIZE,
    Constraint,
    LinearProgram,
    _int_array,
    _scaled_int_rows,
    _simplex,
    _Tableau,
    solve_lp,
)
from icl.oracle import enumerate_lp_vertices, lp_optimum_by_enumeration


def _lp(variables, objective, rows):
    return LinearProgram(
        variables=tuple(variables),
        objective=objective,
        constraints=tuple(Constraint(c, rel, b) for c, rel, b in rows),
    )


def test_single_variable_box():
    lp = _lp(("x",), {"x": 1}, [({"x": 1}, "<=", 1)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.optimum == 1
    assert sol.assignment["x"] == 1


def test_two_variable_known_optimum():
    lp = _lp(
        ("x", "y"),
        {"x": 2, "y": 3},
        [({"x": 1, "y": 2}, "<=", 4), ({"x": 3, "y": 1}, "<=", 6)],
    )
    sol = solve_lp(lp)
    assert sol.optimum == Fraction(34, 5)
    assert sol.assignment == {"x": Fraction(8, 5), "y": Fraction(6, 5)}


def test_equality_constraint():
    lp = _lp(
        ("x", "y"),
        {"x": 1},
        [({"x": 1, "y": 1}, "=", 3), ({"x": 1}, "<=", 2)],
    )
    sol = solve_lp(lp)
    assert sol.optimum == 2
    assert sol.assignment["y"] == 1


def test_infeasible_reported():
    lp = _lp(("x",), {"x": 1}, [({"x": 1}, "<=", -1)])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_reported():
    lp = _lp(("x", "y"), {"x": 1}, [({"y": 1}, "<=", 1)])
    assert solve_lp(lp).status == "unbounded"


def test_rational_data_exact():
    lp = _lp(
        ("x",),
        {"x": Fraction(1, 3)},
        [({"x": Fraction(2, 7)}, "<=", Fraction(3, 5))],
    )
    sol = solve_lp(lp)
    assert sol.assignment["x"] == Fraction(21, 10)
    assert sol.optimum == Fraction(7, 10)


def test_degenerate_vertex_terminates():
    # Three constraints through one point; cycling-prone without care.
    lp = _lp(
        ("x", "y"),
        {"x": 1, "y": 1},
        [
            ({"x": 1}, "<=", 1),
            ({"y": 1}, "<=", 1),
            ({"x": 1, "y": 1}, "<=", 2),
            ({"x": 1, "y": -1}, "<=", 0),
        ],
    )
    sol = solve_lp(lp)
    assert sol.optimum == 2


def test_zero_objective_feasibility_check():
    lp = _lp(("x",), {}, [({"x": 1}, "<=", 5)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.optimum == 0


def _random_bounded_lp(rng) -> LinearProgram:
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 11 - n))
    names = tuple(f"x{i}" for i in range(n))
    rows = []
    for _ in range(m):
        coeffs = {names[i]: int(rng.integers(-4, 5)) for i in range(n)}
        rows.append((coeffs, "<=", int(rng.integers(0, 7))))
    # Per-variable caps keep the region bounded so the vertex maximum
    # is the true optimum.
    for i in range(n):
        rows.append(({names[i]: 1}, "<=", 5))
    objective = {names[i]: int(rng.integers(-3, 4)) for i in range(n)}
    return _lp(names, objective, rows)


@pytest.mark.parametrize("seed", range(25))
def test_agrees_with_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    lp = _random_bounded_lp(rng)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.optimum == lp_optimum_by_enumeration(lp)


@pytest.mark.parametrize("mode", ["<=", "=", ">="])
@pytest.mark.parametrize("seed", range(10))
def test_simplex_int64_and_object_agree(seed, mode):
    # The same LP as int64 and as object arrays must pivot alike.  Making
    # the first row an equality, or a "<=" row with b < 0, runs phase 1.
    lp = _random_bounded_lp(np.random.default_rng(seed))
    first = lp.constraints[0]
    if mode == "=":
        first = Constraint(first.coeffs, "=", first.rhs)
    elif mode == ">=":
        first = Constraint({v: -c for v, c in first.coeffs.items()}, "<=", -first.rhs - 1)
    lp = LinearProgram(lp.variables, lp.objective, (first,) + lp.constraints[1:])
    A, b, obj = _scaled_int_rows(lp)
    eq = np.array([con.relation == "=" for con in lp.constraints]) if mode == "=" else None
    runs = []
    for dtype in (np.int64, object):
        status, tab, width = _simplex(A.astype(dtype), b.astype(dtype), obj.astype(dtype), eq)
        assert tab.t.dtype == dtype
        runs.append((status, tab.basis, [tab.value_of(j, width) for j in range(len(obj))]))
    assert runs[0] == runs[1]
    status, _, values = runs[0]
    best = lp_optimum_by_enumeration(lp)
    assert status == ("infeasible" if best is None else "optimal")
    if best is not None:
        assert sum(c * x for c, x in zip(obj, values)) == best


def test_vertices_include_feasible_corners():
    lp = _lp(
        ("x", "y"),
        {"x": 1, "y": 1},
        [({"x": 1, "y": 1}, "<=", 2), ({"x": 1}, "<=", 1)],
    )
    points = {tuple(sorted(p.items())) for p in enumerate_lp_vertices(lp)}
    corners = {
        (("x", Fraction(0)), ("y", Fraction(0))),
        (("x", Fraction(1)), ("y", Fraction(0))),
        (("x", Fraction(0)), ("y", Fraction(2))),
        (("x", Fraction(1)), ("y", Fraction(1))),
    }
    assert corners <= points


def test_int64_tableau_promotes_to_object_and_stays_exact():
    # Entries near 2^30 push the second pivot past the int64-safe bound.
    rng = random.Random(0)

    def draw(k):
        return [rng.randrange(1 << 29, 1 << 30) for _ in range(k)]

    A = [draw(4) for _ in range(4)]
    b, c = draw(4), draw(4)
    names = ("x0", "x1", "x2", "x3")
    rows = [(dict(zip(names, row)), "<=", bi) for row, bi in zip(A, b)]
    lp = _lp(names, dict(zip(names, c)), rows)
    status, tab, width = _simplex(_int_array(A), _int_array(b), _int_array(c))
    assert status == "optimal"
    assert tab.t.dtype == object
    assert sum(cj * tab.value_of(j, width) for j, cj in enumerate(c)) == lp_optimum_by_enumeration(lp)


def _parallel_equalities():
    # x + y = 3 and 2x + 2y = 6 are the same hyperplane.
    return _lp(
        ("x", "y"),
        {"x": 1},
        [({"x": 1, "y": 1}, "=", 3), ({"x": 2, "y": 2}, "=", 6), ({"x": 1}, "<=", 2)],
    )


def test_phase_one_drops_redundant_equality_row():
    lp = _parallel_equalities()
    A, b, obj = _scaled_int_rows(lp)
    status, tab, width = _simplex(A, b, obj, np.array([True, True, False]))
    assert status == "optimal"
    assert tab.value_of(0, width) == 2
    assert tab.nrows == 2
    assert solve_lp(lp).optimum == 2


def test_vertex_enumeration_handles_dependent_equalities():
    lp = _parallel_equalities()
    assert lp_optimum_by_enumeration(lp) == 2
    assert {"x": 2, "y": 1} in enumerate_lp_vertices(lp)


def _reference_simplex(A, b, c):
    """Phase-2 simplex on a dense Fraction tableau from the slack basis.

    Enters the first column with the largest positive reduced cost
    (after the integer kernel's stall budget, the first positive one) and
    leaves by the least ratio, ties to the smaller basis column.  Both
    rules are unchanged when a row is scaled by a positive factor, so the
    integer tableau must take the same pivots.  Returns the (row, column)
    of each pivot, the final basis and the optimum, None when unbounded.
    """
    m, n = len(A), len(c)
    width = n + m
    rows = [
        [Fraction(x) for x in A[i]] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, width))
    pivots = []
    while True:
        costs = obj[:width]
        if len(pivots) < 64 * (m + width):
            col = costs.index(max(costs))
        else:
            col = next((j for j, z in enumerate(costs) if z > 0), 0)
        if costs[col] <= 0:
            value = {basis[r]: rows[r][width] for r in range(m)}
            return pivots, basis, sum(cj * value.get(j, 0) for j, cj in enumerate(c))
        leave = None
        for r in range(m):
            if rows[r][col] > 0:
                ratio = rows[r][width] / rows[r][col]
                if leave is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        if leave is None:
            return pivots, basis, None
        prow = [x / rows[leave][col] for x in rows[leave]]
        rows[leave] = prow
        for row in rows[:leave] + rows[leave + 1 :] + [obj]:
            f = row[col]
            row[:] = [x - f * y for x, y in zip(row, prow)]
        basis[leave] = col
        pivots.append((leave, col))


def _pivot_rule_lp(seed):
    """An all-"<=" LP with b >= 0: small entries, degenerate right-hand
    sides in every third, and entries near 2^30 in every fifth, which
    push an int64 tableau past the int64-safe bound."""
    rng = random.Random(seed)
    n, m = rng.randint(2, 6), rng.randint(2, 8)
    if seed % 5 == 4:
        def entry():
            return rng.randrange(1 << 28, 1 << 30) * rng.choice((1, 1, 1, -1))
    else:
        def entry():
            return rng.randint(-2, 5)
    A = [[entry() for _ in range(n)] for _ in range(m)]
    b = [abs(entry()) * (seed % 3 != 0 or rng.random() < 0.3) for _ in range(m)]
    c = [entry() for _ in range(n)]
    return A, b, c


# Its second pivot row is G * (0, 1, -2, 1, 0 | 0) with G above
# _LAZY_NORMALIZE, so _normalize divides the row by G and the multiply
# must use the pivot entry 1, not G.
_G = 3 << 22
_NORMALIZED_PIVOT_LP = ([[_G, 1], [2 * _G, 3], [_G, 2]], [6, 12, 9], [2 * _G, 3])


def test_pivot_rule_matches_fraction_reference(monkeypatch):
    # Pins the kernel's pivot sequence: every pivot, the final basis and
    # the optimum equal the Fraction reference's, on int64 and on object
    # tableaus.
    pivot = _Tableau.pivot
    calls = []

    def recorded(self, r, c):
        calls.append((r, c))
        return pivot(self, r, c)

    monkeypatch.setattr(_Tableau, "pivot", recorded)
    promoted = degenerate = 0
    for A, b, c in [*map(_pivot_rule_lp, range(200)), _NORMALIZED_PIVOT_LP]:
        pivots, basis, optimum = _reference_simplex(A, b, c)
        degenerate += 0 in b
        for make in (_int_array, lambda x: np.array(x, dtype=object)):
            arrays = [make(x) for x in (A, b, c)]
            calls.clear()
            status, tab, width = _simplex(*arrays)
            assert calls == pivots
            assert tab.basis == basis
            if optimum is None:
                assert status == "unbounded"
            else:
                assert status == "optimal"
                assert sum(cj * tab.value_of(j, width) for j, cj in enumerate(c)) == optimum
            promoted += arrays[0].dtype == np.int64 and tab.t.dtype == object
    assert degenerate >= 40 and promoted >= 10


def test_normalize_changes_the_pivot_entry(monkeypatch):
    # The case _NORMALIZED_PIVOT_LP adds to the reference test: the
    # second pivot entry is G when pivot is called and 1 once the row is
    # normalized (row r of the result is the normalized pivot row).
    pivot = _Tableau.pivot
    entries = []

    def recorded(self, r, c):
        before = int(self.t[r, c])
        pivot(self, r, c)
        entries.append((before, int(self.t[r, c])))

    monkeypatch.setattr(_Tableau, "pivot", recorded)
    A, b, c = _NORMALIZED_PIVOT_LP
    status, tab, _ = _simplex(_int_array(A), _int_array(b), _int_array(c))
    assert status == "optimal" and tab.t.dtype == np.int64
    assert _G > _LAZY_NORMALIZE and entries == [(_G, _G), (_G, 1)]


def test_tracked_bound_covers_every_int64_pivot(monkeypatch):
    # After every int64 pivot the exact max|t| is within the bound that
    # decides whether the next pivot scans, on the pivot-rule LPs and on
    # every pricing LP of example1 at cap 1.
    pivot = _Tableau.pivot
    skipped = []

    def checked(self, r, c):
        scans = self.bound is None or self.bound > _LAZY_NORMALIZE
        pivot(self, r, c)
        if self.small:
            mx = int(np.abs(self.t).max())
            assert mx <= self.bound, (mx, self.bound)
            skipped.append(not scans)

    monkeypatch.setattr(_Tableau, "pivot", checked)
    for A, b, c in [*map(_pivot_rule_lp, range(200)), _NORMALIZED_PIVOT_LP]:
        _simplex(_int_array(A), _int_array(b), _int_array(c))
    data = _prepare_price(builtin_instance("example1"), 1)
    wnum, _ = _scaled_weights([Fraction(1, 6)] * 6)
    for idx in range(data.total):
        _choice_lp(data, idx, wnum)
    assert len(skipped) > 10_000 and 0 < sum(skipped) < len(skipped)
