"""Exact rational LP solver: unit cases and the vertex-enumeration oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from icl.lp import (
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
    for seed in range(200):
        A, b, c = _pivot_rule_lp(seed)
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
