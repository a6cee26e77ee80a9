"""Exact rational linear programming.

Primal simplex over exact integer tableaus.  Every variable is
nonnegative by construction; constraints are "<=" or "=" with rational
coefficients and the objective is maximized.

Rows are stored as integer numerators.  Rescaling a row by a positive
integer never changes the constraint it encodes, so a pivot is pure
integer cross-multiplication (row*p - a*pivot_row) followed by a gcd
normalization; nothing is ever rounded.

One rule picks the dtype, and this module alone applies it: _int_array
stores exact integers as int64 while every entry is within _INT64_SAFE,
and as Python integers (object dtype) otherwise.  _simplex, the one
tableau builder, runs on object dtype as soon as any input is object;
an int64 tableau whose next pivot could overflow is promoted to object
dtype and the solve continues exactly.  Anti-cycling uses Bland's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Promotion threshold: one cross-multiplication step at magnitude M stays
# below 2*M*M, so M <= 2^31 - 1 keeps a pivot inside int64.
_INT64_SAFE = (1 << 31) - 1

# Entries are gcd-reduced only once they pass this size; below it, pivots
# stay comfortably inside int64 without the per-pivot gcd cost.
_LAZY_NORMALIZE = 1 << 22

RationalLike = Fraction | int


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (<= or =)  rhs, over variables named in coeffs."""

    coeffs: Mapping[str, RationalLike]
    relation: str
    rhs: RationalLike

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "="):
            raise ValueError(f"relation must be '<=' or '=', got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints, x >= 0."""

    variables: tuple[str, ...]
    objective: Mapping[str, RationalLike]
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class LpSolution:
    status: str
    optimum: Fraction | None
    assignment: dict[str, Fraction]


class _Tableau:
    """Integer simplex tableau with basis-column sign invariants.

    Each basis column is nonzero in exactly one constraint row, positive
    there, and zero in the objective rows.  Rows are gcd-normalized to
    control entry growth; normalization rescales a row by a positive
    integer and therefore never changes the constraint (or reduced-cost
    signs) the row encodes, so on the int64 path it is deferred until
    entries actually grow.

    On the int64 path, bound is an upper bound on max|t|, or None before
    the first pivot.  A pivot with entry p maps every entry to
    t_ij*p - t_ic*t_rj, at most bound*(p + bound) in magnitude, so t is
    scanned only once that bound passes _LAZY_NORMALIZE.  This holds
    because nothing writes into t between pivots except pivot itself;
    what the builder writes before the first pivot is covered by None.
    """

    def __init__(self, t: np.ndarray, basis: list[int], nrows: int, slacks: slice):
        self.t = t
        self.basis = basis
        self.nrows = nrows          # constraint rows; objective rows follow
        self.slacks = slacks        # slack columns of the "<=" rows, in input order
        self.small = t.dtype == np.int64
        self.bound: int | None = None

    def pivot(self, r: int, c: int) -> None:
        t = self.t
        if t[r, c] < 0:
            # Only reached when driving a zero-valued variable out of the
            # basis; the row encodes an equality, so flipping it is free.
            t[r] = -t[r]
        if self.small and (self.bound is None or self.bound > _LAZY_NORMALIZE):
            mx = int(np.abs(t).max())
            if mx > _LAZY_NORMALIZE:
                self._normalize(t)
                mx = int(np.abs(t).max())
                if mx > _INT64_SAFE:
                    t = self.t = t.astype(object)
                    self.small = False
            self.bound = mx
        # Read after _normalize, which may have divided row r.
        p = t[r, c]
        prow = t[r]
        # Both forms build a new array, so the views of t stay valid.
        if p == 1:
            new = t - t[:, c, None] * prow
        else:
            new = t * p
            new -= t[:, c, None] * prow
        new[r] = prow
        if self.small:
            self.bound *= int(p) + self.bound
        else:
            self._normalize(new)
        self.t = new
        self.basis[r] = c

    def _normalize(self, t: np.ndarray) -> None:
        g = np.gcd.reduce(t, axis=1, initial=0)     # gcd is sign-free
        g[g == 0] = 1
        if (g > 1).any():
            t //= g[:, None]

    def run(self, objrow: int, width: int) -> str:
        """Primal simplex on objective row objrow.

        width is the number of eligible columns; column `width` holds the
        right-hand side.  Enters the column with the largest reduced cost
        (scale-free within the shared row scale) and falls back to
        Bland's rule after a stall budget, which guarantees termination
        even on degenerate problems.  Returns "optimal" or "unbounded".
        """
        m = self.nrows
        basis = self.basis
        bland_after = 64 * (m + width)
        iters = 0
        while True:
            t = self.t
            obj = t[objrow, :width]
            if iters < bland_after:
                # argmax is the first index of the largest reduced cost.
                c = int(obj.argmax())
                if obj[c] <= 0:
                    return OPTIMAL
            else:
                pos = np.nonzero(obj > 0)[0]
                if len(pos) == 0:
                    return OPTIMAL
                c = int(pos[0])
            iters += 1
            leave = -1
            bn = bd = 0
            rhs = t[:m, width].tolist()
            for r, a in enumerate(t[:m, c].tolist()):
                if a <= 0:
                    continue
                num = rhs[r]
                if leave < 0 or num * bd < bn * a or (num * bd == bn * a and basis[r] < basis[leave]):
                    leave, bn, bd = r, num, a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, c)

    def value_of(self, j: int, width: int) -> Fraction:
        for r in range(self.nrows):
            if self.basis[r] == j:
                return Fraction(int(self.t[r, width]), int(self.t[r, j]))
        return Fraction(0)

    def prices(self) -> list[int]:
        """Dual prices of the "<=" rows, in input order, times one common
        positive factor: minus the reduced costs of their slack columns."""
        return [-int(v) for v in self.t[self.nrows, self.slacks]]


def _int_array(values) -> np.ndarray:
    """Exact integers as an array: int64 while every entry is within
    _INT64_SAFE, Python integers (object dtype) otherwise.

    The dtype is never left to numpy, which would store [2**63, 1] as
    float64 and [2**63] as uint64.
    """
    a = np.array(values, dtype=object)
    if a.size and np.abs(a).max() > _INT64_SAFE:
        return a
    return a.astype(np.int64)


def _simplex(
    A: np.ndarray,
    b: np.ndarray,
    obj: np.ndarray,
    eq: np.ndarray | None = None,
) -> tuple[str, _Tableau, int]:
    """Maximize obj . x subject to A x (<= or =) b, x >= 0.

    A is an m x n integer matrix, b and obj integer vectors, and eq an
    optional boolean mask of the rows that are equalities.  Each is int64
    or object, as _int_array makes them; the tableau is object as soon as
    one of them is, and int64 otherwise.  Columns are the n structural
    variables, one slack per "<=" row, then one artificial per row that
    needs one, then the right-hand side.  With every row "<=" and b >= 0
    the slack basis is feasible and only phase 2 runs; otherwise rows
    with b < 0 are negated and phase 1 drives the artificials out first.
    Returns the status, the final tableau (value_of reads a structural
    variable) and the column index of the right-hand side.
    """
    m, n = A.shape
    dtype = object if object in (A.dtype, b.dtype, obj.dtype) else np.int64
    if eq is None and b.min(initial=0) >= 0:
        t = np.zeros((m + 1, n + m + 1), dtype=dtype)
        t[:m, :n] = A
        np.fill_diagonal(t[:m, n:], 1)
        t[:m, -1] = b
        t[m, :n] = obj
        tab = _Tableau(t, list(range(n, n + m)), m, slice(n, n + m))
        return tab.run(m, n + m), tab, n + m

    if eq is None:
        eq = np.zeros(m, dtype=bool)
    flip = b < 0
    slack = np.flatnonzero(~eq)
    art = np.flatnonzero(eq | flip)
    n_slack = len(slack)
    ncols = n + n_slack + len(art)
    scol = n + np.arange(n_slack)
    acol = n + n_slack + np.arange(len(art))
    sign = np.where(flip, -1, 1)
    t = np.zeros((m + (2 if len(art) else 1), ncols + 1), dtype=dtype)
    t[:m, :n] = A * sign[:, None]
    t[slack, scol] = sign[slack]
    t[art, acol] = 1
    t[:m, ncols] = b * sign
    t[m, :n] = obj
    basis = np.zeros(m, dtype=np.intp)
    basis[slack] = scol
    basis[art] = acol
    tab = _Tableau(t, basis.tolist(), m, slice(n, n + n_slack))
    OBJ = m

    if len(art):
        # Phase-1 objective: maximize minus the artificial sum.  Folding
        # in the artificial rows zeroes the reduced cost of every basic
        # column.
        W = m + 1
        t[W] = t[art].sum(axis=0)
        t[W, acol] = 0
        if tab.run(W, ncols) != OPTIMAL:
            raise AssertionError("phase 1 objective is bounded by construction")
        t = tab.t
        for r in range(m):
            if tab.basis[r] >= n + n_slack and t[r, ncols] != 0:
                return INFEASIBLE, tab, ncols
        # Drive zero-valued artificials out of the basis; a row offering
        # no pivot column is redundant and dropped.
        drop: list[int] = []
        for r in range(m):
            if tab.basis[r] < n + n_slack:
                continue
            t = tab.t
            c = next((j for j in range(n + n_slack) if t[r, j] != 0), -1)
            if c < 0:
                drop.append(r)
            else:
                tab.pivot(r, c)
        keep = [r for r in range(m) if r not in drop]
        m = len(keep)
        # Discard the artificial columns and the phase-1 row.
        t = tab.t
        body = t[keep + [OBJ]]
        tab = _Tableau(
            np.hstack([body[:, : n + n_slack], body[:, ncols:]]),
            [tab.basis[r] for r in keep],
            m,
            tab.slacks,
        )
        ncols = n + n_slack
        OBJ = m

    return tab.run(OBJ, ncols), tab, ncols


def _scaled_int_rows(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clear denominators row by row: integer matrix, rhs, objective.

    All three hold Python integers (object dtype).
    """
    index = {name: i for i, name in enumerate(lp.variables)}
    n = len(lp.variables)
    rows = np.zeros((len(lp.constraints), n), dtype=object)
    rhs: list[int] = []
    for r, con in enumerate(lp.constraints):
        vals = {index[v]: Fraction(c) for v, c in con.coeffs.items()}
        beta = Fraction(con.rhs)
        scale = math.lcm(beta.denominator, *(f.denominator for f in vals.values()))
        for j, f in vals.items():
            rows[r, j] = int(f * scale)
        rhs.append(int(beta * scale))
    obj_frac = [Fraction(lp.objective.get(v, 0)) for v in lp.variables]
    oscale = math.lcm(*(f.denominator for f in obj_frac)) if obj_frac else 1
    obj = [int(f * oscale) for f in obj_frac]
    return rows, np.array(rhs, dtype=object), np.array(obj, dtype=object)


def solve_lp(lp: LinearProgram, verify: bool = True) -> LpSolution:
    """Solve lp exactly.

    Every row and column goes to _simplex as is.  When the status is
    "optimal" the assignment satisfies every constraint exactly; with
    verify=True this is re-checked by substitution in rational arithmetic
    before returning.  Raises ValueError for undeclared or duplicate
    variable names.  The engine in composite.py calls _simplex directly.
    """
    declared = set(lp.variables)
    if len(declared) != len(lp.variables):
        raise ValueError("duplicate variable names")
    for con in lp.constraints:
        bad = set(con.coeffs) - declared
        if bad:
            raise ValueError(f"constraint uses undeclared variables {sorted(bad)}")
    bad = set(lp.objective) - declared
    if bad:
        raise ValueError(f"objective uses undeclared variables {sorted(bad)}")

    rows, rhs, obj = _scaled_int_rows(lp)
    eq = np.array([con.relation == "=" for con in lp.constraints], dtype=bool)
    status, tab, width = _simplex(_int_array(rows), _int_array(rhs), _int_array(obj), eq)
    if status != OPTIMAL:
        return LpSolution(status, None, {})

    assignment = {v: tab.value_of(j, width) for j, v in enumerate(lp.variables)}
    optimum = sum((Fraction(c) * assignment[v] for v, c in lp.objective.items()), Fraction(0))

    if verify:
        for con in lp.constraints:
            lhs = sum((Fraction(c) * assignment[v] for v, c in con.coeffs.items()), Fraction(0))
            ok = lhs == Fraction(con.rhs) if con.relation == "=" else lhs <= Fraction(con.rhs)
            if not ok:
                raise AssertionError(f"solver returned an assignment violating {con}")
        if any(val < 0 for val in assignment.values()):
            raise AssertionError("solver returned a negative assignment")
    return LpSolution(OPTIMAL, optimum, assignment)
