"""Exact rational linear programming.

Primal simplex over exact integer tableaus.  Every variable is
nonnegative by construction; constraints are "<=" or "=" with rational
coefficients and the objective is maximized.

Rows are stored as integer numerators.  Rescaling a row by a positive
integer never changes the constraint it encodes, so a pivot is pure
integer cross-multiplication (row*p - a*pivot_row) followed by a gcd
normalization; nothing is ever rounded.  The tableau lives in an int64
numpy array while entries fit; if a pivot could overflow, it is promoted
to Python integers (object dtype) and the solve continues exactly.
Anti-cycling uses Bland's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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
    """

    def __init__(self, t: np.ndarray, basis: list[int], nrows: int):
        self.t = t
        self.basis = basis
        self.nrows = nrows          # constraint rows; objective rows follow
        self.small = t.dtype == np.int64

    def pivot(self, r: int, c: int) -> None:
        t = self.t
        if t[r, c] < 0:
            # Only reached when driving a zero-valued variable out of the
            # basis; the row encodes an equality, so flipping it is free.
            t[r] = -t[r]
        if self.small:
            mx = int(np.abs(t).max())
            if mx > _LAZY_NORMALIZE:
                self._normalize(t)
                mx = int(np.abs(t).max())
                if mx > _INT64_SAFE:
                    t = self.t = t.astype(object)
                    self.small = False
        p = t[r, c]
        col = t[:, c].copy()
        prow = t[r].copy()
        new = t * p
        new -= np.outer(col, prow)
        new[r] = prow
        if not self.small:
            self._normalize(new)
        self.t = new
        self.basis[r] = c

    def _normalize(self, t: np.ndarray) -> None:
        if self.small:
            g = np.gcd.reduce(np.abs(t), axis=1)
            g[g == 0] = 1
            if (g > 1).any():
                t //= g[:, None]
        else:
            for r in range(t.shape[0]):
                g = 0
                for v in t[r]:
                    g = math.gcd(g, abs(int(v)))
                    if g == 1:
                        break
                if g > 1:
                    t[r] //= g

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
            pos = np.nonzero(obj > 0)[0]
            if len(pos) == 0:
                return OPTIMAL
            if iters < bland_after:
                c = int(pos[np.argmax(obj[pos])])
            else:
                c = int(pos[0])
            iters += 1
            colv = t[:m, c]
            leave = -1
            bn = bd = 0
            for r in np.nonzero(colv > 0)[0]:
                a = int(colv[r])
                num = int(t[r, width])
                if leave < 0 or num * bd < bn * a or (num * bd == bn * a and basis[r] < basis[leave]):
                    leave, bn, bd = int(r), num, a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, c)

    def value_of(self, j: int, width: int) -> Fraction:
        for r in range(self.nrows):
            if self.basis[r] == j:
                return Fraction(int(self.t[r, width]), int(self.t[r, j]))
        return Fraction(0)


def _simplex(
    A: np.ndarray,
    rels: Sequence[str],
    b: Sequence[int],
    obj: Sequence[int],
) -> tuple[str, list[Fraction]]:
    """Two-phase primal simplex on integer data; x >= 0 implicit.

    A is an m x n integer matrix (int64 or object), b and obj integer
    vectors.  Returns (status, values of the n structural variables).
    """
    m = len(rels)
    n = len(obj)

    rows: list[list[int]] = []
    rhs: list[int] = []
    slack_sign: list[int] = []
    need_art: list[bool] = []
    for r in range(m):
        row = [int(v) for v in A[r]]
        beta = int(b[r])
        if beta < 0:
            row = [-v for v in row]
            beta = -beta
            flipped = True
        else:
            flipped = False
        rows.append(row)
        rhs.append(beta)
        if rels[r] == "<=":
            slack_sign.append(-1 if flipped else 1)
            need_art.append(flipped)
        else:
            slack_sign.append(0)
            need_art.append(True)

    n_slack = sum(1 for s in slack_sign if s)
    n_art = sum(need_art)
    two_phase = n_art > 0
    ncols = n + n_slack + n_art

    big = max(
        [1]
        + [abs(v) for row in rows for v in row]
        + [abs(v) for v in rhs]
        + [abs(v) for v in obj]
    )
    dtype = np.int64 if big <= _INT64_SAFE else object
    t = np.zeros((m + (2 if two_phase else 1), ncols + 1), dtype=dtype)

    basis: list[int] = []
    si, ai = n, n + n_slack
    for r in range(m):
        for j, v in enumerate(rows[r]):
            t[r, j] = v
        if slack_sign[r]:
            t[r, si] = slack_sign[r]
        if need_art[r]:
            t[r, ai] = 1
            basis.append(ai)
            ai += 1
        else:
            basis.append(si)
        if slack_sign[r]:
            si += 1
        t[r, ncols] = rhs[r]

    OBJ = m
    for j, v in enumerate(obj):
        t[OBJ, j] = v

    tab = _Tableau(t, basis, m)

    if two_phase:
        # Phase-1 objective: maximize minus the artificial sum.  Folding
        # in the artificial rows zeroes the reduced cost of every basic
        # column.
        W = m + 1
        for r in range(m):
            if need_art[r]:
                t[W] += t[r]
        for r in range(m):
            if need_art[r]:
                t[W, tab.basis[r]] = 0
        if tab.run(W, ncols) != OPTIMAL:
            raise AssertionError("phase 1 objective is bounded by construction")
        t = tab.t
        for r in range(m):
            if tab.basis[r] >= n + n_slack and t[r, ncols] != 0:
                return INFEASIBLE, []
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
        )
        ncols = n + n_slack
        OBJ = m

    status = tab.run(OBJ, ncols)
    if status != OPTIMAL:
        return status, []
    return OPTIMAL, [tab.value_of(j, ncols) for j in range(n)]


def _solve_leq_arrays(
    A: np.ndarray, rhs: np.ndarray, obj: int | np.ndarray
) -> tuple[str, _Tableau, int]:
    """Fast entry: maximize obj . x subject to A x <= rhs, x >= 0.

    obj is either a column index (maximize that variable) or an integer
    coefficient vector over the structural variables.  Requires integer A
    with moderate entries and rhs >= 0, so the slack basis is feasible
    and no phase 1 is needed.  An object-dtype obj (Python integers past
    the int64 range) puts the whole tableau on object dtype.  Returns the
    status, the final tableau, and the column index of the right-hand
    side.
    """
    m, n = A.shape
    big = isinstance(obj, np.ndarray) and obj.dtype == object
    t = np.zeros((m + 1, n + m + 1), dtype=object if big else np.int64)
    t[:m, :n] = A
    t[np.arange(m), n + np.arange(m)] = 1
    t[:m, -1] = rhs
    if isinstance(obj, np.ndarray):
        t[m, :n] = obj
    else:
        t[m, obj] = 1
    tab = _Tableau(t, list(range(n, n + m)), m)
    status = tab.run(m, n + m)
    return status, tab, n + m


def _scaled_int_rows(lp: LinearProgram) -> tuple[np.ndarray, list[int], list[int]]:
    """Clear denominators row by row: integer matrix, rhs, objective."""
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
    return rows, rhs, obj


def solve_lp(lp: LinearProgram, verify: bool = True) -> LpSolution:
    """Solve lp exactly.

    When the status is "optimal" the assignment satisfies every
    constraint exactly; with verify=True this is re-checked by
    substitution in rational arithmetic before returning.  Raises
    ValueError for undeclared or duplicate variable names.
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
    rels = [con.relation for con in lp.constraints]
    n = len(lp.variables)

    # Presolve: a variable with no objective incentive, no equality-row
    # appearance, and no negative "<="-row coefficient can sit at zero
    # without shrinking the optimum or breaking feasibility.
    keep: list[int] = []
    for j in range(n):
        helpful = obj[j] > 0
        if not helpful:
            for r in range(len(rels)):
                v = rows[r, j]
                if v and (rels[r] == "=" or v < 0):
                    helpful = True
                    break
        if helpful:
            keep.append(j)
    sub = rows[:, keep]

    # Drop trivial rows (checking their feasibility) and duplicates.
    seen: set[tuple] = set()
    use: list[int] = []
    for r in range(len(rels)):
        row = sub[r]
        if not any(row):
            if (rels[r] == "=" and rhs[r] != 0) or (rels[r] == "<=" and rhs[r] < 0):
                return LpSolution(INFEASIBLE, None, {})
            continue
        g = math.gcd(abs(rhs[r]), *(abs(int(v)) for v in row))
        key = (rels[r], rhs[r] // g) + tuple(int(v) // g for v in row)
        if key in seen:
            continue
        seen.add(key)
        use.append(r)

    status, values = _simplex(sub[use], [rels[r] for r in use], [rhs[r] for r in use], [obj[j] for j in keep])
    if status != OPTIMAL:
        return LpSolution(status, None, {})

    assignment = {v: Fraction(0) for v in lp.variables}
    for j, val in zip(keep, values):
        assignment[lp.variables[j]] = val
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
