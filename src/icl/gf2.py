"""GF(2) linear algebra on rows packed into Python ints (bit j = column j)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Gf2Matrix:
    """A matrix over GF(2); row r has entry at column j iff bit j of rows[r]."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        limit = 1 << self.cols
        for r, row in enumerate(self.rows):
            if row < 0 or row >= limit:
                raise ValueError(f"row {r} has bits outside {self.cols} columns")


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination: pivot column -> row whose lowest set bit it is."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            if col not in pivots:
                pivots[col] = row
                break
            row ^= pivots[col]
    return pivots


def rank_of(rows: Iterable[int]) -> int:
    """Rank of packed rows; elimination pivots on each row's lowest set bit."""
    return len(_echelon(rows))


def rank_gf2(m: Gf2Matrix) -> int:
    return rank_of(m.rows)


def rref(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (pivot column indices ascending, reduced rows aligned with
    them); each pivot column has exactly one set bit across the rows,
    and it is the lowest set bit of its own row.
    """
    basis = _echelon(rows)
    pivcols = sorted(basis)
    # Back-substitute, highest pivot first, so every pivot column is
    # cleared elsewhere; only rows with a lower pivot can hold it.
    for i in range(len(pivcols) - 1, 0, -1):
        c = pivcols[i]
        row = basis[c]
        for lower in pivcols[:i]:
            if basis[lower] >> c & 1:
                basis[lower] ^= row
    return pivcols, [basis[c] for c in pivcols]


def nullspace(rows: Sequence[int], cols: int, allowed: int | None = None) -> list[int]:
    """Basis of the right null space, one packed vector per free column.

    With allowed set (a column bitmask), only those columns are treated
    as variables; the rest are fixed to zero, so the returned vectors
    are supported inside allowed.
    """
    if allowed is None:
        allowed = (1 << cols) - 1
    masked = [r & allowed for r in rows]
    pivcols, reduced = rref(masked, cols)
    pivset = set(pivcols)
    out = []
    for f in range(cols):
        if not (allowed >> f & 1) or f in pivset:
            continue
        vec = 1 << f
        for c, row in zip(pivcols, reduced):
            if row >> f & 1:
                vec |= 1 << c
        out.append(vec)
    return out
