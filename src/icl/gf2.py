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


def rank_of(rows: Iterable[int]) -> int:
    """Rank of packed rows; elimination pivots on each row's lowest set bit."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def rank_gf2(m: Gf2Matrix) -> int:
    return rank_of(m.rows)


def rref(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (pivot column indices ascending, reduced rows aligned with
    them); each pivot column has exactly one set bit across the rows.
    """
    basis: dict[int, int] = {}           # pivot low-bit -> row
    for row in rows:
        while row:
            low = row & -row
            if low in basis:
                row ^= basis[low]
            else:
                basis[low] = row
                break
    # Back-substitute so every pivot column is cleared elsewhere.
    for low in sorted(basis, reverse=True):
        row = basis[low]
        for other_low in list(basis):
            if other_low != low and basis[other_low] & low:
                basis[other_low] ^= row
    pivcols = sorted(low.bit_length() - 1 for low in basis)
    reduced = [basis[1 << c] for c in pivcols]
    return pivcols, reduced


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
