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


def echelon(rows: Iterable[int]) -> dict[int, int]:
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
    return len(echelon(rows))


def rank_gf2(m: Gf2Matrix) -> int:
    return rank_of(m.rows)


def rref(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (pivot column indices ascending, reduced rows aligned with
    them); each pivot column has exactly one set bit across the rows,
    and it is the lowest set bit of its own row.
    """
    basis = echelon(rows)
    pivcols = sorted(basis)
    pivmask = sum(1 << c for c in pivcols)
    # Back-substitute, highest pivot first: the rows above are already
    # reduced, so XORing in the one for each other pivot column this row
    # holds clears that column and sets no other pivot column.
    for c in reversed(pivcols):
        row = basis[c]
        hits = (row & pivmask) ^ (1 << c)
        while hits:
            low = hits & -hits
            row ^= basis[low.bit_length() - 1]
            hits ^= low
        basis[c] = row
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
