"""GF(2) linear algebra on packed integer rows."""

import numpy as np
import pytest

from icl.gf2 import Gf2Matrix, nullspace, rank_gf2, rank_of, rref


def test_rank_of_known_matrix():
    # rows: 110, 011, 101 -> third = first + second, rank 2
    assert rank_of([0b011, 0b110, 0b101]) == 2


def test_rank_of_identity():
    assert rank_of([1 << i for i in range(5)]) == 5


def test_rank_of_zero_rows():
    assert rank_of([0, 0, 0]) == 0


def test_gf2matrix_validates_width():
    with pytest.raises(ValueError):
        Gf2Matrix((0b100,), 2)


def test_rank_gf2_wraps_rank_of():
    m = Gf2Matrix((0b11, 0b10), 2)
    assert rank_gf2(m) == 2


def _random_rows(rng, cols, nrows):
    """Rows of up to `cols` bits, some of them sums of others."""
    base = [int.from_bytes(rng.bytes(cols // 8 + 1), "little") % (1 << cols) for _ in range(nrows)]
    for i in range(len(base)):
        if rng.random() < 0.3:
            for j in rng.choice(len(base), size=2):
                base[i] ^= base[j]
    return base


def test_rref_pivots_and_reduction():
    cases = [([0b110, 0b011, 0b101], 3)]
    rng = np.random.default_rng(11)
    for cols in (1, 5, 63, 64, 65, 130, 300):
        cases += [(_random_rows(rng, cols, int(rng.integers(0, 12))), cols) for _ in range(8)]
    for rows, cols in cases:
        pivots, reduced = rref(rows, cols)
        assert pivots == sorted(set(pivots))
        assert len(pivots) == rank_of(rows)
        # The reduced rows span the input rows.
        assert rank_of(list(rows) + reduced) == len(pivots)
        for p, r in zip(pivots, reduced):
            # A reduced row's lowest set bit is its pivot ...
            assert r & -r == 1 << p
            # ... and no other reduced row has a bit in that column.
            assert sum(1 for other in reduced if other >> p & 1) == 1
    assert len(rref(*cases[0])[0]) == 2


def test_nullspace_vectors_annihilate_rows():
    rows = [0b1101, 0b0111]
    for v in nullspace(rows, 4):
        for r in rows:
            assert bin(r & v).count("1") % 2 == 0


def test_nullspace_dimension_complements_rank():
    rng = np.random.default_rng(7)
    for _ in range(30):
        cols = int(rng.integers(1, 12))
        nrows = int(rng.integers(0, 8))
        rows = [int(rng.integers(0, 1 << cols)) for _ in range(nrows)]
        assert len(nullspace(rows, cols)) == cols - rank_of(rows)


def test_nullspace_restricted_columns():
    # Only columns {0,1} are free; column 2 is pinned to zero.
    rows = [0b011]
    vectors = nullspace(rows, 3, allowed=0b011)
    assert vectors == [0b011]


def test_full_rank_matrix_has_trivial_nullspace():
    assert nullspace([0b01, 0b10], 2) == []
