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


def _dense_gauss_jordan(rows, cols):
    """Reference RREF on a dense 0/1 matrix, column 0 first: (pivots, rows)."""
    m = np.zeros((len(rows), cols), dtype=np.uint8)
    for i, row in enumerate(rows):
        m[i] = [row >> j & 1 for j in range(cols)]
    pivots = []
    r = 0
    for c in range(cols):
        hit = np.flatnonzero(m[r:, c])
        if not hit.size:
            continue
        m[[r, r + hit[0]]] = m[[r + hit[0], r]]
        for other in np.flatnonzero(m[:, c]):
            if other != r:
                m[other] ^= m[r]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    packed = [sum(int(b) << j for j, b in enumerate(m[i])) for i in range(r)]
    return pivots, packed


def _dense_nullspace(rows, cols, allowed):
    """Reference null-space basis: one vector per free allowed column, ascending."""
    pivots, reduced = _dense_gauss_jordan([row & allowed for row in rows], cols)
    out = []
    for f in range(cols):
        if allowed >> f & 1 and f not in pivots:
            out.append((1 << f) | sum(1 << p for p, row in zip(pivots, reduced) if row >> f & 1))
    return out


def test_rref_and_nullspace_match_dense_gauss_jordan():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        cols = int(rng.integers(0, 70))
        rows = _random_rows(rng, cols, int(rng.integers(0, 14)))
        assert rref(rows, cols) == _dense_gauss_jordan(rows, cols)
        allowed = _random_rows(rng, cols, 1)[0] if rng.random() < 0.5 else (1 << cols) - 1
        expected = _dense_nullspace(rows, cols, allowed)
        if allowed == (1 << cols) - 1:
            assert nullspace(rows, cols) == expected
        assert nullspace(rows, cols, allowed=allowed) == expected
