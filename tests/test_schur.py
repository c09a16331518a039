import re
from math import comb

import pytest

from resatlas.kacmoody import TpqrGraph
from resatlas.schur import (
    g1_dim_formula,
    g2_dim_formula,
    is_dominant,
    partitions_bounded,
    schur_dim,
)


def ssyt_count(shape, n):
    """Brute-force count of semistandard Young tableaux of the given shape
    with entries in 1..n (independent oracle for schur_dim)."""
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    count = 0

    def fill(idx, grid):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[(r, c - 1)])
        if r > 0:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, n + 1):
            grid[(r, c)] = v
            fill(idx + 1, grid)
        grid.pop((r, c), None)

    fill(0, {})
    return count


@pytest.mark.parametrize(
    "shape,n",
    [((2,), 3), ((1, 1), 3), ((2, 1), 3), ((3, 2), 3), ((2, 2), 4), ((2, 1, 1), 4)],
)
def test_schur_dim_vs_ssyt(shape, n):
    padded = tuple(shape) + (0,) * (n - len(shape))
    assert schur_dim(padded, n) == ssyt_count(shape, n)


def test_schur_dim_exterior_and_symmetric():
    n = 5
    for k in range(n + 1):
        ext = (1,) * k + (0,) * (n - k)
        assert schur_dim(ext, n) == comb(n, k)
    for d in range(5):
        sym = (d,) + (0,) * (n - 1)
        assert schur_dim(sym, n) == comb(n + d - 1, d)


def test_schur_dim_twist_invariance():
    w = (3, 1, 0, -2)
    assert schur_dim(w, 4) == schur_dim(tuple(x + 5 for x in w), 4)


def test_schur_dim_rejects():
    with pytest.raises(ValueError):
        schur_dim((0, 1), 2)
    with pytest.raises(ValueError):
        schur_dim((1, 0), 3)


def test_partitions_bounded():
    parts = list(partitions_bounded(2, 3))
    assert parts[0] == ()
    assert all(sum(p) <= 3 and len(p) <= 2 for p in parts)
    assert all(is_dominant(p) and all(x > 0 for x in p) for p in parts)
    assert len(parts) == len(set(parts))
    sizes = [sum(p) for p in parts]
    assert sizes == sorted(sizes)
    assert set(parts) == {(), (1,), (2,), (1, 1), (3,), (2, 1)}


def test_dominance():
    assert is_dominant((3, 1, 1, -2))
    assert not is_dominant((1, 2))
    assert is_dominant((2, 2, 0))
    assert is_dominant((2, -1))  # GL weights may be negative


def test_defect_dim_formulas():
    assert g1_dim_formula(2, 2, 2) == 6
    assert g1_dim_formula(3, 3, 2) == 20
    assert g1_dim_formula(2, 2, 3) == 12
    assert g2_dim_formula(2, 2, 2) == 0
    assert g2_dim_formula(3, 3, 2) == 1
    assert g2_dim_formula(2, 2, 3) == 1


@pytest.mark.parametrize("formula", [g1_dim_formula, g2_dim_formula], ids=["g1", "g2"])
@pytest.mark.parametrize("pqr", [(1, 2, 2), (2, 0, 2), (2, 2, 1)])
def test_the_dimension_formulas_refuse_a_bad_triple_as_the_graph_does(formula, pqr):
    message = f"require p >= 2, q >= 1, r >= 2, got {pqr}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        formula(*pqr)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        TpqrGraph(*pqr)
