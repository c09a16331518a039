import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from resatlas.formats import tpqr_cartan_matrix
from resatlas.kacmoody import (
    TpqrGraph,
    bgg_euler_check,
    bgg_initial_terms,
    character_series,
    defect_graded_dims,
    dot_action,
    dot_walk,
    enumerate_WS,
    enumerate_roots,
    fundamental_in_exterior_check,
    inversion_roots,
    kostant_weights,
    parabolic_verma_character,
    reflect,
    root_labels,
    roots_by_denominator,
    verify_denominator_identity,
    weyl_dim,
    weyl_elements,
    weyl_kac_character,
)


def test_vertex_layout():
    g = TpqrGraph(3, 3, 4)
    assert g.n == 8
    assert g.vertex_names == ["u", "x1", "x2", "y1", "y2", "z1", "z2", "z3"]
    assert g.z1 == 5 and g.u == 0 and g.x(2) == 2 and g.y(1) == 3 and g.z(3) == 7


def test_finite_root_counts():
    assert len(enumerate_roots(TpqrGraph(2, 2, 2))) == 12   # D4
    assert len(enumerate_roots(TpqrGraph(3, 3, 2))) == 36   # E6
    assert len(enumerate_roots(TpqrGraph(2, 3, 4))) == 63   # E7
    assert len(enumerate_roots(TpqrGraph(5, 2, 3))) == 120  # E8
    assert all(r.mult == 1 for r in enumerate_roots(TpqrGraph(5, 2, 3)))


def test_recursion_agrees_with_closure_on_finite():
    g = TpqrGraph(2, 2, 2)
    closure = {r.coords: r.mult for r in enumerate_roots(g)}
    assert closure == roots_by_denominator(g.cartan, 12)


def test_finite_roots_ignore_the_height_cutoff():
    g = TpqrGraph(2, 2, 2)
    assert enumerate_roots(g, H=3) == enumerate_roots(g)


def test_affine_null_root_multiplicity():
    g = TpqrGraph(3, 3, 3)
    mults = roots_by_denominator(g.cartan, 12)
    # delta = alpha_u*3 + 2 on each arm-adjacent vertex + 1 on each arm end
    delta = (3, 2, 1, 2, 1, 2, 1)
    assert mults[delta] == 6
    assert verify_denominator_identity(g.cartan, 12, mults)


def test_denominator_identity_rejects_a_negative_multiplicity():
    A = tpqr_cartan_matrix(2, 2, 2)
    mults = {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1}
    with pytest.raises(ValueError, match=r"negative multiplicity -1 at root \(0, 1, 0, 0\)"):
        verify_denominator_identity(A, 4, mults)


def test_indefinite_identity_verifies():
    A = tpqr_cartan_matrix(2, 3, 7)
    mults = roots_by_denominator(A, 8)
    assert verify_denominator_identity(A, 8, mults)
    # all real roots at height 1 are simple
    n = len(A)
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        assert mults[e] == 1


def test_weyl_group_order_d4():
    g = TpqrGraph(2, 2, 2)
    elems = weyl_elements(g, 12)  # longest element has length 12
    assert len(elems) == 192
    assert max(e.length for e in elems) == 12


def solve_coords(A, labels):
    """Root coordinates k with A k = labels, by exact Gauss-Jordan elimination
    (A invertible); the oracle for the drop that `dot_walk` tracks."""
    n = len(labels)
    m = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(labels[i])] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col] / m[col][col]
                for j in range(col, n + 1):
                    m[i][j] -= f * m[col][j]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def check_walk(g, word, lam):
    weight, drop = dot_walk(g, word, lam)
    moved = tuple(x + 1 for x in lam)
    for i in reversed(word):
        moved = reflect(g, moved, i)
    assert weight == tuple(x - 1 for x in moved) == dot_action(g, word, lam), word
    lowered = tuple(l - w for l, w in zip(lam, weight))
    assert root_labels(g.cartan, drop) == lowered, word
    assert drop == solve_coords(g.cartan, lowered), word


def test_dot_walk_drop_on_all_of_w_d4():
    g = TpqrGraph(2, 2, 2)
    elems = weyl_elements(g, 12)
    assert len(elems) == 192
    for lam in [(0,) * g.n, g.fundamental_weight(g.z1), g.fundamental_weight(g.u)]:
        for e in elems:
            check_walk(g, e.word, lam)


def test_dot_walk_drop_on_ws_d5():
    g = TpqrGraph(2, 2, 3)
    grouped = enumerate_WS(g, g.S, 6, verify=False)
    assert sum(len(v) for v in grouped.values()) == 20  # of |W(D5)| / |W(A3 x A1)| = 40
    for lam in [(0,) * g.n, g.fundamental_weight(g.z1), g.fundamental_weight(g.z(2))]:
        for elems in grouped.values():
            for e in elems:
                check_walk(g, e.word, lam)


def test_inversion_roots_length():
    g = TpqrGraph(2, 2, 2)
    for e in weyl_elements(g, 4):
        phi = inversion_roots(g, e.word)
        assert len(phi) == e.length
        assert len(set(phi)) == e.length


def test_ws_counts_d4():
    g = TpqrGraph(2, 2, 2)
    grouped = enumerate_WS(g, g.S, 12)
    counts = [len(grouped.get(k, [])) for k in range(7)]
    assert counts == [1, 1, 1, 2, 1, 1, 1]
    assert sum(counts) == 8


def test_kostant_anchor_t334():
    g = TpqrGraph(3, 3, 4)
    weights = kostant_weights(g, g.S, 2)[2]
    dicts = sorted(
        (tuple(sorted((k, v) for k, v in g.labels_as_dict(w).items() if v)) for w in weights)
    )
    expected = sorted(
        [
            tuple(sorted({"x1": 1, "y1": 1, "z1": -3, "z2": 2}.items())),
            tuple(sorted({"u": 2, "z1": -3, "z3": 1}.items())),
        ]
    )
    assert dicts == expected


def test_defect_dims_finite():
    assert defect_graded_dims(2, 2, 2, m_max=4).dims == (6, 0, 0, 0)
    d = defect_graded_dims(3, 3, 2, m_max=4)
    assert d.dims == (20, 1, 0, 0) and d.total == 21 and d.exhaustive
    assert defect_graded_dims(2, 2, 3, m_max=4).dims == (12, 1, 0, 0)


def test_defect_dims_truncated_nonfinite():
    d = defect_graded_dims(3, 3, 3, m_max=2, max_height=8)
    assert not d.exhaustive and d.total is None
    assert d.dims[0] > 0


def test_character_dimensions_d4():
    g = TpqrGraph(2, 2, 2)
    spin = g.fundamental_weight(g.z1)
    dims, total = weyl_kac_character(g, spin, 2)
    assert dims == (1, 6, 1) and total == 8
    adjoint = g.fundamental_weight(g.u)
    dims, total = weyl_kac_character(g, adjoint, 2)
    assert total == 28 and dims == (6, 16, 6)


def test_character_dimensions_e6():
    g = TpqrGraph(3, 3, 2)
    dims, total = weyl_kac_character(g, g.fundamental_weight(g.z1), 4)
    assert total == 78
    assert dims == (1, 20, 36, 20, 1)


def test_character_total_check_holds_under_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from resatlas import kacmoody\n"
        "from resatlas.kacmoody import TpqrGraph\n"
        "dim = kacmoody.weyl_dim\n"
        "kacmoody.weyl_dim = lambda graph, lam: dim(graph, lam) + 1\n"
        "g = TpqrGraph(2, 2, 2)\n"
        "kacmoody.weyl_kac_character(g, g.fundamental_weight(g.z1), 2)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert "AssertionError" in proc.stderr
    assert "character total 8 disagrees with dimension formula 9" in proc.stderr


def test_weyl_dim_matches_series():
    g = TpqrGraph(2, 2, 2)
    lam = (1, 0, 1, 0)
    series = character_series(g, lam)
    assert sum(series.values()) == weyl_dim(g, lam)


def test_parabolic_verma_level_zero_is_levi():
    g = TpqrGraph(2, 2, 2)
    mu = g.fundamental_weight(g.u)
    dims = parabolic_verma_character(g, g.S, mu, 2)
    levi = character_series(g, mu, levi=g.S)
    assert dims[0] == sum(levi.values())


def test_bgg_initial_terms_zero_weight():
    g = TpqrGraph(2, 2, 2)
    layers = bgg_initial_terms(g, (0, 0, 0, 0))
    assert layers[0] == [(0, 0, 0, 0)]
    w1 = layers[1][0]
    assert w1[g.z1] == -2 and w1[g.u] == 1


def test_bgg_euler_d4():
    g = TpqrGraph(2, 2, 2)
    for lam in [(0, 0, 0, 0), g.fundamental_weight(g.z1), g.fundamental_weight(g.u)]:
        ok, bad = bgg_euler_check(g, lam, 4)
        assert ok, (lam, bad)


def test_fundamental_in_exterior():
    g = TpqrGraph(3, 3, 2)
    assert fundamental_in_exterior_check(g, "x", 1)
    assert fundamental_in_exterior_check(g, "x", 2)
