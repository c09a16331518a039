import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from resatlas import formats
from resatlas.formats import (
    TpqrGraph,
    classify,
    cyclic_exists,
    derive_ranks,
    format_exists,
    noetherian_generic_ring,
    symmetric_signature,
    tpqr_cartan_matrix,
    tpqr_cartan_rows,
)


def test_derive_ranks_d4():
    fmt = derive_ranks([1, 4, 4, 1])
    assert fmt.r == (1, 3, 1) and fmt.r0 == 0 and fmt.valid
    assert fmt.pqr == (2, 2, 2)


def test_derive_ranks_e6():
    fmt = derive_ranks([2, 6, 5, 1])
    assert fmt.r == (2, 4, 1) and fmt.r0 == 0 and fmt.valid
    assert fmt.pqr == (3, 3, 2)


def test_invalid_formats():
    fmt = derive_ranks([1, 1, 1, 1])
    assert not fmt.valid and "r_2" in fmt.diagnosis
    fmt2 = derive_ranks([1, 5, 3, 1])
    assert not fmt2.valid


def test_classification_anchors():
    assert classify(2, 2, 2).dynkin == "D4"
    assert classify(5, 2, 3).dynkin == "E8"
    assert classify(2, 3, 3).dynkin == "E6"
    assert classify(2, 3, 4).dynkin == "E7"
    assert classify(4, 1, 3).dynkin == "A6"
    affine = classify(3, 3, 3)
    assert affine.kind == "affine" and affine.signature == (6, 1, 0)
    indef = classify(2, 3, 7)
    assert indef.kind == "indefinite" and indef.signature == (9, 0, 1)


def test_classification_dual_paths_agree_small():
    for p in range(2, 7):
        for q in range(1, 7):
            for r in range(2, 7):
                classify(p, q, r)  # raises on any disagreement


@pytest.mark.parametrize(
    "pqr, edge, value, perturbed_sig",
    [
        ((2, 3, 7), (0, 4), 0, (10, 0, 0)),   # drop the u-z1 edge
        # add an x1-y1 edge to D4: the triangle u-x1-y1 is refused
        ((2, 2, 2), (1, 2), -1, ValueError("graph has a cycle: no leaf among rows [0, 1, 2]")),
    ],
)
def test_classify_catches_a_wrong_cartan_matrix(monkeypatch, pqr, edge, value, perturbed_sig):
    rows = tpqr_cartan_rows(*pqr)
    i, j = edge
    if value:
        rows[i][j] = rows[j][i] = value
    else:
        del rows[i][j], rows[j][i]
    if isinstance(perturbed_sig, ValueError):
        with pytest.raises(ValueError, match=re.escape(str(perturbed_sig))):
            symmetric_signature(rows)
    else:
        assert symmetric_signature(rows) == perturbed_sig
    monkeypatch.setattr(formats, "tpqr_cartan_rows", lambda p, q, r: rows)
    with pytest.raises(AssertionError, match=re.escape(f"classification mismatch for T_{pqr}")):
        classify(*pqr)


def test_dynkin_name_check_survives_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "from resatlas.formats import _finite_dynkin_name; print(_finite_dynkin_name(2, 3, 6))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 0
    assert "T_(2, 3, 6) is not a Dynkin diagram" in proc.stderr


def test_cartan_matrix_shape():
    A = tpqr_cartan_matrix(2, 2, 2)
    assert len(A) == 4
    assert A[0] == [2, -1, -1, -1]
    rows = tpqr_cartan_rows(2, 2, 2)
    assert rows == [{0: 2, 1: -1, 2: -1, 3: -1}, {0: -1, 1: 2}, {0: -1, 2: 2}, {0: -1, 3: 2}]
    assert symmetric_signature(rows) == (4, 0, 0)


def dense_cartan_oracle(p, q, r):
    """The dense Cartan matrix of T_{p,q,r}, linked arm by arm: the
    package's own builder before it derived the matrix from sparse rows."""
    n = p + q + r - 2
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2

    def link(i, j):
        A[i][j] = A[j][i] = -1

    pos = 1
    for arm_len in (p - 1, q - 1, r - 1):
        prev = 0  # u
        for _ in range(arm_len):
            link(prev, pos)
            prev = pos
            pos += 1
    return A


def test_cartan_rows_and_matrix_equal_the_dense_oracle_on_the_table():
    for p in range(2, 10):
        for q in range(1, 10):
            for r in range(2, 10):
                A = dense_cartan_oracle(p, q, r)
                assert tpqr_cartan_matrix(p, q, r) == A, (p, q, r)
                rows = [{j: a for j, a in enumerate(row) if a} for row in A]
                assert tpqr_cartan_rows(p, q, r) == rows, (p, q, r)


def test_graph_helpers_name_the_neighbours_the_cartan_rows_build_on_the_table():
    # u is adjacent to x_1, to y_1 when q >= 2, and to z_1; each arm is a
    # path.  The table is the `classification` check's 576 triples.
    for p in range(2, 10):
        for q in range(1, 10):
            for r in range(2, 10):
                g = TpqrGraph(p, q, r)
                arms = {
                    "x": [g.x(i) for i in range(1, p)],
                    "y": [g.y(j) for j in range(1, q)],
                    "z": [g.z(k) for k in range(1, r)],
                }
                edges = set()
                for arm in arms.values():
                    path = [g.u] + arm
                    edges |= {frozenset(e) for e in zip(path, path[1:])}
                rows = tpqr_cartan_rows(p, q, r)
                built = {frozenset((i, j)) for i, row in enumerate(rows) for j in row if j != i}
                assert built == edges, (p, q, r)
                names = dict.fromkeys(range(len(rows)))
                names[g.u] = "u"
                for letter, arm in arms.items():
                    names.update((v, f"{letter}{k}") for k, v in enumerate(arm, start=1))
                assert g.vertex_names == list(names.values()), (p, q, r)
                assert g.n == len(rows) and g.z1 == g.z(1), (p, q, r)
                assert g.S == tuple(v for v in range(g.n) if v != g.z1), (p, q, r)


def test_noetherian():
    assert noetherian_generic_ring(derive_ranks([1, 4, 4, 1]))
    assert not noetherian_generic_ring(derive_ranks([2, 6, 7, 3]))


def test_cyclic_exists_table():
    assert cyclic_exists(2, 3)
    assert cyclic_exists(1, 2) and cyclic_exists(1, 6)
    assert not cyclic_exists(1, 3)
    assert not cyclic_exists(2, 2)
    assert not cyclic_exists(5, 1)
    with pytest.raises(ValueError):
        cyclic_exists(0, 1)


def test_format_exists():
    assert format_exists([1, 4, 4, 1])
    assert format_exists([2, 6, 5, 1])
    assert not format_exists([1, 1, 1, 1])   # r_2 = 0
    assert not format_exists([1, 4, 5, 1])   # Euler != 0
    assert not format_exists([1, 2, 2, 1])   # r_2 = 1


def test_classify_format_matches_pqr():
    fmt = derive_ranks([2, 6, 5, 1])
    assert classify(*fmt.pqr).dynkin == "E6"
