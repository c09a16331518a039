"""symmetric_signature against a dense exact oracle.

The oracle is the straightforward O(n^3) Fraction congruence diagonalization
that the sparse minimum-degree elimination replaced; by Sylvester's law of
inertia both must give the same (n_+, n_0, n_-) on every symmetric matrix.
"""

import random
from fractions import Fraction

import pytest

from resatlas.formats import symmetric_signature, tpqr_cartan_matrix


def dense_signature(A):
    n = len(A)
    m = [[Fraction(A[i][j]) for j in range(n)] for i in range(n)]
    plus = zero = minus = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for j in range(n):
                    m[k][j] += m[off][j]
                for i in range(n):
                    m[i][k] += m[i][off]
        pivot = m[k][k]
        if pivot == 0:
            zero += 1
            continue
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            if m[i][k]:
                factor = m[i][k] / pivot
                for j in range(n):
                    m[i][j] -= factor * m[k][j]
                for row in m:
                    row[i] -= factor * row[k]
    return (plus, zero, minus)


def random_symmetric(rng, n):
    density = rng.choice([0.2, 0.5, 0.9])
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                A[i][j] = A[j][i] = rng.randint(-3, 3)
    if rng.random() < 0.5:
        for i in range(n):
            if rng.random() < 0.6:
                A[i][i] = 0
    if n > 1 and rng.random() < 0.3:
        # Repeat row/column 0 as the last one: singular by construction.
        for j in range(n - 1):
            A[n - 1][j] = A[j][n - 1] = A[0][j]
        A[n - 1][n - 1] = A[0][0]
    return A


def test_matches_dense_oracle_on_random_symmetric_matrices():
    rng = random.Random(20161)
    seen = {"zero_diagonal": 0, "singular": 0, "indefinite": 0}
    for _ in range(3000):
        A = random_symmetric(rng, rng.randint(1, 8))
        sig = symmetric_signature(A)
        assert sig == dense_signature(A), A
        assert sum(sig) == len(A)
        seen["zero_diagonal"] += any(A[i][i] == 0 for i in range(len(A)))
        seen["singular"] += sig[1] > 0
        seen["indefinite"] += sig[0] > 0 and sig[2] > 0
    assert min(seen.values()) >= 300, seen


def test_matches_dense_oracle_on_the_tpqr_table():
    for p in range(2, 10):
        for q in range(1, 10):
            for r in range(2, 10):
                A = tpqr_cartan_matrix(p, q, r)
                assert symmetric_signature(A) == dense_signature(A), (p, q, r)


def test_long_arm_graph():
    A = tpqr_cartan_matrix(2, 3, 40)
    assert symmetric_signature(A) == dense_signature(A) == (42, 0, 1)


@pytest.mark.parametrize(
    "A, expected",
    [
        ([[0]], (0, 1, 0)),
        ([[0, 1], [1, 0]], (1, 0, 1)),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (0, 3, 0)),
        (tpqr_cartan_matrix(3, 3, 3), (6, 1, 0)),
        (tpqr_cartan_matrix(2, 3, 7), (9, 0, 1)),
        ([], (0, 0, 0)),
    ],
)
def test_exact_cases(A, expected):
    assert symmetric_signature(A) == expected


def test_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        symmetric_signature([[2, -1], [-1, 2, 0]])
    with pytest.raises(ValueError, match="not square"):
        symmetric_signature([[2, -1]])


def test_rejects_non_symmetric():
    with pytest.raises(ValueError, match=r"not symmetric: A\[0\]\[1\]"):
        symmetric_signature([[2, -1], [0, 2]])
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_signature([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
