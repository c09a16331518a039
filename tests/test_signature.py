"""symmetric_signature against a dense exact oracle.

The oracle is the straightforward O(n^3) Fraction congruence diagonalization;
by Sylvester's law of inertia it and the leaf peeling must give the same
(n_+, n_0, n_-) on every symmetric matrix that the peeling does not refuse.
The peeling refuses only a matrix whose off-diagonal graph has a cycle.
"""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from resatlas.formats import classify, symmetric_signature, tpqr_cartan_matrix


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


def has_cycle(A):
    """Whether the graph of the off-diagonal nonzeros of A has a cycle."""
    parent = list(range(len(A)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            if A[i][j]:
                a, b = root(i), root(j)
                if a == b:
                    return True
                parent[a] = b
    return False


def random_forest(rng, n):
    """A symmetric matrix whose off-diagonal graph is a random forest, on
    vertices in shuffled order, with nonzero weights on its edges and a
    diagonal that is often zero."""
    order = list(range(n))
    rng.shuffle(order)
    A = [[0] * n for _ in range(n)]
    for t in range(1, n):
        if rng.random() < 0.85:
            i, j = order[t], order[rng.randrange(t)]
            A[i][j] = A[j][i] = rng.choice([-3, -2, -1, 1, 2, 3])
    zero_rate = rng.choice([0.0, 0.3, 0.7])
    for i in range(n):
        A[i][i] = 0 if rng.random() < zero_rate else rng.randint(-3, 3)
    return A


def test_matches_dense_oracle_on_random_symmetric_matrices():
    rng = random.Random(20161)
    seen = {"zero_diagonal": 0, "singular": 0, "indefinite": 0}
    compared = 0
    for _ in range(3000):
        A = random_symmetric(rng, rng.randint(1, 8))
        dense = dense_signature(A)
        try:
            sig = symmetric_signature(A)
        except ValueError as exc:
            assert "off-diagonal graph has a cycle" in str(exc)
            assert has_cycle(A), A
        else:
            assert sig == dense, A
            compared += 1
        seen["zero_diagonal"] += any(A[i][i] == 0 for i in range(len(A)))
        seen["singular"] += dense[1] > 0
        seen["indefinite"] += dense[0] > 0 and dense[2] > 0
    assert min(seen.values()) >= 300, seen
    assert compared >= 1500, compared


def test_matches_dense_oracle_on_random_forests():
    rng = random.Random(1961)
    seen = {"zero_diagonal": 0, "singular": 0, "indefinite": 0}
    for _ in range(3000):
        A = random_forest(rng, rng.randint(1, 12))
        assert not has_cycle(A)
        sig = symmetric_signature(A)
        assert sig == dense_signature(A), A
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


@pytest.mark.parametrize(
    "A, stuck",
    [
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [0, 1, 2]),
        # D4 with an x1-y1 edge: z1 peels, the triangle u-x1-y1 stays.
        ([[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, 2]], [0, 1, 2]),
        # A 4-cycle 0-1-2-3 with a pendant 4 on row 0, all diagonals zero but 4's:
        ([[0, 1, 0, 1, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [1, 0, 0, 0, 5]],
         [0, 1, 2, 3]),
    ],
)
def test_refuses_a_cycle_and_names_its_rows(A, stuck):
    assert has_cycle(A)
    with pytest.raises(ValueError, match=re.escape(f"graph has a cycle: no leaf among rows {stuck}")):
        symmetric_signature(A)


def test_a_zero_diagonal_leaf_can_break_a_cycle():
    # Leaf 3 has a zero diagonal, so it leaves with its neighbour 0, and the
    # triangle 0-1-2 loses a vertex: the rest peels.
    A = [[2, -1, -1, 1], [-1, 2, -1, 0], [-1, -1, 2, 0], [1, 0, 0, 0]]
    assert symmetric_signature(A) == dense_signature(A) == (3, 0, 1)


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


def weighted_caterpillar(rng, n, legs):
    """A symmetric matrix whose off-diagonal graph is a caterpillar: a spine
    path with `legs` pendant vertices, weights in +-1..+-3 and diagonals in
    -3..3, zero at a rate drawn per matrix.  Each spine vertex comes after its
    own legs, so the dense oracle eliminates leaves first; with no legs it is
    a weighted path in its natural order."""
    spine = n - legs
    feet = sorted(rng.randrange(spine) for _ in range(legs))
    order = []
    for v in range(spine):
        order += [("leg", t) for t, f in enumerate(feet) if f == v] + [("spine", v)]
    at = {vertex: i for i, vertex in enumerate(order)}
    A = [[0] * n for _ in range(n)]

    def edge(u, v):
        i, j = at[u], at[v]
        A[i][j] = A[j][i] = rng.choice([-3, -2, -1, 1, 2, 3])

    for v in range(1, spine):
        edge(("spine", v - 1), ("spine", v))
    for t, f in enumerate(feet):
        edge(("leg", t), ("spine", f))
    zero_rate = rng.choice([0.0, 0.1, 0.5])
    for i in range(n):
        A[i][i] = 0 if rng.random() < zero_rate else rng.choice([-3, -2, -1, 1, 2, 3])
    return A


def first_zero_pivot_is_updated(A):
    """For a weighted path in its natural order, peeled from its last row:
    whether the first zero pivot is one that an update made.  While no pivot
    has been zero, the pivot of row k is D_k / D_{k+1}, with D_k the trailing
    principal minor det A[k:, k:], so the first zero pivot is at the first
    k from the end with D_k = 0; below n - 1 it is an updated diagonal."""
    n = len(A)
    d_next, d = 1, A[n - 1][n - 1]
    for k in range(n - 2, -1, -1):
        if d == 0:
            return False
        d, d_next = A[k][k] * d - A[k][k + 1] ** 2 * d_next, d
        if d == 0:
            return True
    return False


def test_matches_dense_oracle_on_long_weighted_paths_and_caterpillars():
    # At n = 40..60 the updates compound, so each live diagonal's integer
    # pair grows far past those of the small forests above, and a zero pivot
    # can appear after an update as well as on the input's diagonal.
    rng = random.Random(1968)
    seen = {"zero_diagonal": 0, "updated_zero_pivot": 0, "singular": 0, "indefinite": 0}
    for case in range(90):
        n = rng.randint(40, 60)
        legs = 0 if case % 2 == 0 else rng.randint(1, n // 2)
        A = weighted_caterpillar(rng, n, legs)
        assert not has_cycle(A)
        sig = symmetric_signature(A)
        assert sig == dense_signature(A), A
        seen["zero_diagonal"] += any(A[i][i] == 0 for i in range(n))
        seen["updated_zero_pivot"] += legs == 0 and first_zero_pivot_is_updated(A)
        seen["singular"] += sig[1] > 0
        seen["indefinite"] += sig[0] > 0 and sig[2] > 0
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize(
    "arms, kind",
    [((3, 3, 3), "affine"), ((2, 4, 4), "affine"), ((2, 3, 6), "affine"),
     ((2, 3, 5), "finite"), ((2, 3, 7), "indefinite")],
    ids=["333", "244", "236", "235", "237"],
)
def test_case_list_boundary_is_exact_in_every_order(arms, kind):
    for pqr in set(permutations(arms)):
        cls = classify(*pqr)
        assert cls.kind == kind, pqr
        assert cls.dynkin == ("E8" if kind == "finite" else None), pqr


def test_case_list_matches_a_fraction_harmonic_sum_on_the_table():
    for p in range(2, 10):
        for q in range(1, 10):
            for r in range(2, 10):
                harmonic = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
                kind = "finite" if harmonic > 1 else "affine" if harmonic == 1 else "indefinite"
                assert classify(p, q, r).kind == kind, (p, q, r)
