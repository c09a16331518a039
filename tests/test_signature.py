"""symmetric_signature against a dense exact oracle.

The matrices are built dense and passed as their sparse rows (`sparse`),
the form symmetric_signature takes.  The oracle is the straightforward
O(n^3) Fraction congruence diagonalization; by Sylvester's law of inertia it
and the leaf peeling must give the same (n_+, n_0, n_-) on every symmetric
matrix that the peeling does not refuse.  The peeling refuses a symmetric
matrix only when its off-diagonal graph has a cycle.  Rows that hold no
symmetric matrix are refused by naming their first bad entry, which
`first_bad_entry` finds by reading every entry, row by row.
"""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from resatlas.formats import (
    classify,
    symmetric_signature,
    tpqr_cartan_matrix,
    tpqr_cartan_rows,
    tpqr_kind,
)


def sparse(A):
    """The sparse rows of a dense matrix: row i maps j to A[i][j] != 0."""
    return [{j: a for j, a in enumerate(row) if a} for row in A]


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
            sig = symmetric_signature(sparse(A))
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
        rows = sparse(A)
        sig = symmetric_signature(rows)
        assert sig == dense_signature(A), A
        assert rows == sparse(A), "the rows were modified"
        seen["zero_diagonal"] += any(A[i][i] == 0 for i in range(len(A)))
        seen["singular"] += sig[1] > 0
        seen["indefinite"] += sig[0] > 0 and sig[2] > 0
    assert min(seen.values()) >= 300, seen


def test_matches_dense_oracle_on_the_tpqr_table():
    for p in range(2, 10):
        for q in range(1, 10):
            for r in range(2, 10):
                sig = symmetric_signature(tpqr_cartan_rows(p, q, r))
                assert sig == dense_signature(tpqr_cartan_matrix(p, q, r)), (p, q, r)


def test_long_arm_graph():
    sig = symmetric_signature(tpqr_cartan_rows(2, 3, 40))
    assert sig == dense_signature(tpqr_cartan_matrix(2, 3, 40)) == (42, 0, 1)


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
    assert symmetric_signature(sparse(A)) == expected


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
        symmetric_signature(sparse(A))


def test_a_zero_diagonal_leaf_can_break_a_cycle():
    # Leaf 3 has a zero diagonal, so it leaves with its neighbour 0, and the
    # triangle 0-1-2 loses a vertex: the rest peels.
    A = [[2, -1, -1, 1], [-1, 2, -1, 0], [-1, -1, 2, 0], [1, 0, 0, 0]]
    assert symmetric_signature(sparse(A)) == dense_signature(A) == (3, 0, 1)


def test_rejects_non_square():
    # A column at or past the number of rows, or below 0, names its entry.
    with pytest.raises(ValueError, match=re.escape("column out of range: A[0][1] in a matrix of 1 rows")):
        symmetric_signature([{0: 2, 1: -1}])
    with pytest.raises(ValueError, match=re.escape("column out of range: A[1][2] in a matrix of 2 rows")):
        symmetric_signature([{0: 2, 1: -1}, {0: -1, 1: 2, 2: -1}])
    # Read as a list index, column -1 would be row 1, whose entry mirrors it.
    with pytest.raises(ValueError, match=re.escape("column out of range: A[0][-1] in a matrix of 2 rows")):
        symmetric_signature([{0: 2, -1: -1}, {0: -1, 1: 2}])


def test_rejects_non_symmetric():
    with pytest.raises(ValueError, match=re.escape("not symmetric: A[0][1] != A[1][0]")):
        symmetric_signature([{0: 2, 1: -1}, {1: 2}])
    with pytest.raises(ValueError, match=re.escape("not symmetric: A[1][2] != A[2][1]")):
        symmetric_signature([{0: 2, 1: -1}, {0: -1, 1: 2, 2: -1}, {1: -2, 2: 2}])
    # A path: the peel never stalls, and its own mirror check finds the entry.
    rows = [{0: 2, 1: -1}, {0: -1, 1: 2, 2: -1}, {1: -1, 2: 2, 3: -1}, {2: -1, 3: 2}, {3: -1, 4: 2}]
    with pytest.raises(ValueError, match=re.escape("not symmetric: A[4][3] != A[3][4]")):
        symmetric_signature(rows)


def test_rejects_a_zero_stored_off_the_diagonal():
    with pytest.raises(ValueError, match=re.escape("a zero is stored off the diagonal: A[0][1] = 0")):
        symmetric_signature([{0: 2, 1: 0}, {0: 0, 1: 2}])
    # A zero stored on the diagonal is the diagonal's value.
    assert symmetric_signature([{0: 0, 1: 1}, {0: 1, 1: 0}]) == (1, 0, 1)


def first_bad_entry(rows):
    """The refusal, naming the entry, for the first entry, row by row, that
    no symmetric matrix in sparse rows holds; None if every entry is good."""
    n = len(rows)
    for i, row in enumerate(rows):
        for j, a in row.items():
            if j not in range(n):
                return f"column out of range: A[{i}][{j}] in a matrix of {n} rows"
            if a == 0 and i != j:
                return f"a zero is stored off the diagonal: A[{i}][{j}] = 0"
            if i != j and (i not in rows[j] or rows[j][i] != a):
                return f"matrix is not symmetric: A[{i}][{j}] != A[{j}][{i}]"
    return None


def test_names_the_first_bad_entry_of_randomly_broken_rows():
    # On a forest the peel does not stall, so its own mirror checks must
    # find the broken entry; a dense matrix often stalls on a cycle first.
    rng = random.Random(1977)
    seen = {"range": 0, "zero": 0, "symmetric": 0, "forest": 0, "dense": 0}
    for case in range(3000):
        n = rng.randint(1, 10)
        A = random_forest(rng, n) if case % 2 else random_symmetric(rng, n)
        rows = sparse(A)
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            how = rng.choice(["drop", "value", "one-sided", "range", "zero"])
            if how == "drop":
                rows[i].pop(j, None)
            elif how == "value":
                rows[i][j] = rng.choice([-2, -1, 1, 2]) + rows[i].get(j, 0) * 2
            elif how == "one-sided":
                rows[i][j] = rng.choice([-1, 1])
            elif how == "range":
                rows[i][rng.choice([-2, -1, n, n + 1])] = rng.choice([-1, 1])
            elif i != j:
                rows[i][j] = rows[j][i] = 0
        want = first_bad_entry(rows)
        if want is None:
            continue
        with pytest.raises(ValueError) as refused:
            symmetric_signature(rows)
        assert str(refused.value) == want, (rows, want)
        seen[{"column": "range", "a": "zero", "matrix": "symmetric"}[want.split()[0]]] += 1
        seen["forest" if case % 2 else "dense"] += 1
    assert min(seen.values()) >= 300, seen


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
        sig = symmetric_signature(sparse(A))
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
                cls = classify(p, q, r)
                assert cls.kind == kind, (p, q, r)
                assert tpqr_kind(p, q, r) == kind, (p, q, r)
                assert (tpqr_kind(p, q, r) == "finite") == cls.finite, (p, q, r)
