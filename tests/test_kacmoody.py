import gc
import os
import platform
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, islice, permutations, repeat
from math import gcd, lcm, prod
from operator import add, gt, itemgetter, mul, sub
from pathlib import Path

import pytest

from resatlas import kacmoody
from resatlas.formats import classify, tpqr_cartan_matrix
from resatlas.kacmoody import (
    TpqrGraph,
    _finite_roots,
    _truncated_product,
    bgg_euler_check,
    bgg_initial_terms,
    character_series,
    defect_graded_dims,
    dot_action,
    enumerate_WS,
    kostant_weights,
    levi_roots,
    reflect,
    root_labels,
    root_multiplicities,
    roots_by_peterson,
    verify_denominator_identity,
    weyl_denominator_sum,
    weyl_elements,
)
from resatlas.schur import schur_dim


def test_a_graph_refuses_a_short_arm():
    with pytest.raises(ValueError, match=r"^require p >= 2, q >= 1, r >= 2, got \(2, 0, 2\)$"):
        TpqrGraph(2, 0, 2)


def test_a_graph_prints_its_fields():
    # Failure messages embed the graph as it prints.
    g = TpqrGraph(p=2, q=3, r=7)
    assert repr(g) == str(g) == "TpqrGraph(p=2, q=3, r=7)"


def test_vertex_layout():
    g = TpqrGraph(3, 3, 4)
    assert g.n == 8
    assert g.vertex_names == ["u", "x1", "x2", "y1", "y2", "z1", "z2", "z3"]
    assert g.z1 == 5 and g.u == 0 and g.x(2) == 2 and g.y(1) == 3 and g.z(3) == 7


def test_finite_root_counts():
    assert len(root_multiplicities(TpqrGraph(2, 2, 2))[0]) == 12   # D4
    assert len(root_multiplicities(TpqrGraph(3, 3, 2))[0]) == 36   # E6
    assert len(root_multiplicities(TpqrGraph(2, 3, 4))[0]) == 63   # E7
    assert len(root_multiplicities(TpqrGraph(5, 2, 3))[0]) == 120  # E8
    assert set(root_multiplicities(TpqrGraph(5, 2, 3))[0].values()) == {1}


def reflect_root(A, coords, i):
    """Simple reflection on root coordinates: only k_i changes."""
    pairing = sum(A[i][j] * coords[j] for j in range(len(coords)))
    out = list(coords)
    out[i] -= pairing
    return tuple(out)


def positive_roots_by_closure(A):
    """All positive roots of a finite-type A by closing the simple roots
    under the simple reflections, sorted by (height, coords); the oracle for
    the finite roots of `roots_by_peterson`."""
    n = len(A)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in range(n):
                beta = reflect_root(A, alpha, i)
                if all(c >= 0 for c in beta) and beta not in seen:
                    seen.add(beta)
                    nxt.append(beta)
        frontier = nxt
    return sorted(seen, key=lambda c: (sum(c), c))


# The classification table of the `classification` check: 576 triples.
TABLE = [(p, q, r) for p in range(2, 10) for q in range(1, 10) for r in range(2, 10)]


@pytest.fixture(scope="module")
def finite_graphs():
    return [pqr for pqr in TABLE if classify(*pqr).finite]


def test_the_finite_supply_equals_the_closure_on_every_finite_graph_of_the_table(finite_graphs):
    assert len(finite_graphs) == 101
    for pqr in finite_graphs:
        A = tpqr_cartan_matrix(*pqr)
        roots = _finite_roots(A)
        assert roots == dict.fromkeys(positive_roots_by_closure(A), 1), pqr
        assert list(map(sum, roots)) == sorted(map(sum, roots)), pqr


def test_peterson_stops_at_the_first_empty_height_on_every_finite_graph_of_the_table(
    finite_graphs,
):
    # Past the highest root theta no height holds a root, so any cap at or
    # above ht(theta) gives the whole root system.
    for pqr in finite_graphs:
        A = tpqr_cartan_matrix(*pqr)
        closure = positive_roots_by_closure(A)
        top = sum(closure[-1])
        for H in (top, 4 * top):
            assert roots_by_peterson(A, H) == dict.fromkeys(closure, 1), (pqr, H)


def test_the_finite_supply_equals_the_closure_on_levi_blocks():
    # The block on S is A_{p+q-1} x A_{r-2} in the graph's vertex order, in
    # which the path x_{p-1} .. x_1 u y_1 .. y_{q-1} starts at its middle.
    for pqr in TABLE:
        if sum(pqr) <= 15:
            g = TpqrGraph(*pqr)
            A = g.cartan
            block = [[A[i][j] for j in g.S] for i in g.S]
            assert _finite_roots(block) == dict.fromkeys(positive_roots_by_closure(block), 1), pqr


def test_the_root_supply_refuses_the_smallest_affine_graph():
    # T_{3,3,3} = E6^(1) has a root alpha + k delta for every k.
    with pytest.raises(RuntimeError, match=r"^a root at height 28 on rank 7; matrix not finite type\?$"):
        _finite_roots(tpqr_cartan_matrix(3, 3, 3))


def roots_by_denominator(A, H):
    """Positive-root multiplicities up to height H, solved height by height
    from the truncated Weyl denominator identity; the oracle for
    `roots_by_peterson`."""
    n = len(A)
    target = weyl_denominator_sum(A, H)
    product = {(0,) * n: 1}
    mults = {}
    for h in range(1, H + 1):
        candidates = {b for b in product if sum(b) == h} | {b for b in target if sum(b) == h}
        new_roots = []
        for beta in sorted(candidates):
            m = product.get(beta, 0) - target.get(beta, 0)
            assert m >= 0, (beta, m)
            if m > 0:
                mults[beta] = m
                new_roots.append((beta, m))
        product = kacmoody._truncated_product(product, new_roots, H, sum)
    return mults


def product_oracle(series, factors, bound, degree):
    """series * prod (1 - e^{-alpha})^count, one factor and one power at a
    time: each power snapshots the terms whose shift stays within `bound`,
    then shifts them, so no new term passes the bound (the series' own
    terms above it stay).  The per-factor oracle for `_truncated_product`."""
    series = dict(series)
    for alpha, count in factors:
        top = bound - degree(alpha)
        for _ in range(count):
            for beta, c in [(b, c) for b, c in series.items() if degree(b) <= top]:
                shifted = tuple(map(add, beta, alpha))
                value = series.get(shifted, 0) - c
                if value:
                    series[shifted] = value
                else:
                    series.pop(shifted, None)
    return series


@pytest.mark.parametrize(
    "pqr, H", [((2, 3, 7), 12), ((3, 3, 3), 12), ((2, 4, 5), 10), ((2, 4, 4), 10)]
)
def test_peterson_equals_the_denominator_oracle(pqr, H):
    A = tpqr_cartan_matrix(*pqr)
    assert roots_by_peterson(A, H) == roots_by_denominator(A, H)


def roots_by_peterson_probes(A, H):
    """Peterson's recursion with the pair sum in probe form: every candidate
    beta looks up beta - beta' for each beta' of height <= h/2 in the
    support of c, and takes its labels A beta densely; the oracle for the
    pair convolution of `roots_by_peterson`, with the same arithmetic, the
    same errors and the same insertion order."""
    n = len(A)
    if H < 1:
        return {}
    L = 1
    for d in range(2, H + 1):
        L = L * d // gcd(L, d)
    # B > 2H: key(beta) - key(beta') is a key only when beta - beta' >= 0.
    B = 2 * H + 2
    unit = [B**i for i in range(n)]
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    mults = {e: 1 for e in simple}
    lc = dict.fromkeys(unit, L)
    support = [[] for _ in range(H + 1)]
    roots = [[] for _ in range(H + 1)]
    support[1] = [(k, e, 2, L) for k, e in zip(unit, simple)]
    roots[1] = list(zip(unit, simple))
    for h in range(2, H + 1):
        candidates = {}
        for key, gamma in roots[h - 1]:
            for i in range(n):
                candidates[key + unit[i]] = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1 :]
        for d in range(2, h + 1):
            if h % d == 0:
                for key, gamma in roots[h // d]:
                    candidates[d * key] = tuple(d * x for x in gamma)
        low = [
            (k1, beta1, norm1, c1 if 2 * h1 == h else 2 * c1)
            for h1 in range(1, h // 2 + 1)
            for k1, beta1, norm1, c1 in support[h1]
        ]
        for key, beta in candidates.items():
            a_beta = root_labels(A, beta)
            rhs = 0
            for k1, beta1, norm1, c1 in low:
                c2 = lc.get(key - k1)
                if c2 is not None:
                    rhs += (sum(x * y for x, y in zip(beta1, a_beta)) - norm1) * c1 * c2
            g = gcd(*beta)
            multiple = sum(
                L // d * mults.get(tuple(x // d for x in beta), 0)
                for d in range(2, g + 1)
                if g % d == 0
            )
            norm = sum(x * y for x, y in zip(beta, a_beta))
            coef = norm - 2 * h
            if coef == 0:
                if rhs:
                    raise ArithmeticError(
                        f"Peterson recursion at {beta}: zero coefficient but pair sum {rhs}"
                    )
                c = multiple
            else:
                c, rem = divmod(rhs, coef * L)
                if rem:
                    raise ArithmeticError(
                        f"Peterson recursion at {beta}: pair sum {rhs} not divisible by {coef * L}"
                    )
            m, rem = divmod(c - multiple, L)
            if m < 0 or rem:
                raise ArithmeticError(
                    f"Peterson recursion at {beta}: multiplicity {Fraction(c - multiple, L)}"
                )
            if m:
                mults[beta] = m
                roots[h].append((key, beta))
            if c:
                lc[key] = c
                support[h].append((key, beta, norm, c))
    return mults


# The ten affine and indefinite graphs that the `atlas` benchmark runs at height 8.
ATLAS_GRAPHS = [
    (3, 3, 3), (2, 4, 4), (2, 3, 6), (2, 3, 7), (2, 3, 8),
    (2, 4, 5), (3, 3, 4), (2, 5, 5), (3, 4, 4), (3, 3, 5),
]


# The other arm orders of each atlas graph, which the benchmark also runs.
ATLAS_ORDERS = sorted({pqr for g in ATLAS_GRAPHS for pqr in permutations(g)} - set(ATLAS_GRAPHS))


# Heights with imaginary roots, so that the pair sum runs: its candidates
# are delta on the three affine graphs, 2 delta on T_{3,3,3}, and on
# E10 = T_{2,3,7} the null root of its affine E8 subgraph.
CHAMBER_CASES = [((3, 3, 3), 24), ((2, 4, 4), 18), ((2, 3, 6), 30), ((2, 3, 7), 31)]


@pytest.mark.parametrize(
    "pqr, H",
    [(g, 8) for g in ATLAS_GRAPHS + ATLAS_ORDERS] + [((2, 3, 7), 16)] + CHAMBER_CASES,
    ids=lambda v: str(v),
)
def test_peterson_equals_the_probe_oracle(pqr, H):
    A = tpqr_cartan_matrix(*pqr)
    got = roots_by_peterson(A, H)
    want = roots_by_peterson_probes(A, H)
    assert got == want
    assert list(got) == list(want)


# Null roots of the affine graphs E6^(1), E7^(1) and E8^(1) in TpqrGraph's
# vertex order (Kac, *Infinite-dimensional Lie algebras*, Table Aff 1).  The
# last vertex, the end of the z arm, has mark 1.
NULL_ROOTS = {
    (3, 3, 3): (3, 2, 1, 2, 1, 2, 1),
    (2, 4, 4): (4, 2, 3, 2, 1, 3, 2, 1),
    (2, 3, 6): (6, 3, 4, 2, 5, 4, 3, 2, 1),
}


def affine_mismatches(pqr, H, mults):
    """(root, mult, closed form) wherever `mults` differs from the affine
    closed form up to height H (Kac, Sec. 5.10 and Cor. 7.4): the real roots
    are alpha + k delta (k >= 0) and -alpha + k delta (k >= 1) over the
    positive roots alpha of the finite graph left when the last vertex goes,
    each of multiplicity 1, and k delta (k >= 1) has multiplicity n - 1."""
    A = tpqr_cartan_matrix(*pqr)
    n = len(A)
    delta = NULL_ROOTS[pqr]
    assert root_labels(A, delta) == (0,) * n and delta[-1] == 1
    finite = [alpha + (0,) for alpha in positive_roots_by_closure([row[:-1] for row in A[:-1]])]
    want = {}
    for k in range(H // sum(delta) + 1):
        k_delta = tuple(k * x for x in delta)
        if k:
            want[k_delta] = n - 1
        for alpha in finite:
            for sign in (1, -1) if k else (1,):
                beta = tuple(x + sign * a for x, a in zip(k_delta, alpha))
                if sum(beta) <= H:
                    want[beta] = 1
    return [
        (beta, mults.get(beta, 0), want.get(beta, 0))
        for beta in sorted(mults.keys() | want.keys())
        if mults.get(beta, 0) != want.get(beta, 0)
    ]


def norm(A, beta):
    """(beta|beta)."""
    return sum(map(mul, beta, root_labels(A, beta)))


def coloured_partitions(colours, k):
    """Partitions of k in `colours` colours: the coefficient of q^k in
    prod_{n >= 1} (1 - q^n)^(-colours)."""
    p = [1] + [0] * k
    for part in range(1, k + 1):
        for _ in range(colours):
            for total in range(part, k + 1):
                p[total] += p[total - part]
    return p[k]


def e10_mismatches(mults):
    """(root, mult, p_8(1 - (beta|beta)/2)) for each root of E10 = T_{2,3,7}
    that breaks Frenkel's bound mult <= p_8(1 - (beta|beta)/2) (Frenkel,
    1985), or that has coefficient 1 at z6, the end of the long arm, and
    misses the bound, where Kac-Moody-Wakimoto (1988) give equality."""
    A = tpqr_cartan_matrix(2, 3, 7)
    out = []
    for beta, m in mults.items():
        bound = coloured_partitions(8, 1 - norm(A, beta) // 2)
        if m > bound or (beta[-1] == 1 and m != bound):
            out.append((beta, m, bound))
    return out


def test_coloured_partitions_are_the_eta_power_coefficients():
    # prod (1 - q^n)^-8 = 1 + 8 q + 44 q^2 + 192 q^3 + 726 q^4 + ...
    assert [coloured_partitions(8, k) for k in range(5)] == [1, 8, 44, 192, 726]
    assert [coloured_partitions(1, k) for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


@pytest.mark.parametrize("pqr, H", CHAMBER_CASES[:3], ids=lambda v: str(v))
def test_affine_multiplicities_equal_the_closed_form(pqr, H):
    mults = roots_by_peterson(tpqr_cartan_matrix(*pqr), H)
    assert affine_mismatches(pqr, H, mults) == []


@pytest.mark.parametrize("pqr, H", CHAMBER_CASES[:3], ids=lambda v: str(v))
def test_affine_closed_form_names_a_wrong_multiplicity(pqr, H):
    A = tpqr_cartan_matrix(*pqr)
    mults = roots_by_peterson(A, H)
    delta = NULL_ROOTS[pqr]
    n = len(delta)
    real = next(beta for beta in reversed(mults) if norm(A, beta) == 2)
    assert affine_mismatches(pqr, H, {**mults, delta: n}) == [(delta, n, n - 1)]
    assert affine_mismatches(pqr, H, {**mults, real: 2}) == [(real, 2, 1)]


def test_e10_multiplicities_keep_frenkels_bound():
    mults = roots_by_peterson(tpqr_cartan_matrix(2, 3, 7), 31)
    assert e10_mismatches(mults) == []
    # The bound is reached: the null root of the E8^(1) subgraph has mult 8.
    delta = (6, 3, 4, 2, 5, 4, 3, 2, 1, 0)
    assert mults[delta] == 8 and mults[delta[:-1] + (1,)] == 8


def test_e10_bound_names_a_wrong_multiplicity():
    A = tpqr_cartan_matrix(2, 3, 7)
    mults = roots_by_peterson(A, 31)
    delta = (6, 3, 4, 2, 5, 4, 3, 2, 1, 0)
    real = next(beta for beta in reversed(mults) if norm(A, beta) == 2)
    assert e10_mismatches({**mults, delta: 9}) == [(delta, 9, 8)]
    assert e10_mismatches({**mults, real: 2}) == [(real, 2, 1)]


def denominator_factors(A, H):
    mults = roots_by_peterson(A, H)
    return [(beta, mults[beta]) for beta in sorted(mults, key=lambda b: (sum(b), b))]


@pytest.mark.parametrize(
    "pqr, H", [(g, 8) for g in ATLAS_GRAPHS] + [((2, 3, 7), 12)], ids=lambda v: str(v)
)
def test_truncated_product_equals_the_oracle_and_the_weyl_sum(pqr, H):
    A = tpqr_cartan_matrix(*pqr)
    factors = denominator_factors(A, H)
    one = {(0,) * len(A): 1}
    got = _truncated_product(one, factors, H, sum)
    assert one == {(0,) * len(A): 1}
    assert got == product_oracle(one, factors, H, sum)
    assert got == weyl_denominator_sum(A, H)
    random.Random(H).shuffle(factors)
    assert _truncated_product(one, factors, H, sum) == got


@pytest.mark.parametrize(
    "pqr, vertex, cutoff",
    [((2, 2, 2), None, 4), ((2, 2, 2), "z1", 4), ((2, 2, 2), "u", 4),
     ((3, 3, 2), "z1", 2), ((3, 3, 2), "z1", 3)],
)
def test_truncated_product_equals_the_oracle_on_bgg_right_sides(pqr, vertex, cutoff):
    g = TpqrGraph(*pqr)
    lam = (0,) * g.n if vertex is None else g.fundamental_weight(getattr(g, vertex))
    roots, _ = root_multiplicities(g)
    series = character_series(g, lam, roots, max_level=cutoff)
    nilradical = [(alpha, m) for alpha, m in roots.items() if alpha[g.z1] > 0]
    level = itemgetter(g.z1)
    got = _truncated_product(series, nilradical, cutoff, level)
    assert got == product_oracle(series, nilradical, cutoff, level)
    assert got != series


def random_product_case(rng):
    """A sparse series with negative coefficients, factors of degree >= 1
    with counts 1-3, and terms placed to cancel against a factor's shift."""
    n = rng.randint(1, 4)
    degree = sum if rng.random() < 0.5 else itemgetter(0)
    bound = rng.randint(1, 6)
    factors = []
    for _ in range(rng.randint(0, 5)):
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        if degree(alpha) < 1:
            alpha = (rng.randint(1, 2),) + alpha[1:]
        factors.append((alpha, rng.randint(1, 3)))
    series = {}
    for _ in range(rng.randint(1, 8)):
        beta = tuple(rng.randint(0, 5) for _ in range(n))
        series[beta] = rng.choice([-3, -2, -1, 1, 2, 3])
        if factors and rng.random() < 0.5:
            alpha = rng.choice(factors)[0]
            series[tuple(map(add, beta, alpha))] = series[beta]
    return series, factors, bound, degree


def test_truncated_product_equals_the_oracle_on_random_series():
    rng = random.Random(17)
    for case in range(200):
        series, factors, bound, degree = random_product_case(rng)
        before = dict(series)
        got = _truncated_product(series, factors, bound, degree)
        assert series == before, case
        # The oracle keeps the series terms above the bound; the product drops them.
        want = {b: c for b, c in product_oracle(series, factors, bound, degree).items()
                if degree(b) <= bound}
        assert got == want, case
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert _truncated_product(series, shuffled, bound, degree) == got, case


def test_truncated_product_refuses_a_factor_of_degree_0():
    factors = [((1, 0), 1), ((0, 2), 1)]
    with pytest.raises(ValueError, match=r"factor \(0, 2\) has degree 0"):
        _truncated_product({(0, 0): 1}, factors, 3, itemgetter(0))


def test_roots_by_denominator_takes_one_product_per_height(monkeypatch):
    calls = []
    product = kacmoody._truncated_product

    def counted(series, factors, bound, degree):
        calls.append(sorted({sum(alpha) for alpha, _ in factors}))
        return product(series, factors, bound, degree)

    monkeypatch.setattr(kacmoody, "_truncated_product", counted)
    roots_by_denominator(tpqr_cartan_matrix(3, 3, 3), 6)
    assert calls == [[h] for h in range(1, 7)]


def test_recursion_agrees_with_closure_on_finite():
    # D4, E6, E7, E8; the highest roots have heights 5, 11, 17, 29.
    for pqr, top in [((2, 2, 2), 5), ((3, 3, 2), 11), ((2, 3, 4), 17), ((5, 2, 3), 29)]:
        A = TpqrGraph(*pqr).cartan
        closure = dict.fromkeys(positive_roots_by_closure(A), 1)
        assert max(sum(c) for c in closure) == top
        for H in (top, top + 3):
            assert roots_by_peterson(A, H) == closure, (pqr, H)
    d4 = TpqrGraph(2, 2, 2).cartan
    assert roots_by_denominator(d4, 12) == dict.fromkeys(positive_roots_by_closure(d4), 1)


def test_finite_roots_ignore_the_height_cutoff():
    # 20 is the CLI's default --max-height, below E8's ht(theta) = 29.
    g = TpqrGraph(5, 2, 3)
    roots, exhaustive = root_multiplicities(g, H=20)
    assert len(roots) == 120 and exhaustive
    assert list(roots.items()) == list(root_multiplicities(g)[0].items())


def test_affine_null_root_multiplicity():
    g = TpqrGraph(3, 3, 3)
    mults = roots_by_peterson(g.cartan, 12)
    # delta = alpha_u*3 + 2 on each arm-adjacent vertex + 1 on each arm end
    delta = (3, 2, 1, 2, 1, 2, 1)
    assert mults[delta] == 6
    assert verify_denominator_identity(g.cartan, 12, mults) is None


@pytest.mark.parametrize(
    "A, message, entry",
    [
        ([[1, -3], [-3, 1]], r"at \(3, 1\): multiplicity 11/12", r"A\[0\]\[0\] = 1, not 2"),
        ([[1, -3], [-3, 3]], r"at \(3, 1\): pair sum -48000 not divisible by -840",
         r"A\[0\]\[0\] = 1, not 2"),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 4]], r"at \(2, 1, 1\): zero coefficient but pair sum",
         r"A\[2\]\[2\] = 4, not 2"),
    ],
    ids=["non-integral", "inexact", "zero-coefficient"],
)
def test_peterson_names_the_root_where_the_recursion_breaks(A, message, entry):
    # None has 2 on the diagonal, as (beta|2 rho) = 2 ht(beta) assumes: the
    # probe oracle breaks inside the recursion, and the engine, which also
    # reflects, refuses the matrix before it starts.
    with pytest.raises(ArithmeticError, match="Peterson recursion " + message):
        roots_by_peterson_probes(A, 6)
    with pytest.raises(ValueError, match="^" + entry + "$"):
        roots_by_peterson(A, 6)


@pytest.mark.parametrize(
    "A, entry",
    [
        ([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], r"A\[0\]\[1\] = -1 but A\[1\]\[0\] = -2"),
        ([[2, 1, 0], [1, 2, -1], [0, -1, 2]], r"A\[0\]\[1\] = 1, not <= 0"),
    ],
    ids=["asymmetric", "positive-off-diagonal"],
)
def test_peterson_refuses_a_matrix_it_cannot_reflect_with(A, entry):
    with pytest.raises(ValueError, match="^" + entry + "$"):
        roots_by_peterson(A, 6)
    with pytest.raises(ValueError, match="^" + entry + "$"):
        roots_by_peterson(A, 0)


@pytest.mark.parametrize(
    "A, entry",
    [
        ([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], r"A\[0\]\[1\] = -1 but A\[1\]\[0\] = -2"),
        ([[2, -1], [-1, 1]], r"A\[1\]\[1\] = 1, not 2"),
        ([[2, -2], [-2, 2]], r"A\[0\]\[1\] = -2, not 0 or -1"),
    ],
    ids=["asymmetric", "diagonal-1", "affine-A1"],
)
def test_the_denominator_sum_refuses_a_matrix_its_walk_cannot_reflect_with(A, entry):
    with pytest.raises(ValueError, match="^" + entry + "$"):
        weyl_denominator_sum(A, 6)


def test_the_denominator_sum_refuses_a_height_past_one_byte():
    # Each drop coordinate is packed into one byte; H = 255 still fits.
    A = tpqr_cartan_matrix(2, 2, 2)
    with pytest.raises(ValueError, match=r"^H = 256 does not fit"):
        weyl_denominator_sum(A, 256)
    assert weyl_denominator_sum(A, 255) == weyl_denominator_sum(A, 30)
    assert len(weyl_denominator_sum(A, 30)) == 192


def cartan_entry_error(A, off_ok, off):
    """The first entry of A, row by row, that `_check_cartan` names, as its
    message, or None: the entry-by-entry oracle for its whole-matrix test."""
    n = len(A)
    for i in range(n):
        for j in range(n):
            if A[i][j] != A[j][i]:
                return f"A[{i}][{j}] = {A[i][j]} but A[{j}][{i}] = {A[j][i]}"
            if i == j and A[i][i] != 2 or i != j and not off_ok(A[i][j]):
                return f"A[{i}][{j}] = {A[i][j]}, not {2 if i == j else off}"
    return None


def test_the_cartan_check_names_the_entry_the_scan_names():
    # Random matrices near a Cartan matrix: mostly symmetric, a few entries
    # changed, with the tuple rows that a caller may pass.
    rng = random.Random(23)
    rules = [(None, lambda a: a <= 0, "<= 0"), (-1, lambda a: a in (0, -1), "0 or -1")]
    outcomes = Counter()
    for case in range(600):
        n = rng.randint(1, 6)
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in combinations(range(n), 2):
            A[i][j] = A[j][i] = rng.choice([0, 0, -1, -1, -2, -3])
        for _ in range(rng.choice([0, 0, 1, 2])):
            A[rng.randrange(n)][rng.randrange(n)] = rng.choice([-2, -1, 0, 1, 2, 3])
        if rng.random() < 0.5:
            A = [tuple(row) for row in A]
        for lowest, off_ok, off in rules:
            want = cartan_entry_error(A, off_ok, off)
            if want is None:
                kacmoody._check_cartan(A, lowest, off)
            else:
                with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
                    kacmoody._check_cartan(A, lowest, off)
            outcomes[want is None] += 1
    assert outcomes[True] > 200 and outcomes[False] > 200, outcomes


def test_the_identity_refuses_affine_a1_rather_than_failing_it():
    # roots_by_peterson accepts A_1^(1); walking its -2 as -1 would make the
    # true identity read False.
    A = [[2, -2], [-2, 2]]
    mults = roots_by_peterson(A, 6)
    assert mults[(1, 1)] == 1 and mults[(3, 2)] == 1
    with pytest.raises(ValueError, match=r"^A\[0\]\[1\] = -2, not 0 or -1$"):
        verify_denominator_identity(A, 6, mults)


def test_denominator_identity_rejects_a_negative_multiplicity():
    A = tpqr_cartan_matrix(2, 2, 2)
    mults = {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1}
    with pytest.raises(ValueError, match=r"negative multiplicity -1 at root \(0, 1, 0, 0\)"):
        verify_denominator_identity(A, 4, mults)
    # With two, the lowest root is named, though the product is formed
    # tallest first.
    mults = {(1, 1, 0, 0): -2, (1, 0, 0, 0): 1, (0, 1, 0, 0): -1}
    with pytest.raises(ValueError, match=r"negative multiplicity -1 at root \(0, 1, 0, 0\)"):
        verify_denominator_identity(A, 4, mults)


def test_indefinite_identity_verifies():
    A = tpqr_cartan_matrix(2, 3, 7)
    mults = roots_by_peterson(A, 8)
    assert verify_denominator_identity(A, 8, mults) is None
    # all real roots at height 1 are simple
    n = len(A)
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        assert mults[e] == 1


def test_the_identity_names_the_lowest_of_two_wrong_multiplicities():
    # One more factor (1 - e^{-beta}) puts -1 at beta, where the Weyl sum,
    # whose terms are rho - w rho, has 0.  The lower height comes first,
    # whatever the dict order; within a height, the lower coordinates.
    A = tpqr_cartan_matrix(2, 3, 7)
    mults = roots_by_peterson(A, 8)
    # z1..z5, taller than u + x1 + y1 but before it by coordinates.
    tall, short, shorter = (0,) * 4 + (1,) * 5 + (0,), (1, 1, 1) + (0,) * 7, (0,) * 7 + (1, 1, 1)
    assert sum(tall) == 5 and sum(short) == sum(shorter) == 3 and tall < short
    bad = {**mults, tall: mults[tall] + 1, short: mults[short] + 1}
    assert verify_denominator_identity(A, 8, bad) == (short, -1, 0)
    bad = {**mults, short: mults[short] + 1, shorter: mults[shorter] + 1}
    assert verify_denominator_identity(A, 8, bad) == (shorter, -1, 0)


def test_weyl_group_order_d4():
    g = TpqrGraph(2, 2, 2)
    elems = weyl_elements(g, 12)  # longest element has length 12
    assert len(elems) == 192
    assert max(rec[-1] for rec in elems) == 12


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


def inverse_map(A):
    """x -> the k with A k = x, for an invertible A, on integer vectors: the
    columns of A^{-1} from `solve_coords`, scaled by their common
    denominator D once, so that each solve is integer sums and one exact
    division by D (asserted)."""
    n = len(A)
    cols = [solve_coords(A, tuple(int(i == j) for i in range(n))) for j in range(n)]
    D = lcm(*(c.denominator for col in cols for c in col))
    rows = [[int(cols[j][i] * D) for j in range(n)] for i in range(n)]

    def solve(x):
        out = []
        for row in rows:
            k, rem = divmod(sum(map(mul, row, x)), D)
            assert rem == 0, (x, row)
            out.append(k)
        return tuple(out)

    return solve


def dot_walk(graph, word, labels):
    """w . lambda = w(lambda + rho) - rho and the drop lambda - w . lambda in
    root coordinates, for w = s_{i1} s_{i2} ... s_{il} (word = (i1,...,il),
    applied right to left).  Each s_i lowers the current w'(lambda + rho) by
    its label i times alpha_i, acting on labels by the Cartan row; the
    word-replay oracle for the weights and drops of `weyl_elements`."""
    A = graph.cartan
    current = [x + 1 for x in labels]
    drop = [0] * graph.n
    for i in reversed(word):
        li = current[i]
        drop[i] += li
        current = [c - li * a for c, a in zip(current, A[i])]
    return tuple(x - 1 for x in current), tuple(drop)


def check_walk(g, word, lam):
    """`dot_walk` on one word, checked against `reflect`, `dot_action` and
    the drop solved from A drop = lam - w.lam."""
    weight, drop = dot_walk(g, word, lam)
    moved = tuple(x + 1 for x in lam)
    for i in reversed(word):
        moved = reflect(g, moved, i)
    assert weight == tuple(x - 1 for x in moved) == dot_action(g, word, lam), word
    lowered = tuple(l - w for l, w in zip(lam, weight))
    assert root_labels(g.cartan, drop) == lowered, word
    assert drop == solve_coords(g.cartan, lowered), word
    return weight, drop


def walk_pairs(elems):
    """(length, w.lam, drop) of each (length, labels, drop), sorted."""
    return sorted((length, tuple(x - 1 for x in labels), drop) for length, labels, drop in elems)


def with_drops(graph, elems, lam, solve=None):
    """Each record labels + (length,) of `weyl_elements` from lam + rho as
    (length, labels, drop), its drop (lam + rho) - labels in root
    coordinates: by `solve`, a map of that difference, if given, else
    derived from the labels by `kacmoody._drop`, as `enumerate_WS` derives
    it."""
    top = tuple(x + 1 for x in lam)
    adjacency = graph.adjacency
    return [
        (length, labels, solve(tuple(map(sub, top, labels))) if solve
         else kacmoody._drop(adjacency, top, labels, length))
        for length, labels in ((rec[-1], rec[:-1]) for rec in elems)
    ]


def test_walk_equals_the_word_replay_on_all_of_w_d4():
    # Every drop of W is derived from its labels, and checked against the
    # replay, which `check_walk` checks against `solve_coords`.
    g = TpqrGraph(2, 2, 2)
    words = [word for word, _, _ in weyl_elements_with_inverse_images(g, 12)]
    assert len(words) == 192
    for lam in [(0,) * g.n, g.fundamental_weight(g.z1), g.fundamental_weight(g.u)]:
        replayed = sorted((len(word),) + check_walk(g, word, lam) for word in words)
        assert walk_pairs(with_drops(g, weyl_elements(g, 12, lam), lam)) == replayed


def test_walk_equals_the_word_replay_on_ws_d5():
    g = TpqrGraph(2, 2, 3)
    words = [word for word, _ in ws_oracle(g, 20)]
    assert len(words) == 40  # |W(D5)| / |W(A3 x A1)|
    for lam in [(0,) * g.n, g.fundamental_weight(g.z1), g.fundamental_weight(g.z(2))]:
        replayed = sorted((len(word),) + check_walk(g, word, lam) for word in words)
        grouped = enumerate_WS(g, 20, lam)
        assert walk_pairs(e for v in grouped.values() for e in v) == replayed


def test_walk_equals_the_word_replay_on_all_of_w_e6():
    g = TpqrGraph(3, 3, 2)
    lam = g.fundamental_weight(g.z1)
    words = [word for word, _, _ in weyl_elements_with_inverse_images(g, 36)]
    assert len(words) == 51840
    replayed = sorted((len(word),) + dot_walk(g, word, lam) for word in words)
    drop = inverse_map(g.cartan)
    assert walk_pairs(with_drops(g, weyl_elements(g, 36, lam), lam, drop)) == replayed
    # The drops that `enumerate_WS` derives, on the 72 elements of W^S.
    kept = [e for v in enumerate_WS(g, 36, lam).values() for e in v]
    assert len(kept) == 72
    assert kept == with_drops(g, [labels + (length,) for length, labels, _ in kept], lam, drop)


@pytest.mark.parametrize(
    "pqr, L, count", [((2, 2, 2), 12, 192 + 8), ((3, 3, 2), 36, 51840 + 72)], ids=["D4", "E6"]
)
def test_weyl_records_are_plain_tuples_the_collector_untracks(pqr, L, count):
    # CPython's collector untracks an exact tuple of untracked items when it
    # visits it, but never a tuple subclass such as a NamedTuple, so each
    # full collection would rescan every element of W kept.  One pass may
    # visit a record before its labels (finding what is reachable reorders
    # the list it walks), so a second pass untracks what the first left.
    g = TpqrGraph(*pqr)
    lam = g.fundamental_weight(g.z1)
    grouped = enumerate_WS(g, L, lam)
    records = weyl_elements(g, L, lam) + [e for v in grouped.values() for e in v]
    assert len(records) == count
    assert all(type(e) is tuple for e in records)
    if platform.python_implementation() == "CPython":
        gc.collect()
        gc.collect()
        assert not any(map(gc.is_tracked, records))


@pytest.mark.parametrize(
    "pqr, L, count", [((2, 2, 2), 12, 192), ((3, 3, 2), 36, 51840)], ids=["D4", "E6"]
)
def test_weyl_elements_are_labels_then_length_and_untracked_after_collection(pqr, L, count):
    # The record is an exact tuple of n + 1 ints, labels + (length,), and
    # nothing more; see the test above for why two passes.  The last entry
    # is the length: the identity alone has no negative label and ends in 0,
    # and any other record reflected at its first negative label, a descent
    # of w, which s_f shortens by one, is a record ending in one less.
    g = TpqrGraph(*pqr)
    records = weyl_elements(g, L)
    assert len(records) == count
    assert {(type(e), tuple(map(type, e))) for e in records} == {(tuple, (int,) * (g.n + 1))}
    lengths = [e[-1] for e in records]
    assert lengths == sorted(lengths) and lengths[-1] == L
    kept = set(records)
    for e in records:
        f = next((f for f, x in enumerate(e[:-1]) if x < 0), None)
        if f is None:
            assert e == g.rho() + (0,), e
        else:
            assert reflect(g, e[:-1], f) + (e[-1] - 1,) in kept, e
    if platform.python_implementation() == "CPython":
        gc.collect()
        gc.collect()
        assert not any(map(gc.is_tracked, records))


def test_weyl_elements_keep_one_tuple_per_element():
    # 23,040 elements of D6 from w_z1 + rho, each one tuple of 7 small ints
    # (96 bytes, and 8 for its list slot): about 2.7 MB traced at the peak,
    # which also holds the list's spare room and the walk's last groups.  A
    # second object per element, such as a (length, labels) pair around the
    # labels, with a merged copy of each length, takes the peak past 3.5 MB.
    g = TpqrGraph(4, 2, 2)
    lam = g.fundamental_weight(g.z1)
    assert len(weyl_elements(g, 1, lam)) == 7  # the graph's cached fields are built
    if platform.python_implementation() == "CPython":
        tracemalloc.start()
        try:
            records = weyl_elements(g, 30, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 23040
        assert peak < 3_000_000, peak


def test_weyl_elements_refuse_a_negative_lam():
    g = TpqrGraph(2, 2, 3)
    lam = tuple(-x for x in g.fundamental_weight(g.z(2)))
    with pytest.raises(ValueError, match="lam has label -1 < 0 at vertex z2"):
        weyl_elements(g, 2, lam)
    with pytest.raises(ValueError, match="lam has label -1 < 0 at vertex z2"):
        enumerate_WS(g, 2, lam)


@pytest.mark.parametrize("pqr, H", [((2, 2, 2), 20), ((3, 3, 2), 30)], ids=["D4-H20", "E6-H30"])
def test_weyl_denominator_sum_equals_the_length_walk_cut_by_height(pqr, H):
    # The drop rho - w(rho) of each element of W, solved from its labels.
    g = TpqrGraph(*pqr)
    elems = weyl_elements(g, len(root_multiplicities(g)[0]))
    signed = Counter()
    for length, _, drop in with_drops(g, elems, (0,) * g.n, inverse_map(g.cartan)):
        if sum(drop) <= H:
            signed[drop] += -1 if length % 2 else 1
    assert weyl_denominator_sum(g.cartan, H) == {k: v for k, v in signed.items() if v}


# Graphs that are not a T_{p,q,r}, by adjacency: the affine A_3^(1), a
# 4-cycle, where a vertex has two later neighbours in the walk's order, and
# A_1 + A_2, whose two components the order takes one after the other.
OTHER_GRAPHS = {"A3^(1)": [[1, 3], [0, 2], [1, 3], [0, 2]], "A1+A2": [[], [2], [1]]}
# A vertex to put last in the walk's order on each, other than its default
# last vertex: on A_1 + A_2 it moves the lone A_1 to the end.
OTHER_LAST = {"A3^(1)": 2, "A1+A2": 0}


def dedupe_walk(adjacency, top, max_height=None):
    """The Weyl group by length as `_weyl_walk` yields it, by trying every
    ascent i of every element (label i of w(top) positive) and keeping the
    first build of each s_i w(top) in the next layer: the oracle for
    `_weyl_walk`, which builds each element once, from its first descent."""
    layer = {tuple(top): (0,) * len(top)}
    while layer:
        yield layer
        nxt = {}
        for labels, drop in layer.items():
            room = None if max_height is None else max_height - sum(drop)
            for i, li in enumerate(labels):
                if li <= 0 or (room is not None and li > room):
                    continue
                new = list(labels)
                new[i] = -li
                for j in adjacency[i]:
                    new[j] += li
                new = tuple(new)
                if new not in nxt:
                    nxt[new] = drop[:i] + (drop[i] + li,) + drop[i + 1 :]
        layer = nxt


def packed_walk(adjacency, top, H=None, last=None):
    """`_weyl_walk` with each drop packed into its int, base B = 2**32 per
    coordinate and the height in the digit above them, each length read
    back as labels -> drop, with the height digit checked against the drop.
    The bound (H + 1) B**n - 1 on that int keeps the drops of height <= H.
    Each key is checked to be the labels then the length, each element to
    sit in the group of its first descent in the walk's order (the
    identity's group last), and no labels to repeat across the groups.
    Without H, the walk with every unit 0, as `weyl_elements` walks, is
    checked to give the same keys in the same order."""
    n = len(top)
    B = 2**32
    units = [B**i + B**n for i in range(n)]
    bound = None if H is None else (H + 1) * B**n - 1
    order = kacmoody._leaves_first(adjacency, last)
    bare = kacmoody._weyl_walk(adjacency, top, (0,) * n, None, last)
    for length, groups in enumerate(kacmoody._weyl_walk(adjacency, top, units, bound, last)):
        assert len(groups) == n + 1
        out = {}
        for k, group in enumerate(groups):
            for key, v in group.items():
                labels = key[:-1]
                assert len(key) == n + 1 and key[-1] == length, (key, length)
                first = next((place for place, f in enumerate(order) if labels[f] < 0), n)
                assert first == k, (labels, k)
                drop = tuple(v // B**i % B for i in range(n))
                assert v // B**n == sum(drop), (labels, v)
                out[labels] = drop
        assert len(out) == sum(map(len, groups))
        if H is None:
            assert [list(group) for group in next(bare)] == [list(group) for group in groups]
        yield out


@pytest.mark.parametrize(
    "pqr, lam, H, layers",
    [
        ((2, 2, 2), None, None, None),
        ((2, 2, 3), None, None, None),
        ((4, 2, 2), None, None, None),
        ((2, 2, 4), None, None, None),
        ((3, 3, 2), None, None, None),
        ((3, 3, 2), "z1", None, None),
        ((3, 3, 2), "u", None, None),
        ((3, 2, 3), None, None, None),
        ((2, 3, 7), None, 8, None),
        ((2, 3, 7), None, 14, None),
        ((2, 4, 5), None, 14, None),
        ((3, 3, 3), None, 16, None),
        ((2, 3, 6), None, 12, None),
        ((2, 3, 7), None, None, 10),
        ((3, 3, 3), None, None, 12),
        ((2, 4, 5), None, None, 10),
        ((2, 1, 4), None, None, None),
        ("A3^(1)", None, 10, None),
        ("A3^(1)", None, 12, None),
        ("A1+A2", None, None, None),
    ],
    ids=[
        "D4", "D5", "D6-422", "D6-224", "E6", "E6-z1", "E6-u", "E6-323", "T237-H8", "T237-H14",
        "T245-H14", "T333-H16", "T236-H12", "T237-L10", "T333-L12", "T245-L10", "T214",
        "cycle4-H10", "cycle4-H12", "A1+A2",
    ],
)
def test_the_walk_equals_the_dedupe_walk_layer_by_layer(pqr, lam, H, layers):
    # Equal as dicts: the same labels and drops, in any order.  The walk
    # itself raises RuntimeError if it builds an element twice.  T_{2,1,4}
    # ties u with z_1 and z_2 for the highest degree.  Each graph is walked
    # in its default order and again with a named last vertex: z_1, as
    # `weyl_elements` walks, on a T_{p,q,r}.
    if pqr in OTHER_GRAPHS:
        adjacency = OTHER_GRAPHS[pqr]
        top = (1,) * len(adjacency)
        last = OTHER_LAST[pqr]
    else:
        g = TpqrGraph(*pqr)
        adjacency, top, last = g.adjacency, g.rho(), g.z1
        if lam is not None:
            top = tuple(x + 1 for x in g.fundamental_weight(g.vertex_names.index(lam)))
    assert kacmoody._leaves_first(adjacency)[-1] != last
    assert kacmoody._leaves_first(adjacency, last)[-1] == last
    want = list(islice(dedupe_walk(adjacency, top, H), layers))
    for order_last in (None, last):
        got = list(islice(packed_walk(adjacency, top, H, order_last), layers))
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a == b, (pqr, lam, H, order_last, k)


@pytest.mark.parametrize("H", [10, 12])
def test_the_denominator_sum_on_a_cycle_equals_the_dedupe_count(H):
    cycle = OTHER_GRAPHS["A3^(1)"]
    A = [[2 if i == j else -1 if j in cycle[i] else 0 for j in range(4)] for i in range(4)]
    signed = {}
    for length, layer in enumerate(dedupe_walk(cycle, (1,) * 4, H)):
        signed.update(dict.fromkeys(layer.values(), -1 if length % 2 else 1))
    assert weyl_denominator_sum(A, H) == signed


@pytest.mark.parametrize(
    "pqr, lam, H", [((3, 3, 2), "z1", None), ((2, 3, 7), None, 10)], ids=["E6-z1", "T237-H10"]
)
def test_the_walk_does_not_depend_on_the_vertex_numbering(pqr, lam, H):
    # Vertex v is renumbered sigma[v]; walking the renumbered graph and
    # reading each layer back in the old numbering gives the same layers.
    g = TpqrGraph(*pqr)
    n = g.n
    top = g.rho() if lam is None else tuple(x + 1 for x in g.fundamental_weight(g.z1))
    sigma = [(3 - v) % n for v in range(n)]
    adjacency = [None] * n
    moved = [None] * n
    for v in range(n):
        adjacency[sigma[v]] = sorted(sigma[j] for j in g.adjacency[v])
        moved[sigma[v]] = top[v]
    back = itemgetter(*sigma)
    want = list(packed_walk(g.adjacency, top, H))
    got = [
        {back(labels): back(drop) for labels, drop in layer.items()}
        for layer in packed_walk(adjacency, moved, H)
    ]
    assert sorted(sigma) != sigma and sorted(sigma) == list(range(n))
    assert got == want


def test_the_walk_refuses_a_top_with_a_label_below_one():
    # A zero label makes w(top) singular: w no longer determines it, and
    # the labels before the first descent need not be positive.
    g = TpqrGraph(2, 2, 2)
    with pytest.raises(ValueError, match=r"top has label 0 < 1 at position 0"):
        next(kacmoody._weyl_walk(g.adjacency, (0, 1, 1, 1), (0,) * 4))
    with pytest.raises(ValueError, match=r"top has label -2 < 1 at position 3"):
        next(kacmoody._weyl_walk(g.adjacency, (1, 1, 1, -2), (1,) * 4, 5))


def test_the_drop_derivation_refuses_labels_it_cannot_descend():
    # rho on E6 is fixed by the diagram automorphism, so w_0 rho = -rho,
    # at length 36, and rho - w_0 rho = 2 rho is the sum of the positive
    # roots.  One step short or one too many, a changed label, a missing
    # entry, or -rho on the hyperbolic T_{2,3,7}, outside the Tits cone,
    # where descending never reaches rho: each raises after at most
    # `length` steps.
    g = TpqrGraph(3, 3, 2)
    rho = g.rho()
    minus = tuple(-x for x in rho)
    roots = root_multiplicities(g)[0]
    assert kacmoody._drop(g.adjacency, rho, minus, 36) == tuple(map(sum, zip(*roots)))
    bad = [(minus, 35), (minus, 37), (rho, 1), ((1, 1, 1, 1, 1, 2), 0), (minus[:5], 36)]
    for labels, length in bad:
        with pytest.raises(RuntimeError, match=re.escape(f"labels {labels} ")):
            kacmoody._drop(g.adjacency, rho, labels, length)
    s_z1 = reflect(g, rho, g.z1)
    assert kacmoody._drop(g.adjacency, rho, s_z1, 1) == tuple(int(j == g.z1) for j in range(g.n))
    with pytest.raises(RuntimeError, match=re.escape(f"labels {s_z1} do not descend to {rho} in 2 steps")):
        kacmoody._drop(g.adjacency, rho, s_z1, 2)
    h = TpqrGraph(2, 3, 7)
    minus = tuple(-x for x in h.rho())
    with pytest.raises(RuntimeError, match=re.escape(f"labels {minus} do not descend")):
        kacmoody._drop(h.adjacency, h.rho(), minus, 1000)


def weyl_elements_with_inverse_images(graph, L):
    """All (word, labels, inverse images) of W up to length L: the BFS of
    `weyl_elements` with each element also carrying w^{-1}(alpha_j) for every
    j, by (s_i w)^{-1} alpha_j = w^{-1} alpha_j - A[i][j] w^{-1} alpha_i, and
    s_i acting on labels by the Cartan row, lambda - lambda_i A[i]; the oracle
    for `weyl_elements` and for `enumerate_WS`'s label test."""
    A = graph.cartan
    n = graph.n
    rho = graph.rho()
    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    identity = ((), rho, simple)
    seen = {rho}
    frontier = [identity]
    out = [identity]
    for _ in range(L):
        nxt = []
        for word, labels, inv in frontier:
            for i in range(n):
                if labels[i] <= 0:
                    continue
                new_labels = tuple(labels[k] - labels[i] * A[i][k] for k in range(n))
                if new_labels in seen:
                    continue
                new_inv = tuple(
                    tuple(inv[j][k] - A[i][j] * inv[i][k] for k in range(n)) for j in range(n)
                )
                seen.add(new_labels)
                elem = ((i,) + word, new_labels, new_inv)
                out.append(elem)
                nxt.append(elem)
        frontier = nxt
    return out


@pytest.mark.parametrize(
    "pqr, L",
    [
        ((2, 2, 2), None),
        ((2, 2, 3), None),
        ((3, 2, 2), None),
        ((2, 2, 4), None),
        ((3, 3, 2), None),
        ((2, 3, 3), None),
        ((3, 3, 3), 8),
    ],
    ids=["T222", "T223", "T322", "T224", "T332", "T233", "T333-L8"],
)
def test_weyl_elements_equal_the_inverse_image_oracle(pqr, L):
    g = TpqrGraph(*pqr)
    if L is None:
        L = len(root_multiplicities(g)[0])  # the length of the longest element
    oracle = weyl_elements_with_inverse_images(g, L)
    assert sorted(weyl_elements(g, L)) == sorted(l + (len(w),) for w, l, _ in oracle)
    for word, labels, inv in oracle:
        for j in range(g.n):
            # label j of w(rho) is the height of w^{-1}(alpha_j), a real root
            assert (labels[j] > 0) == all(c >= 0 for c in inv[j]), (word, j)


def inversion_roots(graph, word):
    """Phi_w = {alpha > 0 : w^{-1} alpha < 0} from a reduced word
    w = s_{i1}...s_{il}: the roots s_{i1}...s_{i_{k-1}}(alpha_{i_k})."""
    A = graph.cartan
    n = graph.n
    out = []
    for k, ik in enumerate(word):
        alpha = tuple(1 if j == ik else 0 for j in range(n))
        for i in reversed(word[:k]):
            alpha = reflect_root(A, alpha, i)
        out.append(alpha)
    return out


def ws_oracle(graph, L):
    """(word, labels) of W^S up to length L by its definition: the w whose
    inversion roots all have a positive z_1 coefficient, from the
    inverse-image BFS oracle."""
    return [
        (word, labels)
        for word, labels, _ in weyl_elements_with_inverse_images(graph, L)
        if all(alpha[graph.z1] > 0 for alpha in inversion_roots(graph, word))
    ]


def ws_by_inversion_sets(graph, L):
    """`ws_oracle` as sorted (length, labels), grouped by length as
    `enumerate_WS` groups it."""
    grouped = {}
    for word, labels in ws_oracle(graph, L):
        grouped.setdefault(len(word), []).append((len(word), labels))
    return {k: sorted(v) for k, v in grouped.items()}


def ws_words(grouped):
    return {k: sorted((length, labels) for length, labels, _ in v) for k, v in grouped.items()}


@pytest.mark.parametrize(
    "pqr, L", [((2, 2, 2), 12), ((2, 2, 3), 20), ((3, 3, 2), 8)], ids=["D4", "D5", "E6-L8"]
)
def test_enumerate_ws_equals_the_inversion_set_definition(pqr, L):
    g = TpqrGraph(*pqr)
    for word, _, _ in weyl_elements_with_inverse_images(g, L):
        assert len(set(inversion_roots(g, word))) == len(word)  # |Phi_w| = l(w)
    assert ws_words(enumerate_WS(g, L)) == ws_by_inversion_sets(g, L)


def test_inversion_set_comparison_catches_a_dropped_element(monkeypatch):
    g = TpqrGraph(2, 2, 2)
    elements = kacmoody.weyl_elements
    s_z1_labels = reflect(g, g.rho(), g.z1)  # s_z1 rho = rho - alpha_z1
    monkeypatch.setattr(
        kacmoody,
        "weyl_elements",
        lambda graph, L, lam=None: [e for e in elements(graph, L, lam) if e[:-1] != s_z1_labels],
    )
    grouped = ws_words(enumerate_WS(g, 12))
    oracle = ws_by_inversion_sets(g, 12)
    assert grouped != oracle
    assert [k for k in oracle if grouped.get(k) != oracle[k]] == [1]


def ws_by_testing_every_element(graph, L, lam=None):
    """W^S up to length L as `enumerate_WS` groups it, by testing the labels
    on S of every element of `weyl_elements`: the oracle for
    `enumerate_WS`, which tests only the end of each length.  Each kept
    record gets the drop derived from its labels, checked to lower
    lam + rho to them."""
    lam = (0,) * graph.n if lam is None else lam
    A = graph.cartan
    on_S = itemgetter(*graph.S)
    elems = weyl_elements(graph, L, lam)
    grouped = {}
    kept = map(gt, map(min, map(on_S, (e[:-1] for e in elems))), repeat(0))
    for elem in with_drops(graph, compress(elems, kept), lam):
        length, labels, drop = elem
        assert root_labels(A, drop) == tuple(x + 1 - y for x, y in zip(lam, labels)), elem
        grouped.setdefault(length, []).append(elem)
    return {k: sorted(v) for k, v in grouped.items()}


# (p, q, r) -> the lengths L at which the suffix read is checked: 0..3 and
# |Phi+| on finite type (E7 to 8 only), 0..4 on the others.
SUFFIX_CASES = {
    (2, 2, 2): (0, 1, 2, 3, 12),
    (2, 2, 3): (0, 1, 2, 3, 20),
    (3, 2, 2): (0, 1, 2, 3, 20),
    (2, 2, 4): (0, 1, 2, 3, 30),
    (4, 2, 2): (0, 1, 2, 3, 30),
    (3, 3, 2): (0, 1, 2, 3, 36),
    (2, 3, 3): (0, 1, 2, 3, 36),
    (4, 3, 2): (0, 1, 2, 3, 8),
    (2, 3, 4): (0, 1, 2, 3, 8),
    (3, 3, 3): (0, 1, 2, 3, 4),
    (3, 3, 4): (0, 1, 2, 3, 4),
    (2, 3, 7): (0, 1, 2, 3, 4),
}


@pytest.mark.parametrize("pqr", list(SUFFIX_CASES), ids=lambda v: "T%d%d%d" % v)
def test_enumerate_ws_equals_the_test_on_every_element(pqr):
    # Equal as dicts with the same key order.  z_1 is a leaf on T_{p,q,2}
    # and has two neighbours otherwise; D5, D6, E6 and E7 are each taken in
    # both arm orders.  lam: 0, each fundamental weight and one mixed.
    g = TpqrGraph(*pqr)
    mixed = tuple(k % 3 for k in range(g.n))
    for lam in [None] + [g.fundamental_weight(v) for v in range(g.n)] + [mixed]:
        for L in SUFFIX_CASES[pqr]:
            want = ws_by_testing_every_element(g, L, lam)
            assert list(enumerate_WS(g, L, lam).items()) == list(want.items()), (lam, L)
    assert len(enumerate_WS(g, SUFFIX_CASES[pqr][-1])[1]) == 1  # s_z1 alone


def levels_below_length(graph, kept):
    """Each kept (length, labels, drop) whose z_1 level, the z_1 coordinate of
    its drop, is below its length, named by length, level and drop."""
    return [
        f"length {length}, level {drop[graph.z1]}, drop "
        f"{ {k: v for k, v in graph.labels_as_dict(drop).items() if v} }"
        for length, _, drop in kept
        if drop[graph.z1] < length
    ]


@pytest.mark.parametrize(
    "pqr", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 4), (4, 2, 2), (3, 3, 2)],
    ids=lambda v: "T%d%d%d" % v,
)
def test_ws_levels_are_at_least_the_length(pqr):
    # The drop (lam + rho) - w(lam + rho) is a sum of l(w) roots beta > 0 with
    # w^{-1} beta < 0, each times a coefficient >= 1.  w^{-1} keeps the
    # simple roots of S positive, so no such beta lies in the Levi on S
    # (Kostant; Lepowsky, J. Algebra 49, 1977), and each adds at least 1 to
    # the z_1 level.  The lone length-1 element s_z1 has level lam_z1 + 1:
    # equality at lam_z1 = 0.
    g = TpqrGraph(*pqr)
    top = len(root_multiplicities(g)[0])
    lams = [(0,) * g.n, g.fundamental_weight(g.z1)]
    if pqr != (3, 3, 2):
        lams += [g.fundamental_weight(v) for v in range(g.n) if v != g.z1]
        lams += [(1,) * g.n, tuple(2 * x for x in g.fundamental_weight(g.z1))]
    for lam in lams:
        grouped = enumerate_WS(g, top, lam)
        assert levels_below_length(g, (e for v in grouped.values() for e in v)) == [], lam
        assert [drop[g.z1] for _, _, drop in grouped[1]] == [lam[g.z1] + 1], lam


def test_ws_level_bound_names_a_levi_element():
    # s_u is in the Levi on S: length 1, level 0.
    g = TpqrGraph(2, 2, 2)
    kept = [e for v in enumerate_WS(g, 12).values() for e in v]
    labels = reflect(g, g.rho(), g.u)
    assert labels + (1,) in weyl_elements(g, 1)
    s_u = (1, labels, tuple(int(j == g.u) for j in range(g.n)))  # rho - s_u rho = alpha_u
    assert levels_below_length(g, kept + [s_u]) == ["length 1, level 0, drop {'u': 1}"]


@pytest.mark.parametrize(
    "pqr, L, lengths", [((2, 2, 2), 12, 7), ((2, 3, 7), 4, 5)], ids=["D4", "T237"]
)
def test_the_suffix_read_fails_when_z1_is_not_last(monkeypatch, pqr, L, lengths):
    # With u last, as the walk's default order has it, each length from 1
    # on ends with elements that have u as a descent: the read finds none,
    # while testing every element still finds W^S at every length.
    g = TpqrGraph(*pqr)
    want = ws_by_testing_every_element(g, L)
    assert list(want) == list(range(lengths))
    leaves_first = kacmoody._leaves_first

    def u_last(adjacency, last=None):
        return leaves_first(adjacency)

    monkeypatch.setattr(kacmoody, "_leaves_first", u_last)
    assert ws_by_testing_every_element(g, L) == want
    assert enumerate_WS(g, L) == {0: want[0]}


def test_ws_counts_d4():
    g = TpqrGraph(2, 2, 2)
    grouped = enumerate_WS(g, 12)
    counts = [len(grouped.get(k, [])) for k in range(7)]
    assert counts == [1, 1, 1, 2, 1, 1, 1]
    assert sum(counts) == 8


def test_kostant_anchor_t334():
    g = TpqrGraph(3, 3, 4)
    weights = kostant_weights(g, 2)[2]
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
    def dims(*pqr):
        graph = TpqrGraph(*pqr)
        return defect_graded_dims(graph, root_multiplicities(graph), m_max=4)

    assert dims(2, 2, 2).dims == (6, 0, 0, 0)
    d = dims(3, 3, 2)
    assert d.dims == (20, 1, 0, 0) and d.total == 21
    assert dims(2, 2, 3).dims == (12, 1, 0, 0)


@pytest.mark.parametrize(
    "pqr, H",
    [(g, 8) for g in ATLAS_GRAPHS] + [((2, 2, 2), None), ((3, 3, 2), None), ((5, 2, 3), None)],
    ids=lambda v: str(v),
)
def test_defect_dims_are_the_level_sums_of_the_roots(pqr, H):
    graph = TpqrGraph(*pqr)
    supply = root_multiplicities(graph, H)
    mults, _ = supply
    m_max = max(coords[graph.z1] for coords in mults) + 1
    want = [0] * m_max
    for coords, m in mults.items():
        if coords[graph.z1]:
            want[coords[graph.z1] - 1] += m
    got = defect_graded_dims(graph, supply, m_max=m_max)
    assert got.dims == tuple(want) and want[-1] == 0
    assert got.total == (sum(want) if H is None else None)
    cut = defect_graded_dims(graph, supply, m_max=1)
    assert cut.dims == (want[0],) and cut.total == got.total


def test_defect_dims_truncated_nonfinite():
    g = TpqrGraph(3, 3, 3)
    d = defect_graded_dims(g, root_multiplicities(g, 8), m_max=2)
    assert d.total is None
    assert d.dims[0] > 0


def weyl_dim(graph, lam, roots):
    """The finite-type oracle: dim V(lam) by the Weyl dimension formula over
    the positive roots `roots`, as an exact quotient, which a root supply
    with a root missing can make non-integral."""
    lam_rho = tuple(x + 1 for x in lam)
    return prod(Fraction(sum(map(mul, lam_rho, alpha)), sum(alpha)) for alpha in roots)


def graded_dims(graph, lam, cutoff):
    """The S-graded dimensions, levels 0..cutoff, and the total of the
    finite-type V(lam), summed from `character_series` over the supply of
    `kacmoody.root_multiplicities`; the total must equal `weyl_dim`."""
    roots, _ = kacmoody.root_multiplicities(graph)
    series = character_series(graph, lam, roots)
    dims = [0] * (cutoff + 1)
    for beta, m in series.items():
        if beta[graph.z1] <= cutoff:
            dims[beta[graph.z1]] += m
    total = sum(series.values())
    assert total == weyl_dim(graph, lam, roots), (graph, lam, total)
    return tuple(dims), total


def test_character_dimensions_d4():
    g = TpqrGraph(2, 2, 2)
    spin = g.fundamental_weight(g.z1)
    dims, total = graded_dims(g, spin, 2)
    assert dims == (1, 6, 1) and total == 8
    adjoint = g.fundamental_weight(g.u)
    dims, total = graded_dims(g, adjoint, 2)
    assert total == 28 and dims == (6, 16, 6)


def test_character_dimensions_e6():
    g = TpqrGraph(3, 3, 2)
    dims, total = graded_dims(g, g.fundamental_weight(g.z1), 4)
    assert total == 78
    assert dims == (1, 20, 36, 20, 1)


def test_character_total_check_holds_under_python_O():
    # The spin-branching check pins V(w_z1) on D4 by an explicit raise, so
    # a character that doubles every weight fails it also under -O.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from resatlas import kacmoody\n"
        "from resatlas.checks import CHECKS, Budget\n"
        "series = kacmoody.character_series\n"
        "kacmoody.character_series = lambda *a: {b: 2 * m for b, m in series(*a).items()}\n"
        "dict(CHECKS)['spin-branching'](Budget(None))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert "CheckFailed" in proc.stderr
    assert "S-graded dims (2, 12, 2), total 16, expected (1, 6, 1), 8" in proc.stderr


def test_weyl_dim_matches_series():
    g = TpqrGraph(2, 2, 2)
    lam = (1, 0, 1, 0)
    roots, _ = root_multiplicities(g)
    series = character_series(g, lam, roots)
    assert sum(series.values()) == weyl_dim(g, lam, roots)


@pytest.mark.parametrize(
    "pqr", [(2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 4)], ids=["D4", "D5", "E6", "E7"]
)
def test_level_zero_of_a_character_is_the_levi_character(pqr):
    # Branching to the Levi on S: the weights of V(lam) at S-height 0 are
    # those of L_S(lam), with their multiplicities.  Both sides come from the
    # same engine, so the Levi character's total must also be its dimension
    # by the GL Weyl formula, which does not use Freudenthal.
    g = TpqrGraph(*pqr)
    roots, _ = root_multiplicities(g)
    for v in range(g.n):
        lam = g.fundamental_weight(v)
        levi = character_series(g, lam, levi_roots(g))
        level0 = {b: c for b, c in character_series(g, lam, roots).items() if b[g.z1] == 0}
        assert level0 == levi, (pqr, v)
        assert sum(levi.values()) == levi_dim(g, lam), (pqr, v)


@pytest.mark.parametrize(
    "pqr", [(2, 2, 2), (3, 3, 2), (5, 2, 3), (2, 3, 7), (3, 3, 3)], ids=["D4", "E6", "E8", "T237", "T333"]
)
def test_levi_roots_are_the_level_0_roots(pqr):
    # The Levi's roots are the positive roots with z_1 coefficient 0; none of
    # them is above height n - 1, the rank of S.
    g = TpqrGraph(*pqr)
    level0 = {c: m for c, m in roots_by_peterson(g.cartan, g.n).items() if c[g.z1] == 0}
    assert levi_roots(g) == level0


def levi_paths(g):
    """The two type-A paths of the Levi on S, each read from one end:
    x_{p-1} .. x_1 u y_1 .. y_{q-1} and z_2 .. z_{r-1}."""
    head = [g.x(i) for i in range(g.p - 1, 0, -1)] + [g.u] + [g.y(i) for i in range(1, g.q)]
    return head, [g.z(i) for i in range(2, g.r)]


def levi_dim(g, lam):
    """Dimension of the Levi irreducible on S by the GL Weyl dimension
    formula (`schur_dim`, no Freudenthal): on each path the GL weight is the
    suffix sums of the labels, closed by a 0."""
    dim = 1
    for path in levi_paths(g):
        weight = [sum(lam[v] for v in path[i:]) for i in range(len(path))] + [0]
        dim *= schur_dim(weight, len(weight))
    return dim


def character_series_all_weights(graph, lam, levi=False, max_level=None):
    """Freudenthal's recursion with the root sum at every weight, and the
    same frontier, candidate order and level cutoff as `character_series`;
    the oracle for its dominant-weight engine.  Its roots come from the
    reflection closure on finite type, and from Peterson's recursion
    elsewhere, where only the Levi character is defined."""
    A = graph.cartan
    n = graph.n
    gens = list(graph.S) if levi else list(range(n))
    if classify(*graph).finite:
        pos_roots = positive_roots_by_closure(A)
    else:
        pos_roots = list(roots_by_peterson(A, n - 1))
    if levi:
        pos_roots = [c for c in pos_roots if c[graph.z1] == 0]
    lam_rho = tuple(x + 1 for x in lam)
    root_data = [
        (alpha, sum(lam[i] * alpha[i] for i in range(n)), root_labels(A, alpha))
        for alpha in pos_roots
    ]
    zero = (0,) * n
    mults = {zero: 1}
    frontier = [zero]
    while frontier:
        candidates = sorted(
            {tuple(b[k] + (1 if k == i else 0) for k in range(n)) for b in frontier for i in gens}
        )
        if max_level is not None:
            candidates = [beta for beta in candidates if beta[graph.z1] <= max_level]
        nxt = []
        for beta in candidates:
            num = 0
            for alpha, lam_alpha, a_alpha in root_data:
                k = 1
                while True:
                    gamma = tuple(beta[j] - k * alpha[j] for j in range(n))
                    if any(c < 0 for c in gamma):
                        break
                    m = mults.get(gamma, 0)
                    if m == 0:
                        break
                    num += (lam_alpha - sum(gamma[i] * a_alpha[i] for i in range(n))) * m
                    k += 1
            if num == 0:
                continue
            a_beta = [sum(A[i][j] * beta[j] for j in range(n)) for i in range(n)]
            denom = 2 * sum(lam_rho[i] * beta[i] for i in range(n)) - sum(
                beta[i] * a_beta[i] for i in range(n)
            )
            assert denom > 0 and (2 * num) % denom == 0, (graph, lam, beta)
            mults[beta] = 2 * num // denom
            nxt.append(beta)
        frontier = nxt
    return mults


def oracle_weights(g):
    """Every fundamental weight, 0 and omega_u + omega_z1."""
    u_z1 = tuple(a + b for a, b in zip(g.fundamental_weight(g.u), g.fundamental_weight(g.z1)))
    return [g.fundamental_weight(v) for v in range(g.n)] + [(0,) * g.n, u_z1]


@pytest.mark.parametrize(
    "pqr",
    [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 4), (4, 2, 2), (3, 3, 2)],
    ids=["D4", "D5", "D5-x", "D6", "D6-x", "E6"],
)
def test_character_series_matches_all_weights_freudenthal(pqr):
    # Same dict in the same key order, for the full and the Levi character,
    # at every level cutoff.  The full character of omega_u + omega_z1 on D6
    # and E6 has thousands of weights and takes the oracle seconds: there the
    # oracle runs to level 3, and the uncut engine is checked by its total.
    g = TpqrGraph(*pqr)
    heavy = g.n >= 6
    roots, _ = root_multiplicities(g)
    for lam in oracle_weights(g):
        for levi in (False, True):
            top = 3 if heavy and not levi and lam[g.u] and lam[g.z1] else None
            expected = character_series_all_weights(g, lam, levi, top)
            for max_level in (0, 1, 2, 3, None):
                got = character_series(g, lam, levi_roots(g) if levi else roots, max_level=max_level)
                if max_level is None and top is not None:
                    assert sum(got.values()) == weyl_dim(g, lam, roots), (pqr, lam)
                    continue
                want = [(b, c) for b, c in expected.items() if max_level is None or b[g.z1] <= max_level]
                assert list(got.items()) == want, (pqr, lam, levi, max_level)


def test_e7_character_to_level_2_matches_all_weights_freudenthal():
    g = TpqrGraph(2, 3, 4)
    lam = tuple(a + b for a, b in zip(g.fundamental_weight(g.u), g.fundamental_weight(g.z1)))
    got = character_series(g, lam, root_multiplicities(g)[0], max_level=2)
    assert list(got.items()) == list(character_series_all_weights(g, lam, max_level=2).items())


@pytest.mark.parametrize("pqr", [(2, 3, 7), (3, 3, 3)], ids=["T237", "T333"])
def test_levi_character_matches_all_weights_freudenthal_off_finite_type(pqr):
    # The oracle weights are minuscule or 0 on S, so their only dominant
    # weight is the top and the engine reads no root.  The sum of the
    # fundamental weights at the ends of both A blocks of S is the adjoint
    # of each block, whose Freudenthal sum at weight 0 reads every root.
    g = TpqrGraph(*pqr)
    ends = (g.x(g.p - 1), g.y(g.q - 1), g.z(2), g.z(g.r - 1))
    adjoint = tuple(sum(g.fundamental_weight(v)[k] for v in ends) for k in range(g.n))
    for lam in oracle_weights(g) + [adjoint]:
        got = character_series(g, lam, levi_roots(g))
        assert list(got.items()) == list(character_series_all_weights(g, lam, levi=True).items()), lam


def drop_highest_root(monkeypatch):
    """Break the root supply: `root_multiplicities` loses its highest root,
    the last of its dict by height.  The Levi supply is left whole."""
    full = kacmoody.root_multiplicities

    def short(graph, H=None):
        mults, exhaustive = full(graph, H)
        return dict(list(mults.items())[:-1]), exhaustive

    monkeypatch.setattr(kacmoody, "root_multiplicities", short)


def test_a_missing_root_breaks_the_d4_vector_character(monkeypatch):
    # The drop where the all-weights recursion went non-integral is not
    # dominant, so it is read by reflection; the BGG identity and the
    # dimension formula catch the missing root instead.  Without the
    # highest root's factor, ch L(lam) P keeps a term at that root.
    drop_highest_root(monkeypatch)
    g = TpqrGraph(2, 2, 2)
    lam = g.fundamental_weight(g.z1)
    assert bgg_euler_check(g, lam, 2) == ((2, 1, 1, 1), 0, 1)
    roots, _ = kacmoody.root_multiplicities(g)
    assert weyl_dim(g, lam, roots) == Fraction(20, 3)


@pytest.mark.parametrize("pqr, vertex", [((2, 2, 2), "u"), ((3, 3, 2), "z1")], ids=["D4-u", "E6-z1"])
def test_a_missing_root_makes_freudenthal_non_integral(monkeypatch, pqr, vertex):
    drop_highest_root(monkeypatch)
    g = TpqrGraph(*pqr)
    lam = g.fundamental_weight(getattr(g, vertex))
    for run in (lambda: bgg_euler_check(g, lam, 2), lambda: graded_dims(g, lam, 2)):
        with pytest.raises(AssertionError, match=re.escape(repr(g)) + " lam .*not a multiplicity"):
            run()


def test_e8_adjoint_graded_dimensions():
    g = TpqrGraph(2, 3, 5)
    assert graded_dims(g, g.fundamental_weight(g.z(4)), 10) == (
        (4, 10, 20, 30, 40, 40, 40, 30, 20, 10, 4),
        248,
    )


def type_a_dim(labels):
    """Weyl's dimension formula for A_m, labels read along the path:
    prod over 1 <= i <= j <= m of (sum of lam_k + 1 for i <= k <= j) / (j - i + 1)."""
    m = len(labels)
    dim = Fraction(1)
    for i in range(m):
        for j in range(i, m):
            dim *= Fraction(sum(a + 1 for a in labels[i : j + 1]), j - i + 1)
    return dim


@pytest.mark.parametrize(
    "pqr, lam, dims",
    [
        # u x1 y1 y2 z1 z2..z6: A_4 on x1-u-y1-y2 and A_5 on z2..z6
        ((2, 3, 7), (0, 1, 1, 0, -3, 0, 1, 0, 0, 0), (45, 15)),
        # u x1 x2 y1 y2 z1 z2: A_5 on x2-x1-u-y1-y2 and A_1 on z2
        ((3, 3, 3), (1, 0, 1, 0, 0, -1, 2), (105, 3)),
    ],
    ids=["T237", "T333"],
)
def test_levi_character_on_a_non_finite_graph(pqr, lam, dims):
    g = TpqrGraph(*pqr)
    head, tail = levi_paths(g)
    assert (type_a_dim([lam[v] for v in head]), type_a_dim([lam[v] for v in tail])) == dims
    series = character_series(g, lam, levi_roots(g))
    assert all(beta[g.z1] == 0 for beta in series)
    assert sum(series.values()) == prod(dims)


def test_bgg_initial_terms_zero_weight():
    g = TpqrGraph(2, 2, 2)
    layers = bgg_initial_terms(g, (0, 0, 0, 0))
    assert layers[0] == [(0, 0, 0, 0)]
    w1 = layers[1][0]
    assert w1[g.z1] == -2 and w1[g.u] == 1


def test_bgg_euler_d4():
    g = TpqrGraph(2, 2, 2)
    for lam in [(0, 0, 0, 0), g.fundamental_weight(g.z1), g.fundamental_weight(g.u)]:
        assert bgg_euler_check(g, lam, 4) is None, lam


@pytest.mark.parametrize(
    "pqr, vertex, cutoff",
    [((2, 2, 2), "z1", 2), ((2, 2, 2), "y1", 4), ((3, 3, 2), "z1", 2), ((3, 3, 2), None, 3)],
    ids=["D4-z1", "D4-y1", "E6-z1", "E6-zero"],
)
def test_the_bgg_check_builds_each_root_supply_once(monkeypatch, pqr, vertex, cutoff):
    # One Peterson run for the positive roots and one for the Levi on S.
    # With a supply built in each engine, and the Levi's for each kept W^S
    # element, these cases took 4, 7, 4 and 7 runs.
    g = TpqrGraph(*pqr)
    lam = (0,) * g.n if vertex is None else g.fundamental_weight(g.vertex_names.index(vertex))
    ranks = []
    solve = kacmoody.roots_by_peterson

    def counted(A, H):
        ranks.append(len(A))
        return solve(A, H)

    monkeypatch.setattr(kacmoody, "roots_by_peterson", counted)
    assert bgg_euler_check(g, lam, cutoff) is None
    assert sorted(ranks) == [g.n - 1, g.n]


def fundamental_in_exterior_check(graph: TpqrGraph, arm: str, i: int) -> bool:
    """Weight-level containment: does the i-th exterior power of the
    fundamental representation at the far end of an arm contain the
    fundamental representation i steps in from the end?"""
    arm_len = {"x": graph.p - 1, "y": graph.q - 1, "z": graph.r - 1}[arm]
    vertex_of = {"x": graph.x, "y": graph.y, "z": graph.z}[arm]
    end = vertex_of(arm_len)
    inner = vertex_of(arm_len - i + 1) if i > 1 else end

    roots, _ = root_multiplicities(graph)

    def weight_list(vertex: int):
        lam = graph.fundamental_weight(vertex)
        out = []
        for beta, m in character_series(graph, lam, roots).items():
            drop_labels = root_labels(graph.cartan, beta)
            out.extend([tuple(l - d for l, d in zip(lam, drop_labels))] * m)
        return sorted(out)

    base = weight_list(end)
    exterior = Counter()
    for combo in combinations(range(len(base)), i):
        exterior[tuple(sum(base[j][k] for j in combo) for k in range(graph.n))] += 1
    target = Counter(weight_list(inner))
    return all(exterior[w] >= c for w, c in target.items())


def test_fundamental_in_exterior():
    g = TpqrGraph(3, 3, 2)
    assert fundamental_in_exterior_check(g, "x", 1)
    assert fundamental_in_exterior_check(g, "x", 2)
