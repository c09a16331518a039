"""Counts of W and ^S W by length from the finite parabolics alone: the
oracle for the Weyl-group walk and the ^S W filter.

Steinberg's formula (Steinberg, *Endomorphisms of linear algebraic groups*,
Mem. AMS 80, 1968; Humphreys, *Reflection Groups and Coxeter Groups*, §5.12)
reads 1/W(t^-1) = sum over J with W_J finite of (-1)^|J| / W_J(t).  Each
W_J(t) is a palindromic polynomial of degree N_J, the number of reflections
of W_J, so

    W(t) = 1 / sum_J (-1)^|J| t^N_J / W_J(t),

a power series with integer coefficients.  W_J(t) is the product of
[d]_t = 1 + t + ... + t^(d-1) over the degrees d of the components of J
(Humphreys, §3.15).  An induced subgraph of a star is a disjoint union of
paths (type A) and at most one star (types D and E).  Every w is w_S ^S w
with lengths adding (Björner–Brenti, *Combinatorics of Coxeter Groups*,
§2.4), so ^S W(t) = W(t) / W_S(t).
"""

from itertools import combinations, islice

import pytest

from resatlas import kacmoody
from resatlas.kacmoody import TpqrGraph, enumerate_WS, root_multiplicities

# Degrees of the exceptional Weyl groups a star can hold (Humphreys, §3.7).
E_DEGREES = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}


def star_degrees(arms):
    """The degrees of the Weyl group of a star whose arms have the given
    numbers of vertices, or None if it is infinite."""
    a, b, c = sorted(arms)
    if a == 0:
        return tuple(range(2, b + c + 3))  # A_{b+c+1}
    if a == b == 1:
        k = c + 3
        return tuple(range(2, 2 * k - 1, 2)) + (k,)  # D_k
    if (a, b) == (1, 2) and c + 4 in E_DEGREES:
        return E_DEGREES[c + 4]
    return None


def parabolic_degrees(graph, J):
    """The degrees of W_J over all components of J, or None if W_J is
    infinite.  Each arm splits into runs of J; the run next to the centre
    joins the star around u when u is in J."""
    arms = (
        [graph.x(i) for i in range(1, graph.p)],
        [graph.y(i) for i in range(1, graph.q)],
        [graph.z(i) for i in range(1, graph.r)],
    )
    degrees, centre = [], []
    for arm in arms:
        runs, run = [], 0
        for v in arm:
            if v in J:
                run += 1
            else:
                runs.append(run)
                run = 0
        runs.append(run)
        if graph.u in J:
            centre.append(runs.pop(0))
        for k in runs:
            degrees += range(2, k + 2)
    if graph.u in J:
        star = star_degrees(centre)
        if star is None:
            return None
        degrees += star
    return degrees


def poincare(degrees, L):
    """prod [d]_t over the degrees, to t^L."""
    out = [1] + [0] * L
    for d in degrees:
        # Multiply by 1 + t + ... + t^(d-1) as a running window sum.
        acc = out[:]
        for k in range(1, L + 1):
            acc[k] = acc[k - 1] + out[k] - (out[k - d] if k >= d else 0)
        out = acc
    return out


def divide(num, den):
    """num / den as a power series to the length of num; den[0] is 1."""
    out = []
    for k in range(len(num)):
        out.append(num[k] - sum(den[i] * out[k - i] for i in range(1, min(k, len(den) - 1) + 1)))
    return out


def weyl_series(graph, L):
    """W(t) to t^L by Steinberg's formula."""
    total = [0] * (L + 1)
    for size in range(graph.n + 1):
        for J in combinations(range(graph.n), size):
            degrees = parabolic_degrees(graph, set(J))
            if degrees is None:
                continue
            N = sum(d - 1 for d in degrees)
            if N > L:
                continue
            term = divide([0] * N + [1] + [0] * (L - N), poincare(degrees, L))
            for k, c in enumerate(term):
                total[k] += (-1) ** size * c
    return divide([1] + [0] * L, total)


def quotient_series(graph, L):
    """^S W(t) = W(t) / W_S(t) to t^L."""
    return divide(weyl_series(graph, L), poincare(parabolic_degrees(graph, set(graph.S)), L))


def walk_counts(graph, L, lam=None):
    """The number of elements `_weyl_walk` yields at each length from
    lam + rho (lam = 0 by default), lengths 0..L, each key checked to end
    with its length."""
    top = graph.rho() if lam is None else tuple(x + 1 for x in lam)
    walk = kacmoody._weyl_walk(graph.adjacency, top, (0,) * graph.n)
    counts = []
    for length, groups in enumerate(islice(walk, L + 1)):
        ends = [key[-1] for group in groups for key in group]
        assert ends == [length] * len(ends), length
        counts.append(len(ends))
    return counts + [0] * (L + 1 - len(counts))


def ws_counts(graph, L, lam=None):
    grouped = enumerate_WS(graph, L, lam)
    return [len(grouped.get(k, [])) for k in range(L + 1)]


def first_difference(got, want):
    """The first length at which two count lists differ, or None."""
    return next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)


def test_the_degree_table_holds_the_group_orders():
    # |W| is the product of the degrees: D4, E6, E7, E8.
    orders = {(2, 2, 2): 192, (3, 3, 2): 51840, (2, 3, 4): 2903040, (2, 3, 5): 696729600}
    for pqr, order in orders.items():
        g = TpqrGraph(*pqr)
        degrees = parabolic_degrees(g, set(range(g.n)))
        assert sum(d - 1 for d in degrees) == len(root_multiplicities(g)[0]), pqr
        assert sum(poincare(degrees, 120)) == order, pqr


@pytest.mark.parametrize(
    "pqr, L",
    [((2, 2, 2), 14), ((3, 3, 2), 40), ((3, 3, 3), 14), ((2, 3, 7), 10)],
    ids=["D4", "E6", "T333", "T237"],
)
def test_the_walk_has_steinbergs_counts(pqr, L):
    # D4 and E6 to past their longest element: all 192 and 51,840 elements.
    # W acts freely on a regular weight, so the counts from rho + lam, for
    # lam = w_u + 2 w_z1 dominant, are the counts from rho.
    g = TpqrGraph(*pqr)
    series = weyl_series(g, L)
    assert first_difference(walk_counts(g, L), series) is None
    lam = tuple(1 if i == g.u else 2 if i == g.z1 else 0 for i in range(g.n))
    assert first_difference(walk_counts(g, L, lam), series) is None


@pytest.mark.parametrize(
    "pqr, L, size",
    [
        ((2, 2, 2), 14, 8),
        ((2, 2, 3), 22, 40),
        ((3, 3, 2), 38, 72),
        ((3, 3, 3), 14, None),
        ((2, 3, 7), 10, None),
    ],
    ids=["D4", "D5", "E6", "T333", "T237"],
)
def test_the_ws_filter_has_steinbergs_counts(pqr, L, size):
    # Past the longest element of W on finite type.  W^S does not depend on
    # lam, so the counts from rho + lam, for lam = w_u + 2 w_z1, are the
    # counts from rho.
    g = TpqrGraph(*pqr)
    series = quotient_series(g, L)
    lam = tuple(1 if i == g.u else 2 if i == g.z1 else 0 for i in range(g.n))
    for counts in (ws_counts(g, L), ws_counts(g, L, lam)):
        assert size is None or sum(counts) == size
        assert first_difference(counts, series) is None


@pytest.mark.parametrize("pqr", [(3, 3, 2), (2, 3, 4), (2, 3, 5)], ids=["E6", "E7", "E8"])
def test_steinbergs_series_is_chevalleys_product_on_finite_type(pqr):
    # On finite W the series is the polynomial prod [d]_t (Humphreys, §3.15).
    g = TpqrGraph(*pqr)
    L = len(root_multiplicities(g)[0]) + 4
    assert weyl_series(g, L) == poincare(parabolic_degrees(g, set(range(g.n))), L)


def test_the_counts_catch_an_element_dropped_from_one_layer(monkeypatch):
    g = TpqrGraph(3, 3, 2)
    length, labels, _ = enumerate_WS(g, 36)[5][0]
    victim = labels + (length,)  # as `weyl_elements` keeps it
    elements = kacmoody.weyl_elements
    monkeypatch.setattr(
        kacmoody,
        "weyl_elements",
        lambda graph, L, lam=None: [e for e in elements(graph, L, lam) if e != victim],
    )
    assert first_difference(ws_counts(g, 40), quotient_series(g, 40)) == 5


def test_e7_given_e6s_degrees_fails_where_the_series_first_differ(monkeypatch):
    # The degrees enter only through the term of J = I, t^N / W(t): with
    # E6's degrees it starts at t^36 instead of t^63.
    g = TpqrGraph(2, 3, 4)
    chevalley = poincare((2, 6, 8, 10, 12, 14, 18), 70)
    assert first_difference(weyl_series(g, 70), chevalley) is None
    monkeypatch.setitem(E_DEGREES, 7, E_DEGREES[6])
    assert first_difference(weyl_series(g, 70), chevalley) == 36
