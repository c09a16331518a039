"""The paper checks: one registry behind `resatlas suite paper-checks` and
the acceptance tests.

`CHECKS` is the ordered list of (name, fn).  Each fn takes a `Budget`,
returns a one-line detail on success and raises `CheckFailed`, naming the
object that broke, on failure.  Every verdict is an explicit raise, so the
checks hold under `python -O`.  The certificates of `kacmoody`, `rings` and
`complexes` that the checks call return nothing (None, or an empty tuple of
failures) exactly when their fact holds, and otherwise what broke: the
lowest drop where two series differ, the K* term that maps wrong, the
fact, minor or composition entry that fails.  A check puts that into its
message.

Each leg of a check can fail on its own: no leg repeats a comparison that
the library raises on before it returns, and none compares a table entry
with the literal it is built from.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import Callable, List, Optional, Tuple

from . import complexes, exact, formats, kacmoody, rings, schur
from .formats import TpqrGraph, derive_ranks


class BudgetExceeded(Exception):
    pass


class Budget:
    """Wall-clock cap on enumeration work, from RESATLAS_BUDGET_MS."""

    def __init__(self, ms: Optional[int]) -> None:
        self.deadline = time.monotonic() + ms / 1000.0 if ms is not None else None

    def check(self, what: str = "") -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(what or "enumeration budget exhausted")


class CheckFailed(AssertionError):
    """A paper check failed; the message names the object that broke."""


def random_sigma_tau(
    rng: random.Random, fmt
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """A random (sigma, tau, t) for a K*/BGG dictionary crosscheck on `fmt`."""
    r1, r2, r3 = fmt.r
    sigma = tuple(sorted((rng.randint(0, 3) for _ in range(r3)), reverse=True))
    tau = tuple(sorted((rng.randint(0, 3) for _ in range(r1 + r2)), reverse=True))
    t = rng.randint(1, 3)
    return sigma, tau, t


def _check_classification(budget: Budget) -> str:
    anchors = {
        (2, 2, 2): ("finite", "D4"),
        (5, 2, 3): ("finite", "E8"),
        (3, 3, 3): ("affine", None),
        (2, 3, 7): ("indefinite", None),
    }
    count = 0
    for p in range(2, 10):
        for q in range(1, 10):
            for r in range(2, 10):
                budget.check("classification table")
                cls = formats.classify(p, q, r)  # raises if the two paths disagree
                count += 1
                if (p, q, r) in anchors and (cls.kind, cls.dynkin) != anchors[(p, q, r)]:
                    raise CheckFailed(
                        f"T_{{{p},{q},{r}}} classified {cls.kind} {cls.dynkin}, "
                        f"expected {anchors[(p, q, r)]}"
                    )
    for pqr, signature in (((3, 3, 3), (6, 1, 0)), ((2, 3, 7), (9, 0, 1))):
        cls = formats.classify(*pqr)
        if cls.signature != signature:
            raise CheckFailed(f"T_{pqr} signature {cls.signature}, expected {signature}")
    return f"{count} triples, anchors D4/E8/affine/indefinite confirmed"


def _check_root_counts(budget: Budget) -> str:
    expected = {(2, 2, 2): 24, (3, 3, 2): 72, (5, 2, 3): 240}
    for (p, q, r), half in expected.items():
        budget.check("root enumeration")
        mults, _ = kacmoody.root_multiplicities(TpqrGraph(p, q, r))
        if 2 * len(mults) != half:
            raise CheckFailed(f"T_{{{p},{q},{r}}}: {len(mults)} positive roots, not {half // 2}")
        if any(m != 1 for m in mults.values()):
            raise CheckFailed(f"T_{{{p},{q},{r}}}: a finite root has multiplicity != 1")
    return "positive-root counts 12/36/120 (24/72/240 roots), all mult 1"


def _check_denominator_identity(budget: Budget) -> str:
    A = formats.tpqr_cartan_matrix(2, 3, 7)
    mults = kacmoody.roots_by_peterson(A, 8)
    bad = kacmoody.verify_denominator_identity(A, 8, mults)
    if bad is not None:
        raise CheckFailed(
            f"T_{{2,3,7}}: denominator identity fails to height 8: at drop {bad.drop} of "
            f"height {sum(bad.drop)} the product has {bad.lhs}, the Weyl sum {bad.rhs}"
        )
    # An imaginary root: on affine E6^(1) = T_{3,3,3} the null root delta has
    # multiplicity l = 6 (Kac, Cor. 7.4); T_{2,3,7} has none below height 8.
    delta = (3, 2, 1, 2, 1, 2, 1)
    m = kacmoody.roots_by_peterson(formats.tpqr_cartan_matrix(3, 3, 3), 12).get(delta, 0)
    if m != 6:
        raise CheckFailed(f"T_{{3,3,3}}: null root delta {delta} has multiplicity {m}, not 6")
    return f"T_{{2,3,7}} multiplicities to height 8 re-verified ({len(mults)} roots)"


def _check_defect_dims(budget: Budget) -> str:
    cases = {(2, 2, 2): (6, 0), (3, 3, 2): (20, 1), (2, 2, 3): (12, 1)}
    for (p, q, r), (g1, g2) in cases.items():
        budget.check("defect dims")
        pqr = (p, q, r)
        expect = [g1, g2] + [0] * 4
        graph = TpqrGraph(p, q, r)
        defect = kacmoody.defect_graded_dims(graph, kacmoody.root_multiplicities(graph), m_max=6)
        if list(defect.dims) != expect or defect.total != g1 + g2:
            raise CheckFailed(
                f"{pqr}: defect dims {list(defect.dims)} (exhaustive {defect.total is not None}, "
                f"total {defect.total}), expected {expect}"
            )
        formula = (schur.g1_dim_formula(p, q, r), schur.g2_dim_formula(p, q, r))
        if formula != (g1, g2):
            raise CheckFailed(f"{pqr}: closed formulas give (g1, g2) = {formula}")
    return "defect dims [6],[20,1],[12,1] = closed formulas = root counts"


def _check_kostant(budget: Budget) -> str:
    graph = TpqrGraph(3, 3, 4)
    weights = kacmoody.kostant_weights(graph, 2)[2]
    dicts = [
        {k: v for k, v in graph.labels_as_dict(w).items() if v} for w in weights
    ]
    expected = [
        {"x1": 1, "y1": 1, "z1": -3, "z2": 2},
        {"u": 2, "z1": -3, "z3": 1},
    ]
    if sorted(dicts, key=str) != sorted(expected, key=str):
        raise CheckFailed(f"T_{{3,3,4}} length-2 Kostant weights {dicts}, expected {expected}")
    return "T_{3,3,4} length-2 Kostant weights match both displays"


def _check_bgg_euler(budget: Budget) -> str:
    graph = TpqrGraph(2, 2, 2)
    for vertex in (None, graph.z1, graph.u):
        budget.check("BGG Euler")
        lam = (0,) * graph.n if vertex is None else graph.fundamental_weight(vertex)
        bad = kacmoody.bgg_euler_check(graph, lam, 4)
        if bad is not None:
            raise CheckFailed(
                f"D4 lambda {graph.labels_as_dict(lam)}: Euler identity fails at level "
                f"{bad.drop[graph.z1]}: at drop {bad.drop} the BGG sum has {bad.lhs}, "
                f"ch L(lam) P {bad.rhs}"
            )
    return "D4 truncated BGG Euler identity holds for 0, w_z1, w_u (cutoff 4)"


def _check_spin_branching(budget: Budget) -> str:
    graph = TpqrGraph(2, 2, 2)
    roots, _ = kacmoody.root_multiplicities(graph)
    series = kacmoody.character_series(graph, graph.fundamental_weight(graph.z1), roots)
    dims = tuple(sum(m for beta, m in series.items() if beta[graph.z1] == s) for s in range(3))
    total = sum(series.values())
    if dims != (1, 6, 1) or total != 8:
        raise CheckFailed(f"D4 V(w_z1): S-graded dims {dims}, total {total}, expected (1, 6, 1), 8")
    return "V(w_z1) on D4 has S-graded dims (1, 6, 1)"


def _check_ra(budget: Budget) -> str:
    fmt = derive_ranks([1, 4, 4, 1])
    # `ra_enumerate` and `ra_component` raise on a repeated or non-dominant
    # component; what is left to check is that the second formula agrees.
    comps = rings.ra_enumerate(fmt, 4)
    rng = random.Random(1109)
    for _ in range(200):
        budget.check("R_a formulas")
        mu = rings.MuIndex(
            a=rng.randint(0, 4), b=rng.randint(0, 4), c=rng.randint(0, 4),
            alpha=(), beta=tuple(sorted((rng.randint(0, 3) for _ in range(2)), reverse=True)),
            gamma=(),
        )
        quad = rings.ra_component(mu, fmt)
        general = rings.ra_general_component(
            [mu.c, mu.b, mu.a], [mu.gamma, mu.beta, mu.alpha], fmt
        )
        if tuple(general) != (quad.w0, quad.w1, quad.w2, quad.w3):
            raise CheckFailed(f"(1, 4, 4, 1) {mu}: general formula gives {tuple(general)}")
    return f"{len(comps)} components to degree 4; 200 random mu agree across both formulas"


def _check_dictionary(budget: Budget) -> str:
    for f in ([1, 4, 4, 1], [2, 6, 5, 1]):
        fmt = derive_ranks(f)
        rng = random.Random(271)
        for _ in range(20):
            budget.check("dictionary crosscheck")
            sigma, tau, t = random_sigma_tau(rng, fmt)
            bad = rings.dictionary_crosscheck(sigma, tau, t, fmt)
            if bad is not None:
                raise CheckFailed(f"{tuple(f)}: K*/BGG mismatch at sigma={sigma} tau={tau} t={t}: {bad}")
    return "20 random K*/BGG matches each on the D4 and E6 formats"


def _check_thm112(budget: Budget) -> str:
    for r3 in (1, 2, 3):
        budget.check("generic family")
        res = complexes.thm112_build(r3)
        bad = complexes.thm112_certificate(res)
        if bad is not None:
            raise CheckFailed(f"generic family r3={r3}: d.d = 0 is not certified: {bad}")
        rk = complexes.be_rank_check(res.complex, seed=11)
        if rk.ranks != (1, 2, r3):
            raise CheckFailed(f"generic family r3={r3}: ranks {rk.ranks}, expected {(1, 2, r3)}")
    return "r3 in {1,2,3}: d.d = 0 symbolically, ranks (1,2,r3), skew pattern certified"


def _check_monomial(budget: Budget) -> str:
    for t in (2, 3, 4, 5):
        budget.check("monomial family")
        cx = complexes.monomial_complex(t)
        failures = complexes.verify_complex(cx)
        if failures:
            i, row, col, entry = failures[0]
            raise CheckFailed(
                f"monomial family t={t}: a composition d.d is nonzero: "
                f"d_{i}.d_{i + 1} entry {(row, col)} is {entry}"
            )
        for g in cx.d(1).data[0]:
            if g.total_degree() != 2 * t - 2:
                raise CheckFailed(f"monomial family t={t}: generator {g} not of degree {2 * t - 2}")
        rk = complexes.be_rank_check(cx, seed=3)
        expected = (1, 2 * t - 1, 1)
        if rk.ranks != expected:
            raise CheckFailed(f"monomial family t={t}: ranks {rk.ranks}, expected {expected}")
    return "t in {2..5}: compositions vanish, generators as stated, ranks (1, 2t-1, 1)"


def _check_d4_relation(budget: Budget) -> str:
    rep = complexes.d4_relation_sides()
    normalization = complexes.D4_NORMALIZATION
    if rep.lhs != rep.pfaffian or rep.rhs != rep.pfaffian:
        raise CheckFailed(
            f"split D4: relation fails under the fixed normalization {normalization}; "
            f"lhs {rep.lhs}, rhs {rep.rhs}, Pfaffian {rep.pfaffian}"
        )
    # The Pfaffian of the skew matrix of the b_ij squares to its determinant
    # and is 1 at b12 = b34 = 1, every other b_ij 0.
    keys = list(combinations(range(1, 5), 2))
    names = [f"b{i}{j}" for i, j in keys]
    b = dict(zip(keys, exact.ring(names)))
    skew = [[b[i, j] if i < j else -b[j, i] if i > j else 0 for j in range(1, 5)] for i in range(1, 5)]
    at_unit = exact.ExactMatrix([[rep.pfaffian]]).substitute({v: int(v in ("b12", "b34")) for v in names})
    if rep.pfaffian * rep.pfaffian != exact.ExactMatrix(skew).det() or at_unit.data[0][0] != 1:
        raise CheckFailed(f"split D4: lhs {rep.lhs}, rhs {rep.rhs}, Pfaffian {rep.pfaffian}")
    return f"both relation sides equal the Pfaffian; normalization {normalization}"


BE_POINTS = 10


def _check_be_multipliers(budget: Budget) -> str:
    fixtures = [complexes.koszul_complex()]
    fixtures += [complexes.thm112_build(r3).complex for r3 in (1, 2)]
    fixtures += [complexes.monomial_complex(t) for t in (2, 3)]
    for cx in fixtures:
        for seed in range(1, BE_POINTS + 1):
            budget.check("BE multipliers")
            bad = complexes.be_multipliers(cx, seed)
            if bad is not None:
                raise CheckFailed(f"{cx.label} at seed {seed}: {bad}")
    return f"factorization holds at {BE_POINTS} seeded points on each of {len(fixtures)} fixtures"


def _check_existence(budget: Budget) -> str:
    for n in range(1, 7):
        for l in range(1, 7):
            expect = (l >= 3 and n >= 2) or (n == 1 and l % 2 == 0)
            if formats.cyclic_exists(n, l) != expect:
                raise CheckFailed(f"cyclic_exists(n={n}, l={l}) is not {expect}")
    count = 0
    for f1 in range(1, 9):
        for f2 in range(1, 9):
            for f3 in range(1, 9):
                budget.check("existence predicates")
                f0 = f1 - f2 + f3
                if not 1 <= f0 <= 8:
                    continue
                f = (f0, f1, f2, f3)
                fmt = derive_ranks(f)
                if formats.format_exists(f) != (fmt.valid and fmt.r[1] > 1):
                    raise CheckFailed(f"format_exists{f} disagrees with the ranks {fmt.r}")
                count += 1
    for f, expect in (((1, 4, 4, 1), True), ((1, 1, 1, 1), False)):
        if formats.format_exists(f) != expect:
            raise CheckFailed(f"format_exists{f} is not {expect}")
    return f"36 cyclic-existence cells and {count} Euler-zero formats checked"


CHECKS: List[Tuple[str, Callable[[Budget], str]]] = [
    ("classification", _check_classification),
    ("root-counts", _check_root_counts),
    ("denominator-identity", _check_denominator_identity),
    ("defect-dims", _check_defect_dims),
    ("kostant-length-2", _check_kostant),
    ("bgg-euler", _check_bgg_euler),
    ("spin-branching", _check_spin_branching),
    ("ra-truncations", _check_ra),
    ("dictionary-crosscheck", _check_dictionary),
    ("generic-family", _check_thm112),
    ("monomial-family", _check_monomial),
    ("d4-relation", _check_d4_relation),
    ("be-multipliers", _check_be_multipliers),
    ("existence-predicates", _check_existence),
]
