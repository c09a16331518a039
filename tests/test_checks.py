"""Must-fail twins for the paper checks in `resatlas.checks`: a broken
input makes the check raise `CheckFailed`, or the `AssertionError` it
extends from a cross-check inside the library (`formats.classify`),
naming the object that broke, also under `python -O`: the drop and both
coefficients where an identity breaks, the K* term that maps wrong.
`tests/test_lint.py` fails when a check has no twin here."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from resatlas import cli, complexes, formats, kacmoody, rings, schur
from resatlas.checks import CHECKS, Budget, CheckFailed
from resatlas.complexes import FreeComplex
from resatlas.exact import ExactMatrix


def run_check(name):
    return dict(CHECKS)[name](Budget(None))


def test_suite_fails_under_python_O_when_a_formula_breaks():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from resatlas import cli, schur\n"
        "g1 = schur.g1_dim_formula\n"
        "schur.g1_dim_formula = lambda p, q, r: g1(p, q, r) + 1\n"
        "sys.exit(cli.main(['suite', 'paper-checks', '--json']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1, proc.stderr
    results = {r["check"]: r for r in json.loads(proc.stdout)["results"]}
    assert results["defect-dims"]["ok"] is False
    assert "(2, 2, 2)" in results["defect-dims"]["detail"]
    assert all(r["ok"] for name, r in results.items() if name != "defect-dims")


def test_generic_family_catches_a_broken_skew_pattern(monkeypatch):
    build = complexes.thm112_build

    def negated_delta(r3):
        res = build(r3)
        delta = ExactMatrix([[-e for e in row] for row in res.delta.data])
        return res._replace(delta=delta)

    monkeypatch.setattr(complexes, "thm112_build", negated_delta)
    with pytest.raises(CheckFailed, match=re.escape(
        "generic family r3=1: d.d = 0 is not certified: "
        "fact (a) d_2 - B^T.Delta fails: entry (0, 0) is -2*A2_1*b3_1 + 2*A3_1*b2_1"
    )):
        run_check("generic-family")


def test_monomial_family_catches_a_wrong_generator_degree(monkeypatch):
    # Every generator times X_1: the compositions still vanish and the ranks
    # stay (1, 2t - 1, 1), so only the degree leg can fail.
    build = complexes.monomial_complex

    def times_x1(t):
        cx = build(t)
        x1 = cx.d(3).data[1][0]  # d_3 = (X_2t, X_1, ..., X_2t-1)^T
        d1 = ExactMatrix([[g * x1 for g in cx.d(1).data[0]]])
        return FreeComplex(cx.fmt, [d1, cx.d(2), cx.d(3)], cx.variables, cx.label)

    broken = times_x1(2)
    assert complexes.verify_complex(broken) == ()
    assert complexes.be_rank_check(broken, seed=3).ranks == (1, 3, 1)
    monkeypatch.setattr(complexes, "monomial_complex", times_x1)
    with pytest.raises(CheckFailed, match=re.escape("monomial family t=2: generator X1^2*X2 not of degree 2")):
        run_check("monomial-family")


@pytest.mark.parametrize(
    "check, builder, message",
    [
        ("generic-family", "thm112_build",
         "generic family r3=1: d.d = 0 is not certified: "
         "fact (c) Delta.d_3 fails: entry (1, 0) is A3_1"),
        ("monomial-family", "monomial_complex",
         "monomial family t=2: a composition d.d is nonzero: d_2.d_3 entry (0, 0) is X3"),
    ],
    ids=["generic-family", "monomial-family"],
)
def test_families_name_the_entry_of_a_nonzero_composition(monkeypatch, check, builder, message):
    build = getattr(complexes, builder)

    def one_added_to_d3(arg):
        # The monomial builder returns the complex, the generic one a
        # record that holds it.
        res = build(arg)
        cx = res if isinstance(res, FreeComplex) else res.complex
        d1, d2, d3 = cx.differentials
        data = [list(row) for row in d3.data]
        data[0][0] = data[0][0] + 1
        broken = FreeComplex(cx.fmt, [d1, d2, ExactMatrix(data)], cx.variables, cx.label)
        return broken if res is cx else res._replace(complex=broken)

    monkeypatch.setattr(complexes, builder, one_added_to_d3)
    with pytest.raises(CheckFailed, match=re.escape(message)):
        run_check(check)


@pytest.mark.parametrize(
    "check, message",
    [
        ("generic-family", "generic family r3=1: ranks (0, 0, 0), expected (1, 2, 1)"),
        ("monomial-family", "monomial family t=2: ranks (0, 0, 0), expected (1, 3, 1)"),
    ],
    ids=["generic-family", "monomial-family"],
)
def test_families_catch_ranks_below_the_format(monkeypatch, check, message):
    monkeypatch.setattr(complexes, "seeded_random_point", lambda seed, names: {v: 0 for v in names})
    with pytest.raises(CheckFailed, match=re.escape(message)):
        run_check(check)


def test_d4_relation_catches_a_pfaffian_other_than_the_papers(monkeypatch):
    # Both sides equal this "Pfaffian", so only the string leg can fail.
    m = complexes.d4_split_model()
    wrong = m.b[(1, 2)] * m.b[(3, 4)]
    monkeypatch.setattr(complexes, "d4_relation_sides", lambda: complexes.D4RelationReport(wrong, wrong, wrong))
    with pytest.raises(CheckFailed, match=re.escape("split D4: lhs b12*b34, rhs b12*b34, Pfaffian b12*b34")):
        run_check("d4-relation")


def test_d4_relation_catches_a_negated_product_entry(monkeypatch):
    build = complexes.d4_split_model

    def negated_b23():
        m = build()
        return m._replace(ee={**m.ee, (2, 3): m.ee[(2, 3)][:3] + (-m.ee[(2, 3)][3],)})

    monkeypatch.setattr(complexes, "d4_split_model", negated_b23)
    with pytest.raises(CheckFailed, match=r"split D4: relation fails under the fixed normalization "
                       r"\{'eps_c': 1, 'eps_p': 1, 'eps_v': 1, 'eps_split': -1\}; lhs .*, rhs "):
        run_check("d4-relation")


def test_ra_truncations_catch_a_shifted_general_weight(monkeypatch):
    assert run_check("ra-truncations") == (
        "67 components to degree 4; 200 random mu agree across both formulas"
    )
    general = rings.ra_general_component

    def last_f2_entry_plus_1(x, partitions, fmt):
        weights = general(x, partitions, fmt)
        return weights[:2] + [weights[2][:-1] + (weights[2][-1] + 1,)] + weights[3:]

    monkeypatch.setattr(rings, "ra_general_component", last_f2_entry_plus_1)
    with pytest.raises(CheckFailed, match=re.escape(
        "(1, 4, 4, 1) MuIndex(a=3, b=0, c=3, alpha=(), beta=(0, 0), gamma=()): "
        "general formula gives ((-3,), (3, 3, 3, 3), (-3, -3, -3, -5), (6,))"
    )):
        run_check("ra-truncations")


def test_be_multipliers_catch_a_wrong_complement_sign(monkeypatch):
    assert run_check("be-multipliers") == (
        "factorization holds at 10 seeded points on each of 5 fixtures"
    )
    monkeypatch.setattr(complexes, "_complement_sign", lambda subset: 1)
    with pytest.raises(CheckFailed, match=re.escape(
        "koszul at seed 1: d_1: inconsistent scalar at (0,)x(1,)"
    )):
        run_check("be-multipliers")


def test_be_multipliers_stop_when_no_seed_gives_full_rank(monkeypatch):
    monkeypatch.setattr(complexes, "seeded_random_point", lambda seed, names: {v: 0 for v in names})
    with pytest.raises(CheckFailed, match=re.escape(
        "koszul at seed 1: no seeded point of full rank: ranks (0, 0, 0), expected (1, 2, 1)"
    )):
        run_check("be-multipliers")


def test_classification_catches_a_dropped_edge(monkeypatch):
    assert run_check("classification") == "576 triples, anchors D4/E8/affine/indefinite confirmed"
    build = formats.tpqr_cartan_rows

    def without_u_z1(p, q, r):
        rows = build(p, q, r)
        if (p, q, r) == (2, 3, 7):
            del rows[0][4], rows[4][0]
        return rows

    monkeypatch.setattr(formats, "tpqr_cartan_rows", without_u_z1)
    with pytest.raises(AssertionError, match=re.escape(
        "classification mismatch for T_(2, 3, 7): case list says indefinite, signature is (10, 0, 0)"
    )):
        run_check("classification")


def test_classification_builds_no_dense_cartan_matrix(monkeypatch):
    calls = []
    build = formats.tpqr_cartan_matrix

    def counted(p, q, r):
        calls.append((p, q, r))
        return build(p, q, r)

    monkeypatch.setattr(formats, "tpqr_cartan_matrix", counted)
    assert run_check("classification") == "576 triples, anchors D4/E8/affine/indefinite confirmed"
    assert calls == []


def test_defect_dims_catch_a_wrong_closed_formula(monkeypatch):
    assert run_check("defect-dims") == "defect dims [6],[20,1],[12,1] = closed formulas = root counts"
    g2 = schur.g2_dim_formula
    monkeypatch.setattr(schur, "g2_dim_formula", lambda p, q, r: g2(p, q, r) + 1)
    with pytest.raises(CheckFailed, match=re.escape("(2, 2, 2): closed formulas give (g1, g2) = (6, 1)")):
        run_check("defect-dims")


def test_defect_dims_catch_a_supply_that_is_not_exhaustive(monkeypatch):
    # The right dims from a supply marked truncated: no total, so not exhaustive.
    supply = kacmoody.root_multiplicities
    monkeypatch.setattr(kacmoody, "root_multiplicities", lambda graph: (supply(graph)[0], False))
    with pytest.raises(CheckFailed, match=re.escape(
        "(2, 2, 2): defect dims [6, 0, 0, 0, 0, 0] (exhaustive False, total None), "
        "expected [6, 0, 0, 0, 0, 0]"
    )):
        run_check("defect-dims")


def test_defect_dims_build_one_root_supply_per_graph(monkeypatch):
    # `defect_graded_dims` sums the one supply built for each graph.
    graphs = []
    supply = kacmoody.root_multiplicities

    def counted(graph, H=None):
        graphs.append(tuple(graph))
        return supply(graph, H)

    monkeypatch.setattr(kacmoody, "root_multiplicities", counted)
    run_check("defect-dims")
    assert graphs == [(2, 2, 2), (3, 3, 2), (2, 2, 3)]


def test_spin_branching_catches_a_dropped_lowest_weight(monkeypatch):
    assert run_check("spin-branching") == "V(w_z1) on D4 has S-graded dims (1, 6, 1)"
    series = kacmoody.character_series

    def without_lowest(graph, lam, *args, **kwargs):
        mults = series(graph, lam, *args, **kwargs)
        lowest = max(mults, key=sum)
        return {beta: m for beta, m in mults.items() if beta != lowest}

    monkeypatch.setattr(kacmoody, "character_series", without_lowest)
    with pytest.raises(CheckFailed, match=re.escape(
        "D4 V(w_z1): S-graded dims (1, 6, 0), total 7, expected (1, 6, 1), 8"
    )):
        run_check("spin-branching")


def test_dictionary_crosscheck_catches_a_shifted_layer_2_weight(monkeypatch):
    assert run_check("dictionary-crosscheck") == "20 random K*/BGG matches each on the D4 and E6 formats"
    terms = rings.bgg_initial_terms

    def shifted(graph, lam):
        layers = terms(graph, lam)
        w = layers[2][0]
        return layers[:2] + [[(w[0] + 1,) + w[1:]] + layers[2][1:]]

    monkeypatch.setattr(rings, "bgg_initial_terms", shifted)
    with pytest.raises(CheckFailed, match=re.escape(
        "(1, 4, 4, 1): K*/BGG mismatch at sigma=(3,) tau=(2, 2, 2, 1) t=3: "
        "top_u maps to {'u': 2, 'x1': 1, 'y1': 2, 'z1': -5}, "
        "BGG term {'u': 3, 'x1': 1, 'y1': 2, 'z1': -5}"
    )):
        run_check("dictionary-crosscheck")


def test_dictionary_crosscheck_names_a_shifted_kstar_term(monkeypatch):
    terms = rings.kstar_terms

    def shifted_middle(sigma, tau, t, fmt):
        ks = terms(sigma, tau, t, fmt)
        sig, ta = ks.middle
        return ks._replace(middle=(sig, (ta[0] + 1,) + ta[1:]))

    monkeypatch.setattr(rings, "kstar_terms", shifted_middle)
    with pytest.raises(CheckFailed, match=re.escape(
        "(1, 4, 4, 1): K*/BGG mismatch at sigma=(3,) tau=(2, 2, 2, 1) t=3: "
        "middle maps to {'u': 3, 'x1': 1, 'y1': 1, 'z1': -4}, "
        "BGG term {'u': 3, 'x1': 0, 'y1': 1, 'z1': -4}"
    )):
        run_check("dictionary-crosscheck")


def test_denominator_identity_catches_one_wrong_multiplicity(monkeypatch):
    assert run_check("denominator-identity") == (
        "T_{2,3,7} multiplicities to height 8 re-verified (75 roots)"
    )
    solve = kacmoody.roots_by_peterson

    def one_more(A, H):
        mults = solve(A, H)
        beta = next(b for b in mults if sum(b) > 1)
        return {**mults, beta: mults[beta] + 1}

    monkeypatch.setattr(kacmoody, "roots_by_peterson", one_more)
    # u + x1 counted twice: one more factor (1 - e^{-(u + x1)}).
    with pytest.raises(CheckFailed, match=re.escape(
        "T_{2,3,7}: denominator identity fails to height 8: at drop (1, 1, 0, 0, 0, 0, 0, 0, 0, 0) "
        "of height 2 the product has -1, the Weyl sum 0"
    )):
        run_check("denominator-identity")


def test_denominator_identity_catches_a_wrong_imaginary_multiplicity(monkeypatch):
    solve = kacmoody.roots_by_peterson

    def one_more_on_imaginary_roots(A, H):
        mults = solve(A, H)
        norm = lambda b: sum(x * y for x, y in zip(b, kacmoody.root_labels(A, b)))
        return {b: m + 1 if norm(b) <= 0 else m for b, m in mults.items()}

    monkeypatch.setattr(kacmoody, "roots_by_peterson", one_more_on_imaginary_roots)
    with pytest.raises(CheckFailed, match=r"T_\{3,3,3\}: null root delta \(3, 2, 1, 2, 1, 2, 1\) "
                       r"has multiplicity 7, not 6"):
        run_check("denominator-identity")


def test_denominator_identity_catches_a_dropped_factor(monkeypatch):
    product = kacmoody._truncated_product

    def without_one_height_3_root(series, factors, *args):
        dropped = next(alpha for alpha, _ in factors if sum(alpha) == 3)
        return product(series, [f for f in factors if f[0] != dropped], *args)

    monkeypatch.setattr(kacmoody, "_truncated_product", without_one_height_3_root)
    # The factor of u + x1 + y1 left out: the product keeps its 1 there.
    with pytest.raises(CheckFailed, match=re.escape(
        "T_{2,3,7}: denominator identity fails to height 8: at drop (1, 1, 1, 0, 0, 0, 0, 0, 0, 0) "
        "of height 3 the product has 1, the Weyl sum 0"
    )):
        run_check("denominator-identity")


def test_root_counts_catch_a_dropped_highest_root(monkeypatch):
    assert run_check("root-counts") == (
        "positive-root counts 12/36/120 (24/72/240 roots), all mult 1"
    )
    supply = kacmoody._finite_roots
    # The supply is by height, so its last root is the highest.
    monkeypatch.setattr(kacmoody, "_finite_roots", lambda A: dict(list(supply(A).items())[:-1]))
    with pytest.raises(CheckFailed, match=r"T_\{2,2,2\}: 11 positive roots, not 12"):
        run_check("root-counts")


def d4_zero_fails_at_level_1(drop, lhs, rhs):
    return re.escape(
        f"D4 lambda {{'u': 0, 'x1': 0, 'y1': 0, 'z1': 0}}: Euler identity fails at level 1: "
        f"at drop {drop} the BGG sum has {lhs}, ch L(lam) P {rhs}"
    )


def test_bgg_euler_catches_a_dropped_ws_element(monkeypatch):
    assert run_check("bgg-euler") == (
        "D4 truncated BGG Euler identity holds for 0, w_z1, w_u (cutoff 4)"
    )
    enumerate_ws = kacmoody.enumerate_WS

    def without_s_z1(graph, L, lam):
        # s_z1 lowers lam + rho by its z1 label times alpha_z1
        drop = tuple(lam[j] + 1 if j == graph.z1 else 0 for j in range(graph.n))
        grouped = enumerate_ws(graph, L, lam)
        return {k: [e for e in v if e[2] != drop] for k, v in grouped.items()}

    monkeypatch.setattr(kacmoody, "enumerate_WS", without_s_z1)
    with pytest.raises(CheckFailed, match=d4_zero_fails_at_level_1((0, 0, 0, 1), 0, -1)):
        run_check("bgg-euler")


def test_bgg_euler_catches_a_multiplier_that_does_nothing(monkeypatch):
    monkeypatch.setattr(kacmoody, "_truncated_product", lambda series, *args: series)
    with pytest.raises(CheckFailed, match=d4_zero_fails_at_level_1((0, 0, 0, 1), -1, 0)):
        run_check("bgg-euler")


def test_bgg_euler_catches_a_skipped_nilradical_factor(monkeypatch):
    product = kacmoody._truncated_product

    def skip_one_root(series, factors, *args):
        return product(series, [f for f in factors if f[0] != (1, 0, 0, 1)], *args)

    monkeypatch.setattr(kacmoody, "_truncated_product", skip_one_root)
    with pytest.raises(CheckFailed, match=d4_zero_fails_at_level_1((1, 0, 0, 1), -1, 0)):
        run_check("bgg-euler")


def test_kostant_catches_a_dropped_length_2_element(monkeypatch):
    assert run_check("kostant-length-2") == "T_{3,3,4} length-2 Kostant weights match both displays"
    elements = kacmoody.weyl_elements

    def without_s_z1_s_u(graph, L, lam=None):
        # s_z1 s_u lowers rho by alpha_u, then by 2 alpha_z1
        drop = tuple({graph.u: 1, graph.z1: 2}.get(j, 0) for j in range(graph.n))
        labels = tuple(1 - x for x in kacmoody.root_labels(graph.cartan, drop))
        return [e for e in elements(graph, L, lam) if e[:-1] != labels]

    monkeypatch.setattr(kacmoody, "weyl_elements", without_s_z1_s_u)
    with pytest.raises(CheckFailed, match=r"T_\{3,3,4\} length-2 Kostant weights "
                       r"\[\{'u': 2, 'z1': -3, 'z3': 1\}\], expected"):
        run_check("kostant-length-2")


def test_existence_predicates_catch_a_flipped_answer(monkeypatch):
    assert run_check("existence-predicates") == (
        "36 cyclic-existence cells and 344 Euler-zero formats checked"
    )
    format_exists, cyclic_exists = formats.format_exists, formats.cyclic_exists
    monkeypatch.setattr(
        formats, "format_exists", lambda f: format_exists(f) != (f == (1, 4, 4, 1))
    )
    with pytest.raises(CheckFailed, match=re.escape(
        "format_exists(1, 4, 4, 1) disagrees with the ranks (1, 3, 1)"
    )):
        run_check("existence-predicates")
    monkeypatch.setattr(formats, "format_exists", format_exists)
    monkeypatch.setattr(
        formats, "cyclic_exists", lambda n, l: cyclic_exists(n, l) != ((n, l) == (1, 2))
    )
    with pytest.raises(CheckFailed, match=re.escape("cyclic_exists(n=1, l=2) is not True")):
        run_check("existence-predicates")


def test_suite_reports_an_internal_error_as_that_checks_failure(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ValueError("internal boom")

    monkeypatch.setattr(schur, "g1_dim_formula", boom)
    rc = cli.main(["suite", "paper-checks", "--json"])
    out, err = capsys.readouterr()
    assert rc == 1
    results = json.loads(out)["results"]
    assert len(results) == len(CHECKS) == 14
    assert [r["check"] for r in results if not r["ok"]] == ["defect-dims"]
    failed = next(r for r in results if not r["ok"])
    assert failed["detail"] == "internal error: ValueError: internal boom"
    assert "Traceback" in err
