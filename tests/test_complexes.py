import os
import re
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from resatlas import complexes, exact
from resatlas.complexes import (
    DELTA_SIGN_CONVENTION,
    D4_NORMALIZATION,
    FreeComplex,
    be_multipliers,
    be_rank_check,
    complex_to_json,
    d4_relation_sides,
    d4_split_model,
    koszul_complex,
    monomial_complex,
    Thm112Result,
    q1_coefficients,
    thm112_build,
    thm112_certificate,
    verify_complex,
)
from resatlas.exact import ExactMatrix, MPoly, seeded_random_point
from resatlas.formats import derive_ranks


def test_koszul_is_complex_with_expected_ranks():
    cx = koszul_complex()
    assert verify_complex(cx) == ()
    assert be_rank_check(cx, seed=7).ranks == (1, 2, 1)


def test_a_complex_refuses_the_wrong_number_of_differentials():
    cx = koszul_complex()
    with pytest.raises(ValueError, match=r"^need 3 differentials$"):
        FreeComplex(cx.fmt, cx.differentials[:2], cx.variables, cx.label)


def test_a_complex_refuses_a_differential_of_the_wrong_shape():
    cx = koszul_complex()
    d2 = ExactMatrix([row[:2] for row in cx.d(2).data])
    with pytest.raises(ValueError, match=re.escape("d_2 has shape (3, 2), expected (3, 3)")):
        FreeComplex(fmt=cx.fmt, differentials=[cx.d(1), d2, cx.d(3)])


def test_verify_complex_reports_failures():
    cx = koszul_complex()
    data = [list(row) for row in cx.differentials[1].data]
    x = cx.d(1).data[0][0]
    data[0][0] = data[0][0] + x
    broken = ExactMatrix(data)
    bad = FreeComplex(fmt=cx.fmt, differentials=[cx.differentials[0], broken, cx.differentials[2]])
    assert len(verify_complex(bad)) > 0


def test_be_multipliers_koszul():
    cx = koszul_complex()
    for seed in range(1, 11):
        bad = be_multipliers(cx, seed)
        assert bad is None, bad


def test_be_multipliers_name_a_minor_whose_product_vanishes():
    # With d_3's last entry 0 the ranks stay (1, 2, 1), but a_3 vanishes on
    # the complement of columns (0, 1) while d_2's minor there does not.
    cx = koszul_complex()
    d3 = ExactMatrix([list(row) for row in cx.d(3).data[:-1]] + [[0]])
    broken = FreeComplex(cx.fmt, [cx.d(1), cx.d(2), d3], cx.variables, cx.label)
    for seed in range(1, 6):
        assert be_multipliers(cx, seed) is None
        assert be_multipliers(broken, seed) == "d_2: minor (0, 1)x(0, 1) nonzero but product vanishes"


def full_table_be_multipliers(complex_, seed):
    """Whether the factorization holds on every r_i-minor of every d_i: the
    package's own check before it read one row and one column of each
    table."""
    fmt = complex_.fmt
    rk = be_rank_check(complex_, seed)
    if rk.ranks != fmt.r:
        return False
    mats = rk.spec.differentials
    tables = []
    a = []
    for d, r in zip(mats, fmt.r):
        row_sets = list(combinations(range(d.rows), r))
        col_sets = list(combinations(range(d.cols), r))
        table = {(R, C): d.minor(R, C) for R in row_sets for C in col_sets}
        cols = next(C for C in col_sets if any(table[R, C] for R in row_sets))
        a.append({R: table[R, cols] for R in row_sets})
        tables.append(table)
    a.append({(): 1})
    ok = True
    for i, (d, table) in enumerate(zip(mats, tables), start=1):
        first = None
        for (rows, cols_sel), lhs in table.items():
            comp = tuple(j for j in range(d.cols) if j not in cols_sel)
            rhs = a[i - 1][rows] * complexes._complement_sign(cols_sel) * a[i][comp]
            if rhs == 0:
                ok = ok and lhs == 0
                continue
            if first is None:
                first = (lhs, rhs)
            elif lhs * first[1] != first[0] * rhs:
                ok = False
    return ok


def be_fixtures():
    """The `be-multipliers` suite check's fixtures, and the Koszul complex
    with d_3's last entry 0."""
    fixtures = [koszul_complex()]
    fixtures += [thm112_build(r3).complex for r3 in (1, 2)]
    fixtures += [monomial_complex(t) for t in (2, 3)]
    cx = fixtures[0]
    d3 = ExactMatrix([list(row) for row in cx.d(3).data[:-1]] + [[0]])
    return fixtures + [FreeComplex(cx.fmt, [cx.d(1), cx.d(2), d3], cx.variables, "koszul, d_3 zeroed")]


def test_be_multipliers_agree_with_the_full_minor_table(monkeypatch):
    fixtures = be_fixtures()
    passed = 0
    for cx in fixtures:
        for seed in range(1, 11):
            ok = be_multipliers(cx, seed) is None
            assert ok == full_table_be_multipliers(cx, seed), (cx.label, seed)
            passed += ok
    assert passed == 50, passed  # all but the zeroed d_3
    monkeypatch.setattr(complexes, "_complement_sign", lambda subset: 1)
    failed = 0
    for cx in fixtures:
        for seed in range(1, 11):
            ok = be_multipliers(cx, seed) is None
            assert ok == full_table_be_multipliers(cx, seed), (cx.label, seed, "constant sign")
            failed += not ok
    assert failed == 10 * len(fixtures), failed


@pytest.mark.parametrize("r3", [1, 2, 3])
def test_thm112_family(r3):
    res = thm112_build(r3)
    assert verify_complex(res.complex) == ()
    assert be_rank_check(res.complex, seed=11).ranks == (1, 2, r3)
    assert DELTA_SIGN_CONVENTION == "(-1)^(i+j)"
    # Delta annihilates d_3 and is skew
    assert res.delta.matmul(res.complex.d(3)).is_zero()
    assert res.delta.add(res.delta.transpose()).is_zero()


def test_thm112_seeded_build():
    cx = thm112_build(2).complex
    spec = cx.substitute(seeded_random_point(5, cx.variables))
    assert spec.differentials[0].is_numeric()
    assert verify_complex(spec) == ()


def test_thm112_rejects_a_delta_with_one_sign_flipped():
    # The build checks nothing, so the certificate must catch the flip, also
    # under `python -O`.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from resatlas.complexes import thm112_build, thm112_certificate\n"
        "from resatlas.exact import ExactMatrix\n"
        "minor = ExactMatrix.minor\n"
        "def flip_first_rows(self, rows, cols):\n"
        "    value = minor(self, rows, cols)\n"
        "    return -value if list(rows) == [2] else value  # Delta_{01} negated\n"
        "ExactMatrix.minor = flip_first_rows\n"
        "print(thm112_certificate(thm112_build(1)))\n"
    )
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "fact (c) Delta.d_3 fails: entry (0, 0) is 2*A2_1*A3_1\n"
        )


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_monomial_family(t):
    cx = monomial_complex(t)
    assert verify_complex(cx) == ()
    assert be_rank_check(cx, seed=3).ranks == (1, 2 * t - 1, 1)


def test_monomial_family_at_the_degree_ceiling():
    assert verify_complex(monomial_complex(128)) == ()
    with pytest.raises(ValueError, match=r"t <= 128 required"):
        monomial_complex(129)


def test_monomial_generators_t2():
    assert [str(g) for g in monomial_complex(2).d(1).data[0]] == [
        "X1*X2",
        "X2*X3",
        "X3*X4",
        "X1*X4",
    ]


def d4_split_tables():
    """The split resolution of format (1, 4, 4, 1) with generic
    multiplication, built verbatim from its defining tables: the variables
    b_{ij}, i < j in 1..4; e_i . e_j in F_2 coordinates; the g-coefficient
    of e_k . f_l; v_2; and d_2.  The oracle for the entries that
    `d4_split_model` keeps."""
    keys = list(combinations(range(1, 5), 2))
    b = dict(zip(keys, exact.ring(f"b{i}{j}" for i, j in keys)))
    zero = MPoly.const(0)
    one = MPoly.const(1)
    ee = {}
    for i in range(1, 4):
        for j in range(i + 1, 4):
            ee[(i, j)] = (zero, zero, zero, b[(i, j)])
    for i in range(1, 4):
        vec = [zero, zero, zero, b[(i, 4)]]
        vec[i - 1] = -one
        ee[(i, 4)] = tuple(vec)
    ef = {}
    for k in range(1, 5):
        for l in range(1, 5):
            if k == l:
                val = one if k == 4 else zero
            elif k == 4:
                val = -b[(l, 4)]
            elif l == 4:
                val = zero
            elif k < l:
                val = -b[(k, l)]
            else:
                val = b[(l, k)]
            ef[(k, l)] = val
    pf = b[(1, 2)] * b[(3, 4)] - b[(1, 3)] * b[(2, 4)] + b[(1, 4)] * b[(2, 3)]
    v2 = (b[(2, 3)], -b[(1, 3)], b[(1, 2)], pf)
    d2 = ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    return b, ee, ef, v2, d2


def test_d4_split_model_tables():
    b, ee, ef, v2, d2 = d4_split_tables()
    zero = MPoly.const(0)
    assert ee[(1, 2)] == (zero, zero, zero, b[(1, 2)])
    assert ee[(1, 4)] == (-MPoly.const(1), zero, zero, b[(1, 4)])
    assert ef[(2, 1)] == b[(1, 2)] and ef[(1, 2)] == -b[(1, 2)]
    assert ef[(4, 1)] == -b[(1, 4)] and ef[(4, 4)] == MPoly.const(1)
    # The model keeps p^4_{ij} = (e_i . e_j)_4, c^1_k = (e_k . f_1)_g and
    # the Pfaffian, which is (v_2)_4 (d_2)_{1,1}, the relation's left side.
    m = d4_split_model()
    assert m.p == {ij: ee[ij][3] for ij in ((2, 3), (2, 4), (3, 4))}
    assert m.c == {k: ef[(k, 1)] for k in (2, 3, 4)}
    assert m.pfaffian == v2[3] * MPoly.coerce(d2.data[0][0])
    assert str(m.pfaffian) == "b12*b34 - b13*b24 + b14*b23"


def test_d4_relation():
    rep = d4_relation_sides()
    assert list(D4_NORMALIZATION.items()) == [
        ("eps_c", 1), ("eps_p", 1), ("eps_v", 1), ("eps_split", -1)
    ]
    assert rep.lhs == rep.pfaffian and rep.rhs == rep.pfaffian


def _negate_b23(m):
    return m._replace(p={**m.p, (2, 3): -m.p[(2, 3)]})


def _negate_c14(m):
    return m._replace(c={**m.c, 4: -m.c[4]})


@pytest.mark.parametrize("break_model", [_negate_b23, _negate_c14], ids=["ee23", "ef41"])
def test_d4_relation_fails_on_one_negated_table_entry(monkeypatch, break_model):
    broken = break_model(d4_split_model())
    monkeypatch.setattr(complexes, "d4_split_model", lambda: broken)
    rep = d4_relation_sides()
    assert rep.lhs == rep.pfaffian and rep.rhs != rep.pfaffian


def test_pfaffian_signed_s3_equivariance():
    m = d4_split_model()
    keys = list(combinations(range(1, 5), 2))
    pt = seeded_random_point(5, [f"b{i}{j}" for (i, j) in keys])
    pfaffian = ExactMatrix([[m.pfaffian]])
    base = pfaffian.substitute(pt).data[0][0]
    for perm in permutations((1, 2, 3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        relabel = {1: perm[0], 2: perm[1], 3: perm[2], 4: 4}
        moved = {}
        for (i, j) in keys:
            a, b = relabel[i], relabel[j]
            key = (a, b) if a < b else (b, a)
            s = 1 if a < b else -1
            moved[f"b{i}{j}"] = s * pt[f"b{key[0]}{key[1]}"]
        assert pfaffian.substitute(moved).data[0][0] == sign * base


FMT_D4 = derive_ranks([1, 4, 4, 1])


def test_q1_degenerate_r3_1():
    value = q1_coefficients(FMT_D4, I=[1, 2], J=[3], K=[4])
    assert str(value) == "D2_3_1*D2_4_2 - D2_3_2*D2_4_1"


def test_q1_vanishing_cases():
    assert q1_coefficients(FMT_D4, I=[1, 1], J=[3], K=[4]).is_zero()
    assert q1_coefficients(FMT_D4, I=[1, 2], J=[4], K=[4]).is_zero()


def test_q1_index_validation():
    with pytest.raises(ValueError):
        q1_coefficients(FMT_D4, I=[1], J=[3], K=[4])
    with pytest.raises(ValueError):
        q1_coefficients(FMT_D4, I=[1, 9], J=[3], K=[4])
    with pytest.raises(ValueError):
        q1_coefficients(FMT_D4, I=[1, 2], J=[3], K=[4], t=2)


def test_q1_antisymmetrization_nonzero():
    fmt = derive_ranks([1, 5, 5, 2])
    a = q1_coefficients(fmt, [1, 3, 4], [2, 4], [3, 5])
    b = q1_coefficients(fmt, [1, 3, 4], [3, 5], [2, 4])
    names = exact.variables([a, b])
    pt = seeded_random_point(42, names)
    values = ExactMatrix([[a, b]]).substitute(pt).data[0]
    assert values[0] - values[1] != 0


def test_complex_to_json_roundtrippable_strings():
    fx = complex_to_json(koszul_complex())
    assert fx["format"] == [1, 3, 3, 1]
    assert fx["variables"] == ["x", "y", "z"]
    assert fx["matrices"][0] == [["x", "y", "z"]]


def test_verify_complex_names_one_negated_term_at_r3_4():
    res = thm112_build(4)
    d1, d2, d3 = res.complex.differentials
    m, c = next(iter(d2.data[0][0].terms.items()))
    data = [list(row) for row in d2.data]
    term = MPoly({m: -2 * c}, data[0][0].names)
    data[0][0] = data[0][0] + term
    cx = res.complex
    broken = FreeComplex(cx.fmt, [d1, ExactMatrix(data), d3], cx.variables, cx.label)
    want = str(d1.data[0][0] * term)
    assert [f for f in verify_complex(broken) if f[0] == 1] == [(1, 0, 0, want)]


# Term products of `verify_complex(thm112_build(4))` when d_1 . d_2 was
# formed as (d_1 . B^T) . Delta, each repeated coefficient vector of the
# row d_1 . B^T multiplied by Delta once.
EXPANDED_TERM_PRODUCTS = 187_020


def test_the_certificate_multiplies_a_tenth_of_the_expanded_products(monkeypatch):
    res = thm112_build(4)
    products = [0]
    mac = exact._mac

    def counted(out, a, b, sign):
        products[0] += len(a) * len(b)
        mac(out, a, b, sign)

    monkeypatch.setattr(exact, "_mac", counted)
    assert thm112_certificate(res) is None
    assert 0 < products[0] <= EXPANDED_TERM_PRODUCTS // 10


def _with_complex(res, d1=None, d2=None, d3=None):
    cx = res.complex
    old = cx.differentials
    new = [d if d is not None else o for d, o in zip((d1, d2, d3), old)]
    return res._replace(complex=FreeComplex(cx.fmt, new, cx.variables, cx.label))


def _negate_one_d1_term(res):
    d1 = res.complex.d(1)
    m, c = next(iter(d1.data[0][0].terms.items()))
    data = [list(row) for row in d1.data]
    data[0][0] = data[0][0] + MPoly({m: -2 * c}, data[0][0].names)
    return _with_complex(res, d1=ExactMatrix(data))


def _d3_plus_one(res):
    data = [[e + 1 for e in row] for row in res.complex.d(3).data]
    return _with_complex(res, d3=ExactMatrix(data))


@pytest.mark.parametrize(
    "r3, breaks",
    [(1, None), (2, None), (3, None), (4, None), (4, _negate_one_d1_term), (1, _d3_plus_one)],
    ids=["r3=1", "r3=2", "r3=3", "r3=4", "r3=4-negated-d1-term", "r3=1-d3-plus-1"],
)
def test_the_recorded_factorization_leaves_the_report_unchanged(r3, breaks):
    # The result records d_2 = B^T . Delta; the certificate that reads the
    # record gives the verdict of the direct expansion of d_1 . d_2 and
    # d_2 . d_3.
    res = thm112_build(r3)
    if breaks is not None:
        res = breaks(res)
    direct = verify_complex(res.complex)
    cert = thm112_certificate(res)
    assert (cert is None) == (not direct) == (breaks is None)
    if breaks is _negate_one_d1_term:
        assert {f[0] for f in direct} == {1}
        assert cert.startswith("fact (e) d_1 - a_1.x fails: entry (0, 0) is ")
    if breaks is _d3_plus_one:
        assert {f[0] for f in direct} == {2}
        assert cert == "fact (c) Delta.d_3 fails: entry (0, 0) is A2_1 - A3_1"


def test_a_stale_record_never_hides_a_nonzero_composition():
    # d_2 perturbed in one entry, with the record of the unperturbed d_2 kept.
    res = thm112_build(2)
    d1, d2, d3 = res.complex.differentials
    data = [list(row) for row in d2.data]
    data[0][0] = data[0][0] + res.a1
    broken = _with_complex(res, d2=ExactMatrix(data))
    failures = verify_complex(broken.complex)
    assert {f[0] for f in failures} == {1, 2}
    direct = [(i, d.matmul(e)) for i, (d, e) in enumerate(((d1, broken.complex.d(2)), (broken.complex.d(2), d3)), start=1)]
    want = [(i, r, c, str(e)) for i, p in direct for r, row in enumerate(p.data) for c, e in enumerate(row) if e != 0]
    assert list(failures) == want
    assert thm112_certificate(broken) == "fact (a) d_2 - B^T.Delta fails: entry (0, 0) is a1"


def _flip_delta_01(res):
    # Delta_{01} negated, Delta_{10} kept, and d_2 and d_1 rebuilt from it
    # as the builder builds them, so facts (a) and (e) still hold.
    data = [list(row) for row in res.delta.data]
    data[0][1] = -data[0][1]
    delta = ExactMatrix(data)
    d2 = res.B.transpose().matmul(delta)
    M = d2.matmul(res.B)
    d1 = ExactMatrix([[res.a1 * M.data[1][2], res.a1 * M.data[2][0], res.a1 * M.data[0][1]]])
    return _with_complex(res, d1=d1, d2=d2)._replace(delta=delta)


def _swap_x1_x2(res):
    d1 = res.complex.d(1)
    return _with_complex(res, d1=ExactMatrix([[d1.data[0][1], d1.data[0][0], d1.data[0][2]]]))


@pytest.mark.parametrize(
    "r3, breaks, fact",
    [(r3, _flip_delta_01, "(b) Delta + Delta^T") for r3 in (1, 2, 3)]
    + [(r3, _swap_x1_x2, "(e) d_1 - a_1.x") for r3 in (1, 2, 3)],
    ids=[f"flip-delta-r3={r3}" for r3 in (1, 2, 3)] + [f"swap-x-r3={r3}" for r3 in (1, 2, 3)],
)
def test_the_certificate_names_the_fact_a_broken_family_fails(r3, breaks, fact):
    res = breaks(thm112_build(r3))
    cert = thm112_certificate(res)
    entry = (0, 1) if breaks is _flip_delta_01 else (0, 0)
    assert cert.startswith(f"fact {fact} fails: entry {entry} is ")
    assert verify_complex(res.complex) != ()


def test_the_certificate_needs_d3_of_full_rank():
    # A generic skew Delta of rank 4 at r3 = 2, d_3 = 0, and d_2 = B^T Delta
    # and d_1 = a_1 x built from it: facts (a), (b), (c) and (e) hold, and
    # d_1 . d_2 is nonzero, so fact (d) carries the proof.
    names = [f"v{i}{j}" for i, j in combinations(range(4), 2)]
    names += [f"b{i}_{j}" for i in range(4) for j in range(3)] + ["a1"]
    gens = iter(exact.ring(names))
    delta_data = [[MPoly.const(0)] * 4 for _ in range(4)]
    for i, j in combinations(range(4), 2):
        v = next(gens)
        delta_data[i][j], delta_data[j][i] = v, -v
    delta = ExactMatrix(delta_data)
    B = ExactMatrix([[next(gens) for _ in range(3)] for _ in range(4)])
    a1 = next(gens)
    d2 = B.transpose().matmul(delta)
    M = d2.matmul(B)
    d1 = ExactMatrix([[a1 * M.data[1][2], a1 * M.data[2][0], a1 * M.data[0][1]]])
    d3 = ExactMatrix([[0, 0] for _ in range(4)])
    cx = FreeComplex(derive_ranks([1, 3, 4, 2]), [d1, d2, d3], tuple(sorted(names)), "rank-4 Delta")
    res = Thm112Result(complex=cx, delta=delta, B=B, a1=a1)
    assert thm112_certificate(res) == "fact (d) fails: every 2x2 minor of d_3 is 0"
    assert not d1.matmul(d2).is_zero()
    assert [f[0] for f in verify_complex(cx)] == [1] * 4


def test_the_certificate_refuses_another_format():
    # Its rank argument needs f_2 = r3 + 2: the monomial complex (1, 4, 4, 1)
    # has r3 = 1 but f_2 = 4.
    res = thm112_build(1)._replace(complex=monomial_complex(2))
    with pytest.raises(ValueError, match=re.escape("needs format (1, 3, r3 + 2, r3), not (1, 4, 4, 1)")):
        thm112_certificate(res)


@pytest.mark.parametrize(
    "build",
    [koszul_complex]
    + [lambda r3=r3: thm112_build(r3).complex for r3 in range(1, 5)]
    + [lambda t=t: monomial_complex(t) for t in range(2, 9)],
    ids=["koszul"] + [f"thm112-{r3}" for r3 in range(1, 5)] + [f"monomial-{t}" for t in range(2, 9)],
)
def test_entry_variables_is_the_union_of_each_entrys_variables(build):
    # The names each builder makes, written out.
    cx = build()
    if cx.label == "koszul":
        names = ["x", "y", "z"]
    elif cx.label.startswith("thm112"):
        r3 = cx.fmt.f[3]
        names = [f"A{i}_{j}" for i in range(1, r3 + 3) for j in range(1, r3 + 1)]
        names += [f"b{i}_{j}" for i in range(1, r3 + 3) for j in range(1, 4)] + ["a1"]
    else:
        names = [f"X{i}" for i in range(1, cx.fmt.f[1] + 1)]
    entries = [e for d in cx.differentials for row in d.data for e in row]
    assert exact.variables(entries) == sorted(names)
    assert exact.variables(cx.substitute(seeded_random_point(1, names)).d(2).data[0]) == []
