import re
from itertools import permutations

import pytest

from resatlas import complexes, exact
from resatlas.complexes import (
    DELTA_SIGN_CONVENTION,
    D4_NORMALIZATION,
    FreeComplex,
    be_multipliers,
    be_rank_check,
    complex_to_json,
    d4_relation_check,
    d4_split_model,
    koszul_complex,
    monomial_complex,
    q1_coefficients,
    thm112_build,
    verify_complex,
)
from resatlas.exact import ExactMatrix, MPoly, seeded_random_point
from resatlas.formats import derive_ranks


def test_koszul_is_complex_with_expected_ranks():
    cx = koszul_complex()
    assert verify_complex(cx).ok
    rk = be_rank_check(cx, seed=7)
    assert rk.ok and rk.ranks == (1, 2, 1)


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
    rep = verify_complex(bad)
    assert not rep.ok and len(rep.failures) > 0


def test_be_multipliers_koszul():
    cx = koszul_complex()
    for seed in range(1, 11):
        rep = be_multipliers(cx, seed)
        assert rep.ok, rep.detail


def test_be_multipliers_name_a_minor_whose_product_vanishes():
    # With d_3's last entry 0 the ranks stay (1, 2, 1), but a_3 vanishes on
    # the complement of columns (0, 1) while d_2's minor there does not.
    cx = koszul_complex()
    d3 = ExactMatrix([list(row) for row in cx.d(3).data[:-1]] + [[0]])
    broken = FreeComplex(cx.fmt, [cx.d(1), cx.d(2), d3], cx.variables, cx.label)
    for seed in range(1, 6):
        assert be_multipliers(cx, seed).ok
        rep = be_multipliers(broken, seed)
        assert (rep.ok, rep.detail) == (False, "d_2: minor (1, 2)x(0, 1) nonzero but product vanishes")


@pytest.mark.parametrize("r3", [1, 2, 3])
def test_thm112_family(r3):
    res = thm112_build(r3)
    assert verify_complex(res.complex).ok
    rk = be_rank_check(res.complex, seed=11)
    assert rk.ok and rk.ranks == (1, 2, r3)
    assert DELTA_SIGN_CONVENTION == "(-1)^(i+j)"
    # Delta annihilates d_3 and is skew
    assert res.delta.matmul(res.complex.d(3)).is_zero()
    assert res.delta.add(res.delta.transpose()).is_zero()


def test_thm112_seeded_build():
    cx = thm112_build(2).complex
    spec = cx.substitute(seeded_random_point(5, cx.variables))
    assert spec.differentials[0].is_numeric()
    assert verify_complex(spec).ok


def test_thm112_rejects_a_delta_with_one_sign_flipped(monkeypatch):
    minor = ExactMatrix.minor

    def flip_first_rows(self, rows, cols):
        value = minor(self, rows, cols)
        return -value if list(rows) == [2] else value  # Delta_{01} negated

    monkeypatch.setattr(ExactMatrix, "minor", flip_first_rows)
    with pytest.raises(AssertionError, match=r"thm112\(r3=1\): Delta .* does not annihilate d_3"):
        thm112_build(1)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_monomial_family(t):
    res = monomial_complex(t)
    assert verify_complex(res.complex).ok
    rk = be_rank_check(res.complex, seed=3)
    assert rk.ok and rk.ranks == (1, 2 * t - 1, 1)


def test_monomial_family_at_the_degree_ceiling():
    assert verify_complex(monomial_complex(128).complex).ok
    with pytest.raises(ValueError, match=r"t <= 128 required"):
        monomial_complex(129)


def test_monomial_generators_t2():
    res = monomial_complex(2)
    assert [str(g) for g in res.ideal_generators] == [
        "X1*X2",
        "X2*X3",
        "X3*X4",
        "X1*X4",
    ]


def test_d4_split_model_tables():
    m = d4_split_model()
    zero = MPoly.const(0)
    assert m.ee[(1, 2)] == (zero, zero, zero, m.b[(1, 2)])
    assert m.ee[(1, 4)] == (-MPoly.const(1), zero, zero, m.b[(1, 4)])
    assert m.ef[(2, 1)] == m.b[(1, 2)]
    assert m.ef[(1, 2)] == -m.b[(1, 2)]
    assert m.ef[(4, 1)] == -m.b[(1, 4)]
    assert m.ef[(4, 4)] == MPoly.const(1)
    assert m.eee[(1, 2, 3)].is_zero()
    assert m.eee[(1, 2, 4)] == m.b[(1, 2)]
    assert str(m.pfaffian) == "b12*b34 - b13*b24 + b14*b23"
    assert m.v2[0] == m.b[(2, 3)] and m.v2[3] == m.pfaffian


def test_d4_relation():
    rep = d4_relation_check()
    assert rep.ok
    assert rep.normalization == D4_NORMALIZATION
    assert list(rep.normalization.items()) == [
        ("eps_c", 1), ("eps_p", 1), ("eps_v", 1), ("eps_split", -1)
    ]
    assert rep.lhs == rep.pfaffian and rep.rhs == rep.pfaffian


def _negate_b23(m):
    return m._replace(ee={**m.ee, (2, 3): m.ee[(2, 3)][:3] + (-m.ee[(2, 3)][3],)})


def _negate_c14(m):
    return m._replace(ef={**m.ef, (4, 1): -m.ef[(4, 1)]})


@pytest.mark.parametrize("break_model", [_negate_b23, _negate_c14], ids=["ee23", "ef41"])
def test_d4_relation_fails_on_one_negated_table_entry(monkeypatch, break_model):
    broken = break_model(d4_split_model())
    monkeypatch.setattr(complexes, "d4_split_model", lambda: broken)
    rep = d4_relation_check()
    assert not rep.ok
    assert rep.normalization == D4_NORMALIZATION
    assert rep.lhs == rep.pfaffian and rep.rhs != rep.pfaffian


def test_pfaffian_signed_s3_equivariance():
    m = d4_split_model()
    keys = sorted(m.b)
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


def test_verify_complex_names_one_negated_term_on_the_split_path():
    # d_1 is a_1 times polynomials in d_2's variables, all of one degree, so
    # matmul splits its row into one coefficient vector, met once, and
    # multiplies it directly: each d_1 . d_2 entry at r3 = 4 is one sum of
    # products large enough to split into residue classes.
    res = thm112_build(4)
    d1, d2, d3 = res.complex.differentials
    outside = set(exact.variables(d1.data[0])) - set(exact.variables(e for row in d2.data for e in row))
    assert outside == {"a1"} and len({m & exact._MASK for e in d1.data[0] for m in e.terms}) == 1
    assert exact._classes(sum(len(d1.data[0][k].terms) * len(d2.data[k][0].terms) for k in range(3))) > 1
    m, c = next(iter(d2.data[0][0].terms.items()))
    data = [list(row) for row in d2.data]
    term = MPoly({m: -2 * c}, data[0][0].names)
    data[0][0] = data[0][0] + term
    cx = res.complex
    broken = FreeComplex(cx.fmt, [d1, ExactMatrix(data), d3], cx.variables, cx.label)
    want = str(d1.data[0][0] * term)
    assert [f for f in verify_complex(broken).failures if f[0] == 1] == [(1, 0, 0, want)]


# Term products of `verify_complex(thm112_build(4))` when each entry of a
# matrix product multiplied its own pairs.
PER_ENTRY_TERM_PRODUCTS = 1_054_800


def test_verify_complex_multiplies_each_shared_coefficient_vector_once(monkeypatch):
    # The 120 outer monomials of d_1 . B^T share 20 coefficient vectors up
    # to sign, and each is multiplied by Delta once.
    cx = thm112_build(4).complex
    products = [0]
    mac = exact._mac

    def counted(out, a, b, sign):
        products[0] += len(a) * len(b)
        mac(out, a, b, sign)

    monkeypatch.setattr(exact, "_mac", counted)
    assert verify_complex(cx).ok
    assert 0 < products[0] <= PER_ENTRY_TERM_PRODUCTS // 4


def _without_record(cx):
    return FreeComplex(cx.fmt, cx.differentials, cx.variables, cx.label)


def _negate_one_d1_term(cx):
    d1, d2, d3 = cx.differentials
    m, c = next(iter(d1.data[0][0].terms.items()))
    data = [list(row) for row in d1.data]
    data[0][0] = data[0][0] + MPoly({m: -2 * c}, data[0][0].names)
    return FreeComplex(cx.fmt, [ExactMatrix(data), d2, d3], cx.variables, cx.label, cx.factored)


def _d3_plus_one(cx):
    d1, d2, d3 = cx.differentials
    data = [[e + 1 for e in row] for row in d3.data]
    return FreeComplex(cx.fmt, [d1, d2, ExactMatrix(data)], cx.variables, cx.label, cx.factored)


@pytest.mark.parametrize(
    "r3, breaks",
    [(1, None), (2, None), (3, None), (4, None), (4, _negate_one_d1_term), (1, _d3_plus_one)],
    ids=["r3=1", "r3=2", "r3=3", "r3=4", "r3=4-negated-d1-term", "r3=1-d3-plus-1"],
)
def test_the_recorded_factorization_leaves_the_report_unchanged(r3, breaks):
    cx = thm112_build(r3).complex
    assert set(cx.factored) == {2}
    if breaks is not None:
        cx = breaks(cx)
    got = verify_complex(cx)
    assert got == verify_complex(_without_record(cx))
    assert got.ok == (breaks is None)
    if breaks is _negate_one_d1_term:
        # The failures are d_1 . d_2's.
        assert {f[0] for f in got.failures} == {1}
    if breaks is _d3_plus_one:
        assert {f[0] for f in got.failures} == {2}


def test_a_stale_record_never_hides_a_nonzero_composition():
    # d_2 perturbed in one entry, with the record of the unperturbed d_2 kept.
    cx = thm112_build(2).complex
    d1, d2, d3 = cx.differentials
    data = [list(row) for row in d2.data]
    a1 = exact.ring(d2.data[0][0].names)[-1]  # the ring's last name
    data[0][0] = data[0][0] + a1
    broken = FreeComplex(cx.fmt, [d1, ExactMatrix(data), d3], cx.variables, cx.label, cx.factored)
    rep = verify_complex(broken)
    assert not rep.ok and {f[0] for f in rep.failures} == {1, 2}
    direct = [(i, d.matmul(e)) for i, (d, e) in enumerate(((d1, broken.d(2)), (broken.d(2), d3)), start=1)]
    want = [(i, r, c, str(e)) for i, p in direct for r, row in enumerate(p.data) for c, e in enumerate(row) if e != 0]
    assert list(rep.failures) == want


def test_a_verified_record_is_always_followed(monkeypatch):
    products = []
    matmul = ExactMatrix.matmul

    def logged(self, other):
        products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(ExactMatrix, "matmul", logged)

    def direct(cx):
        d1, d2, d3 = cx.differentials
        return [any(a is d and b is e for a, b in products) for d, e in ((d1, d2), (d2, d3))]

    cx = thm112_build(2).complex
    products.clear()
    assert verify_complex(cx).ok and direct(cx) == [False, False]
    # d_2 = 1 . G, G a copy of d_2, saves nothing, yet d_1 . d_2 is formed
    # as (d_1 . 1) . G and d_2 . d_3 as 1 . (G . d_3).
    cx = koszul_complex()
    one = ExactMatrix([[int(i == j) for j in range(3)] for i in range(3)])
    G = ExactMatrix(cx.d(2).data)
    recorded = FreeComplex(cx.fmt, cx.differentials, cx.variables, cx.label, {2: (one, G)})
    products.clear()
    rep = verify_complex(recorded)
    assert rep.ok and direct(recorded) == [False, False]
    assert rep == verify_complex(cx)


def test_a_record_of_the_wrong_shape_is_refused_and_a_point_drops_the_record():
    cx = thm112_build(2).complex
    F, G = cx.factored[2]
    with pytest.raises(ValueError, match=r"^the factors recorded for d_2 do not multiply to its shape$"):
        FreeComplex(cx.fmt, cx.differentials, cx.variables, cx.label, {2: (G, F)})
    with pytest.raises(ValueError, match=r"^the factors recorded for d_4 do not"):
        FreeComplex(cx.fmt, cx.differentials, cx.variables, cx.label, {4: (F, G)})
    assert cx.substitute(seeded_random_point(5, cx.variables)).factored == {}


@pytest.mark.parametrize(
    "build",
    [koszul_complex]
    + [lambda r3=r3: thm112_build(r3).complex for r3 in range(1, 5)]
    + [lambda t=t: monomial_complex(t).complex for t in range(2, 9)],
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
