import gc
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from resatlas import exact
from resatlas.exact import _BITS, ExactMatrix, MPoly, ring, seeded_random_point


def _value(p, point):
    """The value of one polynomial at an integer point."""
    return ExactMatrix([[p]]).substitute(point).data[0][0]


def _power(p, e):
    """p^e as e repeated products."""
    out = MPoly.const(1)
    for _ in range(e):
        out = out * p
    return out


def test_mpoly_arithmetic_vs_substitution():
    x, y = ring(["x", "y"])
    expr = (x + 2 * y) * (x - y) + 3
    assert _value(expr, {"x": 5, "y": -2}) == (5 - 4) * (5 + 2) + 3


def test_mpoly_identities():
    x, y = ring(["x", "y"])
    assert ((x + y) * (x + y) - (x * x + 2 * x * y + y * y)).is_zero()
    assert (x - x).is_zero()
    assert x * 0 == MPoly.const(0)
    assert 1 + x == x + 1
    assert (2 - x) == -(x - 2)


def test_constant_mpoly_hashes_as_its_int():
    # Equal values must hash alike: a constant polynomial equals its int.
    (x,) = ring(["x"])
    assert 3 in {MPoly.const(3)} and MPoly.const(3) in {3}
    assert 0 in {MPoly.const(0)} and (x - x) in {0}
    table = {3: "three", 0: "zero"}
    assert table[MPoly.const(3)] == "three" and table[x - x] == "zero"
    assert len({MPoly.const(-2), -2, x + 1, 1 + x}) == 2
    assert x not in {0, 1}


def test_a_constant_has_total_degree_zero():
    # The degree field's shift depends on the ring's size; a constant's
    # ring may be () or the ring of its operands.
    x, _ = ring(["x", "y"])
    for constant in (MPoly.const(0), x - x, MPoly.const(3), x - x + 3):
        assert constant.total_degree() == 0
    assert (x - x + 3).names == ("x", "y") and MPoly.const(3).names == ()


def test_mpoly_str_canonical():
    x, y = ring(["x", "y"])
    assert str(x * y - y * x) == "0"
    assert str(x + y) == str(y + x)


def test_det_bareiss_matches_expansion():
    data = [[1, 2, 3], [4, 5, 7], [2, -1, 0]]
    numeric = ExactMatrix(data)
    symbolic = ExactMatrix([[MPoly.const(v) for v in row] for row in data])
    assert numeric.det() == int(str(symbolic.det()))
    assert type(numeric.det()) is int
    assert type(ExactMatrix([[1, 2], [2, 4]]).det()) is int


def test_symbolic_det_vandermonde():
    a, b, c = ring(["a", "b", "c"])
    one = MPoly.const(1)
    m = ExactMatrix([[one, a, a * a], [one, b, b * b], [one, c, c * c]])
    expected = (b - a) * (c - a) * (c - b)
    assert (MPoly.coerce(m.det()) - expected).is_zero()


def test_a_symbolic_det_leaves_no_reference_cycle():
    # Its minors must be freed when it returns, not when the cyclic
    # collector next runs.
    gens = iter(ring([f"m{i}{j}" for i in range(6) for j in range(6)]))
    m = ExactMatrix([[next(gens) for _ in range(6)] for _ in range(6)])
    gc.collect()
    gc.disable()
    try:
        assert len(MPoly.coerce(m.det()).terms) == 720
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_and_minor():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert m.minor([0, 2], [0, 1]) == 1
    assert m.minor([2, 0], (1, 0)) == 1  # indices are sorted first
    assert m.minor([], []) == 1  # empty minor
    with pytest.raises(ValueError, match="^minor needs equally many rows and columns$"):
        m.minor([0, 1], [0])
    with pytest.raises(IndexError, match="^row 3 out of range$"):
        m.minor([3], [0])
    with pytest.raises(IndexError, match="^col -1 out of range$"):
        m.minor([0], [-1])
    (x,) = ring(["x"])
    assert str(ExactMatrix([[x, 1, 0], [2, x, 0]]).minor([0, 1], [0, 1])) == "x^2 - 2"


def _laplace_det(m):
    """Integer determinant by expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _laplace_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _largest_nonvanishing_minor(m):
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if _laplace_det([[m[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def test_bareiss_rank_and_det_match_minors():
    rng = random.Random(1968)
    swaps = zero_cols = 0
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rng.random() < 0.3:
            dead = rng.randrange(cols)
            for row in m:
                row[dead] = 0
        if rows > 1 and rng.random() < 0.3:
            m[0][0] = 0
            m[1][0] = 1
        swaps += m[0][0] == 0 and any(row[0] for row in m)
        zero_cols += any(all(row[j] == 0 for row in m) for j in range(cols))
        matrix = ExactMatrix(m)
        assert matrix.rank() == _largest_nonvanishing_minor(m), m
        if rows == cols:
            assert matrix.det() == _laplace_det(m), m
        k = rng.randint(1, min(rows, cols))
        rs, cs = rng.sample(range(rows), k), rng.sample(range(cols), k)
        want = _laplace_det([[m[i][j] for j in sorted(cs)] for i in sorted(rs)])
        assert matrix.minor(rs, cs) == want and matrix.data == m, m
    assert swaps >= 20 and zero_cols >= 20


def test_rank_at_symbolic():
    (x,) = ring(["x"])
    m = ExactMatrix([[x, MPoly.const(1)], [MPoly.const(1), x]])
    assert m.substitute({"x": 1}).rank() == 1
    assert m.substitute({"x": 2}).rank() == 2


def test_seeded_point_deterministic():
    p1 = seeded_random_point(17, ["a", "b"])
    p2 = seeded_random_point(17, ["a", "b"])
    assert p1 == p2
    p3 = seeded_random_point(18, ["a", "b"])
    assert p1 != p3
    # One draw per name, in the order given: the first draw of the seed.
    rng = random.Random(17)
    assert list(p1.items()) == [(v, rng.randint(-1000, 1000)) for v in ("a", "b")]
    assert all(type(x) is int for x in p1.values())


def test_matrix_ops():
    m = ExactMatrix([[1, 2], [3, 4]])
    i2 = ExactMatrix([[1, 0], [0, 1]])
    assert m.matmul(i2) == m
    assert m.transpose().transpose() == m
    assert m.add(ExactMatrix([[-1, -2], [-3, -4]])).is_zero()
    assert not m.add(m).is_zero()


def test_matrix_equality_is_exact_in_both_directions():
    one = ExactMatrix([[1]])
    zero = ExactMatrix([[MPoly.const(0)]])
    assert not one == zero
    assert not zero == one
    three = ExactMatrix([[3]])
    assert three == ExactMatrix([[MPoly.const(3)]])
    assert ExactMatrix([[MPoly.const(3)]]) == three
    assert ExactMatrix([ring(["x"])]) != ExactMatrix([[1]])
    assert MPoly.const(3) == 3 and 3 == MPoly.const(3)
    assert MPoly.const(3) != 4 and 4 != MPoly.const(3)
    assert hash(MPoly.const(3)) == hash(3)


def test_substitute_refuses_a_rational_coordinate():
    (x,) = ring(["x"])
    with pytest.raises(TypeError) as info:
        ExactMatrix([[x, 1]]).substitute({"x": Fraction(1, 2)})
    assert "'x'" in str(info.value)


def test_rank_and_det_refuse_a_rational_entry():
    m = ExactMatrix([[Fraction(1, 2), 1], [0, 1]])
    with pytest.raises(ValueError):
        m.rank()
    with pytest.raises(TypeError):
        m.det()


# -- oracle: the tuple-monomial kernel that packed monomials replaced -------
#
# A monomial is a sorted tuple of (index in ORACLE_NAMES, positive exponent)
# pairs, multiplied by merging through a dict and sorting.  Polynomials are
# dicts monomial -> nonzero int coefficient.


def _mono_mul(a, b):
    merged = dict(a)
    for idx, e in b:
        merged[idx] = merged.get(idx, 0) + e
    return tuple(sorted(merged.items()))


def _mono_key(m):
    return (-sum(e for _, e in m), tuple((idx, -e) for idx, e in m))


def _oracle_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _oracle_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _oracle_str(p, names=None):
    names = names or ORACLE_NAMES
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, key=_mono_key):
        coeff = p[mono]
        factors = [names[idx] if e == 1 else f"{names[idx]}^{e}" for idx, e in mono]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _oracle_substitute(p, point, names=None):
    names = names or ORACLE_NAMES
    total = 0
    for mono, coeff in p.items():
        term = coeff
        for idx, e in mono:
            term *= point[names[idx]] ** e
        total += term
    return total


# Out of name order, so ring order and name order differ.
ORACLE_NAMES = ("ov3", "ov1", "ov4", "ov0", "ov2")
ORACLE_RING = ring(ORACLE_NAMES)


def _random_pair(rng, max_terms=6, max_exp=11):
    """A random polynomial built through the MPoly API, and the same
    polynomial in the oracle's representation."""
    poly = MPoly.const(0)
    oracle = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = rng.randint(-4, 4)
        term = MPoly.const(coeff)
        mono = ()
        for idx, var in enumerate(ORACLE_RING):
            e = rng.choice((0, 0, 1, 2, max_exp))
            if e:
                term = term * _power(var, e)
                mono = _mono_mul(mono, ((idx, e),))
        poly = poly + term
        oracle = _oracle_add(oracle, {mono: coeff})
    return poly, oracle


def test_packed_kernel_matches_the_tuple_oracle():
    rng = random.Random(20090728)
    for _ in range(300):
        p, op = _random_pair(rng)
        q, oq = _random_pair(rng)
        assert str(p) == _oracle_str(op)
        assert str(p + q) == _oracle_str(_oracle_add(op, oq))
        assert str(p * q) == _oracle_str(_oracle_mul(op, oq))
        assert str(p * q - q * p) == "0"
        assert (p * q).total_degree() == max((sum(e for _, e in m) for m in _oracle_mul(op, oq)), default=0)
        # Int order is print order: the largest monomial is the first term.
        for poly, oracle in ((p, op), (p * q, _oracle_mul(op, oq))):
            if oracle:
                assert _decode(max(poly.terms), len(ORACLE_NAMES)) == min(oracle, key=_mono_key)
        assert exact.variables([p]) == sorted({ORACLE_NAMES[i] for m in op for i, _ in m})
        point = {name: rng.randint(-9, 9) for name in ORACLE_NAMES}
        assert _value(p * q, point) == _oracle_substitute(_oracle_mul(op, oq), point)


def test_matrix_substitute_matches_the_oracle():
    """`ExactMatrix.substitute` gives the oracle's value, as an int, on int
    and MPoly entries at integer points."""
    rng = random.Random(1968)
    nonzero = 0
    for trial in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        entries, oracles = [], {}
        for i in range(rows):
            entries.append([])
            for j in range(cols):
                kind = rng.random()
                if kind < 0.3:
                    entries[i].append(rng.randint(-3, 3))
                else:
                    poly, oracles[i, j] = _random_pair(rng, max_terms=4, max_exp=3)
                    entries[i].append(poly)
        point = {name: rng.randint(-9, 9) for name in ORACLE_NAMES}
        got = ExactMatrix(entries).substitute(point)
        for i, j in itertools.product(range(rows), range(cols)):
            if (i, j) in oracles:
                want = _oracle_substitute(oracles[i, j], point)
                nonzero += want != 0
            else:
                want = entries[i][j]
            assert (type(got.data[i][j]), got.data[i][j]) == (int, want)
    assert nonzero >= 100


def test_substitute_names_the_missing_variable_and_the_entry():
    x, y = ring(["x", "y"])
    with pytest.raises(KeyError) as info:
        ExactMatrix([[x, 1], [2, x * y + 1]]).substitute({"x": 3})
    assert info.value.args == ("missing variable 'y' in entry (1, 1)",)


def _sparse_pair(rng, variables, max_terms=5, max_vars=6):
    """A random polynomial in the ring of `variables`, each term on at most
    `max_vars` of them with exponents 1, 2 or 11, built through the MPoly
    API, and the same polynomial in the oracle's representation."""
    poly, oracle = MPoly.const(0), {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = rng.randint(-4, 4)
        term, mono = MPoly.const(coeff), ()
        for idx in sorted(rng.sample(range(len(variables)), rng.randint(0, min(max_vars, len(variables))))):
            e = rng.choice((1, 1, 2, 11))
            term = term * _power(variables[idx], e)
            mono += ((idx, e),)
        poly = poly + term
        oracle = _oracle_add(oracle, {mono: coeff})
    return poly, oracle


@pytest.mark.parametrize("size", [1, 43])
def test_str_variables_and_substitute_match_the_tuple_oracle_on_one_name_and_on_43(size):
    # 43 names is the generic family's ring at r3 = 4.  Ring order is not
    # name order, and evaluation splits the 43 fields into halves of 22
    # and 21.
    names = tuple(f"w{(17 * i) % size}" for i in range(size))
    variables = ring(names)
    rng = random.Random(size)
    for _ in range(40):
        entries, oracles = [[], []], {}
        for i, j in itertools.product(range(2), range(3)):
            if rng.random() < 0.2:
                entries[i].append(rng.randint(-3, 3))
                continue
            entry, oracles[i, j] = _sparse_pair(rng, variables)
            assert str(entry) == _oracle_str(oracles[i, j], names)
            entries[i].append(entry)
        used = {names[idx] for o in oracles.values() for mono in o for idx, _ in mono}
        assert exact.variables(e for row in entries for e in row) == sorted(used)
        point = {name: rng.randint(-9, 9) for name in names}
        got = ExactMatrix(entries).substitute(point)
        for i, j in itertools.product(range(2), range(3)):
            want = _oracle_substitute(oracles[i, j], point, names) if (i, j) in oracles else entries[i][j]
            assert (type(got.data[i][j]), got.data[i][j]) == (int, want)
    constants = ExactMatrix([[2, MPoly.const(-3)], [MPoly.const(0), 0]])
    assert constants.substitute(point).data == [[2, -3], [0, 0]]
    assert exact.variables(e for row in constants.data for e in row) == []


def test_substitute_names_a_missing_variable_in_either_half():
    names = [f"v{i}" for i in range(43)]
    v = ring(names)
    m = ExactMatrix([[v[0], 1], [2, v[1] * _power(v[3], 2) + v[40] * v[41]]])
    point = dict.fromkeys(names, 2)
    for missing, named in ((["v3"], "v3"), (["v40"], "v40"), (["v41", "v40"], "v40")):
        with pytest.raises(KeyError) as info:
            m.substitute({k: x for k, x in point.items() if k not in missing})
        assert info.value.args == (f"missing variable {named!r} in entry (1, 1)",)
    # A name that no entry uses may be missing.
    assert m.substitute({k: x for k, x in point.items() if k != "v42"}).data == [[2, 1], [2, 12]]


def test_substitute_evaluates_each_entry_in_its_own_ring():
    x, y = ring(["x", "y"])
    (u,) = ring(["u"])
    m = ExactMatrix([[MPoly.const(5), x * y], [u * u, y + 1]])
    assert m.substitute({"x": 2, "y": 3, "u": 7}).data == [[5, 6], [49, 4]]


# -- rings ----------------------------------------------------------------------


def test_ring_refuses_a_repeated_name():
    with pytest.raises(ValueError, match=r"^a ring names each variable once; repeated: x, z$"):
        ring(["x", "y", "z", "x", "z"])


def test_arithmetic_across_two_rings_raises():
    x, y = ring(["x", "y"])
    (u,) = ring(["u"])
    for across in (
        lambda: x + u,
        lambda: u - y,
        lambda: x * u,
        lambda: ExactMatrix([[x, y]]).matmul(ExactMatrix([[1], [u]])),
        lambda: ExactMatrix([[x, 1], [1, u]]).det(),
        lambda: exact.variables([x, 2, u]),
    ):
        with pytest.raises(ValueError, match=r"^operands from two rings: "):
            across()
    # A constant fits any ring, and equal names make one ring.
    _, y2 = ring(["x", "y"])
    assert str(ExactMatrix([[x, 2]]).matmul(ExactMatrix([[y2], [MPoly.const(3)]])).data[0][0]) == "x*y + 6"


def test_equal_terms_in_two_rings_are_equal_only_as_constants():
    x, y = ring(["x", "y"])
    y2, x2 = ring(["y", "x"])
    assert x.terms == y2.terms and x != y2 and str(x) != str(y2)
    assert x - x == y2 - y2 == 0 and x + 1 - x == MPoly.const(1)


def test_a_ring_prints_alike_whatever_other_rings_exist():
    def shown():
        x, y, w = ring(["x", "y", "w"])
        return str(w * x + w * w + x * x + y)

    first = shown()
    ring(["w", "y", "x"])
    ring([f"n{i}" for i in range(300)])
    assert first == shown() == "x^2 + x*w + w^2 + y"


def _run_fresh(code, *flags):
    """The stdout of `code` run by a fresh interpreter that imports the
    package from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_evaluating_at_an_unused_name_leaves_term_order_alone():
    (z,) = ring(["z"])
    ExactMatrix([[z]]).substitute({"w": 1, "z": 2})
    x, y, w = ring(["x", "y", "w"])
    assert str(x * y + x * x + y * y) == "x^2 + x*y + y^2"
    assert str(w * x + w * w + x * x) == "x^2 + x*w + w^2"


def _random_entry(rng):
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.4:
        return rng.randint(-3, 3)
    return _random_pair(rng, max_terms=3, max_exp=2)[0]


def test_matmul_and_det_match_sums_of_mpoly_products():
    rng = random.Random(1402)
    for _ in range(40):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[_random_entry(rng) for _ in range(k)] for _ in range(n)]
        b = [[_random_entry(rng) for _ in range(m)] for _ in range(k)]
        prod = ExactMatrix(a).matmul(ExactMatrix(b))
        for i in range(n):
            for j in range(m):
                want = MPoly.const(0)
                for t in range(k):
                    want = want + MPoly.coerce(a[i][t]) * MPoly.coerce(b[t][j])
                assert MPoly.coerce(prod.data[i][j]) == want
        size = min(n, k)
        sq = [[MPoly.coerce(e) for e in row[:size]] for row in a[:size]]
        want = MPoly.const(0)
        for perm in itertools.permutations(range(len(sq))):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
            term = MPoly.const(-1 if inversions % 2 else 1)
            for i, j in enumerate(perm):
                term = term * sq[i][j]
            want = want + term
        assert ExactMatrix(sq).det() == want


def test_numeric_matmul_keeps_the_running_sum_types():
    rng = random.Random(7)
    pool = (0, 1, -2, 5, 0, 3, MPoly.const(0), MPoly.const(3))
    ints = 0
    for _ in range(200):
        a = [[rng.choice(pool) for _ in range(3)] for _ in range(2)]
        b = [[rng.choice(pool) for _ in range(2)] for _ in range(3)]
        prod = ExactMatrix(a).matmul(ExactMatrix(b))
        for i in range(2):
            for j in range(2):
                acc = 0
                for t in range(3):
                    x, y = a[i][t], b[t][j]
                    if (isinstance(x, int) and x == 0) or (isinstance(y, int) and y == 0):
                        continue
                    acc = acc + x * y
                got = prod.data[i][j]
                assert (type(got), got) == (type(acc), acc)
                ints += type(got) is int
    assert 100 <= ints <= 700  # both int and MPoly results occur


def test_matmul_matches_mpoly_sums_on_rows_that_share_coefficient_vectors():
    # Each row is a sum of x^o times a coefficient vector in the right
    # factor's variables.  The vectors of one trial differ only in sign
    # (overall or in one component) or in one coefficient, so many
    # products cancel or nearly cancel.
    x1, x2, x3, y1, y2, y3 = ring(["x1", "x2", "x3", "y1", "y2", "y3"])
    outers = [MPoly.const(1), x1, x2, x3, x1 * x2, x2 * x3, x1 * x1, x3 * x3 * x1]
    rng = random.Random(2024)

    def inner():
        return y1 * rng.randint(1, 3) - y2 * y3 * rng.randint(1, 3) + rng.randint(-2, 2)

    nonzero = 0
    for _ in range(30):
        k, m = rng.randint(2, 4), rng.randint(1, 3)
        base = [inner() for _ in range(k)]
        flipped = [-e if t == 0 else e for t, e in enumerate(base)]
        tweaked = [e + y1 if t == k - 1 else e for t, e in enumerate(base)]
        vectors = [base, [-e for e in base], flipped, tweaked, [-e for e in tweaked]]
        a = []
        for _ in range(rng.randint(1, 3)):
            # Five outer monomials on three vectors up to sign: some share one.
            row = [MPoly.const(0)] * k
            for outer in rng.sample(outers, 5):
                row = [e + outer * v for e, v in zip(row, rng.choice(vectors))]
            a.append([rng.choice((0, 2, -3)) if rng.random() < 0.2 else e for e in row])
        b = [[rng.choice((0, 1, -2, y1, y2 - y3, y1 * y3 + 1)) for _ in range(m)] for _ in range(k)]
        prod = ExactMatrix(a).matmul(ExactMatrix(b))
        for i, row in enumerate(a):
            for j in range(m):
                want = 0
                for t, p in enumerate(row):
                    q = b[t][j]
                    if not ((isinstance(p, int) and p == 0) or (isinstance(q, int) and q == 0)):
                        want = want + p * q
                got = prod.data[i][j]
                assert (type(got), got) == (type(want), want)
                nonzero += got != 0
    assert nonzero > 100


# -- the degree field ---------------------------------------------------------


def test_degree_past_the_field_raises():
    x, y = ring(["x", "y"])
    highest = _power(x, 2**_BITS - 1)
    assert highest.total_degree() == 2**_BITS - 1 and str(highest) == f"x^{2**_BITS - 1}"
    with pytest.raises(OverflowError):
        highest * x
    top = _power(x, 2**_BITS - 2) * y
    assert top.total_degree() == 2**_BITS - 1
    with pytest.raises(OverflowError):
        top * y
    with pytest.raises(OverflowError):
        ExactMatrix([[top]]).matmul(ExactMatrix([[y]]))
    with pytest.raises(OverflowError):
        ExactMatrix([[top, MPoly.const(1)], [MPoly.const(1), y]]).det()


def test_degree_overflow_raises_under_python_O():
    code = (
        "from resatlas.exact import MPoly, _BITS, ring\n"
        "x, y = ring(['x', 'y'])\n"
        "top = MPoly.const(1)\n"
        "for _ in range(2**_BITS - 1):\n"
        "    top = top * x\n"
        "try:\n"
        "    top * y\n"
        "except OverflowError:\n"
        "    print('raised')\n"
    )
    assert _run_fresh(code, "-O") == "raised\n"


def test_a_det_whose_overflowing_products_cancel_raises():
    # top * top - top * top is 0, but each product has degree 2 * 255, so
    # its fields carried; the check after the products must still see it.
    x, y = ring(["x", "y"])
    top = _power(x, 2**_BITS - 2) * y
    with pytest.raises(OverflowError):
        ExactMatrix([[top, top], [top, top]]).det()
    code = (
        "from resatlas.exact import ExactMatrix, MPoly, _BITS, ring\n"
        "x, y = ring(['x', 'y'])\n"
        "top = MPoly.const(1)\n"
        "for _ in range(2**_BITS - 2):\n"
        "    top = top * x\n"
        "top = top * y\n"
        "try:\n"
        "    ExactMatrix([[top, top], [top, top]]).det()\n"
        "except OverflowError:\n"
        "    print('raised')\n"
    )
    assert _run_fresh(code, "-O") == "raised\n"


def test_matmul_guards_full_degrees_for_each_contracted_index():
    # Each row times the column overflows the degree field, and its terms
    # cancel, so an unguarded product would carry silently and print 0.
    # The first row is y^255 twice; the second is (x + z) y^254 twice, so
    # the degree to guard is x's or z's field plus y's.
    code = (
        "from resatlas.exact import ExactMatrix, MPoly, _BITS, ring\n"
        "x, z, y = ring(['x', 'z', 'y'])\n"
        "p = MPoly.const(1)\n"
        "for _ in range(2**_BITS - 2):\n"
        "    p = p * y\n"
        "for row in ([p * y, -p * y], [x * p + z * p, -x * p - z * p]):\n"
        "    try:\n"
        "        ExactMatrix([row]).matmul(ExactMatrix([[y], [y]]))\n"
        "    except OverflowError:\n"
        "        print('raised')\n"
    )
    assert _run_fresh(code) == _run_fresh(code, "-O") == "raised\nraised\n"


# -- large operands: sums of tens of thousands of term products ---------------


def _sized_pair(rng, size):
    """A random polynomial of `size` terms in ORACLE_NAMES, built through
    the MPoly API, and the same polynomial in the oracle's representation."""
    poly, oracle = MPoly.const(0), {}
    for _ in range(100 * size):
        if len(oracle) == size:
            break
        exps = [rng.randint(0, 4) for _ in ORACLE_NAMES]
        mono = tuple((idx, e) for idx, e in enumerate(exps) if e)
        if mono in oracle:
            continue
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        term = MPoly.const(coeff)
        for var, e in zip(ORACLE_RING, exps):
            term = term * _power(var, e)
        poly = poly + term
        oracle[mono] = coeff
    assert len(oracle) == size
    return poly, oracle


def _decode(m, n, fields=None):
    """A packed monomial of a ring of n names in the oracle's
    representation, read one field at a time by shift and mask: the
    exponent of name i from field fields[i], by default n - 1 - i.  The
    top field, n, must hold the total degree."""
    if fields is None:
        fields = [n - 1 - i for i in range(n)]
    exps = [(m >> (_BITS * f)) & ((1 << _BITS) - 1) for f in fields]
    assert m >> (_BITS * n) == sum(exps)
    return tuple((idx, e) for idx, e in enumerate(exps) if e)


def _as_oracle(p, fields=None):
    """The terms of `p` in the oracle's representation."""
    return {_decode(m, len(p.names), fields): c for m, c in p.terms.items()}


def _assert_oracle(p, want):
    # Terms first: pytest explains a mismatch of two long strings by a
    # character diff, which takes minutes at this size.
    assert _as_oracle(p) == want
    assert str(p) == _oracle_str(want)


def test_a_large_product_matches_the_tuple_oracle():
    rng = random.Random(2009)
    (p, op), (q, oq) = _sized_pair(rng, 260), _sized_pair(rng, 290)
    _assert_oracle(p * q, _oracle_mul(op, oq))


def test_decoding_two_swapped_fields_disagrees_with_the_oracle():
    # The layout check can fail: read with the fields of names 0 and 1
    # swapped, the same product no longer matches the oracle.
    rng = random.Random(2009)
    (p, op), (q, oq) = _sized_pair(rng, 20), _sized_pair(rng, 30)
    n = len(ORACLE_NAMES)
    swapped = [n - 2, n - 1] + [n - 1 - i for i in range(2, n)]
    want = _oracle_mul(op, oq)
    assert _as_oracle(p * q) == want
    assert _as_oracle(p * q, swapped) != want


def test_a_large_commutator_prints_zero():
    rng = random.Random(7)
    (p, _), (q, _) = _sized_pair(rng, 200), _sized_pair(rng, 200)
    prod = ExactMatrix([[p, q]]).matmul(ExactMatrix([[q], [-p]]))
    assert str(prod.data[0][0]) == "0"


def test_large_matmul_and_det_match_oracle_sums_with_laplace_signs():
    rng = random.Random(1968)
    (a, oa), (b, ob), (c, oc), (d, od) = (_sized_pair(rng, 200) for _ in range(4))
    prod = ExactMatrix([[a, b]]).matmul(ExactMatrix([[c], [d]]))
    assert _as_oracle(prod.data[0][0]) == _oracle_add(_oracle_mul(oa, oc), _oracle_mul(ob, od))
    minus_b = {m: -coeff for m, coeff in ob.items()}
    det = ExactMatrix([[a, b], [c, d]]).det()
    assert _as_oracle(det) == _oracle_add(_oracle_mul(oa, od), _oracle_mul(minus_b, oc))


def test_a_cancelling_dot_product_prints_zero():
    # The pair (0, u) is skipped, and the other two form one sum of
    # products that cancels to 0.
    uv = exact.ring([f"u{i}" for i in range(10)] + [f"v{i}" for i in range(10)])
    u, v = sum(uv[:10], MPoly.const(0)), sum(uv[10:], MPoly.const(0))
    p, q = u * u * u, v * v * v
    prod = ExactMatrix([[p, -p, 0]]).matmul(ExactMatrix([[q], [q], [u]]))
    assert (str(prod), len(p.terms), len(q.terms)) == ("[0]", 220, 220)
