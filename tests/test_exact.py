import random
from fractions import Fraction

from resatlas.exact import ExactMatrix, MPoly, seeded_random_point


def test_mpoly_arithmetic_vs_substitution():
    x = MPoly.var("x")
    y = MPoly.var("y")
    expr = (x + 2 * y) * (x - y) + 3
    pt = {"x": Fraction(5), "y": Fraction(-2)}
    assert expr.substitute(pt) == (5 - 4) * (5 + 2) + 3


def test_mpoly_identities():
    x = MPoly.var("x")
    y = MPoly.var("y")
    assert ((x + y) ** 2 - (x**2 + 2 * x * y + y**2)).is_zero()
    assert (x - x).is_zero()
    assert x * 0 == MPoly.const(0)
    assert 1 + x == x + 1
    assert (2 - x) == -(x - 2)


def test_mpoly_str_canonical():
    x = MPoly.var("x")
    y = MPoly.var("y")
    assert str(x * y - y * x) == "0"
    assert str(x + y) == str(y + x)


def test_det_bareiss_matches_expansion():
    data = [[1, 2, 3], [4, 5, 7], [2, -1, 0]]
    numeric = ExactMatrix(data)
    symbolic = ExactMatrix([[MPoly.const(v) for v in row] for row in data])
    assert Fraction(numeric.det()) == Fraction(int(str(symbolic.det())))


def test_symbolic_det_vandermonde():
    a, b, c = MPoly.var("a"), MPoly.var("b"), MPoly.var("c")
    one = MPoly.const(1)
    m = ExactMatrix([[one, a, a * a], [one, b, b * b], [one, c, c * c]])
    expected = (b - a) * (c - a) * (c - b)
    assert (MPoly.coerce(m.det()) - expected).is_zero()


def test_rank_and_minor():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert m.minor([0, 2], [0, 1]) == 1
    assert m.minor([], []) == 1  # empty minor


def test_rank_at_symbolic():
    x = MPoly.var("x")
    m = ExactMatrix([[x, MPoly.const(1)], [MPoly.const(1), x]])
    assert m.substitute({"x": Fraction(1)}).rank() == 1
    assert m.substitute({"x": Fraction(2)}).rank() == 2


def test_seeded_point_deterministic():
    p1 = seeded_random_point(17, ["a", "b"])
    p2 = seeded_random_point(17, ["a", "b"])
    assert p1 == p2
    p3 = seeded_random_point(18, ["a", "b"])
    assert p1 != p3
    # One draw per name, in the order given: the first draw of the seed.
    rng = random.Random(17)
    assert list(p1.items()) == [(v, Fraction(rng.randint(-1000, 1000))) for v in ("a", "b")]


def test_matrix_ops():
    m = ExactMatrix([[1, 2], [3, 4]])
    i2 = ExactMatrix([[1, 0], [0, 1]])
    assert m.matmul(i2) == m
    assert m.transpose().transpose() == m
    assert m.add(ExactMatrix([[-1, -2], [-3, -4]])).is_zero()
    assert not m.add(m).is_zero()
