from fractions import Fraction

from resatlas.exact import ExactMatrix, MPoly, mpoly_vars, seeded_random_point


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


def test_mpoly_vars_shape():
    grid = mpoly_vars("m", 2, 3)
    assert len(grid) == 2 and len(grid[0]) == 3
    assert str(grid[1][2]) == "m2_3"


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
    assert m.rank_at({"x": Fraction(1)}) == 1
    assert m.rank_at({"x": Fraction(2)}) == 2


def test_seeded_point_deterministic_and_avoiding():
    p1 = seeded_random_point(17, ["a", "b"])
    p2 = seeded_random_point(17, ["a", "b"])
    assert p1 == p2
    p3 = seeded_random_point(18, ["a", "b"])
    assert p1 != p3
    x = MPoly.var("a")
    p4 = seeded_random_point(17, ["a"], avoid=(x,))
    assert x.substitute(p4) != 0


def test_matrix_ops():
    m = ExactMatrix([[1, 2], [3, 4]])
    i2 = ExactMatrix.identity(2)
    assert m.matmul(i2) == m
    assert m.transpose().transpose() == m
    assert m.add(ExactMatrix([[-1, -2], [-3, -4]])).is_zero()
    assert not m.add(m).is_zero()
