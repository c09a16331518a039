"""Explicit free complexes and their exact verification.

Builders for the three concrete families — the A-type family with generic
d_3 and second structure map (generic ring a polynomial ring), the monomial
family of formats (1, 2t, 2t, 1), and the split D_4 model with its quadratic
relation — plus a certificate of d.d = 0 for the generic family,
Buchsbaum-Eisenbud multiplier factorization checks and the q_1 cycle
coefficients.

The certificates share one verdict shape: each returns nothing exactly when
its fact holds, and otherwise what broke.  `verify_complex` returns its
nonzero composition entries (an empty tuple when there are none), and
`be_multipliers` and `thm112_certificate` return None or the failure's
detail.
`be_rank_check` and `d4_relation_sides` instead return what the CLI
prints, the ranks at a point and the relation's sides, for the caller to
compare with the expected ranks and the Pfaffian.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import exact
from .exact import DEGREE_LIMIT, SYMBOLIC_DET_LIMIT, ExactMatrix, MPoly, seeded_random_point
from .formats import ResolutionFormat, derive_ranks


# The fields live on a private NamedTuple base, whose body cannot define
# `__new__`; the public class checks the shapes as it is built.
class _FreeComplex(NamedTuple):
    fmt: ResolutionFormat
    differentials: List[ExactMatrix]
    variables: Tuple[str, ...]
    label: str


class FreeComplex(_FreeComplex):
    """A length-n free complex: d[i] is the matrix of d_{i+1} (f_i columns,
    f_{i-1} rows); entries are MPoly or int."""

    __slots__ = ()

    def __new__(
        cls, fmt: ResolutionFormat, differentials: List[ExactMatrix],
        variables: Tuple[str, ...] = (), label: str = "",
    ) -> "FreeComplex":
        n = fmt.n
        if len(differentials) != n:
            raise ValueError(f"need {n} differentials")
        for i, d in enumerate(differentials, start=1):
            if (d.rows, d.cols) != (fmt.f[i - 1], fmt.f[i]):
                raise ValueError(
                    f"d_{i} has shape {(d.rows, d.cols)}, expected "
                    f"{(fmt.f[i - 1], fmt.f[i])}"
                )
        return super().__new__(cls, fmt, differentials, variables, label)

    def d(self, i: int) -> ExactMatrix:
        """The matrix of d_i (1-based)."""
        return self.differentials[i - 1]

    def substitute(self, assignment) -> "FreeComplex":
        """The complex at an integer point."""
        return FreeComplex(
            fmt=self.fmt,
            differentials=[d.substitute(assignment) for d in self.differentials],
            variables=(),
            label=self.label + " (specialized)",
        )


def _nonzero_entries(m: ExactMatrix) -> Iterator[Tuple[int, int, str]]:
    """The (row, col, printed entry) of each nonzero entry, row by row, each
    printed only when it is reached."""
    return ((r, c, str(e)) for r, row in enumerate(m.data) for c, e in enumerate(row) if e != 0)


def verify_complex(complex_: FreeComplex) -> Tuple[Tuple[int, int, int, str], ...]:
    """Check every composition d_i . d_{i+1} = 0 by exact symbolic
    expansion.  Returns the failures, empty exactly when every composition
    vanishes: an (i, row, col, printed entry) for each nonzero entry of
    d_i . d_{i+1}.  The generic family has its own certificate,
    `thm112_certificate`, which expands no composition."""
    return tuple(
        (i, r, c, e)
        for i in range(1, complex_.fmt.n)
        for r, c, e in _nonzero_entries(complex_.d(i).matmul(complex_.d(i + 1)))
    )


def koszul_complex() -> FreeComplex:
    """The Koszul complex on three variables: the standard acyclic fixture
    of format (1, 3, 3, 1)."""
    names = ("x", "y", "z")
    x, y, z = exact.ring(names)
    d1 = ExactMatrix([[x, y, z]])
    d2 = ExactMatrix([[-y, -z, 0], [x, 0, -z], [0, x, y]])
    d3 = ExactMatrix([[z], [-y], [x]])
    return FreeComplex(
        fmt=derive_ranks([1, 3, 3, 1]),
        differentials=[d1, d2, d3],
        variables=names,
        label="koszul",
    )


class RankReport(NamedTuple):
    ranks: Tuple[int, ...]
    spec: FreeComplex  # the complex at the last point tried


def be_rank_check(complex_: FreeComplex, seed: int) -> RankReport:
    """At a seeded integer point, every differential has its expected rank
    r_i.  Up to 50 points, seeded seed * 1000 + attempt, are tried in turn
    until the ranks of all differentials equal (r_1, ..., r_n); otherwise
    the report carries the last point's ranks."""
    names = exact.variables(e for d in complex_.differentials for row in d.data for e in row)
    for attempt in range(50):
        spec = complex_.substitute(seeded_random_point(seed * 1000 + attempt, names))
        ranks = tuple(m.rank() for m in spec.differentials)
        if ranks == complex_.fmt.r:
            break
    return RankReport(ranks=ranks, spec=spec)


def complex_to_json(complex_: FreeComplex) -> Dict:
    """Serializable fixture: format, variables, matrices as canonical
    polynomial strings."""
    return {
        "format": list(complex_.fmt.f),
        "variables": list(complex_.variables),
        "matrices": [
            [[str(e) for e in row] for row in d.data]
            for d in complex_.differentials
        ],
        "label": complex_.label,
    }


# ---------------------------------------------------------------------------
# Buchsbaum-Eisenbud multipliers
# ---------------------------------------------------------------------------


def _complement_sign(subset: Sequence[int]) -> int:
    """Sign of the permutation that lists `subset`, then the rest of
    0, 1, ..., n - 1, each ascending (0-based indices).  It is the same for
    every n > max(subset), so n is not needed."""
    s = sum(subset)
    r = len(subset)
    return -1 if (s - r * (r - 1) // 2) % 2 else 1


def be_multipliers(complex_: FreeComplex, seed: int) -> Optional[str]:
    """First-structure-theorem factorization at the point of full rank that
    `be_rank_check(complex_, seed)` finds.  Returns None if it holds, else
    what broke: no such point, or the minor where the factorization fails.

    a_n is the vector of maximal minors of d_n.  For i < n, a_i is the
    Plucker coordinate vector of the column space of d_i: the r_i-minors on
    the first r_i columns C0 where they are not all 0.  The factorization:
    for every row set R and column set C of size r_i,
    minor_{R,C}(d_i) = s_i * a_i[R] * eps(C) * a_{i+1}[C'], with one scalar
    s_i per i, C' the complement of C among the columns and
    a_{n+1}[()] = 1.

    At the point d_i has rank r_i, so d_i = X Y with X of r_i columns and Y
    of r_i rows, and by Cauchy-Binet minor_{R,C}(d_i) = det X_R * det Y_C:
    the table of r_i-minors has rank 1.  Its column C0 is a_i, so with R0
    the first row set where a_i is not 0, minor_{R,C} = a_i[R] *
    minor_{R0,C} / a_i[R0].  The factorization therefore holds for every R
    and C exactly when the row minor_{R0,C} equals eps(C) * a_{i+1}[C'] up
    to one scalar, and only the minors of that column and that row are
    computed.  A failure names the minor R0 x C where the row first breaks.
    """
    fmt = complex_.fmt
    rk = be_rank_check(complex_, seed)
    if rk.ranks != fmt.r:
        return f"no seeded point of full rank: ranks {rk.ranks}, expected {fmt.r}"
    mats = rk.spec.differentials
    a: List[Dict[Tuple[int, ...], int]] = []
    for d, r in zip(mats, fmt.r):
        row_sets = list(combinations(range(d.rows), r))
        for cols in combinations(range(d.cols), r):
            column = {R: d.minor(R, cols) for R in row_sets}
            if any(column.values()):
                break
        a.append(column)
    a.append({(): 1})
    for i, (d, r) in enumerate(zip(mats, fmt.r), start=1):
        rows0 = next(R for R, m in a[i - 1].items() if m)
        # s_i is one scalar iff every pair cross-multiplies equal with the
        # first pair whose product is nonzero.
        first: Optional[Tuple[int, int]] = None
        for cols in combinations(range(d.cols), r):
            lhs = d.minor(rows0, cols)
            comp = tuple(j for j in range(d.cols) if j not in cols)
            rhs = _complement_sign(cols) * a[i][comp]
            if rhs == 0:
                if lhs != 0:
                    return f"d_{i}: minor {rows0}x{cols} nonzero but product vanishes"
            elif first is None:
                first = (lhs, rhs)
            elif lhs * first[1] != first[0] * rhs:
                return f"d_{i}: inconsistent scalar at {rows0}x{cols}"
    return None


# ---------------------------------------------------------------------------
# The A-type family (generic ring a polynomial ring)
# ---------------------------------------------------------------------------


DELTA_SIGN_CONVENTION = "(-1)^(i+j)"


class Thm112Result(NamedTuple):
    complex: FreeComplex
    delta: ExactMatrix
    B: ExactMatrix
    a1: MPoly


def _pattern(d2: ExactMatrix, B: ExactMatrix) -> List[MPoly]:
    """x_1, x_2, x_3 of the displayed skew pattern [[0, x3, -x2], [-x3, 0,
    x1], [x2, -x1, 0]] of d_2 . B: its entries (1, 2), (2, 0) and (0, 1),
    and no other entry formed."""
    return [
        ExactMatrix([d2.data[i]]).matmul(ExactMatrix([[row[j]] for row in B.data])).data[0][0]
        for i, j in ((1, 2), (2, 0), (0, 1))
    ]


def thm112_build(r3: int) -> Thm112Result:
    """The format (1, 3, r3+2, r3) complex from generic d_3 and second
    structure map B.

    Delta is the skew matrix of complementary maximal minors of d_3,
    Delta_{ij} = (-1)^(i+j) * minor(d_3 without rows i, j) for i < j;
    d_2 := B^T Delta, d_1 := a_1 (x_1, x_2, x_3) with the x_k read from the
    displayed skew pattern of B^T Delta B.  The result keeps Delta, B and
    a_1.  The build checks nothing: `thm112_certificate` is the one check
    of the facts from which d . d = 0 follows.
    """
    if r3 < 1:
        raise ValueError("r3 >= 1 required")
    # Refused before any variable is made.  Within the limit, d_1 . d_2 has
    # degree 2 r3 + 4, far below `DEGREE_LIMIT`.
    limit = SYMBOLIC_DET_LIMIT
    if r3 > limit:
        raise ValueError(
            f"thm112(r3={r3}): Delta's entries are {r3}x{r3} minors, but exact expands "
            f"symbolic determinants only up to {limit}x{limit}; r3 <= {limit} required"
        )
    f2 = r3 + 2
    names = [f"A{i}_{j}" for i in range(1, f2 + 1) for j in range(1, r3 + 1)]
    names += [f"b{i}_{j}" for i in range(1, f2 + 1) for j in range(1, 4)] + ["a1"]
    gens = iter(exact.ring(names))
    A = [[next(gens) for _ in range(r3)] for _ in range(f2)]
    B = [[next(gens) for _ in range(3)] for _ in range(f2)]
    a1 = next(gens)
    d3 = ExactMatrix(A)
    Bm = ExactMatrix(B)
    # Entry (i, c) of Delta . d_3 is, up to one sign per row i, the Laplace
    # expansion along its last column of the determinant of d_3 without row
    # i with column c appended again.  A repeated column makes that
    # determinant 0, so this sign rule annihilates d_3 for every r3.
    delta_data = [[MPoly.const(0) for _ in range(f2)] for _ in range(f2)]
    for i in range(f2):
        for j in range(i + 1, f2):
            rows = [k for k in range(f2) if k not in (i, j)]
            m = (-1) ** (i + j) * MPoly.coerce(d3.minor(rows, range(r3)))
            delta_data[i][j] = m
            delta_data[j][i] = -m
    delta = ExactMatrix(delta_data)
    d2 = Bm.transpose().matmul(delta)
    d1 = ExactMatrix([[a1 * xk for xk in _pattern(d2, Bm)]])
    fmt = derive_ranks([1, 3, f2, r3])
    cx = FreeComplex(
        fmt=fmt, differentials=[d1, d2, d3], variables=tuple(sorted(names)), label=f"thm112(r3={r3})",
    )
    return Thm112Result(complex=cx, delta=delta, B=Bm, a1=a1)


def thm112_certificate(res: Thm112Result) -> Optional[str]:
    """d_1 . d_2 = 0 and d_2 . d_3 = 0 for a complex built as the generic
    family is, from five facts checked exactly, none of them a composition:

    (a) d_2 = B^T Delta;
    (b) Delta is skew;
    (c) Delta . d_3 = 0;
    (d) some r3 x r3 minor of d_3 is nonzero;
    (e) d_1 = a_1 (x_1, x_2, x_3), x_1 = (d_2 B)_{23}, x_2 = (d_2 B)_{31}
        and x_3 = (d_2 B)_{12}, only these three entries formed.

    Over the fraction field, (c) and (d) give Delta rank <= f_2 - r3 = 2,
    so by (b) Delta = u v^T - v u^T (Buchsbaum and Eisenbud, Amer. J.
    Math. 99, 1977).  With p = B^T u and q = B^T v, B^T Delta B = p q^T -
    q p^T, so x = p x q and x^T B^T Delta = (x.p) v^T - (x.q) u^T = 0.
    Then (a) and (e) give d_1 . d_2 = a_1 x^T B^T Delta = 0, and
    d_2 . d_3 = B^T (Delta . d_3) = 0.  Returns None if all five hold,
    else the first fact that fails and, for (a), (b), (c) and (e), its
    first nonzero entry."""
    return next(_thm112_failures(res), None)


def _thm112_failures(res: Thm112Result):
    """The failure of each fact of `thm112_certificate`, in order, each
    checked only once the ones before it hold."""
    d1, d2, d3 = res.complex.differentials
    delta, B = res.delta, res.B
    r3 = d3.cols
    if tuple(res.complex.fmt.f) != (1, 3, r3 + 2, r3):
        raise ValueError(f"the certificate needs format (1, 3, r3 + 2, r3), not {tuple(res.complex.fmt.f)}")

    def failure(name: str, m: ExactMatrix):
        for r, c, e in islice(_nonzero_entries(m), 1):
            yield f"fact {name} fails: entry {(r, c)} is {e}"

    def unequal(name: str, p: ExactMatrix, q: ExactMatrix):
        # Only the first unequal entry's difference is formed and printed.
        if (p.rows, p.cols) != (q.rows, q.cols):
            raise ValueError("shape mismatch")
        for r, (p_row, q_row) in enumerate(zip(p.data, q.data)):
            for c, (a, b) in enumerate(zip(p_row, q_row)):
                if a != b:
                    yield f"fact {name} fails: entry {(r, c)} is {a - b}"
                    return

    yield from unequal("(a) d_2 - B^T.Delta", d2, B.transpose().matmul(delta))
    yield from failure("(b) Delta + Delta^T", delta.add(delta.transpose()))
    yield from failure("(c) Delta.d_3", delta.matmul(d3))
    if all(d3.minor(rows, range(r3)) == 0 for rows in combinations(range(d3.rows), r3)):
        yield f"fact (d) fails: every {r3}x{r3} minor of d_3 is 0"
    yield from unequal("(e) d_1 - a_1.x", d1, ExactMatrix([[res.a1 * xk for xk in _pattern(d2, B)]]))


# ---------------------------------------------------------------------------
# The monomial family
# ---------------------------------------------------------------------------


def monomial_complex(t: int) -> FreeComplex:
    """The format (1, 2t, 2t, 1) monomial complex on variables X_1..X_{2t},
    whose d_1 row holds the ideal's generators:

    d_3 = (X_{2t}, X_1, ..., X_{2t-1})^T,
    d_2 two-diagonal cyclic: (d_2)_{i,i} = X_{i-2 mod 2t},
    (d_2)_{i,i-1} = -X_{i-1 mod 2t}, first row (X_{2t-1}, 0, ..., 0, -X_{2t}),
    d_1 = (p_1, ..., p_{2t}) with p_i = (X_1...X_{2t}) / (X_{i-2} X_{i-1}).
    """
    if t < 2:
        raise ValueError("t >= 2 required")
    # d_1 has degree 2t - 2 and d_2 degree 1, so d_1 . d_2 has 2t - 1, which
    # `exact` must pack; refused before any variable is made.
    if 2 * t - 1 >= DEGREE_LIMIT:
        raise ValueError(
            f"monomial complex t = {t}: d_1 . d_2 has total degree {2 * t - 1}, but exact packs "
            f"only degrees below {DEGREE_LIMIT}; t <= {DEGREE_LIMIT // 2} required"
        )
    m = 2 * t
    names = tuple(f"X{i}" for i in range(1, m + 1))
    X = exact.ring(names)

    def xv(i: int) -> MPoly:
        return X[(i - 1) % m]  # 1-based cyclic

    d3 = ExactMatrix([[xv(i - 1)] for i in range(1, m + 1)])  # X_0 = X_{2t}
    d2_data = [[MPoly.const(0) for _ in range(m)] for _ in range(m)]
    for i in range(1, m + 1):
        d2_data[i - 1][i - 1] = xv(i - 2)
        d2_data[i - 1][(i - 2) % m] = -xv(i - 1)
    d2 = ExactMatrix(d2_data)
    ps = []
    for i in range(1, m + 1):
        prod = MPoly.const(1)
        skip = {((i - 2) - 1) % m, ((i - 1) - 1) % m}
        for k in range(m):
            if k not in skip:
                prod = prod * X[k]
        ps.append(prod)
    d1 = ExactMatrix([ps])
    return FreeComplex(
        fmt=derive_ranks([1, m, m, 1]),
        differentials=[d1, d2, d3],
        variables=names,
        label=f"monomial(t={t})",
    )


# ---------------------------------------------------------------------------
# The split D_4 model and its quadratic relation
# ---------------------------------------------------------------------------


class SplitD4Model(NamedTuple):
    p: Dict[Tuple[int, int], MPoly]   # p^4_{ij}, ij in 23, 24, 34
    c: Dict[int, MPoly]               # c^1_k, k in 2, 3, 4
    pfaffian: MPoly


def d4_split_model() -> SplitD4Model:
    """The entries of the split resolution of format (1, 4, 4, 1) with
    generic multiplication that its quadratic relation reads, from its
    defining tables in the variables b_{ij}, i < j in 1..4: p^4_{ij}, the
    e_4 coordinate of e_i . e_j, is b_{ij}; c^1_k, the g-coefficient of
    e_k . f_1, is b_{1k}, negated for k = 4; and the Pfaffian of b, which
    is (v_2)_4."""
    keys = list(combinations(range(1, 5), 2))
    b = dict(zip(keys, exact.ring(f"b{i}{j}" for i, j in keys)))
    p = {ij: b[ij] for ij in ((2, 3), (2, 4), (3, 4))}
    c = {2: b[(1, 2)], 3: b[(1, 3)], 4: -b[(1, 4)]}
    pf = b[(1, 2)] * b[(3, 4)] - b[(1, 3)] * b[(2, 4)] + b[(1, 4)] * b[(2, 3)]
    return SplitD4Model(p=p, c=c, pfaffian=pf)


# The literal table reading with c^1_4 negated: e_4 is the split basis
# vector, the only one mixing the split and generic parts.
D4_NORMALIZATION = {"eps_c": 1, "eps_p": 1, "eps_v": 1, "eps_split": -1}


class D4RelationReport(NamedTuple):
    lhs: MPoly
    rhs: MPoly
    pfaffian: MPoly


def d4_relation_sides() -> D4RelationReport:
    """The two sides of the quadratic relation
    (v_2)_4 (d_2)_{1,1} = p^4_{23} c^1_4 - p^4_{24} c^1_3 + p^4_{34} c^1_2
    and the Pfaffian, under the fixed sign normalization
    `D4_NORMALIZATION`: eps_c on c-extractions, eps_p on p-extractions,
    eps_v on v_2, and eps_split on c-extractions involving e_4.  The
    relation holds when both sides equal the Pfaffian.  Its left side is
    eps_v times the Pfaffian, since (v_2)_4 is the Pfaffian and
    (d_2)_{1,1} = 1.
    """
    model = d4_split_model()
    eps = D4_NORMALIZATION
    p = model.p
    c = {k: eps["eps_c"] * (eps["eps_split"] if k == 4 else 1) * v for k, v in model.c.items()}
    lhs = eps["eps_v"] * model.pfaffian
    rhs = eps["eps_p"] * (p[(2, 3)] * c[4] - p[(2, 4)] * c[3] + p[(3, 4)] * c[2])
    return D4RelationReport(lhs=lhs, rhs=rhs, pfaffian=model.pfaffian)


# ---------------------------------------------------------------------------
# q_1 coefficients
# ---------------------------------------------------------------------------


def q1_coefficients(
    fmt: ResolutionFormat,
    I: Sequence[int],
    J: Sequence[int],
    K: Sequence[int],
    t: Optional[int] = None,
) -> MPoly:
    """The coefficient u_{I,J,K} of the generating cycle, over generic
    symbolic d_3 and d_2:

    sum_{s=1}^{r_3} (-1)^{s-1}
        * minor(d_3; rows J \\ {j_s}, cols [1..r_3] \\ {t})
        * minor(d_2; rows complement(I), cols complement({j_s} union K)).

    Indices are 1-based; I has r_1+1 entries in [1..f_1], J and K have r_3
    entries in [1..f_2].  A repeated index gives 0.
    """
    if fmt.n != 3:
        raise ValueError("length-3 formats only")
    r1, r2, r3 = fmt.r
    f1, f2, f3 = fmt.f[1], fmt.f[2], fmt.f[3]
    if t is None:
        t = r3
    if not 1 <= t <= r3:
        raise ValueError(f"t = {t} out of range")
    if len(I) != r1 + 1 or len(J) != r3 or len(K) != r3:
        raise ValueError("index sets have wrong sizes")
    for name, idx, bound in (("I", I, f1), ("J", J, f2), ("K", K, f2)):
        if any(not 1 <= v <= bound for v in idx):
            raise ValueError(f"{name} out of range")
    names = [f"D3_{i}_{j}" for i in range(1, f2 + 1) for j in range(1, f3 + 1)]
    names += [f"D2_{i}_{j}" for i in range(1, f1 + 1) for j in range(1, f2 + 1)]
    gens = iter(exact.ring(names))
    d3 = ExactMatrix([[next(gens) for _ in range(f3)] for _ in range(f2)])
    d2 = ExactMatrix([[next(gens) for _ in range(f2)] for _ in range(f1)])
    zero = MPoly.const(0)
    if len(set(I)) != len(I) or len(set(J)) != len(J) or len(set(K)) != len(K):
        return zero
    cols3 = [j - 1 for j in range(1, r3 + 1) if j != t]
    rows2 = [i - 1 for i in range(1, f1 + 1) if i not in set(I)]
    total = zero
    for s, js in enumerate(J, start=1):
        rows3 = [j - 1 for j in J if j != js]
        used = set(K) | {js}
        if len(used) != r3 + 1:
            continue  # j_s collides with K: degenerate wedge
        cols2 = [j - 1 for j in range(1, f2 + 1) if j not in used]
        term = MPoly.coerce(d3.minor(rows3, cols3)) * MPoly.coerce(
            d2.minor(rows2, cols2)
        )
        total = total + term if s % 2 == 1 else total - term
    return total
