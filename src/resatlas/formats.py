"""Resolution formats, derived map ranks, and the T_{p,q,r} graph and its class.

A *format* is the rank vector (f_0, ..., f_n) of a length-n free complex.
The derived ranks r_i are the expected ranks of the differentials, determined
by r_{n+1} = 0 and r_i = f_i - r_{i+1}.  Valid length-3 formats correspond to
star graphs T_{p,q,r} via p = r_1 + 1, q = r_2 - 1, r = r_3 + 1; the graph's
type (finite/affine/indefinite) controls the structure theory downstream.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple


class ResolutionFormat(NamedTuple):
    f: Tuple[int, ...]          # (f_0, ..., f_n)
    r: Tuple[int, ...]          # (r_1, ..., r_n)
    r0: int
    diagnosis: Optional[str]

    @property
    def valid(self) -> bool:
        return self.diagnosis is None

    @property
    def n(self) -> int:
        return len(self.f) - 1

    @property
    def pqr(self) -> Tuple[int, int, int]:
        if self.n != 3 or not self.valid:
            raise ValueError("pqr defined only for valid length-3 formats")
        r1, r2, r3 = self.r
        return (r1 + 1, r2 - 1, r3 + 1)


def derive_ranks(f: Sequence[int]) -> ResolutionFormat:
    """Solve f_i = r_i + r_{i+1} with r_{n+1} = 0; validity is data."""
    f = tuple(int(x) for x in f)
    if any(x < 1 for x in f):
        raise ValueError("all ranks f_i must be >= 1")
    n = len(f) - 1
    r_rev: List[int] = []
    nxt = 0
    for i in range(n, 0, -1):
        ri = f[i] - nxt
        r_rev.append(ri)
        nxt = ri
    r = tuple(reversed(r_rev))
    r0 = f[0] - r[0]
    diagnosis = None
    for i, ri in enumerate(r, start=1):
        if ri < 1:
            diagnosis = f"r_{i} = {ri} < 1"
            break
    if diagnosis is None and r0 < 0:
        diagnosis = f"r_0 = {r0} < 0"
    return ResolutionFormat(f=f, r=r, r0=r0, diagnosis=diagnosis)


class TpqrClass(NamedTuple):
    kind: str                       # "finite" | "affine" | "indefinite"
    dynkin: Optional[str]           # e.g. "D4", "E8", "A5" (finite only)
    signature: Tuple[int, int, int]  # (n_plus, n_zero, n_minus)

    @property
    def finite(self) -> bool:
        return self.kind == "finite"


def tpqr_cartan_rows(p: int, q: int, r: int) -> List[Dict[int, int]]:
    """Sparse rows of the symmetric generalized Cartan matrix of the star
    graph T_{p,q,r}: row i maps each column j with A[i][j] != 0 to that
    entry, the diagonal 2 included.  Built from the arms in O(n).

    Vertex order (1-based in the docs, 0-based here): u, x_1..x_{p-1},
    y_1..y_{q-1}, z_1..z_{r-1}; u is adjacent to the first vertex of each arm.
    """
    _check_pqr(p, q, r)
    rows: List[Dict[int, int]] = [{0: 2}]
    for arm_len in (p - 1, q - 1, r - 1):
        prev = 0  # u
        for pos in range(len(rows), len(rows) + arm_len):
            rows[prev][pos] = -1
            rows.append({prev: -1, pos: 2})
            prev = pos
    return rows


def tpqr_cartan_matrix(p: int, q: int, r: int) -> List[List[int]]:
    """The dense form of `tpqr_cartan_rows(p, q, r)`."""
    rows = tpqr_cartan_rows(p, q, r)
    A = [[0] * len(rows) for _ in rows]
    for dense, row in zip(A, rows):
        for j, a in row.items():
            dense[j] = a
    return A


# A NamedTuple body cannot define `__new__`, so the fields live on a private
# base and the public class validates its arguments as it is built.
class _TpqrGraph(NamedTuple):
    p: int
    q: int
    r: int


class TpqrGraph(_TpqrGraph):
    """T_{p,q,r}, its vertices indexed in the order of `tpqr_cartan_rows`."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int) -> "TpqrGraph":
        _check_pqr(p, q, r)
        return super().__new__(cls, p, q, r)

    @property
    def n(self) -> int:
        return self.p + self.q + self.r - 2

    @property
    def z1(self) -> int:
        """0-based index of the distinguished vertex z_1."""
        return self.p + self.q - 1

    @property
    def u(self) -> int:
        return 0

    def x(self, i: int) -> int:
        """0-based index of x_i (1 <= i <= p-1)."""
        if not 1 <= i <= self.p - 1:
            raise IndexError(f"x_{i} out of range")
        return i

    def y(self, i: int) -> int:
        if not 1 <= i <= self.q - 1:
            raise IndexError(f"y_{i} out of range")
        return self.p - 1 + i

    def z(self, i: int) -> int:
        if not 1 <= i <= self.r - 1:
            raise IndexError(f"z_{i} out of range")
        return self.p + self.q - 2 + i

    @property
    def vertex_names(self) -> List[str]:
        return ["u"] + [f"{arm}{i}" for arm, k in zip("xyz", self) for i in range(1, k)]

    @property
    def cartan(self) -> List[List[int]]:
        return tpqr_cartan_matrix(self.p, self.q, self.r)

    @property
    def adjacency(self) -> List[List[int]]:
        A = self.cartan
        return [[j for j in range(self.n) if i != j and A[i][j] == -1] for i in range(self.n)]

    @property
    def S(self) -> Tuple[int, ...]:
        """All vertices except z_1."""
        z1 = self.z1
        return tuple(i for i in range(self.n) if i != z1)

    def rho(self) -> Tuple[int, ...]:
        return (1,) * self.n

    def fundamental_weight(self, vertex: int) -> Tuple[int, ...]:
        return tuple(1 if i == vertex else 0 for i in range(self.n))

    def labels_as_dict(self, labels: Sequence[int]) -> Dict[str, int]:
        return dict(zip(self.vertex_names, labels))


def _check_pqr(p: int, q: int, r: int) -> None:
    if p < 2 or q < 1 or r < 2:
        raise ValueError(f"require p >= 2, q >= 1, r >= 2, got {(p, q, r)}")


def symmetric_signature(rows: Sequence[Mapping[int, int]]) -> Tuple[int, int, int]:
    """Signature (n_+, n_0, n_-) of a symmetric n x n matrix A, exactly, by
    peeling leaves of its off-diagonal graph.

    A is given by its n sparse rows: row i maps each column j with
    A[i][j] != 0 to that entry, as `tpqr_cartan_rows` builds them.  Each step
    removes a live row k with at most one live off-diagonal
    nonzero A[k][j] by a congruence.  With no neighbour, A[k][k] gives one
    sign.  With A[k][k] != 0, it gives one sign and the Schur complement
    changes only A[j][j] -= A[k][j]^2 / A[k][k].  With A[k][k] = 0, the block
    on {k, j} has determinant -A[k][j]^2 < 0: one + and one -, both rows go,
    and the rest is unchanged because (K^-1)_jj = A[k][k] / det = 0.  By
    Sylvester's law of inertia the signs counted are the signature.  A live
    diagonal is an integer pair num[j] / den[j] with den[j] > 0; with a = A[k][j]
    and s the sign of num[k], num[j] <- s*(num[j]*num[k] - a^2*den[k]*den[j])
    and den[j] <- s*num[k]*den[j].  A forest, such as a T_{p,q,r} Cartan
    matrix, peels with no fill-in (Parter 1961), so the work is linear in
    the number of nonzero entries.

    The rows are read, not modified.  Each off-diagonal entry is checked
    against its mirror as the peel removes it, so a peel that removes every
    row has checked them all; only a peel that finds a bad entry or stalls
    scans the rows to name it.  Raises ValueError, naming the first entry,
    row by row, that holds a column outside 0..n-1, a zero off the diagonal
    or a value its mirror does not; and, if there is none, when no live row
    is a leaf (the off-diagonal graph has a cycle).
    """
    n = len(rows)
    work = list(map(dict, rows))
    num = [row.pop(i, 0) for i, row in enumerate(work)]
    den = [1] * n
    live = [True] * n
    # A row joins `leaves` once, when it has at most one neighbour left; it
    # can only lose neighbours after that.
    leaves = [k for k, row in enumerate(work) if len(row) < 2]
    plus = zero = minus = 0
    while leaves:
        k = leaves.pop()
        if not live[k]:
            continue
        live[k] = False
        pivot = num[k]
        row = work[k]
        if not row:
            if pivot > 0:
                plus += 1
            elif pivot:
                minus += 1
            else:
                zero += 1
            continue
        ((j, a),) = row.items()
        if not (0 <= j < n and a and work[j].pop(k, None) == a):
            raise ValueError(_entry_error(rows))
        other = work[j]
        if not pivot:
            live[j] = False
            plus += 1
            minus += 1
            for i, b in other.items():
                if not (0 <= i < n and b and work[i].pop(j, None) == b):
                    raise ValueError(_entry_error(rows))
                if len(work[i]) == 1:
                    leaves.append(i)
            continue
        if pivot > 0:
            plus += 1
            num[j] = num[j] * pivot - a * a * den[k] * den[j]
            den[j] *= pivot
        else:
            minus += 1
            num[j] = a * a * den[k] * den[j] - num[j] * pivot
            den[j] *= -pivot
        if len(other) == 1:
            leaves.append(j)
    if any(live):
        error = _entry_error(rows)
        if error:
            raise ValueError(error)
        stuck = [k for k in range(n) if live[k]]
        raise ValueError(f"off-diagonal graph has a cycle: no leaf among rows {stuck}")
    return (plus, zero, minus)


def _entry_error(rows: Sequence[Mapping[int, int]]) -> Optional[str]:
    """The first entry, row by row, that `symmetric_signature` refuses,
    named; None if there is none."""
    n = len(rows)
    for i, row in enumerate(rows):
        for j, a in row.items():
            if not 0 <= j < n:
                return f"column out of range: A[{i}][{j}] in a matrix of {n} rows"
            if not a and j != i:
                return f"a zero is stored off the diagonal: A[{i}][{j}] = {a}"
            if rows[j].get(i) != a:
                return f"matrix is not symmetric: A[{i}][{j}] != A[{j}][{i}]"
    return None


def _finite_dynkin_name(p: int, q: int, r: int) -> str:
    arms = sorted((p, q, r))
    if q == 1:
        return f"A{p + r - 1}"
    if arms[0] == 2 and arms[1] == 2:
        return f"D{arms[2] + 2}"
    if not (arms[0] == 2 and arms[1] == 3 and arms[2] in (3, 4, 5)):
        raise AssertionError(f"T_{(p, q, r)} is not a Dynkin diagram")
    return f"E{arms[2] + 3}"


def tpqr_kind(p: int, q: int, r: int) -> str:
    """"finite", "affine" or "indefinite": the case-list rule, 1/p + 1/q + 1/r
    against 1, in O(1).  Every finite-type decision reads this; `classify`
    also checks it against the signature."""
    _check_pqr(p, q, r)
    # 1/p + 1/q + 1/r against 1, times pqr.
    harmonic, one = q * r + p * r + p * q, p * q * r
    return "finite" if harmonic > one else "affine" if harmonic == one else "indefinite"


def classify(p: int, q: int, r: int) -> TpqrClass:
    """Type of T_{p,q,r}, computed two independent ways which must agree.

    Path 1: the case-list rule of `tpqr_kind`.
    Path 2: exact signature of the symmetric Cartan matrix, peeled from
    its sparse rows (`tpqr_cartan_rows`) with no dense matrix formed.
    Run it where a class is printed; a finite-type test reads `tpqr_kind`.
    """
    kind = tpqr_kind(p, q, r)
    n = p + q + r - 2
    dynkin = _finite_dynkin_name(p, q, r) if kind == "finite" else None
    expected = {"finite": (n, 0, 0), "affine": (n - 1, 1, 0), "indefinite": (n - 1, 0, 1)}[kind]
    try:
        sig = symmetric_signature(tpqr_cartan_rows(p, q, r))
    except ValueError as exc:  # only a broken Cartan builder gets here
        raise AssertionError(f"{_mismatch(p, q, r, kind)}, signature refused: {exc}") from exc
    if sig != expected:
        raise AssertionError(f"{_mismatch(p, q, r, kind)}, signature is {sig}")
    return TpqrClass(kind, dynkin, sig)


def _mismatch(p: int, q: int, r: int, kind: str) -> str:
    return f"classification mismatch for T_{(p, q, r)}: case list says {kind}"


def noetherian_generic_ring(fmt: ResolutionFormat) -> bool:
    """The generic ring attached to a valid length-3 format is Noetherian
    exactly when the associated graph is a Dynkin diagram (finite type),
    read from the case list (`tpqr_kind`) with no signature."""
    if not fmt.valid or fmt.n != 3:
        raise ValueError("requires a valid length-3 format")
    return tpqr_kind(*fmt.pqr) == "finite"


def cyclic_exists(n_param: int, l_param: int) -> bool:
    """Existence predicate for cyclic modules with (n, l) parameters.

    True on the proven region: (l >= 3 and n >= 2) or (n = 1 and l even > 0).
    Other parameter pairs are not covered by the theorem and return False.
    """
    if n_param < 1 or l_param < 1:
        raise ValueError("parameters must be positive")
    if l_param >= 3 and n_param >= 2:
        return True
    if n_param == 1 and l_param % 2 == 0:
        return True
    return False


def format_exists(f: Sequence[int]) -> bool:
    """Whether a length-3 format can be the format of a minimal free
    resolution over a local ring: the Euler characteristic vanishes, the
    ranks are valid and r_2 > 1.

    r_2 = 1 is impossible, by the first structure theorem (Buchsbaum-Eisenbud,
    Adv. Math. 12, 1974) and Nakayama's lemma.  The resolution need not be
    of a perfect ideal: (1, 4, 4, 1) is realized by two skew lines in P^3,
    although a Gorenstein ideal of grade 3 has an odd number of generators
    (Buchsbaum-Eisenbud, Amer. J. Math. 99, 1977).  The converse, that every
    format passing these tests is realized, is not certified in the package.
    """
    fmt = derive_ranks(f)
    if fmt.n != 3:
        raise ValueError("length-3 formats only")
    euler = fmt.f[0] - fmt.f[1] + fmt.f[2] - fmt.f[3]
    if euler != 0:
        return False
    if not fmt.valid:
        return False
    return fmt.r[1] > 1
