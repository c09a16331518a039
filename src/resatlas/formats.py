"""Resolution formats, derived map ranks, and T_{p,q,r} classification.

A *format* is the rank vector (f_0, ..., f_n) of a length-n free complex.
The derived ranks r_i are the expected ranks of the differentials, determined
by r_{n+1} = 0 and r_i = f_i - r_{i+1}.  Valid length-3 formats correspond to
star graphs T_{p,q,r} via p = r_1 + 1, q = r_2 - 1, r = r_3 + 1; the graph's
type (finite/affine/indefinite) controls the structure theory downstream.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple


class ResolutionFormat(NamedTuple):
    f: Tuple[int, ...]          # (f_0, ..., f_n)
    r: Tuple[int, ...]          # (r_1, ..., r_n)
    r0: int
    valid: bool
    diagnosis: Optional[str]

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
    return ResolutionFormat(f=f, r=r, r0=r0, valid=diagnosis is None, diagnosis=diagnosis)


class TpqrClass(NamedTuple):
    kind: str                       # "finite" | "affine" | "indefinite"
    dynkin: Optional[str]           # e.g. "D4", "E8", "A5" (finite only)
    signature: Tuple[int, int, int]  # (n_plus, n_zero, n_minus)

    @property
    def finite(self) -> bool:
        return self.kind == "finite"


def tpqr_cartan_matrix(p: int, q: int, r: int) -> List[List[int]]:
    """Symmetric generalized Cartan matrix of the star graph T_{p,q,r}.

    Vertex order (1-based in the docs, 0-based here): u, x_1..x_{p-1},
    y_1..y_{q-1}, z_1..z_{r-1}; u is adjacent to the first vertex of each arm.
    """
    _check_pqr(p, q, r)
    n = p + q + r - 2
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2

    def link(i: int, j: int) -> None:
        A[i][j] = A[j][i] = -1

    arms = [p - 1, q - 1, r - 1]
    pos = 1
    for arm_len in arms:
        prev = 0  # u
        for k in range(arm_len):
            link(prev, pos)
            prev = pos
            pos += 1
    return A


def _check_pqr(p: int, q: int, r: int) -> None:
    if p < 2 or q < 1 or r < 2:
        raise ValueError(f"require p >= 2, q >= 1, r >= 2, got {(p, q, r)}")


def symmetric_signature(A: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """Signature (n_+, n_0, n_-) of a symmetric matrix, exactly, by peeling
    leaves of its off-diagonal graph.

    Each step removes a live row k with at most one live off-diagonal
    nonzero A[k][j] by a congruence.  With no neighbour, A[k][k] gives one
    sign.  With A[k][k] != 0, it gives one sign and the Schur complement
    changes only A[j][j] -= A[k][j]^2 / A[k][k].  With A[k][k] = 0, the block
    on {k, j} has determinant -A[k][j]^2 < 0: one + and one -, both rows go,
    and the rest is unchanged because (K^-1)_jj = A[k][k] / det = 0.  By
    Sylvester's law of inertia the signs counted are the signature.  A live
    diagonal is an integer pair num[j] / den[j] with den[j] > 0; with a = A[k][j]
    and s the sign of num[k], num[j] <- s*(num[j]*num[k] - a^2*den[k]*den[j])
    and den[j] <- s*num[k]*den[j].  A forest, such as a T_{p,q,r} Cartan
    matrix, peels with no fill-in (Parter 1961).

    Raises ValueError if A is not square or not symmetric, or if no live row
    is a leaf (the off-diagonal graph has a cycle).
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError(f"matrix is not square: {n} rows, row lengths {[len(row) for row in A]}")
    rows = [dict(filter(itemgetter(1), enumerate(row))) for row in A]
    for i, row in enumerate(rows):
        for j, a in row.items():
            if rows[j].get(i, 0) != a:
                raise ValueError(f"matrix is not symmetric: A[{i}][{j}] != A[{j}][{i}]")
    num = [row.pop(i, 0) for i, row in enumerate(rows)]
    den = [1] * n
    live = [True] * n
    leaves = [k for k in range(n) if len(rows[k]) <= 1]
    plus = zero = minus = 0
    while leaves:
        k = leaves.pop()
        if not live[k] or len(rows[k]) > 1:
            continue
        live[k] = False
        pivot = num[k]
        if rows[k] and not pivot:
            (j,) = rows[k]
            live[j] = False
            plus += 1
            minus += 1
            for i in rows[j]:
                if i != k:
                    del rows[i][j]
                    leaves.append(i)
            continue
        if pivot > 0:
            plus += 1
        elif pivot:
            minus += 1
        else:
            zero += 1
        s = 1 if pivot > 0 else -1
        for j, a in rows[k].items():
            del rows[j][k]
            num[j] = s * (num[j] * pivot - a * a * den[k] * den[j])
            den[j] *= s * pivot
            leaves.append(j)
    if any(live):
        stuck = [k for k in range(n) if live[k]]
        raise ValueError(f"off-diagonal graph has a cycle: no leaf among rows {stuck}")
    return (plus, zero, minus)


def _finite_dynkin_name(p: int, q: int, r: int) -> str:
    arms = sorted((p, q, r))
    if q == 1:
        return f"A{p + r - 1}"
    if arms[0] == 2 and arms[1] == 2:
        return f"D{arms[2] + 2}"
    if not (arms[0] == 2 and arms[1] == 3 and arms[2] in (3, 4, 5)):
        raise AssertionError(f"T_{(p, q, r)} is not a Dynkin diagram")
    return f"E{arms[2] + 3}"


def classify(p: int, q: int, r: int) -> TpqrClass:
    """Type of T_{p,q,r}, computed two independent ways which must agree.

    Path 1: harmonic-sum / case-list rule (1/p + 1/q + 1/r vs 1).
    Path 2: exact signature of the symmetric Cartan matrix.
    """
    _check_pqr(p, q, r)
    n = p + q + r - 2
    # 1/p + 1/q + 1/r against 1, times pqr.
    harmonic, one = q * r + p * r + p * q, p * q * r
    if harmonic > one:
        kind, dynkin = "finite", _finite_dynkin_name(p, q, r)
    elif harmonic == one:
        kind, dynkin = "affine", None
    else:
        kind, dynkin = "indefinite", None

    mismatch = f"classification mismatch for T_{(p, q, r)}: case list says {kind}"
    try:
        sig = symmetric_signature(tpqr_cartan_matrix(p, q, r))
    except ValueError as exc:  # only a broken Cartan builder gets here
        raise AssertionError(f"{mismatch}, signature refused: {exc}") from exc
    expected = {"finite": (n, 0, 0), "affine": (n - 1, 1, 0), "indefinite": (n - 1, 0, 1)}[kind]
    if sig != expected:
        raise AssertionError(f"{mismatch}, signature is {sig}")
    return TpqrClass(kind=kind, dynkin=dynkin, signature=sig)


def classify_format(fmt: ResolutionFormat) -> TpqrClass:
    return classify(*fmt.pqr)


def noetherian_generic_ring(fmt: ResolutionFormat) -> bool:
    """The generic ring attached to a valid length-3 format is Noetherian
    exactly when the associated graph is a Dynkin diagram (finite type)."""
    if not fmt.valid or fmt.n != 3:
        raise ValueError("requires a valid length-3 format")
    return classify_format(fmt).finite


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
    """A resolution with this length-3 format exists iff the Euler
    characteristic vanishes and r_2 > 1."""
    fmt = derive_ranks(f)
    if fmt.n != 3:
        raise ValueError("length-3 formats only")
    euler = fmt.f[0] - fmt.f[1] + fmt.f[2] - fmt.f[3]
    if euler != 0:
        return False
    if not fmt.valid:
        return False
    return fmt.r[1] > 1
