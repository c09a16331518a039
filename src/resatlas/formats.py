"""Resolution formats, derived map ranks, and T_{p,q,r} classification.

A *format* is the rank vector (f_0, ..., f_n) of a length-n free complex.
The derived ranks r_i are the expected ranks of the differentials, determined
by r_{n+1} = 0 and r_i = f_i - r_{i+1}.  Valid length-3 formats correspond to
star graphs T_{p,q,r} via p = r_1 + 1, q = r_2 - 1, r = r_3 + 1; the graph's
type (finite/affine/indefinite) controls the structure theory downstream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class ResolutionFormat:
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


@dataclass(frozen=True)
class TpqrClass:
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
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

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
    """Signature (n_+, n_0, n_-) of a symmetric matrix, exactly.

    Sparse minimum-degree congruence (LDL^T) elimination over the rationals.
    Each row is a ``{col: value}`` dict of its nonzero entries (the input's
    integers until an update makes them Fractions).  Each step
    eliminates the live row with a nonzero diagonal and the fewest nonzeros
    (ties to the lowest index), updating only its neighbours by the Schur
    complement m[i][j] -= m[i][k] m[k][j] / m[k][k].  On a tree that order
    eliminates leaves first with zero fill-in (Parter 1961), so a T_{p,q,r}
    Cartan matrix costs O(n).  When every live diagonal is zero, the lowest
    live row either is empty (one zero eigenvalue) or gets a neighbour's row
    and column added to it, which makes its diagonal nonzero.  Every step is
    a congruence, so by Sylvester's law of inertia the signs of the pivots
    give the signature of A.

    Raises ValueError if A is not square or not symmetric.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError(f"matrix is not square: {n} rows, row lengths {[len(row) for row in A]}")
    rows = [{j: a for j, a in enumerate(row) if a} for row in A]
    for i, row in enumerate(rows):
        for j, a in row.items():
            if rows[j].get(i, 0) != a:
                raise ValueError(f"matrix is not symmetric: A[{i}][{j}] != A[{j}][{i}]")
    live = set(range(n))
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    plus = zero = minus = 0
    while live:
        k = _min_degree_pivot(rows, live, heap)
        if k is None:
            k = min(live)
            if not rows[k]:
                zero += 1
                live.remove(k)
                continue
            for i in _add_neighbour_to_row(rows, k, min(rows[k])):
                heapq.heappush(heap, (len(rows[i]), i))
            continue
        row = rows[k]
        pivot = row.pop(k)
        live.remove(k)
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for i, a in row.items():
            ri = rows[i]
            del ri[k]
            for j, b in row.items():
                v = ri.get(j, 0) - Fraction(a * b, pivot)
                if v:
                    ri[j] = v
                else:
                    ri.pop(j, None)
            heapq.heappush(heap, (len(ri), i))
    return (plus, zero, minus)


def _min_degree_pivot(
    rows: List[Dict[int, Fraction]], live: Set[int], heap: List[Tuple[int, int]]
) -> Optional[int]:
    """Pop the live row with a nonzero diagonal and the fewest nonzeros.

    The heap holds a (degree, index) entry for every row as it was after each
    change to it; entries that no longer match their row are dropped.
    """
    while heap:
        degree, k = heapq.heappop(heap)
        row = rows[k]
        if k in live and k in row and len(row) == degree:
            return k
    return None


def _add_neighbour_to_row(rows: List[Dict[int, Fraction]], k: int, off: int) -> Set[int]:
    """Add row and column `off` to row and column `k` (a congruence).

    Returns the indices of the rows that changed.
    """
    old = rows[k]
    new = dict(old)
    for j, a in rows[off].items():
        new[j] = new.get(j, 0) + a
    new[k] = new.get(k, 0) + new.get(off, 0)
    new = {j: a for j, a in new.items() if a}
    rows[k] = new
    changed = old.keys() | new.keys()
    for j in changed - {k}:
        if j in new:
            rows[j][k] = new[j]
        else:
            rows[j].pop(k, None)
    return changed | {k}


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
    harmonic = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
    if harmonic > 1:
        kind, dynkin = "finite", _finite_dynkin_name(p, q, r)
    elif harmonic == 1:
        kind, dynkin = "affine", None
    else:
        kind, dynkin = "indefinite", None

    sig = symmetric_signature(tpqr_cartan_matrix(p, q, r))
    expected = {
        "finite": (n, 0, 0),
        "affine": (n - 1, 1, 0),
        "indefinite": (n - 1, 0, 1),
    }[kind]
    if sig != expected:
        raise AssertionError(
            f"classification mismatch for T_{(p, q, r)}: case list says {kind}, signature is {sig}"
        )
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
