"""Partitions, GL-weights, and Schur-functor dimension calculus.

A GL(n) dominant weight is a weakly decreasing integer tuple of length n
(negative entries allowed: rational representations).  Dimensions come from
the Weyl dimension formula for GL, which is exact for any dominant weight.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterator, Sequence, Tuple

from .formats import TpqrGraph


def is_dominant(w: Sequence[int]) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def partitions_bounded(max_parts: int, max_size: int) -> Iterator[Tuple[int, ...]]:
    """All partitions with at most `max_parts` parts and |lambda| <= max_size,
    emitted in increasing size then lexicographic order."""

    def gen(remaining: int, parts_left: int, cap: int) -> Iterator[Tuple[int, ...]]:
        yield ()
        if parts_left == 0 or remaining == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    seen = sorted(set(gen(max_size, max_parts, max_size)), key=lambda p: (sum(p), p))
    return iter(seen)


def schur_dim(w: Sequence[int], n: int) -> int:
    """dim of the irreducible GL(n) representation with highest weight w."""
    w = tuple(w)
    if len(w) != n:
        raise ValueError(f"weight length {len(w)} != n = {n}")
    if not is_dominant(w):
        raise ValueError(f"non-dominant weight {w}")
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        g = gcd(num, den)
        raise AssertionError(f"GL({n}) weight {w}: Weyl dimension {num // g}/{den // g} is not an integer")
    return dim


def g2_dim_formula(p: int, q: int, r: int) -> int:
    """Dimension of the second graded piece of the defect algebra.

    Computed from the two plethysm kernels at dimension level:
    C(r-1,2)*[C(N+1,2) - dim S_{2^p}] + C(r,2)*[C(N,2) - dim S_{2^{p-1},1,1}]
    with N = C(p+q, p) and Schur dimensions over rank p+q.
    """
    TpqrGraph(p, q, r)  # refuses a short arm
    n = p + q
    N = comb(n, p)

    def padded(parts: Sequence[int]) -> Tuple[int, ...]:
        return tuple(parts) + (0,) * (n - len(parts))

    sym_kernel = comb(N + 1, 2) - schur_dim(padded([2] * p), n)
    ext_kernel = comb(N, 2) - schur_dim(padded([2] * (p - 1) + [1, 1]), n)
    return comb(r - 1, 2) * sym_kernel + comb(r, 2) * ext_kernel


def g1_dim_formula(p: int, q: int, r: int) -> int:
    """Dimension of the first graded piece: C^{r-1} tensor Lambda^p C^{p+q}."""
    TpqrGraph(p, q, r)  # refuses a short arm
    return (r - 1) * comb(p + q, p)
