"""Exact arithmetic kernel: sparse integer polynomials and exact matrices.

Coefficients, points and numeric entries are Python ints (arbitrary
precision).  `ring(names)` makes the variables of one polynomial ring; a
polynomial is a sparse dict keyed by packed monomials plus its ring's names,
so its printed term order depends on its ring alone, never on what else the
process built.  Matrices support fraction-free elimination, symbolic
determinants and rank at integer specializations.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import compress
from math import prod
from operator import or_
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

# A monomial of a ring of n names is one int of `_BITS`-wide fields: field
# n - 1 - i holds the exponent of the ring's i-th name and the top field, n,
# the total degree, so the product of two monomials is their sum and int
# order is graded lexicographic order, degree first and then the exponents
# in name order (Monagan and Pearce, "Sparse polynomial multiplication and
# division in Maple 14", ISSAC 2009); 0 is the monomial 1.  No exponent
# exceeds the total degree, so while every degree stays below
# `DEGREE_LIMIT` no field carries into the next one.  Every add, hash and
# dict probe in `_mac` costs in proportion to the width of the monomial, so
# fields are one byte: a product of degree 2**8 raises OverflowError, and
# the complex builders refuse, with a ValueError, a family member whose
# d . d products would reach that degree.  Printing, evaluation and
# `variables` read the fields as the bytes of the int, one field per byte,
# so they hold only for 8-bit fields.
_BITS = 8
if _BITS != 8:
    raise ImportError("exact reads one monomial field per byte; _BITS must be 8")
DEGREE_LIMIT = 1 << _BITS
# The largest symbolic determinant `ExactMatrix.det` expands (n x n).
SYMBOLIC_DET_LIMIT = 8


def _mac(out: Dict[int, int], a: Mapping[int, int], b: Mapping[int, int], sign: int) -> None:
    """Multiply-accumulate sign * a * b into the terms dict `out`, zeros included."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ma, ca in a.items():
        ca *= sign
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb


Products = List[Tuple[Mapping[int, int], Mapping[int, int], int]]


def _sum_products(pairs: Products, n: int) -> Dict[int, int]:
    """The terms dict of the sum of sign * a * b over the (a, b, sign)
    pairs of monomials of a ring of n names, every pair accumulated into one
    dict, zeros included.  Raises OverflowError if a term product reaches
    degree `DEGREE_LIMIT`: its fields may have carried, but carries only
    add, so its key's top field reads at least that degree, and the key
    stays in the dict even when its coefficient cancels to 0."""
    out: Dict[int, int] = {}
    for a, b, sign in pairs:
        _mac(out, a, b, sign)
    if out and max(out) >> _BITS * n >= DEGREE_LIMIT:
        raise OverflowError(f"monomial degree reached 2**{_BITS}")
    return out


class _Values(dict):
    """The values at one point of the half monomials of one ring, each
    computed when first met.  A half is a monomial with its degree field
    and either its high fields (mask `low`) or its low fields (mask `high`)
    cleared; byte i of its n big-endian bytes is the exponent of names[i],
    whose coordinate is vals[i], or None if the point has no such name."""

    __slots__ = ("names", "vals", "low", "high")

    def __missing__(self, half: int) -> int:
        exps = half.to_bytes(len(self.vals), "big")
        try:
            value = self[half] = prod(map(pow, compress(self.vals, exps), compress(exps, exps)))
        except TypeError:
            name = next(n for n, x, e in zip(self.names, self.vals, exps) if e and x is None)
            raise KeyError(f"missing variable {name!r}") from None
        return value


def _values(names: Tuple[str, ...], point: Mapping[str, int]) -> _Values:
    """The `_Values` of a ring at a point.  The high half holds the fields
    of the first ceil(n/2) names, the low half the rest: across the terms of
    a matrix the halves repeat far more than whole monomials do.  The halves
    of no name and of one name to the first power are filled at once."""
    n = len(names)
    vals = [point.get(name) for name in names]
    out = _Values({1 << _BITS * (n - 1 - i): x for i, x in enumerate(vals) if x is not None})
    out[0] = 1
    shift = _BITS * (n // 2)
    out.names, out.vals = names, vals
    out.low = (1 << shift) - 1
    out.high = (1 << _BITS * n) - (1 << shift)
    return out


def _ring(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """The names of a result whose operands have the names a and b; a
    constant's () fits any ring."""
    if a is b or not b:
        return a
    if not a or a == b:
        return b
    raise ValueError(f"operands from two rings: {a} and {b}")


def ring(names: Iterable[str]) -> List["MPoly"]:
    """The variables of one polynomial ring, in the order of `names`.  That
    order fixes their monomial fields, and so the printed term order of
    every polynomial in the ring.  A repeated name raises ValueError."""
    names = tuple(names)
    repeated = sorted(name for name, k in Counter(names).items() if k > 1)
    if repeated:
        raise ValueError(f"a ring names each variable once; repeated: {', '.join(repeated)}")
    n = len(names)
    return [MPoly({1 << _BITS * n | 1 << _BITS * (n - 1 - i): 1}, names) for i in range(n)]


class MPoly:
    """Sparse multivariate polynomial over the integers.

    Terms are stored in a dict mapping packed monomial -> nonzero int
    coefficient, and `names` names the variables of the polynomial's ring:
    field n - 1 - i of a monomial is the exponent of names[i], and its top
    field, n, its total degree.  A constant's
    names are (), and it fits any ring; an arithmetic result takes the
    names its operands share, and operands from two rings raise ValueError.
    Two polynomials are equal iff their term dicts are equal and they are
    constants or share a ring (canonical form: no zero coefficients are
    ever stored).
    """

    __slots__ = ("terms", "names")

    def __init__(self, terms: Mapping[int, int] | None = None, names: Tuple[str, ...] = ()) -> None:
        self.terms: Dict[int, int] = {m: c for m, c in terms.items() if c} if terms else {}
        self.names = names

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> "MPoly":
        return MPoly({0: c} if c else {})

    @staticmethod
    def coerce(value: "MPoly | int") -> "MPoly":
        if isinstance(value, MPoly):
            return value
        if isinstance(value, int):
            return MPoly.const(value)
        raise TypeError(f"cannot coerce {type(value)!r} to MPoly")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max(self.terms, default=0) >> _BITS * len(self.names)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MPoly | int") -> "MPoly":
        other = MPoly.coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        result = MPoly()
        result.terms = out
        result.names = _ring(self.names, other.names)
        return result

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self.terms.items()}, self.names)

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        return self + (-MPoly.coerce(other))

    def __rsub__(self, other: int) -> "MPoly":
        return MPoly.coerce(other) + (-self)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        other = MPoly.coerce(other)
        names = _ring(self.names, other.names)
        return MPoly(_sum_products([(self.terms, other.terms, 1)], len(names)), names)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        # An int equals a polynomial only as its constant.
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        terms = self.terms
        return terms == other.terms and (self.names == other.names or not terms.keys() - {0})

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it hashes as that int.
        terms = self.terms
        if not terms.keys() - {0}:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Graded lexicographic: total degree first, then exponents in the
        # order of the ring's names (a higher exponent on an earlier variable
        # sorts first), which is int order of the monomials, highest first;
        # they are distinct, so the sort never compares coefficients.  Byte
        # 0 of a monomial's n + 1 big-endian bytes is its degree and byte
        # i + 1 the exponent of names[i].
        names = self.names
        width = len(names) + 1
        pieces = []
        for m, coeff in sorted(self.terms.items(), reverse=True):
            exps = m.to_bytes(width, "big")[1:]
            factors = list(compress(names, exps))
            if exps.translate(None, b"\0\1"):
                factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(factors, filter(None, exps))]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            if pieces:
                pieces.append(" - " if coeff < 0 else " + ")
            elif coeff < 0:
                pieces.append("-")
            pieces.append(body)
        return "".join(pieces)

    __repr__ = __str__


Entry = Union[int, MPoly]


def variables(entries: Iterable[Entry]) -> List[str]:
    """The names of the variables occurring in the entries, sorted; an int
    entry has none, and entries from two rings raise ValueError.  Seeded
    points draw one coordinate per name in this order, which is not ring
    order, and X10 sorts before X2."""
    polys = [e for e in entries if isinstance(e, MPoly)]
    names = reduce(_ring, (p.names for p in polys), ())
    # A field of the OR of every monomial is nonzero iff some entry has
    # that variable.
    support = reduce(or_, (m for p in polys for m in p.terms), 0)
    return sorted(compress(names, support.to_bytes(len(names) + 1, "big")[1:]))


def _terms(e: Entry) -> Mapping[int, int]:
    return e.terms if isinstance(e, MPoly) else {0: e} if e else {}


def _kind(pairs: Iterable[Tuple[Entry, Entry]]) -> Tuple[str, ...] | None:
    """The names of the sum of a * b over the pairs, as a running sum from
    int 0 would give it, or None if that sum is an int: pairs with an int 0
    factor are skipped, and a product with an MPoly factor is an MPoly."""
    names = None
    for pair in pairs:
        a, b = pair
        if isinstance(a, int) and not a or isinstance(b, int) and not b:
            continue
        for e in pair:
            if isinstance(e, MPoly):
                names = e.names if names is None else _ring(names, e.names)
    return names


def _expand(
    entries: List[List[MPoly]], names: Tuple[str, ...], cache: Dict[Tuple[int, Tuple[int, ...]], MPoly],
    row: int, cols: Tuple[int, ...],
) -> MPoly:
    """The minor of `entries` on the rows from `row` on and the columns
    `cols`, by Laplace expansion along its first row, each minor once in
    `cache`.  It recurses through the module, not a closure, so a
    determinant leaves no reference cycle and its minors are freed when it
    returns."""
    if not cols:
        return MPoly.const(1)
    key = (row, cols)
    hit = cache.get(key)
    if hit is not None:
        return hit
    products: Products = []
    for pos, j in enumerate(cols):
        coeff = entries[row][j]
        if coeff.is_zero():
            continue
        rest = _expand(entries, names, cache, row + 1, cols[:pos] + cols[pos + 1 :])
        products.append((coeff.terms, rest.terms, -1 if pos % 2 else 1))
    acc = MPoly(_sum_products(products, len(names)), names)
    cache[key] = acc
    return acc


class ExactMatrix:
    """Dense matrix with exact entries (int or MPoly)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Entry]]) -> None:
        self.data: List[List[Entry]] = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    def is_numeric(self) -> bool:
        return all(isinstance(e, int) for row in self.data for e in row)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        raise TypeError("unhashable")

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entry (i, j) is the sum of a * b over the pairs (self[i][t],
        other[t][j]), as a running sum from int 0 would give it, skipping
        pairs with an int 0 factor: an int if every product is of ints, else
        an MPoly.  Each entry is one `_sum_products` over its own pairs, so
        an entry one of whose term products reaches degree `DEGREE_LIMIT`
        raises OverflowError, even if those products cancel."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left = [[_terms(e) for e in row] for row in self.data]
        right = [[_terms(e) for e in row] for row in other.data]
        columns = [[row[j] for row in other.data] for j in range(other.cols)]
        out = []
        for row, row_terms in zip(self.data, left):
            new_row: List[Entry] = []
            for j, col in enumerate(columns):
                names = _kind(zip(row, col))
                pairs: Products = [(a, right[t][j], 1) for t, a in enumerate(row_terms) if a and right[t][j]]
                terms = _sum_products(pairs, len(names or ()))
                new_row.append(terms.get(0, 0) if names is None else MPoly(terms, names))
            out.append(new_row)
        return ExactMatrix(out)

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    # -- determinants ------------------------------------------------------

    def det(self) -> Entry:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        if self.is_numeric():
            return _int_det([list(row) for row in self.data])
        return self._det_expansion()

    def _det_expansion(self) -> MPoly:
        n = self.rows
        if n > SYMBOLIC_DET_LIMIT:
            raise ValueError(f"symbolic determinant limited to {SYMBOLIC_DET_LIMIT}x{SYMBOLIC_DET_LIMIT}")
        entries = [[MPoly.coerce(e) for e in row] for row in self.data]
        names = reduce(_ring, (e.names for row in entries for e in row), ())
        return _expand(entries, names, {}, 0, tuple(range(n)))

    def minor(self, rows: Iterable[int], cols: Iterable[int]) -> Entry:
        rows = sorted(rows)
        cols = sorted(cols)
        if len(rows) != len(cols):
            raise ValueError("minor needs equally many rows and columns")
        for i in rows:
            if not 0 <= i < self.rows:
                raise IndexError(f"row {i} out of range")
        for j in cols:
            if not 0 <= j < self.cols:
                raise IndexError(f"col {j} out of range")
        m = [[self.data[i][j] for j in cols] for i in rows]
        if all(isinstance(e, int) for row in m for e in row):
            return _int_det(m)
        return ExactMatrix(m).det()

    # -- rank --------------------------------------------------------------

    def rank(self) -> int:
        """Rank over the rationals (int entries only)."""
        if not self.is_numeric():
            raise ValueError("rank requires numeric entries; substitute a point first")
        return _bareiss([list(row) for row in self.data])[0]

    def substitute(self, assignment: Mapping[str, int]) -> "ExactMatrix":
        """Every entry evaluated at a full integer point, as an int.  Every
        coordinate must be an int, so Bareiss's exact division never meets
        a rational entry."""
        for name, value in assignment.items():
            if not isinstance(value, int):
                raise TypeError(f"coordinate {name!r} is {value!r}, not an int")
        # A term's value is the product of the values of its two halves.
        # The entries of one ring share one `_Values`; a constant (names ())
        # evaluates to its coefficient under any ring.
        names = None
        out = []
        for i, row in enumerate(self.data):
            new_row: List[Entry] = []
            for j, e in enumerate(row):
                if isinstance(e, MPoly):
                    if e.names is not names and (e.names or names is None):
                        names = e.names
                        values = _values(names, assignment)
                        low, high = values.low, values.high
                    total = 0
                    try:
                        for m, c in e.terms.items():
                            total += c * values[m & low] * values[m & high]
                    except KeyError as err:
                        raise KeyError(f"{err.args[0]} in entry ({i}, {j})") from None
                    e = total
                new_row.append(e)
            out.append(new_row)
        return ExactMatrix(out)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.data) + "]"

    __repr__ = __str__


def _int_det(m: List[List[int]]) -> int:
    """The determinant of the square matrix with the int rows `m`, which
    Bareiss overwrites."""
    rank, sign, last = _bareiss(m)
    return sign * last if rank == len(m) else 0


def _bareiss(m: List[List[int]]) -> Tuple[int, int, int]:
    """Fraction-free Bareiss elimination (Bareiss, Math. Comp. 1968) on the
    rows `m` of integer entries, in place: the rank, the sign of the row
    swaps, and the last pivot.  After k pivots every live entry is a
    (k+1)-minor of the matrix, so each division by the previous pivot is
    exact, also past a skipped column."""
    rows, cols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        pivot = rank
        while pivot < rows and not m[pivot][col]:
            pivot += 1
        if pivot == rows:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        pv = top[col]
        for i in range(rank + 1, rows):
            row = m[i]
            rc = row[col]
            for j in range(col + 1, cols):
                row[j] = (row[j] * pv - rc * top[j]) // prev
        prev = pv
        rank += 1
        if rank == rows:
            break
    return rank, sign, prev


def seeded_random_point(seed: int, variables: Sequence[str]) -> Dict[str, int]:
    """Deterministic integer point: coordinates drawn from [-1000, 1000],
    one per name in the order of `variables`."""
    rng = random.Random(seed)
    return {name: rng.randint(-1000, 1000) for name in variables}
