"""Multiplicity-free decompositions attached to a length-3 format.

The central objects are indexed by sextuples mu = (a, b, c, alpha, beta,
gamma) with b, c natural numbers and alpha, beta, gamma partitions with at
most r_3-1, r_2-1, r_1-1 parts.  Each sextuple produces a quadruple of
GL-weights on F_3, F_2, F_1, F_0, and — through the lambda-dictionary — a
weight of the star graph T_{p,q,r}.  Everything here is exact enumeration
and bookkeeping; no ring structure is modeled.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .formats import ResolutionFormat, TpqrGraph
from .kacmoody import bgg_initial_terms
from .schur import is_dominant, partitions_bounded

Weight = Tuple[int, ...]


class MuIndex(NamedTuple):
    a: int
    b: int
    c: int
    alpha: Tuple[int, ...] = ()
    beta: Tuple[int, ...] = ()
    gamma: Tuple[int, ...] = ()

    def total(self) -> int:
        return self.a + self.b + self.c + sum(self.alpha) + sum(self.beta) + sum(self.gamma)

    def sort_key(self):
        return (self.total(), self.a, self.b, self.c, self.alpha, self.beta, self.gamma)


def _check_mu(mu: MuIndex, fmt: ResolutionFormat) -> None:
    if fmt.n != 3:
        raise ValueError("length-3 formats only")
    r1, r2, r3 = fmt.r
    if mu.b < 0 or mu.c < 0:
        raise ValueError("b, c must be nonnegative")
    for name, part, bound in (("alpha", mu.alpha, r3 - 1), ("beta", mu.beta, r2 - 1), ("gamma", mu.gamma, r1 - 1)):
        if len(part) > bound:
            raise ValueError(f"{name} has {len(part)} parts, at most {bound} allowed")
        if any(part[i] < part[i + 1] for i in range(len(part) - 1)) or any(x < 0 for x in part):
            raise ValueError(f"{name} is not a partition: {part}")


def _padded(part: Sequence[int], length: int) -> Tuple[int, ...]:
    return tuple(part) + (0,) * (length - len(part))


class GLWeightQuadruple(NamedTuple):
    """Weights on F_3, F_2, F_1, F_0 (in that order)."""

    w3: Weight
    w2: Weight
    w1: Weight
    w0: Weight

    @property
    def dominant(self) -> bool:
        return all(map(is_dominant, self))


def ra_component(mu: MuIndex, fmt: ResolutionFormat) -> GLWeightQuadruple:
    """The GL-weight quadruple of the component of R_a indexed by mu.

    w3 = (A+alpha_1, ..., A+alpha_{r3-1}, A)                    with A = a-b+c,
    w2 = (B+beta_1, ..., B+beta_{r2-1}, B, -A, -A-alpha_{r3-1}, ..., -A-alpha_1)
                                                                with B = b-c,
    w1 = (c+gamma_1, ..., c+gamma_{r1-1}, c, c-b, c-b-beta_{r2-1}, ..., c-b-beta_1),
    w0 = (0^{r0}, -c, -c-gamma_{r1-1}, ..., -c-gamma_1).
    """
    _check_mu(mu, fmt)
    r1, r2, r3 = fmt.r
    r0 = fmt.r0
    a, b, c = mu.a, mu.b, mu.c
    al = _padded(mu.alpha, r3 - 1)
    be = _padded(mu.beta, r2 - 1)
    ga = _padded(mu.gamma, r1 - 1)
    A = a - b + c
    B = b - c
    w3 = tuple(A + x for x in al) + (A,)
    w2 = tuple(B + x for x in be) + (B, -A) + tuple(-A - x for x in reversed(al))
    w1 = tuple(c + x for x in ga) + (c, c - b) + tuple(c - b - x for x in reversed(be))
    w0 = (0,) * r0 + (-c,) + tuple(-c - x for x in reversed(ga))
    quad = GLWeightQuadruple(w3=w3, w2=w2, w1=w1, w0=w0)
    # Given naturals b, c and partitions, weak decrease of all four weights is
    # equivalent to a >= 0 (the only cross-block comparison that can fail is
    # B >= -A inside w2, i.e. a >= 0).
    if quad.dominant != (a >= 0):
        raise AssertionError(
            f"{tuple(fmt.f)} R_a component of {mu}: dominance {quad.dominant} "
            f"disagrees with a = {a} >= 0 ({tuple(quad)})"
        )
    return quad


def ra_general_component(
    x: Sequence[int], partitions: Sequence[Sequence[int]], fmt: ResolutionFormat
) -> List[Weight]:
    """Length-n decomposition data: weights on F_0..F_n built from degrees
    x = (x^(1), ..., x^(n)) and partitions alpha^(1..n) (alpha^(i) with at
    most r_i - 1 parts) via the partial Euler characteristics
    chi^(i) = sum_{j<=i} (-1)^{i-j} x^(j)."""
    n = fmt.n
    if len(x) != n or len(partitions) != n:
        raise ValueError(f"need {n} degrees and {n} partitions")
    if any(v < 0 for v in x):
        raise ValueError("degrees must be nonnegative")
    r = (0,) + fmt.r  # r[i] = r_i, 1-based
    pads = [()]  # alpha^(0) unused
    for i in range(1, n + 1):
        part = tuple(partitions[i - 1])
        if len(part) > r[i] - 1:
            raise ValueError(f"partition {i} has too many parts")
        pads.append(_padded(part, r[i] - 1))
    chi = [0] * (n + 2)  # chi[i], chi[n+1] = 0
    for i in range(1, n + 1):
        chi[i] = sum((-1) ** (i - j) * x[j - 1] for j in range(1, i + 1))
    for i in range(1, n):
        if chi[i] + chi[i + 1] != x[i]:
            raise AssertionError(
                f"{tuple(fmt.f)} degrees {tuple(x)}: partial Euler characteristics "
                f"chi^({i}) + chi^({i + 1}) = {chi[i] + chi[i + 1]}, not x^({i + 1}) = {x[i]}"
            )
    out: List[Weight] = []
    for i in range(0, n + 1):
        if i == 0:
            first: Tuple[int, ...] = (0,) * fmt.r0
        else:
            first = tuple(chi[i] + v for v in pads[i]) + (chi[i],)
        if i == n:
            second: Tuple[int, ...] = ()
        else:
            second = (-chi[i + 1],) + tuple(-chi[i + 1] - v for v in reversed(pads[i + 1]))
        out.append(first + second)
    return out


def mu_enumerate(fmt: ResolutionFormat, cutoff: int) -> List[MuIndex]:
    """All sextuples with a >= 0 and a+b+c+|alpha|+|beta|+|gamma| <= cutoff,
    in deterministic (multidegree, lexicographic) order."""
    r1, r2, r3 = fmt.r
    out = []
    parts3 = list(partitions_bounded(r3 - 1, cutoff))
    parts2 = list(partitions_bounded(r2 - 1, cutoff))
    parts1 = list(partitions_bounded(r1 - 1, cutoff))
    for a in range(cutoff + 1):
        for b in range(cutoff + 1 - a):
            for c in range(cutoff + 1 - a - b):
                rest = cutoff - a - b - c
                for al in parts3:
                    if sum(al) > rest:
                        continue
                    for be in parts2:
                        if sum(al) + sum(be) > rest:
                            continue
                        for ga in parts1:
                            if sum(al) + sum(be) + sum(ga) > rest:
                                continue
                            out.append(MuIndex(a, b, c, tuple(al), tuple(be), tuple(ga)))
    out.sort(key=lambda m: m.sort_key())
    return out


def ra_enumerate(
    fmt: ResolutionFormat, cutoff: int
) -> List[Tuple[MuIndex, GLWeightQuadruple]]:
    """All R_a components within the cutoff; raises AssertionError unless
    they are multiplicity-free and the even (F_0, F_2) and odd (F_1, F_3)
    projections are injective."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    quads = [(mu, ra_component(mu, fmt)) for mu in mu_enumerate(fmt, cutoff)]
    # Every mu has a >= 0, so `ra_component` has checked that q is dominant.
    out = [(mu, q) for mu, q in quads if mu.a - mu.b + mu.c >= 0]
    for what, keys in (
        ("weight quadruple", [tuple(q) for _, q in out]),
        ("even projection (F_0, F_2)", [(q.w0, q.w2) for _, q in out]),
        ("odd projection (F_1, F_3)", [(q.w1, q.w3) for _, q in out]),
    ):
        if len(set(keys)) != len(keys):
            dup = next(k for k in keys if keys.count(k) > 1)
            raise AssertionError(
                f"{tuple(fmt.f)} R_a to degree {cutoff}: {what} {dup} occurs twice"
            )
    return out


# ---------------------------------------------------------------------------
# The special-fiber decomposition and the lambda-dictionary
# ---------------------------------------------------------------------------


class RspecComponent(NamedTuple):
    sigma: Weight
    tau: Weight
    lam: Tuple[int, ...]  # labels on T_{p,q,r} vertices (internal 0-based order)


def lambda_from_sigma_tau(
    graph: TpqrGraph, sigma: Sequence[int], tau: Sequence[int], z1_label: int
) -> Tuple[int, ...]:
    """Labels on T_{p,q,r}: chain labels are consecutive differences of tau
    (x_i -> tau_{p-i} - tau_{p-i+1}, u -> tau_p - tau_{p+1},
    y_j -> tau_{p+j} - tau_{p+j+1}), the z_1 label is given, and the rest of
    the z-arm reads consecutive differences of sigma,
    z_{1+i} -> sigma_i - sigma_{i+1}."""
    p, q, r = graph.p, graph.q, graph.r
    if len(tau) != p + q:
        raise ValueError(f"tau must have length {p + q}")
    if len(sigma) != r - 1:
        raise ValueError(f"sigma must have length {r - 1}")
    labels = [0] * graph.n
    labels[graph.u] = tau[p - 1] - tau[p]
    for i in range(1, p):
        labels[graph.x(i)] = tau[p - i - 1] - tau[p - i]
    for j in range(1, q):
        labels[graph.y(j)] = tau[p + j - 1] - tau[p + j]
    labels[graph.z1] = z1_label
    for i in range(1, r - 1):
        labels[graph.z(1 + i)] = sigma[i - 1] - sigma[i]
    return tuple(labels)


def rspec_component(mu: MuIndex, fmt: ResolutionFormat) -> RspecComponent:
    """The (sigma, tau) weights and the T_{p,q,r} weight lambda of the
    special-fiber component indexed by mu (requires a >= 0)."""
    quad = ra_component(mu, fmt)
    if mu.a < 0:
        raise ValueError("membership requires a >= 0")
    sigma, tau = quad.w3, quad.w1
    graph = TpqrGraph(*fmt.pqr)
    # The z-arm reads the dual of w_3.
    lam = lambda_from_sigma_tau(graph, tuple(-x for x in reversed(sigma)), tau, mu.a)
    if any(v < 0 for v in lam):
        raise AssertionError(f"{tuple(fmt.f)} {mu}: lambda {lam} not dominant although a >= 0")
    # Round trip: chain differences plus the anchor tau_{p+q} = c - b - beta_1
    # reconstruct tau exactly.
    p, q = graph.p, graph.q
    be = _padded(mu.beta, fmt.r[1] - 1)
    anchor = mu.c - mu.b - (be[0] if be else 0)
    rebuilt = [anchor]
    chain = (
        [lam[graph.y(j)] for j in range(q - 1, 0, -1)]
        + [lam[graph.u]]
        + [lam[graph.x(i)] for i in range(1, p)]
    )
    for d in chain:
        rebuilt.append(rebuilt[-1] + d)
    if tuple(reversed(rebuilt)) != tau:
        raise AssertionError(
            f"{tuple(fmt.f)} {mu}: tau rebuilt from lambda {lam} is "
            f"{tuple(reversed(rebuilt))}, not {tau}"
        )
    return RspecComponent(sigma=sigma, tau=tau, lam=lam)


# ---------------------------------------------------------------------------
# Semigroup generators
# ---------------------------------------------------------------------------


class GeneratorFamily(NamedTuple):
    number: int
    description: str
    members: Tuple[MuIndex, ...]
    interpretation: str
    note: Optional[str] = None

    @property
    def present(self) -> bool:
        return bool(self.members)


def semigroup_generators(fmt: ResolutionFormat) -> List[GeneratorFamily]:
    """The six generator families of the weight semigroup, with empty-range
    families reported as absent.  Their N-combinations are meant to be the
    sextuples with a >= 0 of `mu_enumerate`, which `rspec` lists (the tests
    check five formats to degree 4); R_a also needs a - b + c >= 0, so
    family 4 (b = 1) lies outside it."""
    if fmt.n != 3 or not fmt.valid:
        raise ValueError("valid length-3 formats only")
    r1, r2, r3 = fmt.r
    fam = []
    fam.append(
        GeneratorFamily(
            1,
            "alpha = (1^i), 1 <= i <= r_3-1",
            tuple(MuIndex(0, 0, 0, alpha=(1,) * i) for i in range(1, r3)),
            "first graded component is d_3; later components are the structure maps p_i",
            note=None if r3 > 1 else "absent: r_3 = 1",
        )
    )
    fam.append(
        GeneratorFamily(
            2,
            "a = 1",
            (MuIndex(1, 0, 0),),
            "top exterior power of F_2 against V(omega_{z_1}); minors of (d_3, p_1)"
            + ("; includes d_3, p_1 components when r_3 = 1" if r3 == 1 else ""),
        )
    )
    fam.append(
        GeneratorFamily(
            3,
            "beta = (1^j), 1 <= j <= r_2-1",
            tuple(MuIndex(0, 0, 0, beta=(1,) * j) for j in range(1, r2)),
            "first graded component is d_2; later components w_0, w_1, ... "
            "(multiplicative structure when r_1 = 1)",
            note=None if r2 > 1 else "absent: r_2 = 1",
        )
    )
    fam.append(
        GeneratorFamily(
            4,
            "b = 1",
            (MuIndex(0, 1, 0),),
            "V(omega_{x_1}); for r_1 = 1 the components are a_2 and p'_1",
        )
    )
    fam.append(
        GeneratorFamily(
            5,
            "gamma = (1^k), 1 <= k <= r_1-1",
            tuple(MuIndex(0, 0, 0, gamma=(1,) * k) for k in range(1, r1)),
            "F_0^* against V(omega_{x_{p-1}})",
            note=None if r1 > 1 else "absent: r_1 = 1",
        )
    )
    fam.append(
        GeneratorFamily(
            6,
            "c = 1",
            (MuIndex(0, 0, 1),),
            "top exterior power of F_0^* against V(omega_{x_1}); a_1 when r_1 = 1",
        )
    )
    return fam


# ---------------------------------------------------------------------------
# K*(sigma, tau, t) terms and the dictionary crosscheck
# ---------------------------------------------------------------------------


class KStarComplex(NamedTuple):
    """The four terms (bottom to top) of the dualized isotypic component,
    each an (F_3 weight, F_1-dual weight) pair; the universal-enveloping
    factor each term is tensored with is not modelled."""

    bottom: Tuple[Weight, Weight]
    middle: Tuple[Weight, Weight]
    top_u: Tuple[Weight, Weight]
    top_s: Optional[Tuple[Weight, Weight]]
    s: int
    u: int


def kstar_terms(
    sigma: Sequence[int], tau: Sequence[int], t: int, fmt: ResolutionFormat
) -> KStarComplex:
    """The four terms of the dual isotypic complex for (sigma, tau, t):

    bottom: (sigma; tau)
    middle: (sigma_1+t, ...; tau_1+t, ..., tau_{r1+1}+t, rest)
    top_u:  (sigma_1+t+u, ...; tau_1+t+u, ..., tau_{r1}+t+u, tau_{r1+1}+t,
             tau_{r1+2}+u, rest)
    top_s:  (sigma_1+t, sigma_2+s, ...; tau_1+t+s, ..., tau_{r1+1}+t+s, rest)
            — omitted when r_3 = 1 (no sigma_2).
    with s = sigma_1 + 1 - sigma_2 and u = tau_{r1+1} + 1 - tau_{r1+2}.
    """
    r1, r2, r3 = fmt.r
    sigma = tuple(sigma)
    tau = tuple(tau)
    if len(sigma) != r3:
        raise ValueError(f"sigma must have length r_3 = {r3}")
    if len(tau) != r1 + r2:
        raise ValueError(f"tau must have length r_1 + r_2 = {r1 + r2}")
    if not is_dominant(sigma) or not is_dominant(tau):
        raise ValueError("sigma and tau must be dominant")
    if t < 1:
        raise ValueError("t must be >= 1")
    u = tau[r1] + 1 - tau[r1 + 1]
    bottom = (sigma, tau)
    middle = (
        (sigma[0] + t,) + sigma[1:],
        tuple(x + t for x in tau[: r1 + 1]) + tau[r1 + 1 :],
    )
    top_u = (
        (sigma[0] + t + u,) + sigma[1:],
        tuple(x + t + u for x in tau[:r1])
        + (tau[r1] + t, tau[r1 + 1] + u)
        + tau[r1 + 2 :],
    )
    if r3 >= 2:
        s = sigma[0] + 1 - sigma[1]
        top_s = (
            (sigma[0] + t, sigma[1] + s) + sigma[2:],
            tuple(x + t + s for x in tau[: r1 + 1]) + tau[r1 + 1 :],
        )
    else:
        s = sigma[0] + 1  # formal value; the summand itself collapses
        top_s = None
    return KStarComplex(bottom=bottom, middle=middle, top_u=top_u, top_s=top_s, s=s, u=u)


def dictionary_crosscheck(
    sigma: Sequence[int],
    tau: Sequence[int],
    t: int,
    fmt: ResolutionFormat,
) -> Optional[str]:
    """The K* terms equal the three-layer BGG initial terms through the
    lambda-dictionary.

    Each K* term, mapped through the dictionary with its own z_1 label
    (t-1, -t-1, -t-1-u, -t-1-s for bottom/middle/top_u/top_s), must equal the
    corresponding parabolic Verma highest weight (identity, s_{z1},
    s_{z1}s_u, s_{z1}s_{z2} dot-applied to lambda).  The dictionary reads
    sigma itself on the z-arm, under which the match is exact for all arm
    lengths.  Returns None if every term matches, else the first K* term
    that does not, by name, with both weights on the labelled vertices.
    """
    graph = TpqrGraph(*fmt.pqr)
    ks = kstar_terms(sigma, tau, t, fmt)
    a = t - 1
    lam = lambda_from_sigma_tau(graph, tuple(sigma), tau, a)
    layers = bgg_initial_terms(graph, lam)
    expected = [
        ("bottom", ks.bottom, t - 1), ("middle", ks.middle, -t - 1), ("top_u", ks.top_u, -t - 1 - ks.u)
    ]
    if ks.top_s is not None:
        expected.append(("top_s", ks.top_s, -t - 1 - ks.s))
    # Both sides have a fourth term exactly when r = r_3 + 1 >= 3.
    bgg = [layers[0][0], layers[1][0]] + list(layers[2])
    for weight, (name, (sig_term, tau_term), z1lab) in zip(bgg, expected, strict=True):
        mapped = lambda_from_sigma_tau(graph, sig_term, tau_term, z1lab)
        if mapped != weight:
            return f"{name} maps to {graph.labels_as_dict(mapped)}, BGG term {graph.labels_as_dict(weight)}"
    return None
