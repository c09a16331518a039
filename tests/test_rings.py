import random
import re
from itertools import product

import pytest

from resatlas import rings
from resatlas.formats import derive_ranks
from resatlas.kacmoody import TpqrGraph
from resatlas.rings import (
    MuIndex,
    dictionary_crosscheck,
    kstar_terms,
    lambda_from_sigma_tau,
    mu_enumerate,
    ra_component,
    ra_enumerate,
    ra_general_component,
    rspec_component,
    semigroup_generators,
)

FMT_D4 = derive_ranks([1, 4, 4, 1])
FMT_E6 = derive_ranks([2, 6, 5, 1])


def in_ra(mu, fmt):
    """Membership in the weight semigroup of R_a: all weights weakly
    decreasing and the F_3 weight polynomial (last entry a-b+c >= 0); the
    oracle for the components `ra_enumerate` keeps."""
    quad = ra_component(mu, fmt)
    return quad.dominant and (mu.a - mu.b + mu.c) >= 0


def in_rspec(mu, fmt):
    """Membership in the weight semigroup of the special-fiber ring: a >= 0."""
    rings._check_mu(mu, fmt)
    return mu.a >= 0


def test_ra_component_a1_anchor():
    quad = ra_component(MuIndex(a=1, b=0, c=0), FMT_D4)
    assert tuple(quad) == ((1,), (0, 0, 0, -1), (0, 0, 0, 0), (0,))
    assert in_ra(MuIndex(a=1, b=0, c=0), FMT_D4)


def test_b1_in_rspec_not_ra():
    mu = MuIndex(a=0, b=1, c=0)
    assert not in_ra(mu, FMT_D4)   # A = -1
    assert in_rspec(mu, FMT_D4)


def test_ra_enumerate_keeps_exactly_the_members_of_ra():
    for fmt, cutoff in ((FMT_D4, 4), (FMT_E6, 3)):
        kept = [mu for mu, _ in ra_enumerate(fmt, cutoff)]
        assert kept == [mu for mu in mu_enumerate(fmt, cutoff) if in_ra(mu, fmt)]
        assert len(kept) < len(mu_enumerate(fmt, cutoff))


def test_dominance_iff_a_nonnegative():
    for a in (-2, -1, 0, 1, 2):
        mu = MuIndex(a=a, b=1, c=1, beta=(1,))
        quad = ra_component(mu, FMT_D4)
        assert quad.dominant == (a >= 0)


def test_ra_component_names_a_dominance_that_disagrees_with_a(monkeypatch):
    # `is_dominant` lies for the F_0 weight (-1,) of c = 1 alone: the
    # cross-check names the format, mu and a.
    is_dominant = rings.is_dominant
    monkeypatch.setattr(rings, "is_dominant", lambda w: is_dominant(w) and w != (-1,))
    mu = MuIndex(a=2, b=1, c=1, beta=(1,))
    with pytest.raises(AssertionError, match=re.escape(
        f"(1, 4, 4, 1) R_a component of {mu}: dominance False disagrees with a = 2 >= 0"
    )):
        ra_component(mu, FMT_D4)


def test_general_formula_agrees_with_length3():
    rng = random.Random(5)
    for _ in range(100):
        mu = MuIndex(
            a=rng.randint(0, 4),
            b=rng.randint(0, 4),
            c=rng.randint(0, 4),
            beta=tuple(sorted((rng.randint(0, 3) for _ in range(2)), reverse=True)),
        )
        quad = ra_component(mu, FMT_D4)
        general = ra_general_component([mu.c, mu.b, mu.a], [mu.gamma, mu.beta, mu.alpha], FMT_D4)
        assert tuple(general) == (quad.w0, quad.w1, quad.w2, quad.w3)


def test_ra_enumeration_counts_and_injectivity():
    comps = ra_enumerate(FMT_D4, 4)  # internal asserts cover injectivity
    assert len(comps) == 67
    assert all(quad.dominant for _, quad in comps)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({}, "weight quadruple ((0,), (0, 0, 0, 0), (0, 0, 0, 0), (0,))"),
        ({"w3": (1,), "w1": (1, 1, 1, 1)}, "even projection (F_0, F_2) ((0,), (0, 0, 0, 0))"),
        ({"w0": (-1,)}, "odd projection (F_1, F_3) ((0, 0, 0, 0), (0,))"),
    ],
    ids=["quadruple", "even", "odd"],
)
def test_ra_enumerate_names_the_first_key_that_repeats(monkeypatch, changes, message):
    # The second component is made the first with `changes`: the first key
    # in the order quadruple, even, odd that then repeats is named.
    component = rings.ra_component
    first = component(MuIndex(a=0, b=0, c=0), FMT_D4)

    def second_from_first(mu, fmt):
        return first._replace(**changes) if mu.beta == (1,) else component(mu, fmt)

    monkeypatch.setattr(rings, "ra_component", second_from_first)
    with pytest.raises(AssertionError, match=re.escape(
        f"(1, 4, 4, 1) R_a to degree 1: {message} occurs twice"
    )):
        ra_enumerate(FMT_D4, 1)


def test_mu_enumerate_deterministic():
    a = mu_enumerate(FMT_D4, 3)
    b = mu_enumerate(FMT_D4, 3)
    assert a == b
    assert all(m.a >= 0 for m in a)


def test_rspec_component_anchor():
    mu = MuIndex(a=2, b=1, c=3, beta=(2, 1))
    comp = rspec_component(mu, FMT_D4)
    g = TpqrGraph(2, 2, 2)
    assert g.labels_as_dict(comp.lam) == {"u": 1, "x1": 1, "y1": 1, "z1": 2}


def lambda_descending(g, sigma, tau, z1_label):
    """The dictionary with the z-arm read from the top of sigma down,
    z_{1+i} -> sigma_{r-1-i} - sigma_{r-i}: the reading `rspec` prints."""
    p, q, r = g
    labels = [0] * g.n
    labels[g.u] = tau[p - 1] - tau[p]
    for i in range(1, p):
        labels[g.x(i)] = tau[p - i - 1] - tau[p - i]
    for j in range(1, q):
        labels[g.y(j)] = tau[p + j - 1] - tau[p + j]
    labels[g.z1] = z1_label
    for i in range(1, r - 1):
        labels[g.z(1 + i)] = sigma[r - 2 - i] - sigma[r - 1 - i]
    return tuple(labels)


@pytest.mark.parametrize("pqr", [(2, 2, 4), (2, 3, 5), (3, 3, 5)], ids=str)
def test_the_dictionary_on_the_dual_reads_the_z_arm_descending(pqr):
    g = TpqrGraph(*pqr)
    rng = random.Random(11)
    for _ in range(50):
        sigma = tuple(rng.randint(-4, 4) for _ in range(g.r - 1))
        tau = tuple(rng.randint(-4, 4) for _ in range(g.p + g.q))
        z1_label = rng.randint(0, 4)
        dual = tuple(-x for x in reversed(sigma))
        assert lambda_from_sigma_tau(g, dual, tau, z1_label) == lambda_descending(g, sigma, tau, z1_label)


def test_generator_families_d4():
    fams = semigroup_generators(FMT_D4)
    assert [f.number for f in fams] == [1, 2, 3, 4, 5, 6]
    by_num = {f.number: f for f in fams}
    assert not by_num[1].present and not by_num[5].present  # r_3 = r_1 = 1
    assert by_num[2].present and by_num[4].present and by_num[6].present
    assert len(by_num[3].members) == 2  # beta = (1), (1,1)


def generated(members, fmt, degree):
    """The N-combinations of `members` of total degree <= `degree`, as
    sextuples.  `ra_component` is linear in (a, b, c, alpha, beta, gamma),
    each partition padded with zeros, so combinations add in that padded
    form; an empty combination gives the zero sextuple."""
    r1, r2, r3 = fmt.r
    cuts = (3, 3 + r3 - 1, 3 + r3 - 1 + r2 - 1)

    def padded(mu):
        pad = lambda part, size: tuple(part) + (0,) * (size - len(part))
        return (mu.a, mu.b, mu.c) + pad(mu.alpha, r3 - 1) + pad(mu.beta, r2 - 1) + pad(mu.gamma, r1 - 1)

    def sextuple(v):
        parts = [tuple(x for x in v[i:j] if x) for i, j in zip(cuts, cuts[1:] + (len(v),))]
        return MuIndex(*v[:3], *parts)

    steps = [padded(mu) for mu in members]
    reached = frontier = {(0,) * len(padded(MuIndex(0, 0, 0)))}
    while frontier:
        frontier = {
            tuple(map(sum, zip(v, step))) for v in frontier for step in steps if sum(v) + sum(step) <= degree
        } - reached
        reached = reached | frontier
    return sorted(map(sextuple, reached), key=MuIndex.sort_key)


# Every valid format with f_0 <= 3, f_1, f_2 <= 8 and f_3 <= 7: 163 of them.
GENERATOR_FORMATS = [
    f for f in product(range(1, 4), range(1, 9), range(1, 9), range(1, 8)) if derive_ranks(f).valid
]


@pytest.mark.parametrize("f", GENERATOR_FORMATS, ids=str)
def test_generator_families_span_every_component_to_degree_4(f):
    # `mu_enumerate` lists the sextuples with a >= 0, the components `rspec`
    # lists; family 4 (b = 1) lies outside R_a, which also needs a - b + c >= 0.
    fmt = derive_ranks(list(f))
    members = [mu for fam in semigroup_generators(fmt) for mu in fam.members]
    assert generated(members, fmt, 4) == mu_enumerate(fmt, 4)


def test_family_5_at_c_1_leaves_gamma_at_c_0_ungenerated():
    # A member (0, 0, 1, gamma) is (0, 0, 1) + (0, 0, 0, gamma): with family
    # 5 at c = 1, no gamma != 0 is reached at c = 0.
    fmt = derive_ranks([2, 6, 5, 1])
    members = [
        mu._replace(c=1) if fam.number == 5 else mu
        for fam in semigroup_generators(fmt)
        for mu in fam.members
    ]
    span = generated(members, fmt, 4)
    missing = [mu for mu in mu_enumerate(fmt, 4) if mu not in span]
    assert len(missing) == 46 and missing[0] == MuIndex(0, 0, 0, gamma=(1,))


def test_kstar_terms_structure():
    fmt = FMT_D4
    ks = kstar_terms((2,), (3, 2, 1, 0), 2, fmt)
    assert ks.bottom == ((2,), (3, 2, 1, 0))
    assert ks.middle == ((4,), (5, 4, 1, 0))
    assert ks.u == 2  # tau_2 + 1 - tau_3 = 2 + 1 - 1
    assert ks.top_s is None  # r_3 = 1


def test_kstar_top_s_present_when_r3_ge_2():
    # By hand, with r = (1, 4, 2) and t = 1: s = sigma_1 + 1 - sigma_2 = 3,
    # and top_s = (sigma_1 + t, sigma_2 + s; tau_1 + t + s, ...,
    # tau_{r1+1} + t + s, rest) = (4, 4; 6, 6, 1, 1, 0).
    fmt = derive_ranks([1, 5, 6, 2])
    assert fmt.r == (1, 4, 2)
    ks = kstar_terms((3, 1), (2, 2, 1, 1, 0), 1, fmt)
    assert ks.s == 3
    assert ks.top_s == ((4, 4), (6, 6, 1, 1, 0))


def test_dictionary_crosscheck_random():
    rng = random.Random(99)
    for fmt in (FMT_D4, FMT_E6):
        r1, r2, r3 = fmt.r
        for _ in range(10):
            sigma = tuple(sorted((rng.randint(0, 3) for _ in range(r3)), reverse=True))
            tau = tuple(sorted((rng.randint(0, 3) for _ in range(r1 + r2)), reverse=True))
            t = rng.randint(1, 3)
            assert dictionary_crosscheck(sigma, tau, t, fmt) is None


def test_dictionary_crosscheck_detects_breakage(monkeypatch):
    assert dictionary_crosscheck((1,), (1, 1, 0, 0), 1, FMT_D4) is None
    terms = rings.kstar_terms

    def off_by_one_u(sigma, tau, t, fmt):
        ks = terms(sigma, tau, t, fmt)
        return ks._replace(u=ks.u + 1)

    monkeypatch.setattr(rings, "kstar_terms", off_by_one_u)
    # The crosscheck reads the replaced u only in top_u's z_1 label, -t - 1 - u.
    assert dictionary_crosscheck((1,), (1, 1, 0, 0), 1, FMT_D4) == (
        "top_u maps to {'u': 0, 'x1': 2, 'y1': 2, 'z1': -5}, BGG term {'u': 0, 'x1': 2, 'y1': 2, 'z1': -4}"
    )


def test_rspec_component_degree_one_weights():
    # The special fiber of (1, 4, 4, 1) in degrees mu = 0, b = 1 and a = 1:
    # dim V(lambda) = 1, 8, 8 times the F_2 Schur dimension 1, 1, 4, so the
    # graded dimensions 1, 8 and 32.
    g = TpqrGraph(2, 2, 2)
    lams = {
        mu: g.labels_as_dict(rspec_component(mu, FMT_D4).lam)
        for mu in (MuIndex(0, 0, 0), MuIndex(0, 1, 0), MuIndex(1, 0, 0))
    }
    assert lams == {
        MuIndex(0, 0, 0): {"u": 0, "x1": 0, "y1": 0, "z1": 0},
        MuIndex(0, 1, 0): {"u": 0, "x1": 1, "y1": 0, "z1": 0},
        MuIndex(1, 0, 0): {"u": 0, "x1": 0, "y1": 0, "z1": 1},
    }
