"""Seeded job lists for the four benchmark workloads.

A job is one argv list for `resatlas.cli.main` (the worker appends
`--json`).  Each workload is a list of strata.  A stratum holds variants
of about the same cost, for example one graph in several arm orders and
presentations, and a number of jobs per 20 s of run length.  The seed picks
which variants fill each stratum and the order of the whole list, so every
seed gets different inputs while the work per run stays about the same.
This keeps run-to-run spread small, which a draw over all graphs at once
would not.

Every variant has a golden digest in `catalogue.json`, so any seed can be
checked.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Argv = Tuple[str, ...]

WORKLOADS = ("atlas", "finite-reps", "complexes", "paper-checks")

# Fixed --max-height for the denominator recursion in `atlas`.
ATLAS_HEIGHT = 8

# The E6 job that the traced run's per-job counters are quoted for.
E6_ANCHOR: Argv = ("bgg-check", "--pqr", "3", "3", "2", "--lam", "w:z1", "--cutoff", "2")

# Seconds per `verify-thm112 --r3 k` at the seed commit (in process, one
# 2-core x86 container).  The `complexes` workload runs the largest r3 whose
# cost fits in three quarters of the run length.
THM112_SECONDS = {3: 0.4, 4: 14.0}


@dataclass(frozen=True)
class Stratum:
    name: str
    variants: Tuple[Argv, ...]
    per_20s: int           # jobs per 20 s of run length
    scaled: bool = True    # False: always exactly per_20s jobs

    def count(self, seconds: int) -> int:
        if not self.scaled:
            return self.per_20s
        return max(1, round(self.per_20s * seconds / 20))


def _args(*parts) -> Argv:
    return tuple(str(p) for p in parts)


def _perms(triple: Sequence[int]) -> List[Tuple[int, int, int]]:
    return sorted(set(itertools.permutations(triple)))


def _format_of(p: int, q: int, r: int, r0: int) -> Tuple[int, int, int, int]:
    """The length-3 format whose graph is T_{p,q,r}: p = r1+1, q = r2-1,
    r = r3+1, with f0 = r0 + r1."""
    r1, r2, r3 = p - 1, q + 1, r - 1
    return (r0 + r1, r1 + r2, r2 + r3, r3)


# ---------------------------------------------------------------------------
# atlas: affine and indefinite T_{p,q,r}, denominator recursion to a fixed
# height, plus a classification sweep.
# ---------------------------------------------------------------------------

# (graph, jobs per 20 s).  Costs at height 8 run from 0.03 s (T_{3,3,3}) to
# 0.55 s (T_{2,3,8}).
ATLAS_GRAPHS = (
    ((3, 3, 3), 10),
    ((2, 4, 4), 9),
    ((2, 3, 6), 9),
    ((2, 3, 7), 9),
    ((2, 3, 8), 6),
    ((2, 4, 5), 9),
    ((3, 3, 4), 9),
    ((2, 5, 5), 6),
    ((3, 4, 4), 9),
    ((3, 3, 5), 9),
)


def _atlas_graph_variants(triple: Sequence[int]) -> Tuple[Argv, ...]:
    out = []
    for p, q, r in _perms(triple):
        out.append(_args("roots", "--pqr", p, q, r, "--max-height", ATLAS_HEIGHT))
        for cutoff in (3, 5):
            out.append(
                _args("defect", "--pqr", p, q, r, "--max-height", ATLAS_HEIGHT, "--cutoff", cutoff)
            )
        for r0 in (0, 1):
            out.append(
                _args("analyze", *_format_of(p, q, r, r0), "--max-height", ATLAS_HEIGHT, "--cutoff", 4)
            )
    return tuple(out)


def _sweep_variants() -> Tuple[Argv, ...]:
    """`analyze` at a small height over every format with r0 <= 1,
    r1 <= 3, 2 <= r2 <= 6 and r3 <= 5: finite, affine and indefinite graphs
    with up to 13 vertices."""
    out = []
    for r0, r1, r2, r3 in itertools.product((0, 1), (1, 2, 3), range(2, 7), range(1, 6)):
        f = (r0 + r1, r1 + r2, r2 + r3, r3)
        out.append(_args("analyze", *f, "--max-height", 4, "--cutoff", 2))
    return tuple(out)


def _atlas() -> List[Stratum]:
    strata = [
        Stratum(f"T{''.join(map(str, g))}", _atlas_graph_variants(g), n)
        for g, n in ATLAS_GRAPHS
    ]
    strata.append(Stratum("classification-sweep", _sweep_variants(), 100))
    return strata


# ---------------------------------------------------------------------------
# finite-reps: Weyl group / W^S search, characters and BGG on finite D/E
# graphs, plus the coordinate-ring commands on finite formats.
# ---------------------------------------------------------------------------

# Finite formats: D4, D5 (two arm orders), D6 (two), E6, A3, A4 with r3 = 1,
# and D5, D6, E6, E7 with r3 >= 2, whose z-arm has a second vertex.
FINITE_FORMATS = (
    (1, 4, 4, 1), (2, 4, 4, 1), (1, 5, 5, 1), (2, 5, 4, 1), (1, 6, 6, 1),
    (3, 6, 4, 1), (2, 6, 5, 1), (1, 3, 3, 1), (2, 4, 3, 1),
    (1, 4, 5, 2), (1, 4, 6, 3), (1, 5, 6, 2), (2, 5, 5, 2), (1, 5, 7, 3),
)


def _bgg(pqr, lams, cutoffs) -> Tuple[Argv, ...]:
    return tuple(
        _args("bgg-check", "--pqr", *g, "--lam", lam, "--cutoff", c)
        for g in pqr
        for lam in lams
        for c in cutoffs
    )


def _finite_reps() -> List[Stratum]:
    # E6 variants whose cost sits within 10% of the anchor job's.
    e6 = tuple(
        _args("bgg-check", "--pqr", 3, 3, 2, "--lam", lam, "--cutoff", c)
        for lam, c in (("zero", 2), ("zero", 3), ("w:x2", 2), ("w:z1", 1), ("w:z1", 3))
    )
    # Graphs with r >= 3: bgg_initial_terms fails on them at the seed commit.
    defect_graphs = ((2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 2, 4), (2, 2, 5))
    kostant_graphs = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3), (4, 2, 2), (2, 2, 4))
    return [
        Stratum("e6-anchor", (E6_ANCHOR,), 1, scaled=False),
        Stratum("e6-bgg", e6, 1),
        Stratum("d6-bgg", _bgg(((4, 2, 2), (2, 4, 2)), ("zero", "w:z1", "w:u"), (2,)), 3),
        Stratum(
            "d5-bgg",
            _bgg(((3, 2, 2), (2, 3, 2)), ("zero", "w:z1", "w:u", "w:x1", "w:y1"), (2, 3)),
            10,
        ),
        Stratum(
            "d4-bgg",
            _bgg(((2, 2, 2),), ("zero", "w:u", "w:x1", "w:y1", "w:z1"), (2, 3, 4)),
            12,
        ),
        Stratum("bgg-z2-arm", _bgg(defect_graphs, ("zero", "w:z1", "w:u"), (2,)), 8),
        Stratum(
            "kostant",
            tuple(
                _args("kostant", "--pqr", *g, "--length", L)
                for g in kostant_graphs
                for L in (2, 3, 4)
            ),
            12,
        ),
        Stratum(
            "kstar-check",
            tuple(
                _args("kstar-check", *f, "--count", n, "--seed", s)
                for f in FINITE_FORMATS
                for n in (5, 10)
                for s in (0, 1)
            ),
            12,
        ),
        Stratum(
            "rspec",
            tuple(_args("rspec", *f, "--cutoff", c) for f in FINITE_FORMATS for c in (2, 3)),
            10,
        ),
        Stratum(
            "ra-decompose",
            tuple(_args("ra-decompose", *f, "--cutoff", c) for f in FINITE_FORMATS for c in (2, 3, 4)),
            10,
        ),
    ]


# ---------------------------------------------------------------------------
# complexes: symbolic complexes over the exact kernel.
# ---------------------------------------------------------------------------

Q1_FORMATS = ((1, 4, 4, 1), (1, 5, 6, 2), (2, 5, 5, 2))


def _q1_variants() -> Tuple[Argv, ...]:
    """Twelve index-set triples per format, drawn once from a fixed RNG; J
    and K may share an index, which zeroes that term."""
    out = []
    for f in Q1_FORMATS:
        rng = random.Random("q1:" + ",".join(map(str, f)))
        r3 = f[3]
        r2 = f[2] - r3
        r1 = f[1] - r2
        for _ in range(12):
            I = sorted(rng.sample(range(1, f[1] + 1), r1 + 1))
            J = sorted(rng.sample(range(1, f[2] + 1), r3))
            K = sorted(rng.sample(range(1, f[2] + 1), r3))
            out.append(
                _args(
                    "q1", "--format", *f,
                    "--I", ",".join(map(str, I)),
                    "--J", ",".join(map(str, J)),
                    "--K", ",".join(map(str, K)),
                )
            )
    return tuple(out)


def top_r3(seconds: int) -> int:
    fits = [k for k, cost in THM112_SECONDS.items() if cost <= 0.75 * seconds]
    return max(fits, default=min(THM112_SECONDS))


def _complexes(seconds: int) -> List[Stratum]:
    top = top_r3(seconds)
    seeds = range(4)

    def thm(ks) -> Tuple[Argv, ...]:
        return tuple(_args("verify-thm112", "--r3", k, "--seed", s) for k in ks for s in seeds)

    return [
        Stratum("thm112-top", thm((top,)), 1, scaled=False),
        Stratum("thm112-r3", thm((3,)), 5),
        Stratum("thm112-small", thm((1, 2)), 8),
        Stratum(
            "monomial",
            tuple(_args("verify-monomial", "--t", t, "--seed", s) for t in range(2, 9) for s in seeds),
            10,
        ),
        Stratum("d4", (("verify-d4",),), 2),
        Stratum("q1", _q1_variants(), 16),
    ]


def strata(workload: str, seconds: int) -> List[Stratum]:
    if workload == "atlas":
        return _atlas()
    if workload == "finite-reps":
        return _finite_reps()
    if workload == "complexes":
        return _complexes(seconds)
    if workload == "paper-checks":
        # One suite takes 3-4 s; repeating it fills the run length.
        return [Stratum("suite", (("suite", "paper-checks"),), 5)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def generate(workload: str, seed: int, seconds: int) -> List[Argv]:
    """The job list of one run: each stratum's count of variants, taken
    from a seeded shuffle (cycling when the count exceeds the pool), then
    the whole list shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Argv] = []
    for stratum in strata(workload, seconds):
        pool = list(stratum.variants)
        rng.shuffle(pool)
        n = stratum.count(seconds)
        jobs.extend(pool[i % len(pool)] for i in range(n))
    rng.shuffle(jobs)
    return jobs


def all_variants() -> Dict[str, List[Argv]]:
    """Every job any seed and any run length from 1 to 60 s can produce,
    by workload; the catalogue records a golden for each."""
    out: Dict[str, List[Argv]] = {}
    for w in WORKLOADS:
        seen: Dict[Argv, None] = {}
        for seconds in (1, 60):
            for stratum in strata(w, seconds):
                for v in stratum.variants:
                    seen.setdefault(v)
        out[w] = list(seen)
    return out
