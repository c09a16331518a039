"""Command-line front end.

Deterministic text and JSON reporting over the library: format analysis,
root/defect/Kostant/BGG computations, coordinate-ring decompositions, the
explicit complex builders, and the full verification suite.

Exit codes: 0 success, 1 verification failure, 2 invalid input.  A suite
check that hits an internal error is reported as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from . import complexes, formats, kacmoody, rings
from .checks import CHECKS, Budget, BudgetExceeded, random_sigma_tau
from .formats import derive_ranks
from .kacmoody import TpqrGraph


def _budget_from_env() -> Budget:
    raw = os.environ.get("RESATLAS_BUDGET_MS")
    return Budget(int(raw) if raw else None)


def _emit(payload: Dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _fmt_or_exit(f: Sequence[int]):
    fmt = derive_ranks(f)
    if not fmt.valid:
        print(f"invalid format {tuple(f)}: {fmt.diagnosis}", file=sys.stderr)
        raise SystemExit(2)
    return fmt


def _parse_lam(graph: TpqrGraph, spec: str) -> Tuple[int, ...]:
    """Weight spec: 'zero', 'w:<vertex>' (fundamental), or 'u=1,z1=2'."""
    if spec == "zero":
        return (0,) * graph.n
    names = graph.vertex_names
    if spec.startswith("w:"):
        name = spec[2:]
        if name not in names:
            raise ValueError(f"unknown vertex {name!r}; choices: {names}")
        return graph.fundamental_weight(names.index(name))
    labels = [0] * graph.n
    for chunk in spec.split(","):
        name, _, val = chunk.partition("=")
        name = name.strip()
        if name not in names:
            raise ValueError(f"unknown vertex {name!r}; choices: {names}")
        labels[names.index(name)] = int(val)
    return tuple(labels)


def _mu_json(mu: rings.MuIndex) -> Dict:
    return {
        "a": mu.a, "b": mu.b, "c": mu.c,
        "alpha": list(mu.alpha), "beta": list(mu.beta), "gamma": list(mu.gamma),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    fmt = _fmt_or_exit(args.f)
    cls = formats.classify_format(fmt)
    p, q, r = fmt.pqr
    defect = kacmoody.defect_graded_dims(p, q, r, m_max=args.cutoff, max_height=args.max_height)
    gens = rings.semigroup_generators(fmt)
    payload = {
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
        "defect_exhaustive": defect.exhaustive,
        "generator_families": [
            {
                "number": g.number,
                "description": g.description,
                "present": g.present,
                "count": len(g.members),
                "interpretation": g.interpretation,
                "note": g.note,
            }
            for g in gens
        ],
    }
    lines = [
        f"format   {tuple(fmt.f)}  ranks r = {fmt.r}, r0 = {fmt.r0}",
        f"graph    T_{{{p},{q},{r}}}  class {cls.kind}"
        + (f" ({cls.dynkin})" if cls.dynkin else "")
        + f"  signature {cls.signature}",
        f"noetherian generic ring: {payload['noetherian']}",
        f"defect dims (m = 1..{args.cutoff}): {list(defect.dims)}"
        + (f"  total {defect.total}" if defect.exhaustive else "  (truncated)"),
        "generator families:",
    ]
    for g in gens:
        status = f"{len(g.members)} members" if g.present else "absent"
        lines.append(f"  [{g.number}] {g.description}: {status} -- {g.interpretation}")
        if g.note:
            lines.append(f"      note: {g.note}")
    _emit(payload, args.json, lines)
    return 0


def cmd_roots(args) -> int:
    p, q, r = args.pqr
    graph = TpqrGraph(p, q, r)
    cls = graph.classify()
    roots = kacmoody.enumerate_roots(graph, H=args.max_height)
    by_height: Dict[int, int] = {}
    total = 0
    for root in roots:
        by_height[root.height] = by_height.get(root.height, 0) + root.mult
        total += root.mult
    payload = {
        "pqr": [p, q, r],
        "class": cls.kind,
        "count": len(roots),
        "total_mult": total,
        "dim": graph.n + 2 * total if cls.finite else None,
        "by_height": {str(h): c for h, c in sorted(by_height.items())},
        "max_mult": max((root.mult for root in roots), default=0),
    }
    lines = [
        f"T_{{{p},{q},{r}}} ({cls.kind}): {len(roots)} positive roots, "
        f"total multiplicity {total}"
        + (f", dim g = {payload['dim']}" if cls.finite else f" up to height {args.max_height}"),
        "mult by height: "
        + " ".join(f"{h}:{c}" for h, c in sorted(by_height.items())),
    ]
    _emit(payload, args.json, lines)
    return 0


def cmd_defect(args) -> int:
    p, q, r = args.pqr
    defect = kacmoody.defect_graded_dims(p, q, r, m_max=args.cutoff, max_height=args.max_height)
    payload = {
        "pqr": [p, q, r],
        "dims": list(defect.dims),
        "total": defect.total,
        "exhaustive": defect.exhaustive,
    }
    lines = [
        f"defect graded dims for T_{{{p},{q},{r}}} (m = 1..{args.cutoff}): {list(defect.dims)}",
        f"exhaustive: {defect.exhaustive}"
        + (f", total dim {defect.total}" if defect.total is not None else ""),
    ]
    _emit(payload, args.json, lines)
    return 0


def cmd_kostant(args) -> int:
    p, q, r = args.pqr
    graph = TpqrGraph(p, q, r)
    payload = {"pqr": [p, q, r], "layers": {}}
    lines = [f"Kostant homology weights for T_{{{p},{q},{r}}}, S = all but z1:"]
    for k, weights in kacmoody.kostant_weights(graph, args.length).items():
        payload["layers"][str(k)] = [graph.labels_as_dict(w) for w in weights]
        lines.append(f"  length {k}: {len(weights)} component(s)")
        for w in weights:
            nz = {name: v for name, v in graph.labels_as_dict(w).items() if v}
            lines.append(f"    {nz if nz else '{0}'}")
    _emit(payload, args.json, lines)
    return 0


def cmd_bgg_check(args) -> int:
    p, q, r = args.pqr
    graph = TpqrGraph(p, q, r)
    lam = _parse_lam(graph, args.lam)
    layers = kacmoody.bgg_initial_terms(graph, lam)
    ok, bad = kacmoody.bgg_euler_check(graph, lam, args.cutoff)
    payload = {
        "pqr": [p, q, r],
        "lambda": graph.labels_as_dict(lam),
        "initial_terms": [[graph.labels_as_dict(w) for w in layer] for layer in layers],
        "euler_ok": ok,
        "first_bad_level": bad,
        "cutoff": args.cutoff,
    }
    lines = [f"lambda = {graph.labels_as_dict(lam)}"]
    for i, layer in enumerate(layers):
        lines.append(f"  layer {i}: " + "; ".join(str(graph.labels_as_dict(w)) for w in layer))
    lines.append(
        f"Euler characteristic check (S-height <= {args.cutoff}): "
        + ("PASS" if ok else f"FAIL at level {bad}")
    )
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def cmd_ra_decompose(args) -> int:
    fmt = _fmt_or_exit(args.f)
    comps = rings.ra_enumerate(fmt, args.cutoff)
    payload = {
        "format": list(fmt.f),
        "cutoff": args.cutoff,
        "count": len(comps),
        "components": [
            {
                "mu": _mu_json(mu),
                "weights": [list(w) for w in quad.weights],
            }
            for mu, quad in comps
        ],
    }
    lines = [f"R_a components of format {tuple(fmt.f)} up to degree {args.cutoff}: {len(comps)}"]
    for mu, quad in comps:
        lines.append(
            f"  mu=(a={mu.a},b={mu.b},c={mu.c},alpha={mu.alpha},beta={mu.beta},gamma={mu.gamma})"
            f"  F3..F0: {quad.w3} {quad.w2} {quad.w1} {quad.w0}"
        )
    _emit(payload, args.json, lines)
    return 0


def cmd_rspec(args) -> int:
    fmt = _fmt_or_exit(args.f)
    graph = TpqrGraph(*fmt.pqr)
    comps = []
    for mu in rings.mu_enumerate(fmt, args.cutoff):
        if rings.in_rspec(mu, fmt):
            comps.append((mu, rings.rspec_component(mu, fmt)))
    payload = {
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
    lines = [
        f"special-fiber components of format {tuple(fmt.f)} up to degree {args.cutoff}: {len(comps)}"
    ]
    for mu, c in comps:
        lines.append(
            f"  a={mu.a} b={mu.b} c={mu.c} alpha={mu.alpha} beta={mu.beta} gamma={mu.gamma}"
            f"  sigma={c.sigma} tau={c.tau} lambda={graph.labels_as_dict(c.lam)}"
        )
    _emit(payload, args.json, lines)
    return 0


def cmd_generators(args) -> int:
    fmt = _fmt_or_exit(args.f)
    gens = rings.semigroup_generators(fmt)
    payload = {
        "format": list(fmt.f),
        "families": [
            {
                "number": g.number,
                "description": g.description,
                "present": g.present,
                "members": [_mu_json(m) for m in g.members],
                "interpretation": g.interpretation,
                "note": g.note,
            }
            for g in gens
        ],
    }
    lines = [f"weight-semigroup generator families for {tuple(fmt.f)}:"]
    for g in gens:
        status = f"{len(g.members)} members" if g.present else "absent"
        lines.append(f"  [{g.number}] {g.description}: {status}")
        lines.append(f"      {g.interpretation}")
        if g.note:
            lines.append(f"      note: {g.note}")
    _emit(payload, args.json, lines)
    return 0


def cmd_kstar_check(args) -> int:
    fmt = _fmt_or_exit(args.f)
    rng = random.Random(args.seed)
    results = []
    for _ in range(args.count):
        sigma, tau, t = random_sigma_tau(rng, fmt)
        ok = rings.dictionary_crosscheck(sigma, tau, t, fmt)
        results.append({"sigma": list(sigma), "tau": list(tau), "t": t, "ok": ok})
    all_ok = all(r["ok"] for r in results)
    payload = {"format": list(fmt.f), "seed": args.seed, "checks": results, "ok": all_ok}
    lines = [
        f"dictionary crosscheck on {tuple(fmt.f)}, {args.count} random (sigma,tau,t), seed {args.seed}: "
        + ("PASS" if all_ok else "FAIL")
    ]
    for r in results:
        lines.append(
            f"  sigma={tuple(r['sigma'])} tau={tuple(r['tau'])} t={r['t']}: "
            + ("ok" if r["ok"] else "MISMATCH")
        )
    _emit(payload, args.json, lines)
    return 0 if all_ok else 1


def cmd_verify_thm112(args) -> int:
    res = complexes.thm112_build(args.r3)
    rep = complexes.verify_complex(res.complex)
    rk = complexes.be_rank_check(res.complex, seed=args.seed)
    ok = rep.ok and rk.ok
    payload = {
        "r3": args.r3,
        "compositions_zero": rep.ok,
        "ranks": list(rk.ranks),
        "expected_ranks": list(rk.expected),
        "ranks_ok": rk.ok,
        "sign_convention": complexes.DELTA_SIGN_CONVENTION,
        "fixture": complexes.complex_to_json(res.complex),
        "ok": ok,
    }
    lines = [
        f"format (1, 3, {args.r3 + 2}, {args.r3}) from generic d_3:",
        f"  symbolic d.d = 0: {rep.ok}",
        f"  seeded ranks {rk.ranks} (expected {rk.expected}): {rk.ok}",
        f"  Delta sign convention: {complexes.DELTA_SIGN_CONVENTION}",
        "PASS" if ok else "FAIL",
    ]
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def cmd_verify_monomial(args) -> int:
    res = complexes.monomial_complex(args.t)
    rep = complexes.verify_complex(res.complex)
    rk = complexes.be_rank_check(res.complex, seed=args.seed)
    ok = rep.ok and rk.ok
    payload = {
        "t": args.t,
        "compositions_zero": rep.ok,
        "ranks": list(rk.ranks),
        "ranks_ok": rk.ok,
        "generators": [str(g) for g in res.ideal_generators],
        "fixture": complexes.complex_to_json(res.complex),
        "ok": ok,
    }
    lines = [
        f"monomial complex, format (1, {2 * args.t}, {2 * args.t}, 1):",
        f"  symbolic d.d = 0: {rep.ok}",
        f"  seeded ranks {rk.ranks} (expected {rk.expected}): {rk.ok}",
        "  ideal generators: " + ", ".join(str(g) for g in res.ideal_generators),
        "PASS" if ok else "FAIL",
    ]
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def cmd_verify_d4(args) -> int:
    rep = complexes.d4_relation_check()
    payload = {
        "ok": rep.ok,
        "normalization": rep.normalization,
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "pfaffian": str(rep.pfaffian),
    }
    lines = [
        "split (1,4,4,1) model quadratic relation:",
        f"  lhs = {rep.lhs}",
        f"  rhs = {rep.rhs}",
        f"  pfaffian = {rep.pfaffian}",
        f"  sign normalization: {rep.normalization}",
        "PASS" if rep.ok else "FAIL",
    ]
    _emit(payload, args.json, lines)
    return 0 if rep.ok else 1


def _parse_indices(raw: str) -> List[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def cmd_q1(args) -> int:
    fmt = derive_ranks(args.format)
    res = complexes.q1_coefficients(
        fmt,
        _parse_indices(args.I),
        _parse_indices(args.J),
        _parse_indices(args.K),
        t=args.t,
    )
    payload = {
        "format": list(fmt.f),
        "I": _parse_indices(args.I),
        "J": _parse_indices(args.J),
        "K": _parse_indices(args.K),
        "t": args.t if args.t is not None else fmt.r[2],
        "value": str(res.value),
    }
    _emit(payload, args.json, [f"u_{{I,J,K}} = {res.value}"])
    return 0


# ---------------------------------------------------------------------------
# The verification suite (checks.CHECKS)
# ---------------------------------------------------------------------------


def cmd_suite(args) -> int:
    if args.name != "paper-checks":
        print(f"unknown suite {args.name!r}; available: paper-checks", file=sys.stderr)
        return 2
    budget = _budget_from_env()
    results = []
    all_ok = True
    for name, fn in CHECKS:
        start = time.monotonic()
        try:
            detail = fn(budget)
            ok = True
        except BudgetExceeded as exc:
            detail = f"budget exceeded: {exc}"
            ok = False
        except AssertionError as exc:
            detail = f"assertion failed: {exc}"
            ok = False
        except Exception as exc:  # one broken check must not hide the others
            traceback.print_exc()
            detail = f"internal error: {type(exc).__name__}: {exc}"
            ok = False
        elapsed = time.monotonic() - start
        results.append({"check": name, "ok": ok, "seconds": round(elapsed, 3), "detail": detail})
        all_ok &= ok
    if args.json:
        print(json.dumps({"suite": args.name, "ok": all_ok, "results": results}, sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r["ok"] else "FAIL"
            print(f"[{status}] {r['check']:<24s} {r['seconds']:7.2f}s  {r['detail']}")
        print("suite:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _nonnegative(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resatlas",
        description="Exact analysis of length-3 free-resolution formats via "
        "the Kac-Moody combinatorics of T_{p,q,r} graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pqr=False, fmt=False, seed=False, cutoff=False, max_height=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if cutoff:
            p.add_argument("--cutoff", type=_nonnegative, default=4)
        if max_height:
            p.add_argument("--max-height", type=_nonnegative, default=20)
        if pqr:
            p.add_argument("--pqr", type=int, nargs=3, metavar=("P", "Q", "R"), required=True)
        if fmt:
            p.add_argument("f", type=int, nargs=4, metavar="f", help="format f0 f1 f2 f3")

    p = sub.add_parser("analyze", help="full report on a length-3 format")
    common(p, fmt=True, cutoff=True, max_height=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("roots", help="positive roots of T_{p,q,r}")
    common(p, pqr=True, max_height=True)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("defect", help="graded dims of the defect algebra")
    common(p, pqr=True, cutoff=True, max_height=True)
    p.set_defaults(fn=cmd_defect)

    p = sub.add_parser("kostant", help="nilradical homology weights")
    common(p, pqr=True)
    p.add_argument("--length", type=_nonnegative, default=2)
    p.set_defaults(fn=cmd_kostant)

    p = sub.add_parser("bgg-check", help="truncated BGG Euler identity")
    common(p, pqr=True, cutoff=True)
    p.add_argument("--lam", default="zero", help="'zero', 'w:<vertex>', or 'u=1,z1=2'")
    p.set_defaults(fn=cmd_bgg_check)

    p = sub.add_parser("ra-decompose", help="R_a isotypic components")
    common(p, fmt=True, cutoff=True)
    p.set_defaults(fn=cmd_ra_decompose)

    p = sub.add_parser("rspec", help="special-fiber components with T_{p,q,r} weights")
    common(p, fmt=True, cutoff=True)
    p.set_defaults(fn=cmd_rspec)

    p = sub.add_parser("generators", help="weight-semigroup generator families")
    common(p, fmt=True)
    p.set_defaults(fn=cmd_generators)

    p = sub.add_parser("kstar-check", help="random K*/BGG dictionary crosschecks")
    common(p, fmt=True, seed=True)
    p.add_argument("--count", type=_nonnegative, default=20)
    p.set_defaults(fn=cmd_kstar_check)

    p = sub.add_parser("verify-thm112", help="generic (1,3,r3+2,r3) family")
    common(p, seed=True)
    p.add_argument("--r3", type=int, required=True)
    p.set_defaults(fn=cmd_verify_thm112)

    p = sub.add_parser("verify-monomial", help="monomial (1,2t,2t,1) family")
    common(p, seed=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(fn=cmd_verify_monomial)

    p = sub.add_parser("verify-d4", help="split (1,4,4,1) quadratic relation")
    common(p)
    p.set_defaults(fn=cmd_verify_d4)

    p = sub.add_parser("q1", help="generating-cycle coefficient u_{I,J,K}")
    common(p)
    p.add_argument("--format", type=int, nargs=4, required=True)
    p.add_argument("--I", required=True, help="comma-separated 1-based indices")
    p.add_argument("--J", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(fn=cmd_q1)

    p = sub.add_parser("suite", help="run a verification suite")
    common(p)
    p.add_argument("name", nargs="?", default="paper-checks")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
