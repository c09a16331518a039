"""Tracing for the benchmark's traced run, installed from outside `src/`.

`Tracer.install()` wraps the public functions of each layer module, and
the `MPoly`/`ExactMatrix` methods named in `METHODS`, and rebinds every
module attribute and class attribute that held the original function, so
`kacmoody.tpqr_cartan_matrix` is wrapped as well as
`formats.tpqr_cartan_matrix`, and `MPoly.__rmul__` as well as `__mul__`.

Each call records a span (name, start, end, parent, job) in memory; spans
are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children.  Counts of work come from
return values and arguments (`DERIVED`).  `kacmoody.reflect` and
`formats.tpqr_cartan_matrix` run about 156,000 times per E6 BGG job, so
they are only counted; their time stays in the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

LAYERS = ("cli", "formats", "exact", "schur", "kacmoody", "rings", "complexes")

# Small helpers called in inner loops; their time stays with the caller.
HOT = {
    "kacmoody": {"reflect_root", "root_labels", "height", "s_height"},
    "schur": {"is_dominant", "is_partition", "conjugate"},
}
COUNT_ONLY = {("kacmoody", "reflect"), ("formats", "tpqr_cartan_matrix")}

# (class, method names, span name)
METHODS = (
    ("MPoly", ("__mul__", "__rmul__"), "exact.mpoly_mul"),
    ("MPoly", ("__add__", "__radd__"), "exact.mpoly_add"),
    ("MPoly", ("__str__", "__repr__"), "exact.mpoly_str"),
    ("ExactMatrix", ("det",), "exact.det"),
    ("ExactMatrix", ("matmul",), "exact.matmul"),
    ("ExactMatrix", ("rank",), "exact.rank"),
    ("ExactMatrix", ("substitute",), "exact.substitute"),
)


def _term_products(args, result) -> int:
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else (1 if b else 0))


# span name -> (counter name, f(args, result) -> int)
DERIVED: Dict[str, Tuple[str, Callable]] = {
    "kacmoody.weyl_elements": ("elements", lambda a, r: len(r)),
    "kacmoody.enumerate_WS": ("kept", lambda a, r: sum(len(v) for v in r.values())),
    "kacmoody.character_series": ("weights", lambda a, r: len(r)),
    "kacmoody.parabolic_verma_series": ("terms", lambda a, r: len(r)),
    "kacmoody.weyl_denominator_sum": ("terms", lambda a, r: len(r)),
    "kacmoody.roots_by_denominator": ("roots", lambda a, r: len(r)),
    "rings.mu_enumerate": ("mus", lambda a, r: len(r)),
    "exact.mpoly_mul": ("term_products", _term_products),
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.job = -1
        self.counters: Dict[Tuple[int, str], int] = defaultdict(int)
        self._patched: List[Tuple[object, str, Callable]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        derived = DERIVED.get(name)
        clock = self.clock
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.job_of.append(self.job)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if derived is not None:
                self.counters[(self.job, f"{name}.{derived[0]}")] += derived[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counters[(self.job, key)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each module and class attribute
        that held the original."""
        replace: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"resatlas.{layer}"]
            if layer == "cli":
                targets = {"main": mod.main}
            else:
                targets = {
                    n: f
                    for n, f in vars(mod).items()
                    if inspect.isfunction(f)
                    and f.__module__ == mod.__name__
                    and not n.startswith("_")
                    and n not in HOT.get(layer, ())
                }
            for n, f in targets.items():
                name = f"{layer}.{n}"
                wrap = self.counter if (layer, n) in COUNT_ONLY else self.span
                replace[id(f)] = wrap(name, f)
        exact = sys.modules["resatlas.exact"]
        for cls_name, methods, name in METHODS:
            cls = getattr(exact, cls_name)
            fn = vars(cls)[methods[0]]
            replace[id(fn)] = self.span(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "resatlas" and not modname.startswith("resatlas."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and getattr(replace[id(val)], "__wrapped__", None) is val:
                    self._patch(mod, attr, replace[id(val)])
                elif inspect.isclass(val) and val.__module__.startswith("resatlas"):
                    for m, f in list(vars(val).items()):
                        w = replace.get(id(f))
                        if w is not None and w.__wrapped__ is f:
                            self._patch(val, m, w)

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, wrapper.__wrapped__))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> array:
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self, jobs: int) -> Dict:
        """Totals per span name (calls, self_s) and per counter, overall and
        per job."""
        own = self.self_times()
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        per_job: List[Dict[str, float]] = [defaultdict(float) for _ in range(jobs)]
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            j = self.job_of[i]
            if 0 <= j < jobs:
                per_job[j][f"{name}.calls"] += 1
                per_job[j][f"{name}.self_s"] += own[i]
        counters: Dict[str, int] = defaultdict(int)
        for (j, key), value in self.counters.items():
            counters[key] += value
            if 0 <= j < jobs:
                per_job[j][key] += value
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": dict(counters),
            "per_job": [dict(d) for d in per_job],
            "spans": len(self.start),
            "nested_points": self._points_in_rank_checks(),
        }

    def _points_in_rank_checks(self) -> int:
        """seeded_random_point calls made inside be_rank_check."""
        target = self._ids.get("exact.seeded_random_point")
        check = self._ids.get("complexes.be_rank_check")
        if target is None or check is None:
            return 0
        n = 0
        for i, nid in enumerate(self.name):
            if nid != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != check:
                p = self.parent[p]
            n += p >= 0
        return n

    def write(self, path, jobs) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "jobs": [list(j) for j in jobs],
                    "fields": ["name", "parent", "job", "start", "end"],
                    "spans": [
                        list(self.name), list(self.parent), list(self.job_of),
                        list(self.start), list(self.end),
                    ],
                },
                fh,
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# The per-layer metrics, in BENCHMARK.json order: (name, unit, better).
def _timed(name: str, extra: Tuple[str, ...] = ()) -> List[Tuple[str, str, str]]:
    out = [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return out + [(f"{name}.{e}", "count", "lower") for e in extra]


PER_LAYER: List[Tuple[str, str, str]] = (
    [("cli.main.self_s", "s", "lower")]
    + _timed("formats.classify")
    + _timed("formats.symmetric_signature")
    + [("formats.tpqr_cartan_matrix.calls", "count", "lower")]
    + _timed("kacmoody.weyl_elements", ("elements",))
    + _timed("kacmoody.enumerate_WS")
    + [
        ("kacmoody.enumerate_WS.kept", "count", "higher"),
        ("kacmoody.ws_yield", "ratio", "higher"),
        ("kacmoody.reflect.calls", "count", "lower"),
    ]
    + _timed("kacmoody.character_series", ("weights",))
    + _timed("kacmoody.parabolic_verma_series", ("terms",))
    + _timed("kacmoody.finite_positive_roots")
    + _timed("kacmoody.labels_to_coords")
    + _timed("kacmoody.weyl_denominator_sum", ("terms",))
    + _timed("kacmoody.roots_by_denominator", ("roots",))
    + _timed("kacmoody.verify_denominator_identity")
    + _timed("rings.mu_enumerate", ("mus",))
    + _timed("rings.dictionary_crosscheck")
    + _timed("rings.rspec_component")
    + _timed("rings.semigroup_generators")
    + _timed("schur.schur_dim")
    + _timed("exact.mpoly_mul", ("term_products",))
    + _timed("exact.mpoly_add")
    + _timed("exact.det")
    + _timed("exact.matmul")
    + _timed("exact.mpoly_str")
    + _timed("exact.rank")
    + _timed("exact.substitute")
    + [("exact.seeded_random_point.calls", "count", "lower")]
    + _timed("complexes.thm112_build")
    + _timed("complexes.verify_complex")
    + _timed("complexes.be_rank_check")
    + [("complexes.points_per_rank_check", "ratio", "lower")]
    + _timed("complexes.be_multipliers")
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli"]
    + [("trace.spans", "count", "lower"), ("trace.overhead_s", "s", "lower")]
)


def per_layer_metrics(summary: Dict, overhead_s: float) -> Dict[str, float]:
    """Values for every PER_LAYER metric from a traced run's summary."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    values: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(base, counters.get(name, 0))
        elif field == "self_s" and base in LAYERS:
            values[name] = sum((v for k, v in self_s.items() if k.startswith(base + ".")), 0.0)
        elif field == "self_s":
            values[name] = self_s.get(base, 0.0)
        else:
            values[name] = counters.get(name, 0)
    values["kacmoody.ws_yield"] = _ratio(
        counters.get("kacmoody.enumerate_WS.kept", 0),
        counters.get("kacmoody.weyl_elements.elements", 0),
    )
    values["complexes.points_per_rank_check"] = _ratio(
        summary["nested_points"], calls.get("complexes.be_rank_check", 0)
    )
    values["trace.spans"] = summary["spans"]
    values["trace.overhead_s"] = overhead_s
    return values
