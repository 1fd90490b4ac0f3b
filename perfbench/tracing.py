"""Spans around the public functions of each lmicert module.

The traced run installs a wrapper on every binding of each function in
TARGETS: the defining module, every lmicert module that imported it by
name, and the class for methods.  Each call records a span (name,
start, end, parent span, job id); spans stay in memory and are
written when the run ends.  A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

# (module, function or Class.method), in layer order
TARGETS = [
    ("cli", "main"),
    ("poly", "parse_polynomial"),
    ("poly", "Polynomial.restrict"),
    ("realroots", "count_real_roots"),
    ("realroots", "side_counts"),
    ("realroots", "isolate_real_roots"),
    ("realroots", "square_free_decompose"),
    ("rzcheck", "RaySampler.directions"),
    ("rzcheck", "rz_check"),
    ("rzcheck", "rigid_convexity_check"),
    ("rzcheck", "hyperbolicity_check"),
    ("rzcheck", "boundary_samples"),
    ("topology", "oval_profile"),
    ("pencil", "membership"),
    ("pencil", "is_psd"),
    ("pencil", "determinant_polynomial"),
    ("pencil", "reduce_to_monic"),
    ("construct", "represent"),
    ("construct", "intercept_normalize"),
    ("construct", "match_offdiagonal"),
    ("construct", "verify_representation"),
]

# the wrapped functions each workload must call at least once: a
# function renamed or re-imported behind the wrappers' back shows up
# here as a missing span instead of as zero time
EXPECTED = {
    "scan": ["cli.main", "poly.parse_polynomial", "poly.restrict",
             "realroots.count_real_roots", "realroots.side_counts",
             "realroots.isolate_real_roots",
             "realroots.square_free_decompose",
             "rzcheck.RaySampler.directions",
             "rzcheck.rigid_convexity_check",
             "rzcheck.hyperbolicity_check", "rzcheck.boundary_samples",
             "topology.oval_profile"],
    "reject": ["cli.main", "poly.parse_polynomial", "poly.restrict",
               "realroots.count_real_roots",
               "realroots.square_free_decompose",
               "rzcheck.RaySampler.directions", "rzcheck.rz_check",
               "rzcheck.rigid_convexity_check",
               "rzcheck.hyperbolicity_check", "topology.oval_profile",
               "construct.represent"],
    "construct": ["cli.main", "poly.parse_polynomial", "poly.restrict",
                  "realroots.count_real_roots",
                  "realroots.isolate_real_roots",
                  "rzcheck.RaySampler.directions", "rzcheck.rz_check",
                  "pencil.membership", "pencil.is_psd",
                  "pencil.determinant_polynomial", "construct.represent",
                  "construct.intercept_normalize",
                  "construct.match_offdiagonal",
                  "construct.verify_representation"],
    "spectrahedron": ["cli.main", "pencil.membership", "pencil.is_psd",
                      "pencil.determinant_polynomial",
                      "pencil.reduce_to_monic"],
}

# scans that take their rays from RaySampler.directions
SAMPLED_SCANS = ("rzcheck.rz_check", "rzcheck.rigid_convexity_check",
                 "rzcheck.hyperbolicity_check", "topology.oval_profile")


def span_name(module: str, target: str) -> str:
    # Polynomial.restrict is reported as poly.restrict; other methods
    # keep their class name
    return f"{module}.{target.removeprefix('Polynomial.')}"


class Tracer:
    """Span recorder.  Span fields: [name, start, end, parent, job, ok,
    extra]; `extra` holds the number of directions a sampler made."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job: Optional[str] = None
        self.patches: List[tuple] = []
        self.bindings: Dict[str, int] = {}

    def _wrap(self, name: str, func):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.job, False, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                span[5] = True
                return result
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if span[5] and name == "rzcheck.RaySampler.directions":
                    span[6] = len(result)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "lmicert" or name.startswith("lmicert.")}
        for module, target in TARGETS:
            name = span_name(module, target)
            owner = modules[f"lmicert.{module}"]
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
                self.bindings[name] = 1
                continue
            func = getattr(owner, target)
            wrapper = self._wrap(name, func)
            count = 0
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, attr, wrapper)
                        count += 1
            self.bindings[name] = count

    def _patch(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.patches):
            setattr(owner, attr, value)
        self.patches.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ["name", "start", "end", "parent", "job", "ok", "extra"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": keys, "spans": self.spans}, handle)


NAMES = [span_name(m, t) for m, t in TARGETS]
CALL_STATS = [n for n in NAMES if n not in (
    "cli.main", "poly.parse_polynomial", "rzcheck.rz_check",
    "rzcheck.rigid_convexity_check", "rzcheck.hyperbolicity_check",
    "rzcheck.boundary_samples", "topology.oval_profile")]
RATIOS = ["realroots.yun_per_ray", "rzcheck.rays_used_share",
          "construct.verify_per_represent", "construct.det_per_represent",
          "construct.success_share", "construct.exact_share",
          "trace.overhead"]
# known defects the construct workload's probe still meets (workload.py)
COUNTS = ["construct.known_defects"]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in NAMES:
        if name in CALL_STATS:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in RATIOS:
        units[name] = "ratio"
    for name in COUNTS:
        units[name] = "count"
    return units


def _ancestor(spans, idx: int, names) -> Optional[int]:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return None


def report(tracer: Tracer, records, workload: str,
           exact_share: float) -> dict:
    """Per-layer metrics of a traced run.  `calls` and `self_s` are per
    timed job, so runs of different length compare.  `exact_share`
    comes from the oracles, not from spans."""
    spans = tracer.spans
    jobs = len(records)
    calls: Dict[str, int] = {n: 0 for n in NAMES}
    self_s: Dict[str, float] = {n: 0.0 for n in NAMES}
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for idx, span in enumerate(spans):
        calls[span[0]] += 1
        self_s[span[0]] += span[2] - span[1] - child[idx]

    metrics: Dict[str, float] = {}
    for name in NAMES:
        if name in CALL_STATS:
            metrics[f"{name}.calls"] = calls[name] / jobs
        metrics[f"{name}.self_s"] = self_s[name] / jobs

    def share(num, den):
        return num / den if den else 0.0

    metrics["realroots.yun_per_ray"] = share(
        calls["realroots.square_free_decompose"], calls["poly.restrict"])
    scanned = sum(1 for idx, s in enumerate(spans)
                  if s[0] == "poly.restrict"
                  and _nearest_scan(spans, idx) is not None)
    made = sum(s[6] or 0 for s in spans
               if s[0] == "rzcheck.RaySampler.directions")
    metrics["rzcheck.rays_used_share"] = share(scanned, made)

    # verify and det calls per represent call that returned: a failed
    # construction stops before it verifies
    represent = ("construct.represent",)
    outer = [idx for idx, s in enumerate(spans) if s[0] == represent[0]
             and _ancestor(spans, idx, represent) is None]
    returned = [idx for idx in outer if spans[idx][5]]
    under = {"construct.verify_representation": 0,
             "pencil.determinant_polynomial": 0}
    for idx, s in enumerate(spans):
        top = None
        anc = _ancestor(spans, idx, represent) if s[0] in under else None
        while anc is not None:
            top, anc = anc, _ancestor(spans, anc, represent)
        if top is not None and spans[top][5]:
            under[s[0]] += 1
    metrics["construct.verify_per_represent"] = share(
        under["construct.verify_representation"], len(returned))
    metrics["construct.det_per_represent"] = share(
        under["pencil.determinant_polynomial"], len(returned))
    metrics["construct.success_share"] = share(len(returned), len(outer))
    metrics["construct.exact_share"] = exact_share

    missing = [n for n in EXPECTED[workload] if calls[n] == 0]
    unbound = [n for n, count in tracer.bindings.items() if count == 0]
    busy = sum(r.seconds for r in records)
    return {
        "metrics": metrics,
        "missing_spans": missing,
        "unbound": unbound,
        "bindings": tracer.bindings,
        "span_count": len(spans),
        "baseline_table": baseline_table(spans, records),
        "sanity": sanity(metrics, busy / jobs),
    }


def _nearest_scan(spans, idx: int) -> Optional[int]:
    """The closest enclosing scan span, if that scan samples rays;
    restrict calls under boundary_samples or construct helpers do not
    count as scanned sampler rays."""
    names = SAMPLED_SCANS + ("rzcheck.boundary_samples",
                             "construct.intercept_normalize")
    anc = _ancestor(spans, idx, names)
    if anc is None or spans[anc][0] not in SAMPLED_SCANS:
        return None
    return anc


# rows of the baseline table: (label, span names, times per call)
BASELINE_ROWS = [
    ("rz_check", ("rzcheck.rz_check", "rzcheck.rigid_convexity_check"), 1),
    ("oval_profile", ("topology.oval_profile",), 1),
    ("boundary_samples", ("rzcheck.boundary_samples",), 1),
    ("membership x100", ("pencil.membership",), 100),
    ("determinant_polynomial", ("pencil.determinant_polynomial",), 1),
]
BASELINE_DEGREES = (3, 4, 6, 8)


def baseline_table(spans, records) -> List[str]:
    """Mean per-call time of the baseline operations by input degree
    (pencil size for pencil operations), laid out like the baseline
    table: the calls made directly by a job of that degree, outermost
    only."""
    size_of = {r.job.id: r.job.size for r in records}
    rows = ["| operation | " + " | ".join(f"deg {d}" for d in
                                          BASELINE_DEGREES) + " |",
            "|---" * (len(BASELINE_DEGREES) + 1) + "|"]
    for label, names, times in BASELINE_ROWS:
        per: Dict[int, List[float]] = {}
        for idx, s in enumerate(spans):
            if s[0] in names and _ancestor(spans, idx, names) is None:
                per.setdefault(size_of.get(s[4]), []).append(s[2] - s[1])
        cells = []
        for d in BASELINE_DEGREES:
            xs = per.get(d)
            cells.append(_fmt_seconds(times * statistics.fmean(xs))
                         if xs else "-")
        rows.append(f"| `{label}` | " + " | ".join(cells) + " |")
    return rows


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:.0f} ms" if s < 1 else f"{s:.2f} s"


def sanity(metrics: Dict[str, float], job_s: float) -> Dict[str, float]:
    """Shares of traced job time to hold against the profiles: on scan,
    restriction plus root analysis should be most of it; on reject,
    building the rays up front is a visible part; represent verifies
    twice."""
    scan_core = metrics["poly.restrict.self_s"] + sum(
        v for k, v in metrics.items()
        if k.startswith("realroots.") and k.endswith(".self_s"))
    return {
        "restrict_plus_realroots_share": scan_core / job_s,
        "directions_share":
            metrics["rzcheck.RaySampler.directions.self_s"] / job_s,
        "verify_per_represent": metrics["construct.verify_per_represent"],
    }
