"""lmicert benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`.  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced run.  The lines before it give the environment, the `src/`
line counts, every failed job with its oracle message, the known
defects the `construct` probe still meets, and (traced) the baseline
table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
import tracing
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "lmicert"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5               # set-ups timed per run, median reported
DEADLINE_S = 170                # a whole invocation ends within this

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "job_tail_ms": "ms", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, seconds: int, mode: str,
              deadline: float, traced: bool = False):
    """Start a workload process; return (seconds from start to READY,
    parsed result or None).  The process is killed at `deadline`
    (a time.perf_counter() value)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--workdir",
           str(WORK / f"{workload}-{seed}-{os.getpid()}")]
    if traced:
        cmd.append("--traced")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        if first.strip() != "READY":
            raise ChildFailed(f"{workload} {mode}: set-up failed")
        rest, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode}: no result within "
                          f"{DEADLINE_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode}: exit {proc.returncode}")
    if mode == "setup":
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def src_line_counts() -> dict:
    return {path.stem: len(path.read_text("utf-8").splitlines())
            for path in sorted(PACKAGE.glob("*.py"))}


def environment(args) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_setup(args, deadline: float) -> tuple:
    """(set-up seconds as measured, scaled to the reference speed by
    samples taken just before and just after it)."""
    before = speed.scale_now()
    ready, _ = run_child(args.workload, args.seed, args.seconds, "setup",
                         deadline)
    return ready, ready * (before + speed.scale_now()) / 2


def untraced(args, info: dict, deadline: float):
    setups = [timed_setup(args, deadline) for _ in range(SETUP_SAMPLES)]
    _, res = run_child(args.workload, args.seed, args.seconds, "run",
                       deadline)
    info.update(setup_samples_s=[raw for raw, _ in setups],
                setup_samples_scaled_s=[scaled for _, scaled in setups],
                run=res)
    values = dict(res, setup_s=statistics.median(s for _, s in setups))
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in END_TO_END.items()}
    probe = res["probe"]
    return (res["attempted"] + probe["attempted"],
            res["failures"] + probe["failures"], metrics,
            probe["known_defects"])


def traced(args, info: dict, deadline: float):
    _, plain = run_child(args.workload, args.seed, args.seconds, "run",
                         deadline)
    _, res = run_child(args.workload, args.seed, args.seconds, "run",
                       deadline, traced=True)
    tr = res.pop("trace")
    values = dict(tr["metrics"])
    values["trace.overhead"] = plain["jobs_per_s"] / res["jobs_per_s"]
    values["construct.known_defects"] = len(res["probe"]["known_defects"])
    units = tracing.metric_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failures = [f for r in (plain, res)
                for f in r["failures"] + r["probe"]["failures"]]
    failures += [{"job": "trace", "error": f"no span recorded for {name}"}
                 for name in tr["missing_spans"]]
    failures += [{"job": "trace", "error": f"no binding found for {name}"}
                 for name in tr["unbound"]]
    info.update(untraced_run=plain, traced_run=res,
                trace={k: v for k, v in tr.items() if k != "metrics"})
    for line in tr["baseline_table"]:
        print(line)
    attempted = sum(r["attempted"] + r["probe"]["attempted"]
                    for r in (plain, res))
    return attempted, failures, metrics, res["probe"]["known_defects"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no lmicert sources at {PACKAGE}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    info = {"environment": environment(args),
            "src_lines": src_line_counts()}
    try:
        attempted, failures, metrics, known = (
            traced if args.trace else untraced)(args, info,
                                                start + DEADLINE_S)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["wall_s"] = time.perf_counter() - start
    info["failures"] = failures
    info["known_defects"] = known
    for defect in known:
        print(f"KNOWN DEFECT {defect['job']}: {defect['error']}",
              file=sys.stderr)
    seen: dict = {}
    for failure in failures:
        key = (failure["job"], failure["error"])
        seen[key] = seen.get(key, 0) + 1
    for (job, error), count in seen.items():
        print(f"FAILED {job} (x{count}): {error}", file=sys.stderr)
    print(json.dumps({"info": info}))
    failed = sum(1 for f in failures if f["job"] != "trace")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
