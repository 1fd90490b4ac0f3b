"""One workload process: set up, run the seeded jobs closed loop, check
every output against its oracle, and print the result.

Started by run.py, as

    python3 perfbench/workload.py --workload scan --seed 1 --seconds 20 \
        --mode run --workdir .perfbench_work/<name> [--traced]

With --mode setup the process stops after set-up.  In both modes it
prints the line READY once set-up is done (run.py times set-up up to
that line).  With --mode run it then prints one JSON result line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan", "reject", "construct", "spectrahedron")

# a run repeats one round of jobs made in set-up, at least MIN_ROUNDS
# times; the tail percentile is the one for MIN_ROUNDS rounds, so that
# it does not depend on how many rounds fit into --seconds
MIN_ROUNDS = 3

RESOLUTION = F(1, 2 ** 20)      # the CLI's default boundary resolution
APPROX_TOL = 1e-8               # pencil determinant vs p/p(0), ApproxMatch


@dataclass
class Outcome:
    code: int
    stdout: str = ""
    stderr: str = ""
    files: Dict[str, str] = field(default_factory=dict)
    value: object = None


@dataclass
class Job:
    id: str
    kind: str                       # CLI command or "membership"
    size: int                       # degree of p, or pencil size
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Optional[str]]
    facts: dict = field(default_factory=dict)


# -- job construction ---------------------------------------------------


class Builder:
    """Writes inputs under the work directory and makes jobs on them."""

    def __init__(self, workdir: Path, lmicert):
        self.workdir = workdir
        self.lm = lmicert

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def cli_job(self, jid: str, size: int, argv: List[str],
                check: Callable[[Outcome], Optional[str]],
                out_file: Optional[str] = None) -> Job:
        cli = self.lm.cli

        def run() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            outcome = Outcome(code, out.getvalue(), err.getvalue())
            if out_file is not None and os.path.exists(out_file):
                outcome.files["out"] = Path(out_file).read_text("utf-8")
            return outcome

        return Job(jid, argv[0], size, run, check)


def _json_doc(outcome: Outcome) -> dict:
    try:
        return json.loads(outcome.stdout)
    except ValueError:
        return {}


def expect_rz(o: Outcome) -> Optional[str]:
    doc = _json_doc(o)
    if o.code != 0 or doc.get("kind") != "ProbablyRZ":
        return (f"expected ProbablyRZ with exit 0, got exit {o.code} "
                f"kind {doc.get('kind')!r}")
    return None


def expect_not_rz(o: Outcome) -> Optional[str]:
    doc = _json_doc(o)
    if o.code != 2 or doc.get("kind") != "CertifiedNotRZ":
        return (f"expected CertifiedNotRZ with exit 2, got exit {o.code} "
                f"kind {doc.get('kind')!r}")
    if not doc.get("witness_direction"):
        return "CertifiedNotRZ without a witness direction"
    return None


def expect_topology(ovals: int, pseudo_line: bool):
    def check(o: Outcome) -> Optional[str]:
        doc = _json_doc(o)
        got = (doc.get("ovals"), doc.get("pseudo_line"))
        if o.code != 0 or got != (ovals, pseudo_line):
            return (f"expected (ovals, pseudo_line) = {(ovals, pseudo_line)} "
                    f"with exit 0, got exit {o.code} {got}")
        return None
    return check


def expect_boundary(p: gen.Poly, x0: Tuple[F, F], rays: int = 181):
    """Each sample lies on its ray, p > 0 halfway to it, and a root of p
    on the ray lies within the resolution of it: the square-free part
    of the restriction, which has every real root of p on the ray as a
    simple root, changes sign there."""
    def check(o: Outcome) -> Optional[str]:
        doc = _json_doc(o)
        if o.code != 0 or "samples" not in doc:
            return f"boundary exited {o.code} without samples"
        samples = doc["samples"]
        if len(samples) + len(doc["unbounded_angles"]) != 2 * rays:
            return (f"{len(samples)} samples and "
                    f"{len(doc['unbounded_angles'])} unbounded sides, "
                    f"expected {2 * rays} in all")
        squarefree = {}
        for s in samples:
            v = tuple(F(c) for c in s["direction"])
            mu = F(s["parameter"])
            if (x0[0] + mu * v[0], x0[1] + mu * v[1]) != \
                    (F(s["x"]), F(s["y"])):
                return f"sample at angle {s['angle']} is off its ray"
            if v not in squarefree:
                squarefree[v] = gen.squarefree_part(gen.restrict(p, x0, v))
            g = squarefree[v]
            half = (x0[0] + mu / 2 * v[0], x0[1] + mu / 2 * v[1])
            if gen.poly_eval(p, half) <= 0:
                return (f"sample at angle {s['angle']} is not the nearest "
                        f"crossing")
            lo = gen.eval1(g, mu - RESOLUTION)
            hi = gen.eval1(g, mu + RESOLUTION)
            if lo * hi > 0:
                return (f"no root of p within {RESOLUTION} of the sample "
                        f"at angle {s['angle']}")
        return None
    return check


def grid(d: int) -> List[Tuple[F, F]]:
    """(d+1)^2 points: equality of two polynomials of degree <= d at
    all of them is an identity."""
    nodes = [F(k - d // 2, 4) for k in range(d + 1)]
    return [(a, b) for a in nodes for b in nodes]


def compare_pencil(p: gen.Poly, mats) -> Tuple[bool, float]:
    """(exact, worst absolute deviation) of det(pencil) against p/p(0)
    on the grid, with the benchmark's own determinant."""
    d = gen.poly_degree(p)
    p0 = p[(0, 0)]
    worst, exact = 0.0, True
    for pt in grid(d):
        diff = gen.bareiss_det(gen.pencil_at(mats, pt)) - \
            gen.poly_eval(p, pt) / p0
        if diff:
            exact = False
            worst = max(worst, abs(float(diff)))
    return exact, worst


def check_monic_pencil(mats, size: int) -> Optional[str]:
    if len(mats) != 3 or len(mats[0]) != size:
        return f"pencil is not of size {size} in 2 variables"
    if mats[0] != gen.identity(size):
        return "pencil is not monic"
    for mat in mats:
        if mat != gen.transpose(mat):
            return "pencil is not symmetric"
    return None


def expect_represent(p: gen.Poly, state: dict):
    d = gen.poly_degree(p)

    def check(o: Outcome) -> Optional[str]:
        state.clear()
        doc = _json_doc(o)
        if o.code != 0 or doc.get("kind") not in ("ExactMatch", "ApproxMatch"):
            return (f"represent exited {o.code} kind {doc.get('kind')!r}: "
                    f"{doc.get('error', '')}")
        if doc.get("size") != d or o.files.get("out") != doc.get("pencil"):
            return "represent report and --out pencil disagree"
        try:
            mats = gen.parse_pencil(doc["pencil"])
        except (ValueError, IndexError) as exc:
            return f"pencil does not parse: {exc}"
        bad = check_monic_pencil(mats, d)
        if bad:
            return bad
        exact, worst = compare_pencil(p, mats)
        if doc["kind"] == "ExactMatch" and not exact:
            return f"ExactMatch but det(pencil) - p/p(0) reaches {worst:.3g}"
        if worst > APPROX_TOL:
            return f"det(pencil) - p/p(0) reaches {worst:.3g} > {APPROX_TOL}"
        state["exact"] = exact
        state["mats"] = mats
        return None
    return check


def expect_verify(state: dict):
    def check(o: Outcome) -> Optional[str]:
        if "exact" not in state:
            return "no checked pencil from the represent job to verify"
        want = "ExactMatch" if state["exact"] else "ApproxMatch"
        kind = _json_doc(o).get("kind")
        if o.code != 0 or kind != want:
            return f"expected {want} with exit 0, got exit {o.code} {kind!r}"
        return None
    return check


def expect_det_of(mats_of: Callable[[], Optional[list]]):
    """det output equals the own Bareiss determinant on a full grid."""
    def check(o: Outcome) -> Optional[str]:
        mats = mats_of()
        if mats is None:
            return "no checked pencil to compare the determinant with"
        if o.code != 0:
            return f"det exited {o.code}"
        try:
            q = gen.parse_poly(o.stdout)
        except ValueError as exc:
            return f"det output does not parse: {exc}"
        for pt in grid(len(mats[0])):
            own = gen.bareiss_det(gen.pencil_at(mats, pt))
            if gen.poly_eval(q, pt) != own:
                return f"det output differs from det(pencil) at {pt}"
        return None
    return check


def expect_poly(expected: gen.Poly):
    def check(o: Outcome) -> Optional[str]:
        try:
            got = gen.parse_poly(o.stdout) if o.code == 0 else None
        except ValueError as exc:
            return f"output does not parse: {exc}"
        if got != expected:
            return f"exit {o.code}: polynomial differs from the known product"
        return None
    return check


def expect_reduction(base, scale: F, rank: int):
    points = [(F(1, 3), F(-1, 2)), (F(-2), F(3, 5)), (F(5, 7), F(1))]

    def check(o: Outcome) -> Optional[str]:
        doc = _json_doc(o)
        if o.code != 0 or doc.get("rank") != rank or \
                F(doc.get("det_scale", "0")) != scale:
            return (f"expected rank {rank} det_scale {scale}, got exit "
                    f"{o.code} rank {doc.get('rank')} "
                    f"det_scale {doc.get('det_scale')}")
        mats = gen.parse_pencil(doc["pencil"])
        bad = check_monic_pencil(mats, rank)
        if bad:
            return bad
        for pt in points:
            if gen.bareiss_det(gen.pencil_at(mats, pt)) != \
                    gen.bareiss_det(gen.pencil_at(base, pt)):
                return f"reduced pencil changes the determinant at {pt}"
        return None
    return check


def expect_label(label: str):
    def check(o: Outcome) -> Optional[str]:
        got = getattr(o.value, "value", None)
        if got != label:
            return f"expected {label}, got {got}"
        return None
    return check


# -- workloads ----------------------------------------------------------
# Each builder returns one round: a list of groups of jobs.  Groups are
# shuffled by the seed; jobs inside a group keep their order (verify
# and det read the pencil that represent wrote).


def _poly_file(b: Builder, tag: str, p: gen.Poly) -> str:
    return b.write(f"{tag}.poly", gen.format_poly(p))


# Round sizes.  A run repeats one round, the same inputs in the same
# order, as many times as fit best into --seconds (at least MIN_ROUNDS
# times), and each job counts at the median of its latencies in the
# run, scaled to the reference speed (speed.py).  Rounds are short, so
# that every job runs at least three times: 7-10 s for scan, 9-10 s
# for construct, 6-7 s for spectrahedron and about 1 s for reject on a
# 2-core x86-64 box, depending on how busy the machine is.  Every run
# has the same job mix, whatever the speed of the machine.


def scan_round(b: Builder, rng: random.Random) -> List[List[Job]]:
    """Every ray is scanned: real zero inputs only.

    Line tests on conics (about 0.1 s), on cubics and at degree 4
    (about 0.2 s; the median falls among them), boundaries, topology on
    cubics (about 0.6 s; the tail falls among them) and a line test at
    degree 6."""
    polys = {"disc": gen.DISC, "concentric": gen.CONCENTRIC,
             "oddcubic": gen.ODD_CUBIC, "tangent": gen.TANGENT_CIRCLES,
             "ell": gen.ellipse(rng), "det2": gen.determinantal(rng, 2)[1]}
    # the topology oracle needs curves that are not unions of lines
    polys.update({f"det3{c}": gen.determinantal(rng, 3, generic=True)[1]
                  for c in "abc"})
    polys["det4"] = gen.determinantal(rng, 4)[1]
    polys["det6"] = gen.determinantal(rng, 6)[1]
    files = {key: _poly_file(b, key, p) for key, p in polys.items()}
    origin = (F(0), F(0))
    menu = [(cmd, key, expect_rz) for cmd in ("check", "hyperbolic")
            for key in ("disc", "ell", "det2", "det3a", "det3b")]
    menu += [("check", key, expect_rz)
             for key in ("det4", "det6", "concentric")]
    menu += [("topology", key, expect_topology(1, True))
             for key in ("det3a", "det3b", "det3c", "oddcubic")]
    menu += [("boundary", key, expect_boundary(polys[key], origin))
             for key in ("disc", "det3a")]
    groups = [[b.cli_job(f"scan-{cmd}-{key}",
                         gen.poly_degree(polys[key]), [cmd, files[key]],
                         check)] for cmd, key, check in menu]
    # the tangent circles touch on the first ray from (-4, 0)
    groups.append([b.cli_job("scan-check-tangent", 4,
                             ["check", files["tangent"], "--point=-4,0"],
                             expect_rz)])
    return groups


# interior points of the lobe curve's right lobe at which the default
# rays find a witness; the curve is not rigidly convex anywhere
LOBE_POINTS = ["1/2,0", "3/5,0", "7/10,0", "4/5,0", "3/5,1/10", "7/10,-1/10"]


def reject_part(b: Builder, rng: random.Random, r: int) -> List[List[Job]]:
    """Early exits: every input is certifiably not real zero."""
    groups = []
    quartic = gen.fermat(rng, 4)
    sextic = gen.fermat(rng, 6)
    prod2 = gen.poly_mul(gen.fermat(rng, 4), gen.determinantal(rng, 2)[1])
    prod3 = gen.poly_mul(gen.fermat(rng, 4), gen.determinantal(rng, 3)[1])
    inputs = [("quartic", quartic, ("check", "hyperbolic", "represent",
                                    "topology")),
              ("sextic", sextic, ("check", "hyperbolic", "represent",
                                  "topology")),
              ("prod2", prod2, ("check", "represent")),
              ("prod3", prod3, ("check", "hyperbolic"))]
    for name, p, cmds in inputs:
        path = _poly_file(b, f"p{r}-{name}", p)
        for cmd in cmds:
            groups.append([b.cli_job(f"reject-p{r}-{cmd}-{name}",
                                     gen.poly_degree(p), [cmd, path],
                                     expect_not_rz)])
    # over REJECT_PARTS parts every point comes up equally often, so
    # the mix does not depend on the seed
    lobe = _poly_file(b, f"p{r}-lobe", gen.LOBE)
    for k, cmd in enumerate(("check", "topology")):
        point = LOBE_POINTS[(r + 3 * k) % len(LOBE_POINTS)]
        groups.append([b.cli_job(f"reject-p{r}-{cmd}-lobe", 4,
                                 [cmd, lobe, f"--point={point}"],
                                 expect_not_rz)])
    return groups


REJECT_PARTS = len(LOBE_POINTS)


def reject_round(b: Builder, rng: random.Random) -> List[List[Job]]:
    return [group for r in range(REJECT_PARTS)
            for group in reject_part(b, rng, r)]


def represent_group(b: Builder, name: str, p: gen.Poly,
                    factors: Optional[List[gen.Poly]]) -> List[Job]:
    """represent, then verify and det on the pencil it wrote."""
    d = gen.poly_degree(p)
    path = _poly_file(b, name, p)
    pencil = str(b.workdir / f"{name}.pencil")
    argv = ["represent", path, "--out", pencil]
    if factors:
        argv += ["--factors", b.write(
            f"{name}.factors", "\n".join(gen.format_poly(f) for f in factors))]
    state: dict = {}
    jid = f"construct-%s-{name}"
    rep = b.cli_job(jid % "represent", d, argv, expect_represent(p, state),
                    out_file=pencil)
    rep.facts = state
    return [
        rep,
        b.cli_job(jid % "verify", d, ["verify", path, pencil],
                  expect_verify(state)),
        b.cli_job(jid % "det", d, ["det", pencil],
                  expect_det_of(lambda: state.get("mats"))),
    ]


def construct_round(b: Builder, rng: random.Random) -> List[List[Job]]:
    """represent, then verify and det on the pencil it wrote, for
    degrees 2 to 5.  Commuting pencils are redrawn: represent fails on
    some of them, a known defect that defect_probe reports instead."""
    def det(d: int) -> gen.Poly:
        return gen.determinantal(rng, d, generic=True)[1]

    cases = [("ellipse", gen.ellipse(rng), None), ("det2", det(2), None)]
    cases += [(f"det3{c}", det(3), None) for c in "abc"]
    cases.append(("det4", det(4), None))
    f1, f2 = det(2), det(3)
    cases.append(("factored", gen.poly_mul(f1, f2), [f1, f2]))
    return [represent_group(b, name, p, factors)
            for name, p, factors in cases]


def defect_probe(b: Builder) -> List[Job]:
    """The known defect of represent (README.md, known defects): the
    reducible conic, run once after the timed jobs of `construct`."""
    return represent_group(b, "reducible", gen.REDUCIBLE_CONIC, None)


def run_probe(jobs: List[Job]) -> dict:
    """Runs the probe's jobs in order.  represent exiting 3 with a
    ConstructionError is the known defect: it is listed under
    `known_defects` and the jobs that need its pencil do not run.  Any
    other outcome goes through the oracles like a timed job, and a
    failure is listed under `failures`."""
    known, failures, attempted = [], [], 0
    for job in jobs:
        attempted += 1
        try:
            outcome = job.run()
        except Exception as exc:
            failures.append({"job": job.id, "error":
                             f"raised {type(exc).__name__}: {exc}"})
            continue
        doc = _json_doc(outcome)
        if job.kind == "represent" and outcome.code == 3 and \
                doc.get("kind") == "ConstructionError":
            known.append({"job": job.id, "error": doc.get("error", "")})
            break
        error = job.check(outcome)
        if error is not None:
            failures.append({"job": job.id, "error": error})
    return {"attempted": attempted, "known_defects": known,
            "failures": failures}


# (pencils, queries per pencil) per pencil size: the median falls
# among the n=5 queries, spread over three pencils so that no one
# pencil's entries set it
MEMBERSHIP = {3: (1, 6), 4: (1, 6), 5: (3, 5), 6: (1, 4), 7: (1, 4),
              8: (1, 3)}
# the tail falls among the n=8 dets
DET_SIZES = (6, 7, 8, 8, 8, 8, 9, 10)
REDUCTIONS = 3


def spectrahedron_round(b: Builder, rng: random.Random) -> List[List[Job]]:
    """Pencil linear algebra only: membership, monic reduction, det."""
    groups = []
    lm = b.lm
    labels = ("Interior", "Boundary", "Outside")
    for n, (pencils, queries) in MEMBERSHIP.items():
        for i in range(pencils):
            mats, forms = gen.diagonal_pencil(rng, n)
            path = b.write(f"memb{n}-{i}.pencil", gen.format_pencil(mats))
            pencil = lm.parse_pencil(Path(path).read_text("utf-8"))
            for k in range(queries):
                label = labels[k % 3]
                pt = gen.membership_point(rng, forms, label)

                def run(pencil=pencil, pt=pt) -> Outcome:
                    return Outcome(0, value=lm.membership(pencil, pt))

                groups.append([Job(
                    f"spectrahedron-membership-n{n}-{i}-{k}",
                    "membership", n, run, expect_label(label))])
    for k in range(REDUCTIONS):
        base, big, scale, rank = gen.embedded_singular(rng)
        path = b.write(f"embedded{k}.pencil", gen.format_pencil(big))
        groups.append([b.cli_job(f"spectrahedron-reduce-monic-{k}",
                                 len(big[0]), ["reduce-monic", path],
                                 expect_reduction(base, scale, rank))])
    for k, n in enumerate(DET_SIZES):
        mats, forms = gen.diagonal_pencil(rng, n)
        path = b.write(f"det{k}.pencil", gen.format_pencil(mats))
        groups.append([b.cli_job(f"spectrahedron-det-n{n}-{k}", n,
                                 ["det", path],
                                 expect_poly(gen.forms_product(forms)))])
    return groups


ROUND_BUILDERS = {"scan": scan_round, "reject": reject_round,
                  "construct": construct_round,
                  "spectrahedron": spectrahedron_round}


def build_round(workload: str, seed: int, b: Builder) -> List[Job]:
    """The seeded round: a shuffled list of groups, flattened."""
    rng = random.Random(f"{workload}:{seed}")
    groups = ROUND_BUILDERS[workload](b, rng)
    rng.shuffle(groups)
    return [job for group in groups for job in group]


# -- running ------------------------------------------------------------


@dataclass
class JobRecord:
    job: Job
    seconds: float
    error: Optional[str]
    start: float
    scaled: float = 0.0         # seconds at the reference speed


def run_jobs(round_: List[Job], seconds: float,
             tracer=None) -> Tuple[List[JobRecord], float]:
    """Closed loop, one client: the round, again and again, as many
    times as fit best into `seconds` of wall time, and at least
    MIN_ROUNDS times.  Only the program call is
    timed; oracle checks and reference samples (speed.Gauge) run
    between calls."""
    records: List[JobRecord] = []
    gauge = speed.Gauge()
    start = time.perf_counter()
    r = 0
    while True:
        for job in round_:
            gauge.tick()
            if tracer is not None:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                outcome = job.run()
                error = None
            except Exception as exc:    # a job that raises is a failure
                outcome, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if error is None:
                error = job.check(outcome)
            if error is not None and outcome is not None and outcome.stderr:
                error += f" (stderr: {outcome.stderr.strip()[:200]})"
            records.append(JobRecord(job, elapsed, error, t0))
        r += 1
        elapsed = time.perf_counter() - start
        # stop when one more round would end more than half a round late
        if r >= MIN_ROUNDS and elapsed + elapsed / r / 2 >= seconds:
            break
    wall = time.perf_counter() - start
    gauge.tick()
    for rec in records:
        rec.scaled = rec.seconds * gauge.scale(rec.start,
                                               rec.start + rec.seconds)
    return records, wall


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten of n jobs above
    it (nearest rank)."""
    for pct in range(99, 0, -1):
        if n - -(-pct * n // 100) >= 10:    # n - ceil(pct * n / 100)
            return pct
    return 100


def percentile(latencies: Sequence[float], pct: int) -> float:
    xs = sorted(latencies)
    return xs[max(-(-pct * len(xs) // 100), 1) - 1]


def import_lmicert():
    if not (SRC / "lmicert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lmicert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lmicert
    import lmicert.cli
    if Path(lmicert.__file__).resolve().parent != (SRC / "lmicert").resolve():
        raise SystemExit("perfbench: lmicert was imported from outside "
                         "the checkout")
    return lmicert


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    lmicert = import_lmicert()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        builder = Builder(workdir, lmicert)
        round_ = build_round(args.workload, args.seed, builder)
        probe = defect_probe(builder) if args.workload == "construct" else []
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        tracer = None
        if args.traced:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        records, wall = run_jobs(round_, args.seconds, tracer)
        result = summarize(records, wall,
                           tail_pct(MIN_ROUNDS * len(round_)))
        if tracer is not None:
            tracer.uninstall()
        result["probe"] = run_probe(probe)
        if tracer is not None:
            result["trace"] = tracing.report(tracer, records, args.workload,
                                             result["exact_share"] or 0.0)
            spans = ROOT / ".perfbench_work" / \
                f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def summarize(records: List[JobRecord], wall: float, pct: int) -> dict:
    """Latency metrics count every job run at its job's median latency
    in the run, scaled to the reference speed (speed.py); whole rounds
    ran, so every job equally often.  The `raw_` figures are the same
    from the measured latencies as they are."""
    scaled: Dict[str, List[float]] = {}
    for rec in records:
        scaled.setdefault(rec.job.id, []).append(rec.scaled)
    typical = {jid: statistics.median(xs) for jid, xs in scaled.items()}
    latencies = [typical[rec.job.id] for rec in records]
    raw = [rec.seconds for rec in records]
    failures = [{"job": rec.job.id, "error": rec.error}
                for rec in records if rec.error]
    reps = [rec for rec in records if rec.job.kind == "represent"]
    exact = sum(1 for rec in reps
                if not rec.error and rec.job.facts.get("exact"))
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "rounds": len(records) // len(typical),
        "wall_s": wall,
        "busy_s": sum(raw),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * percentile(latencies, pct),
        "job_tail_pct": pct,
        "raw_jobs_per_s": len(raw) / sum(raw),
        "raw_job_p50_ms": 1e3 * statistics.median(raw),
        "raw_job_tail_ms": 1e3 * percentile(raw, pct),
        "speed_scale": sum(rec.scaled for rec in records) / sum(raw),
        "failed_share": len(failures) / len(records),
        "exact_share": exact / len(reps) if reps else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "p50_ms_by_kind_and_size": _p50_by(records, typical),
    }


def _p50_by(records, typical) -> Dict[str, list]:
    """{kind:size: [job count, median scaled latency in ms]}"""
    groups: Dict[str, Dict[str, float]] = {}
    for rec in records:
        key = f"{rec.job.kind}:{rec.job.size}"
        groups.setdefault(key, {})[rec.job.id] = typical[rec.job.id]
    return {k: [len(v), 1e3 * statistics.median(v.values())]
            for k, v in sorted(groups.items())}


if __name__ == "__main__":
    sys.exit(main())
