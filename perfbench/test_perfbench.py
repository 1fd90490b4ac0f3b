"""Self-test of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks that a tiny run of each workload prints every metric named in
BENCHMARK.json (end to end) and in tracing.py (per layer) with its
unit, and that every oracle rejects a deliberately corrupted output,
so that a run with no failures cannot come from an oracle that accepts
everything.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction as F
from pathlib import Path

import gen
import run
import speed
import tracing
import workload

ROOT = Path(__file__).resolve().parent.parent


def bench(name: str, trace: int):
    """(result line, info) of a short run: two rounds."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         name, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


class MetricsPrinted(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracing.metric_units())

    def test_every_workload_prints_every_metric(self):
        for name in run.WORKLOADS:
            for trace, units in ((0, run.END_TO_END),
                                 (1, tracing.metric_units())):
                with self.subTest(workload=name, trace=trace):
                    result, info = bench(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertEqual(info["failures"], [])
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    # the probe runs on construct only; its represent
                    # job is listed while the known defect remains
                    self.assertLessEqual(
                        {d["job"] for d in info["known_defects"]},
                        {"construct-represent-reducible"}
                        if name == "construct" else set())
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


class OraclesReject(unittest.TestCase):
    """Run one real job per oracle, then corrupt its output."""

    @classmethod
    def setUpClass(cls):
        cls.lm = workload.import_lmicert()
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=work))
        cls.b = workload.Builder(cls.tmp, cls.lm)
        cls.rng = random.Random(11)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def accepted_then_rejected(self, job, corrupt, state=None):
        """Returns a copy of the oracle's state after accepting."""
        outcome = job.run()
        self.assertIsNone(job.check(outcome))
        accepted = dict(state or {})
        corrupt(outcome)
        self.assertIsNotNone(job.check(outcome))
        return accepted

    def poly_file(self, tag, p):
        return self.b.write(f"{tag}.poly", gen.format_poly(p))

    @staticmethod
    def edit_json(outcome, **changes):
        doc = json.loads(outcome.stdout)
        doc.update(changes)
        outcome.stdout = json.dumps(doc)

    def test_flipped_verdict_rz(self):
        path = self.poly_file("disc", gen.DISC)
        job = self.b.cli_job("t", 2, ["check", path], workload.expect_rz)
        self.accepted_then_rejected(
            job, lambda o: self.edit_json(o, kind="CertifiedNotRZ"))

    def test_flipped_verdict_not_rz(self):
        path = self.poly_file("fermat", gen.fermat(self.rng, 4))
        job = self.b.cli_job("t", 4, ["check", path], workload.expect_not_rz)

        def flip(o):
            self.edit_json(o, kind="ProbablyRZ")
            o.code = 0
        self.accepted_then_rejected(job, flip)

    def test_wrong_oval_count(self):
        path = self.poly_file("disc", gen.DISC)
        job = self.b.cli_job("t", 2, ["topology", path, "--rays", "31"],
                             workload.expect_topology(1, False))
        self.accepted_then_rejected(job, lambda o: self.edit_json(o, ovals=2))

    def test_boundary_sample_moved(self):
        path = self.poly_file("disc", gen.DISC)
        job = self.b.cli_job("t", 2, ["boundary", path],
                             workload.expect_boundary(gen.DISC, (F(0), F(0))))

        def move(o):
            doc = json.loads(o.stdout)
            s = doc["samples"][5]
            mu = F(s["parameter"]) * F(9, 10)
            s["parameter"] = str(mu)
            s["x"] = str(mu * F(s["direction"][0]))
            s["y"] = str(mu * F(s["direction"][1]))
            o.stdout = json.dumps(doc)
        self.accepted_then_rejected(job, move)

    def perturbed_pencil(self, p, tag):
        path = self.poly_file(tag, p)
        pencil = str(self.tmp / f"{tag}.pencil")
        state = {}
        job = self.b.cli_job("t", gen.poly_degree(p),
                             ["represent", path, "--out", pencil],
                             workload.expect_represent(p, state),
                             out_file=pencil)

        def perturb(o):
            mats = gen.parse_pencil(o.files["out"])
            mats[1][0][0] += F(1, 10 ** 6)
            text = gen.format_pencil(mats)
            o.files["out"] = text
            self.edit_json(o, pencil=text)
        return self.accepted_then_rejected(job, perturb, state)

    def test_perturbed_exact_pencil(self):
        accepted = self.perturbed_pencil(gen.ellipse(self.rng), "ellipse")
        self.assertTrue(accepted["exact"])

    def test_perturbed_approx_pencil(self):
        accepted = self.perturbed_pencil(gen.determinantal(self.rng, 3)[1],
                                         "det3")
        self.assertFalse(accepted["exact"])

    def test_wrong_verify_kind(self):
        p = gen.ellipse(self.rng)
        path = self.poly_file("ell", p)
        pencil = str(self.tmp / "ell.pencil")
        state = {}
        rep = self.b.cli_job("t", 2, ["represent", path, "--out", pencil],
                             workload.expect_represent(p, state),
                             out_file=pencil)
        self.assertIsNone(rep.check(rep.run()))
        ver = self.b.cli_job("t", 2, ["verify", path, pencil],
                             workload.expect_verify(state))
        self.accepted_then_rejected(
            ver, lambda o: self.edit_json(o, kind="ApproxMatch"))
        det = self.b.cli_job("t", 2, ["det", pencil],
                             workload.expect_det_of(lambda: state["mats"]))

        def bump(o):
            q = gen.parse_poly(o.stdout)
            q[(0, 0)] += 1
            o.stdout = gen.format_poly(q)
        self.accepted_then_rejected(det, bump)

    def test_swapped_membership_label(self):
        mats, forms = gen.diagonal_pencil(self.rng, 4)
        pencil = self.lm.parse_pencil(gen.format_pencil(mats))
        pt = gen.membership_point(self.rng, forms, "Boundary")
        job = workload.Job(
            "t", "membership", 4,
            lambda: workload.Outcome(0, value=self.lm.membership(pencil, pt)),
            workload.expect_label("Boundary"))
        self.accepted_then_rejected(
            job, lambda o: setattr(o, "value", self.lm.Membership.INTERIOR))

    def test_wrong_det_scale(self):
        base, big, scale, rank = gen.embedded_singular(self.rng)
        path = self.b.write("emb.pencil", gen.format_pencil(big))
        job = self.b.cli_job("t", len(big), ["reduce-monic", path],
                             workload.expect_reduction(base, scale, rank))
        self.accepted_then_rejected(
            job, lambda o: self.edit_json(o, det_scale=str(scale * 4)))

    def test_wrong_product(self):
        mats, forms = gen.diagonal_pencil(self.rng, 4)
        path = self.b.write("diag.pencil", gen.format_pencil(mats))
        job = self.b.cli_job("t", 4, ["det", path],
                             workload.expect_poly(gen.forms_product(forms)))

        def bump(o):
            q = gen.parse_poly(o.stdout)
            q[(1, 0)] = q.get((1, 0), 0) + F(1, 3)
            o.stdout = gen.format_poly(q)
        self.accepted_then_rejected(job, bump)


class KnownDefects(unittest.TestCase):
    @unittest.expectedFailure
    def test_represent_reducible_conic(self):
        """det(I + x1 A1 + x2 A2) for commuting A1, A2: two real lines
        with irrational intercepts.  represent exits with "off-diagonal
        closed form needs a nonnegative square" although the pencil
        represents it.  The construct workload's probe runs this input
        after its timed jobs and reports it as a known defect."""
        lm = workload.import_lmicert()
        p = lm.parse_polynomial("vars 2\n1 0 0\n-1/2 1 0\n-2 0 1\n"
                                "-1/4 2 0\n3 1 1\n-4 0 2\n")
        lm.represent(p)


class Probe(unittest.TestCase):
    """run_probe lists only represent's ConstructionError as the known
    defect; any other outcome goes through the oracles."""

    def job(self, jid, kind, outcome, check=lambda o: None):
        return workload.Job(jid, kind, 2, lambda: outcome, check)

    def test_construction_error_is_the_known_defect(self):
        doc = json.dumps({"kind": "ConstructionError", "error": "no"})
        jobs = [self.job("rep", "represent", workload.Outcome(3, doc)),
                self.job("verify", "verify", workload.Outcome(0),
                         lambda o: "must not run")]
        got = workload.run_probe(jobs)
        self.assertEqual(got["known_defects"],
                         [{"job": "rep", "error": "no"}])
        self.assertEqual((got["attempted"], got["failures"]), (1, []))

    def test_mismatch_and_wrong_pencils_fail(self):
        doc = json.dumps({"kind": "Mismatch"})
        jobs = [self.job("rep", "represent", workload.Outcome(3, doc),
                         lambda o: "wrong pencil"),
                self.job("det", "det", workload.Outcome(0),
                         lambda o: "wrong det")]
        got = workload.run_probe(jobs)
        self.assertEqual(got["known_defects"], [])
        self.assertEqual([f["job"] for f in got["failures"]],
                         ["rep", "det"])


class Pieces(unittest.TestCase):
    def test_tail_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(workload.tail_pct(len(xs)), 90)
        value = workload.percentile(xs, 90)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertEqual(workload.percentile(xs * 3, 90), 90)

    def test_gauge_scales_by_nearby_samples(self):
        gauge = speed.Gauge()
        gauge.starts, gauge.seconds = [0.0, 1.0, 10.0], [2e-3, 4e-3, 1e-3]
        self.assertAlmostEqual(gauge.scale(0.5, 0.6),
                               speed.REF_SECONDS / 3e-3)
        self.assertAlmostEqual(gauge.scale(10.0, 10.2),
                               speed.REF_SECONDS / 1e-3)

    def test_summary_takes_each_jobs_median_scaled_latency(self):
        fast = workload.Job("a", "check", 2, None, None)
        slow = workload.Job("b", "check", 2, None, None)
        records = [workload.JobRecord(job, 9.0, None, 0.0, scaled)
                   for job, scaled in ((fast, 1.0), (slow, 3.0),
                                       (fast, 5.0), (slow, 3.0),
                                       (fast, 1.0), (slow, 4.0))]
        result = workload.summarize(records, 60.0, 50)
        self.assertEqual(result["rounds"], 3)
        self.assertAlmostEqual(result["jobs_per_s"], 2 / 4.0)
        self.assertAlmostEqual(result["job_p50_ms"], 2e3)
        self.assertAlmostEqual(result["raw_jobs_per_s"], 1 / 9.0)

    def test_squarefree_part_keeps_double_roots(self):
        # (t - 1)^2 (t + 2) = t^3 - 3t + 2
        g = gen.squarefree_part([F(2), F(-3), F(0), F(1)])
        self.assertEqual([c / g[-1] for c in g], [F(-2), F(1), F(1)])
        self.assertLess(gen.eval1(g, F(1) - F(1, 10 ** 6)) *
                        gen.eval1(g, F(1) + F(1, 10 ** 6)), 0)

    def test_restrict(self):
        x0, v = (F(1, 2), F(-1)), (F(2), F(3, 7))
        f = gen.restrict(gen.CONCENTRIC, x0, v)
        t = F(5, 3)
        self.assertEqual(gen.eval1(f, t), gen.poly_eval(
            gen.CONCENTRIC, (x0[0] + t * v[0], x0[1] + t * v[1])))

    def test_generators_agree_with_own_determinant(self):
        rng = random.Random(3)
        mats, forms = gen.diagonal_pencil(rng, 4)
        self.assertEqual(gen.determinant_poly(mats), gen.forms_product(forms))
        for label in ("Interior", "Boundary", "Outside"):
            pt = gen.membership_point(rng, forms, label)
            self.assertEqual(gen.forms_label(forms, pt), label)

    def test_cayley_transform_is_orthogonal(self):
        q = gen.cayley_orthogonal(random.Random(5), 7)
        self.assertEqual(gen.matmul(gen.transpose(q), q), gen.identity(7))
        self.assertEqual(gen.matmul(q, gen.inverse(q)), gen.identity(7))

    def test_tracer_wraps_every_binding_and_restores(self):
        lm = workload.import_lmicert()
        original = lm.rzcheck.count_real_roots
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(lm.rzcheck.count_real_roots, original)
            self.assertIs(lm.rzcheck.count_real_roots,
                          lm.topology.count_real_roots)
            self.assertEqual(tracer.bindings["realroots.count_real_roots"], 5)
            lm.rz_check(lm.parse_polynomial(gen.format_poly(gen.DISC)),
                        (0, 0), lm.RaySampler(2, deterministic_count=3,
                                              random_count=0))
        finally:
            tracer.uninstall()
        self.assertIs(lm.rzcheck.count_real_roots, original)
        names = {s[0] for s in tracer.spans}
        self.assertIn("poly.restrict", names)
        self.assertIn("rzcheck.RaySampler.directions", names)
        directions = next(s for s in tracer.spans
                          if s[0] == "rzcheck.RaySampler.directions")
        self.assertEqual(directions[6], 3)


if __name__ == "__main__":
    unittest.main()
