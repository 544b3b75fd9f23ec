"""Self-tests for the benchmark's aggregation and checks, on forged records.

    python3 perf/test_aggregate.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import aggregate as A  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUP_SPAN = {"spmd_npb": "core.setup", "serve_recorded": "serve.setup",
              "cluster_dvfs": "cluster.setup"}


def forge(cell="c", pass_=0, traced=False, total_s=1.0, setup_s=0.1,
          counts=None, sim=None, failure="", workload="spmd_npb",
          covered=1.0, times=None, phase_ms=None):
    """One episode record: a setup span, then a loop span filling `covered`
    of the rest of the episode."""
    total = int(total_s * 1e9)
    setup = int(setup_s * 1e9)
    loop_end = setup + int((total - setup) * covered)
    rec = {
        "kind": "episode", "cell": cell, "pass": pass_,
        "traced": traced,
        "spans": [["episode", "", 0, total],
                  [SETUP_SPAN[workload], "episode", 0, setup],
                  ["sim.loop", "episode", setup, loop_end]],
        "counts": dict(counts or {"events": 100, "segments": 50,
                                  "work_items": 10, "mig.speed": 3}),
        "times": dict(times or {}),
        "sim": dict(sim or {"runtime_s": 2.0, "p99_ms": 5.0,
                            "drop_rate": 0.0}),
        "failure": failure,
    }
    if phase_ms is not None:
        rec["phase_ms"] = phase_ms
    return A.Episode(rec)


END = {"kind": "end", "peak_rss_mb": 10.0}


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(A.median([3, 1, 2]), 2)
        self.assertEqual(A.median([4, 1, 2, 3]), 2.5)
        self.assertEqual(A.median([]), 0.0)

    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(101))
        self.assertAlmostEqual(A.percentile(xs, 90), 90.0)
        self.assertAlmostEqual(A.percentile([0, 10], 25), 2.5)
        self.assertEqual(A.percentile([7], 99), 7)

    def test_tail_rank_keeps_ten_samples_beyond(self):
        self.assertEqual(A.tail(list(range(20)))[1], "p50")
        self.assertEqual(A.tail(list(range(40)))[1], "p75")
        self.assertEqual(A.tail(list(range(100)))[1], "p90")
        self.assertEqual(A.tail(list(range(999)))[1], "p95")
        self.assertEqual(A.tail(list(range(1000)))[1], "p99")
        self.assertEqual(A.tail(list(range(10000)))[1], "p99.9")

    def test_tail_with_too_few_samples_is_the_labelled_maximum(self):
        self.assertEqual(A.tail([1.0, 5.0, 3.0]), (5.0, "max"))
        self.assertEqual(A.tail(list(range(19))), (18, "max"))


class PerCellMedian(unittest.TestCase):
    def episodes(self, outlier):
        eps = []
        for p in range(5):
            eps.append(forge(cell="fast", pass_=p, total_s=1.0))
            slow = 10.0 if (outlier and p == 3) else 2.0
            eps.append(forge(cell="slow", pass_=p, total_s=slow))
        return eps

    def test_one_preempted_episode_does_not_move_episodes_per_s(self):
        clean = A.end_to_end("spmd_npb", self.episodes(False), END)
        noisy = A.end_to_end("spmd_npb", self.episodes(True), END)
        self.assertAlmostEqual(clean["episodes_per_s"][0], 2 / 3.0)
        self.assertEqual(clean["episodes_per_s"][0], noisy["episodes_per_s"][0])
        self.assertEqual(clean["requests_per_s"][0], noisy["requests_per_s"][0])

    def test_requests_per_s_counts_first_pass_work_per_cell(self):
        eps = [forge(cell="a", pass_=p, total_s=2.0,
                     counts={"work_items": 300}) for p in range(3)]
        e2e = A.end_to_end("serve_recorded", eps, END)
        self.assertAlmostEqual(e2e["requests_per_s"][0], 150.0)

    def test_p50_and_tail_scale_cells_to_a_common_size(self):
        eps = [forge(cell="a", pass_=p, total_s=1.0 + 0.01 * p)
               for p in range(11)]
        eps += [forge(cell="b", pass_=p, total_s=3.0 + 0.03 * p)
                for p in range(11)]
        e2e = A.end_to_end("spmd_npb", eps, END)
        # Both cells scale onto the mean cell median, 2.1 s.
        self.assertAlmostEqual(e2e["episode_s_p50"][0], 2.1)
        self.assertAlmostEqual(e2e["episode_s_tail"][0], 2.1)
        self.assertEqual(e2e["episode_s_tail"][2], "p50 of n=22")

    def test_single_cell_times_are_unscaled(self):
        times = [1.0, 1.5, 4.0]
        eps = [forge(pass_=p, total_s=t) for p, t in enumerate(times)]
        self.assertEqual(A.cell_scaled(eps, A.Episode.total), times)

    def test_per_layer_times_average_cell_medians(self):
        eps = []
        for p in range(3):
            eps.append(forge(cell="a", pass_=p, traced=True, setup_s=0.1))
            eps.append(forge(cell="b", pass_=p, traced=True,
                             setup_s=0.3 if p != 1 else 0.9))
        self.assertAlmostEqual(
            A.per_episode_mean(eps, lambda ep: ep.dur("core.setup")), 0.2)


class Gates(unittest.TestCase):
    def test_failed_episode_counts_and_makes_run_incorrect(self):
        eps = [forge(pass_=0), forge(pass_=1, failure="hit the time cap")]
        r = A.evaluate("spmd_npb", eps, END, False)
        self.assertFalse(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (2, 1))

    def test_clean_run_is_correct(self):
        eps = [forge(pass_=p) for p in range(3)]
        r = A.evaluate("spmd_npb", eps, END, False)
        self.assertTrue(r["correct"], r["problems"])
        self.assertEqual(r["failed"], 0)

    def test_later_pass_must_reproduce_the_first(self):
        drift = {"events": 101, "segments": 50, "work_items": 10,
                 "mig.speed": 3}
        eps = [forge(pass_=0), forge(pass_=1, counts=drift)]
        r = A.evaluate("spmd_npb", eps, END, False)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)

    def test_traced_copy_must_match_its_twin(self):
        extra = {"events": 100, "segments": 50, "work_items": 10,
                 "mig.speed": 3, "window_queries": 7}
        ok = [forge(), forge(traced=True, counts=extra)]
        self.assertEqual(A.identity_failures(ok), [])
        bad_mig = dict(extra, **{"mig.speed": 4})
        bad = [forge(), forge(traced=True, counts=bad_mig)]
        self.assertEqual(len(A.identity_failures(bad)), 1)
        self.assertFalse(A.evaluate("spmd_npb", bad, END, True)["correct"])

    def test_phase_spans_must_cover_the_episode(self):
        eps = [forge(), forge(traced=True, covered=0.95)]
        self.assertEqual(A.coverage_failures(eps), [])
        eps = [forge(), forge(traced=True, covered=0.7)]
        self.assertEqual(len(A.coverage_failures(eps)), 1)

    def test_serve_gate_is_reported(self):
        eps = [forge(workload="serve_recorded",
                     failure="offered != admitted + dropped",
                     counts={"pull.pulled": 1, "spans": 1})]
        r = A.evaluate("serve_recorded", eps, END, False)
        self.assertIn("offered != admitted + dropped", " ".join(r["problems"]))


class Floors(unittest.TestCase):
    def test_each_workload_needs_its_mechanism(self):
        idle = [forge(counts={"mig.speed": 0, "pull.pulled": 0, "spans": 5,
                              "pool_migrations": 0})]
        for w in A.WORKLOADS:
            self.assertTrue(A.floor_failures(w, idle), w)
        busy = [forge(counts={"mig.speed": 2, "pull.pulled": 1, "spans": 5,
                              "pool_migrations": 1})]
        for w in A.WORKLOADS:
            self.assertEqual(A.floor_failures(w, busy), [], w)

    def test_serve_needs_spans(self):
        eps = [forge(counts={"pull.pulled": 3, "spans": 0})]
        self.assertEqual(A.floor_failures("serve_recorded", eps),
                         ["no request spans recorded"])


class Contract(unittest.TestCase):
    """The metric names the aggregator prints are exactly those that
    BENCHMARK.json declares, with the declared units."""

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def check(self, trace, section):
        declared = {m["name"]: m["unit"] for m in self.spec[section]}
        for w in A.WORKLOADS:
            eps = [forge(workload=w, phase_ms=[1.0, 2.0],
                         counts={"pull.pulled": 1, "spans": 1,
                                 "pool_migrations": 1, "mig.speed": 1,
                                 "events": 10, "segments": 5,
                                 "work_items": 3})]
            if trace:
                eps.append(forge(workload=w, traced=True,
                                 counts=dict(eps[0].counts)))
            r = A.evaluate(w, eps, END, trace)
            got = {k: u for k, (_, u) in r["metrics"].items()}
            self.assertEqual(got, declared, w)

    def test_end_to_end_names_and_units(self):
        self.check(False, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check(True, "per_layer")

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         A.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
