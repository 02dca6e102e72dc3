"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Checks the log generator, the self-time arithmetic, the removal of the
tracing wrappers, the division of op times by the reference kernel's, and
that BENCHMARK.json names exactly the metrics and
workloads that run.py reports.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
import unittest
from array import array

import reference
import run

sys.path.insert(0, str(run.SRC))

from abctrans import agent, analysis, inference, task  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class LogGeneratorTest(unittest.TestCase):
    def test_same_seed_same_log(self):
        for n in (1, 100, 2500):
            first = workloads.generate_log(random.Random(7), n)
            self.assertEqual(first, workloads.generate_log(random.Random(7), n))
            self.assertEqual(len(first[1]), n)
        self.assertNotEqual(
            workloads.generate_log(random.Random(7), 500)[0],
            workloads.generate_log(random.Random(8), 500)[0],
        )

    def test_same_seed_same_pass(self):
        a = workloads.SegmentLogs(None, 3).pass_ops(0)
        self.assertEqual(a, workloads.SegmentLogs(None, 3).pass_ops(0))
        self.assertNotEqual(a, workloads.SegmentLogs(None, 3).pass_ops(1))

    def test_lengths_cover_every_stratum(self):
        lengths = sorted(workloads.log_lengths(random.Random(1), workloads.LOGS_PER_PASS))
        self.assertGreaterEqual(lengths[0], workloads.LOG_MIN_EVENTS)
        self.assertLessEqual(lengths[-1], workloads.LOG_MAX_EVENTS)
        self.assertGreater(lengths[-1], 2500)

    def test_ingest_accepts_every_emitted_log(self):
        wl = workloads.SegmentLogs(None, 5)
        for spec in wl.pass_ops(0):
            data, events = wl.prepare(spec)
            trace = analysis.ingest_tsv(data)
            got = [(e.t_start, e.kind, e.chunk_id, e.slot) for e in trace.events]
            self.assertEqual(got, events)


class SelfTimeTest(unittest.TestCase):
    # a [0, 100] holds b [10, 40] and d [50, 90]; b holds c [15, 25].
    # A second root e [200, 230] makes a range cut at an op boundary.
    NAMES = ["a", "b", "c", "d", "e"]
    SPANS = [
        (0, -1, 0, 100),
        (1, 0, 10, 40),
        (2, 1, 15, 25),
        (3, 0, 50, 90),
        (4, -1, 200, 230),
    ]

    def flat(self):
        return array("q", [v for span in self.SPANS for v in span])

    def test_self_time_subtracts_direct_children(self):
        agg = tracing.aggregate(self.NAMES, self.flat())
        self_ns = {name: round(agg[name]["self_ms"] * 1e6) for name in self.NAMES}
        self.assertEqual(self_ns, {"a": 30, "b": 20, "c": 10, "d": 40, "e": 30})
        self.assertEqual(round(agg["a"]["ms"] * 1e6), 100)
        self.assertEqual([agg[n]["calls"] for n in self.NAMES], [1, 1, 1, 1, 1])

    def test_range_counts_only_its_spans(self):
        agg = tracing.aggregate(self.NAMES, self.flat(), 4, 5)
        self.assertEqual([agg[n]["calls"] for n in self.NAMES], [0, 0, 0, 0, 1])

    def test_open_span_is_refused(self):
        spans = self.flat()
        spans[1 * tracing.FIELDS + 3] = 0
        with self.assertRaises(ValueError):
            tracing.aggregate(self.NAMES, spans)

    def test_recorder_nests_spans(self):
        rec = tracing.Recorder()
        inner = rec.wrap("inner", lambda: None)
        outer = rec.wrap("outer", lambda: inner())
        with rec.span("op"):
            outer()
            inner()
        with rec.paused():
            outer()
        agg = rec.aggregate()
        self.assertEqual({n: a["calls"] for n, a in agg.items()}, {"op": 1, "outer": 1, "inner": 2})
        parents = [rec.spans[i * tracing.FIELDS + 1] for i in range(rec.n_spans)]
        self.assertEqual(parents, [-1, 0, 1, 0])


class WrapperRemovalTest(unittest.TestCase):
    def test_uninstall_restores_every_site(self):
        before = (
            agent.select_policy, agent.expected_free_energy, agent.bayes_update,
            inference.bayes_update, task.ReadingEvidenceModel.likelihood_row,
            analysis.group_policies,
        )
        rec = tracing.Recorder()
        run.install_tracing(rec)
        try:
            self.assertIsNot(agent.select_policy, before[0])
            self.assertFalse(rec.restored())
            analysis.group_policies([])
            self.assertEqual(rec.n_spans, 1)
        finally:
            rec.uninstall()
        self.assertTrue(rec.restored())
        after = (
            agent.select_policy, agent.expected_free_energy, agent.bayes_update,
            inference.bayes_update, task.ReadingEvidenceModel.likelihood_row,
            analysis.group_policies,
        )
        self.assertTrue(all(x is y for x, y in zip(before, after)))
        analysis.group_policies([])
        self.assertEqual(rec.n_spans, 1)


class ReferenceTest(unittest.TestCase):
    def reference(self, runs):
        ref = reference.Reference()
        for start, ns in runs:
            ref.starts.append(start)
            ref.ends.append(start + ns)
        return ref

    def test_own_time_leaves_out_kernel_runs_inside_the_op(self):
        ref = self.reference([(50, 10), (1000, 20), (1500, 30), (3000, 40)])
        self.assertEqual(ref.own_ns(1000, 2000), 1000 - 20 - 30)
        self.assertEqual(ref.own_ns(1100, 1400), 300)

    def test_relative_divides_by_the_median_kernel_run_nearby(self):
        w = reference.WINDOW_NS
        ref = self.reference([(0, 100), (w, 200), (2 * w, 400), (4 * w, 10_000)])
        # An op from 500 to w + 500 is normalised by the runs at 0, w and 2w,
        # and the run at w, which interrupted it, is left out of its time.
        self.assertAlmostEqual(ref.relative(500, w + 500), (w - 200) / 200)
        with self.assertRaises(RuntimeError):
            ref.relative(10 * w, 11 * w)

    def test_timer_samples_and_is_removed(self):
        before = signal.getsignal(signal.SIGALRM)
        with reference.Reference() as ref:
            end = time.perf_counter() + 4 * reference.PERIOD_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(ref.starts), 2)
        self.assertEqual(len(ref.starts), len(ref.ends))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_and_workloads_match_the_runner(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, run.PER_LAYER
        )


if __name__ == "__main__":
    unittest.main()
