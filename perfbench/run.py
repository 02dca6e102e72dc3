"""Benchmark of the abctrans simulator and its trace analytics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/`` directory and nowhere else. One process, one thread, closed loop:
the next op starts when the previous op and its output checks have ended.
Inputs come only from ``--seed``.

With ``--trace 0`` the runner executes whole passes until the next would
end after ``--seconds``, while a timer runs the reference kernel of
``reference.py`` every 50 ms. Each op's own time is divided by the kernel
time measured around it, and the end-to-end figures are medians and sums of
those quotients, in ``ref`` (one kernel time), so that the host's changing
speed cancels; wall times are printed beside them. With ``--trace 1`` it
runs the workload's first pass three times untraced and three times
traced, whatever ``--seconds`` says, so that call counts are exact for the
seed, and reports the per-layer metrics per op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

REPEATS = 3  # runs of the pass, untraced and traced alike, in the traced run
SETUP_REPEATS = 6  # fresh set-up processes before the ops, and as many after
LOAD_REPEATS = 5

# Imports the package, loads the bundled task and builds both presets; the
# clock starts after interpreter start-up, which the package does not own.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import abctrans
from abctrans.taskfile import bundled_task_path, load_task
bundle = load_task(bundled_task_path())
configs = (abctrans.head_starter_config(), abctrans.large_context_planner_config())
print(repr(time.perf_counter() - t0), abctrans.__file__)
"""

END_TO_END = {
    "op_rel.p50": "ref",
    "op_rel.p90": "ref",
    "ops_per_kref": "1/kref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> (unit, better). Times and counts are per op unless the name says
# otherwise; the README maps each one to the end-to-end metric it moves.
PER_LAYER = {
    "inference.expected_free_energy.calls": ("count", "lower"),
    "inference.expected_free_energy.ms": ("ms", "lower"),
    "inference.expected_free_energy.us_per_call": ("us", "lower"),
    "inference.expected_free_energy.share": ("frac", "lower"),
    "inference.expected_information_gain.calls": ("count", "lower"),
    "task.likelihood_row.calls": ("count", "lower"),
    "task.likelihood_row.ms": ("ms", "lower"),
    "agent.enumerate_policies.calls": ("count", "lower"),
    "agent.enumerate_policies.ms": ("ms", "lower"),
    "agent.enumerate_policies.policies": ("count", "lower"),
    "agent.opening_policies.large_context_planner": ("count", "lower"),
    "agent.opening_policies.head_starter": ("count", "lower"),
    "agent.select_policy.calls": ("count", "lower"),
    "agent.select_policy.self_ms": ("ms", "lower"),
    "agent.select_policy.reuse_ratio": ("frac", "higher"),
    "agent.step.calls": ("count", "lower"),
    "agent.step.self_ms": ("ms", "lower"),
    "environment.apply_action.calls": ("count", "lower"),
    "environment.apply_action.ms": ("ms", "lower"),
    "inference.bayes_update.calls": ("count", "lower"),
    "inference.bayes_update.ms": ("ms", "lower"),
    "inference.policy_posterior.calls": ("count", "lower"),
    "inference.policy_posterior.ms": ("ms", "lower"),
    "analysis.ingest_tsv.ms": ("ms", "lower"),
    "analysis.segment_ohrf.ms": ("ms", "lower"),
    "analysis.group_policies.ms": ("ms", "lower"),
    "analysis.summarize.ms": ("ms", "lower"),
    "analysis.export_tsv.ms": ("ms", "lower"),
    "analysis.export_svg.ms": ("ms", "lower"),
    "analysis.events": ("count", "higher"),
    "taskfile.load_task.ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "src.lines": ("count", "lower"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Tally:
    """Failures and the digest of exported TSVs over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def record_failure(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)


class Group:
    """One pass of ops, which may be run more than once on the same inputs.

    The first run of an op is checked; every later one must export the same
    TSV. An op that raises or fails a check counts as failed once and is not
    run again. ``spans`` holds the (start, end) in ns of each op's latest
    run, or None for an op that failed.
    """

    def __init__(self, wl, ops, tally: Tally):
        self.wl, self.ops, self.tally = wl, ops, tally
        self.inputs = [wl.prepare(spec) for spec in ops]
        self.spans: list[tuple[int, int] | None] = [(0, 0)] * len(ops)
        self.tsv: list[bytes | None] = [None] * len(ops)
        self.repeats = 0
        tally.attempted += len(ops)

    def _problems(self, i: int, out) -> list[str]:
        if self.repeats == 0:
            problems, self.tsv[i] = self.wl.check(self.inputs[i], out)
            self.tally.digest.update(self.tsv[i])
            return problems
        if self.wl.export(out) != self.tsv[i]:
            return ["a repeat exported another TSV than the op's first run"]
        return []

    def run(self, rec=None) -> float:
        """One run of the pass; returns the summed wall time of its ops in ms."""
        self.wl.begin_pass()
        total = 0.0
        for i, inp in enumerate(self.inputs):
            if self.spans[i] is None:
                continue
            try:
                t0 = time.perf_counter_ns()
                if rec is None:
                    out = self.wl.run(inp)
                else:
                    with rec.span("op"):
                        out = self.wl.run(inp)
                t1 = time.perf_counter_ns()
                with rec.paused() if rec is not None else nullcontext():
                    problems = self._problems(i, out)
            except Exception as exc:  # the run goes on; the op counts as failed
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                self.spans[i] = None
                self.tally.record_failure(f"op {self.ops[i]!r}: {p}" for p in problems)
                continue
            total += (t1 - t0) / 1e6
            self.spans[i] = (t0, t1)
        self.repeats += 1
        return total


def measure_setup(runs: int) -> list[float]:
    """Set-up times, in s, of ``runs`` fresh processes one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, module_file = done.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported abctrans from {module_file}")
        times.append(float(seconds))
    return times


def quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, seconds: float) -> tuple[Tally, dict, list[str], list[str]]:
    """Whole passes, each run once, until the next would end after ``seconds``.

    At least one pass runs. The reference kernel runs on its timer from the
    first op to the last, and never while set-up is measured. Set-up is
    measured before the ops, after one process that only warms caches, and
    again after them, so that its median spans the run's changes of speed.
    """
    setup = measure_setup(SETUP_REPEATS + 1)[1:]
    tally = Tally()
    spans = []
    with Reference() as ref:
        t0 = time.perf_counter()
        passes, last = 0, 0.0
        while passes == 0 or time.perf_counter() - t0 + last <= seconds:
            started = time.perf_counter()
            group = Group(wl, wl.pass_ops(passes), tally)
            group.run()
            spans += [span for span in group.spans if span is not None]
            passes += 1
            last = time.perf_counter() - started
    setup += measure_setup(SETUP_REPEATS)
    rel = [ref.relative(*span) for span in spans]
    wall_ms = [ref.own_ns(*span) / 1e6 for span in spans]
    metrics = {}
    if rel:
        metrics = {
            "op_rel.p50": statistics.median(rel),
            "op_rel.p90": quantile(rel, 90),
            "ops_per_kref": 1e3 * len(rel) / sum(rel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
    kernel_ms = [(e - s) / 1e6 for s, e in zip(ref.starts, ref.ends)]
    info = [f"{passes} passes, {len(rel)} ops measured"]
    if rel:
        info.append(
            f"wall op_ms p50={statistics.median(wall_ms):.6g} p90={quantile(wall_ms, 90):.6g}, "
            f"reference kernel p50={statistics.median(kernel_ms):.4g} ms over {len(kernel_ms)} runs"
        )
    return tally, metrics, [], info


def _count_policies(enumerate_policies):
    signature = inspect.signature(enumerate_policies)

    def on_result(rec, args, kwargs, result):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        rec.add("agent.enumerate_policies.policies", len(result))
        cognitive = call.arguments["cognitive"]
        if not (cognitive.read_set or cognitive.placed or call.arguments["last_was_pause"]):
            rec.counts[f"agent.opening_policies.{call.arguments['cfg'].strategy}"] = len(result)

    return on_result


def _export_name(export_progression):
    signature = inspect.signature(export_progression)

    def name(args, kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        return f"analysis.export_{call.arguments['fmt']}"

    return name


def _count_events(rec, args, kwargs, result):
    rec.add("analysis.events", len(args[0].events))


def install_tracing(rec) -> None:
    """Wrap each public function where the package looks it up."""
    from abctrans import agent, analysis, environment, inference, task, taskfile

    sites = [
        (agent, "step", "agent.step", None),
        (agent, "select_policy", "agent.select_policy", None),
        (agent, "enumerate_policies", "agent.enumerate_policies",
         _count_policies(agent.enumerate_policies)),
        (agent, "expected_free_energy", "inference.expected_free_energy", None),
        (agent, "policy_posterior", "inference.policy_posterior", None),
        (agent, "bayes_update", "inference.bayes_update", None),
        (inference, "bayes_update", "inference.bayes_update", None),
        (inference, "expected_information_gain", "inference.expected_information_gain", None),
        (task.ReadingEvidenceModel, "likelihood_row", "task.likelihood_row", None),
        (environment, "apply_action", "environment.apply_action", None),
        (analysis, "ingest_tsv", "analysis.ingest_tsv", None),
        (analysis, "segment_ohrf", "analysis.segment_ohrf", _count_events),
        (analysis, "group_policies", "analysis.group_policies", None),
        (analysis, "summarize", "analysis.summarize", None),
        (analysis, "export_progression", _export_name(analysis.export_progression), None),
        (taskfile, "load_task", "taskfile.load_task", None),
    ]
    for owner, attr, name, on_result in sites:
        rec.install(owner, attr, name, on_result)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def per_layer(wl, workload: str, seed: int) -> tuple[Tally, dict, list[str], list[str]]:
    """Per-op layer metrics from a traced group of the workload's first pass.

    Untraced and traced repeats of the pass alternate, so both meet the same
    load from the rest of the machine; the ratio of the two groups' fastest
    repeats is the tracing overhead. The wrappers are installed for each
    traced repeat only. Times come from the fastest traced repeat. Call
    counts and the counts taken from results must be equal in every traced
    repeat.
    """
    from abctrans import taskfile
    from tracing import Recorder

    problems = []
    ops = wl.pass_ops(0)
    tally = Tally()
    untraced = Group(wl, ops, tally)
    traced = Group(wl, ops, tally)
    rec = Recorder()
    install_tracing(rec)
    try:
        path = taskfile.bundled_task_path()
        for _ in range(LOAD_REPEATS):
            taskfile.load_task(path)
    finally:
        rec.uninstall()
    load = rec.aggregate()["taskfile.load_task"]
    untraced_ms = math.inf
    repeats = []  # (first span, end span, counts, pass ms)
    for _ in range(REPEATS):
        untraced_ms = min(untraced_ms, untraced.run())
        install_tracing(rec)
        try:
            start, rec.counts = rec.n_spans, {}
            ms = traced.run(rec)
            repeats.append((start, rec.n_spans, rec.counts, ms))
        finally:
            rec.uninstall()
        if not rec.restored():
            problems.append("tracing wrappers were left installed")

    aggs = [rec.aggregate(start, end) for start, end, _, _ in repeats]
    exact = [
        ({name: a["calls"] for name, a in agg.items() if a["calls"]}, counts)
        for agg, (_, _, counts, _) in zip(aggs, repeats)
    ]
    if any(e != exact[0] for e in exact[1:]):
        problems.append("exact counts differ between traced repeats")
    fastest = min(range(REPEATS), key=lambda r: repeats[r][3])
    start, end, counts, traced_ms = repeats[fastest]
    OUT_DIR.mkdir(exist_ok=True)
    rec.save(OUT_DIR / f"spans-{workload}-{seed}.npz", start, end)

    agg = aggs[fastest]
    n_ops = len(ops)

    def per_op(name, field="ms"):
        return agg.get(name, {}).get(field, 0.0) / n_ops

    efe_calls = per_op("inference.expected_free_energy", "calls")
    select_calls = per_op("agent.select_policy", "calls")
    op_ms = per_op("op")
    m = {
        "inference.expected_free_energy.us_per_call":
            per_op("inference.expected_free_energy") * 1e3 / efe_calls if efe_calls else 0.0,
        "inference.expected_free_energy.share":
            per_op("inference.expected_free_energy") / op_ms if op_ms else 0.0,
        "agent.enumerate_policies.policies":
            counts.get("agent.enumerate_policies.policies", 0) / n_ops,
        "agent.opening_policies.large_context_planner":
            counts.get("agent.opening_policies.large_context_planner", 0),
        "agent.opening_policies.head_starter": counts.get("agent.opening_policies.head_starter", 0),
        "agent.select_policy.reuse_ratio":
            1.0 - per_op("agent.enumerate_policies", "calls") / select_calls if select_calls else 0.0,
        "analysis.events": counts.get("analysis.events", 0) / n_ops,
        "taskfile.load_task.ms": load["ms"] / load["calls"],
        "trace.overhead_frac": traced_ms / untraced_ms - 1.0,
        "src.lines": src_lines(),
    }
    for name in PER_LAYER.keys() - m.keys():
        span, field = name.rsplit(".", 1)
        m[name] = per_op(span, field)
    info = [
        f"{REPEATS} untraced and {REPEATS} traced repeats of {n_ops} ops",
        f"reuse_ratio base: {select_calls * n_ops:.0f} select_policy calls per pass",
        f"fastest pass untraced {untraced_ms / 1e3:.3f} s, traced {traced_ms / 1e3:.3f} s",
    ]
    return tally, {name: m[name] for name in PER_LAYER}, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abctrans" / "__init__.py").is_file():
        return fail(f"no abctrans package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import abctrans
    from abctrans.taskfile import bundled_task_path, load_task

    if not Path(abctrans.__file__).resolve().is_relative_to(SRC):
        return fail(f"abctrans was imported from {abctrans.__file__}, not {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    bundle = load_task(bundled_task_path())
    wl = WORKLOADS[args.workload](bundle, args.seed)

    if args.trace:
        tally, values, problems, info = per_layer(wl, args.workload, args.seed)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        tally, values, problems, info = end_to_end(wl, args.seconds)
        units = END_TO_END
    problems += tally.problems
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    shown = " ".join(f"{k}={v:.6g}{units[k]}" for k, v in values.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {'; '.join(info)}")
    print(f"  {shown}")
    print(f"  failed_frac={failed_frac:.6g} ({tally.failed}/{tally.attempted}) "
          f"tsv_sha256={tally.digest.hexdigest()}")
    result = {
        "correct": not problems and tally.failed == 0 and bool(values),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
