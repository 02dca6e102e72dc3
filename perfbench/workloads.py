"""The benchmark's three workloads: their inputs, their ops and the checks on each op.

Every workload is a sequence of passes. A pass is a fixed list of ops drawn
from the workload seed, which the runner executes op by op in a closed loop
and repeats on the same inputs. Not timed: ``prepare`` builds an op's input
once, ``begin_pass`` resets shared state before every repeat, ``check``
returns the problems it finds in an op's first run plus the exported TSV,
and ``export`` gives the TSV of a later repeat. ``run`` is the timed op.

Why each workload exists:

- planner_cold: large-context-planner episodes from an empty selection
  cache, so each op pays the horizon-4 opening decision; EFE scoring is
  nearly all of the work.
- compare_sweep: the paired head-starter/planner sweep of ``abctrans
  compare`` over all six latents, from one empty cache per sweep; after the
  single opening decision the step loop, Bayes updates and selection reuse
  do the work.
- segment_logs: generated external keystroke/gaze logs of 100 to 3,000
  events through ingestion, OHRF segmentation, summary and both exports;
  analysis does all of the work and agent/inference none.
"""

from __future__ import annotations

import random
from collections import Counter

from abctrans import agent, analysis, environment

SWEEP_SEEDS = 100
LOGS_PER_PASS = 100
LOG_MIN_EVENTS = 100
LOG_MAX_EVENTS = 3000

_SLOT_ONLY_KINDS = (environment.FIXATE_TARGET, environment.DELETE)


def clear_selection_cache() -> None:
    """Empty the agent's process-wide selection cache while the package has one."""
    clear = getattr(agent, "clear_selection_cache", None)
    if clear is not None:
        clear()


def exported_target(kind: str, chunk, slot) -> tuple:
    """The (chunk, slot) pair that survives a TSV export and re-ingestion."""
    if kind == environment.TYPE:
        return chunk, slot
    if kind == environment.FIXATE_SOURCE:
        return chunk, None
    if kind in _SLOT_ONLY_KINDS:
        return None, slot
    return None, None


def analyze(trace):
    segments = analysis.segment_ohrf(trace)
    cycles = analysis.group_policies(segments)
    return segments, cycles, analysis.summarize(trace, segments, cycles)


def event_states(segments, n_events: int) -> list:
    states = [None] * n_events
    for seg in segments:
        for i in seg.events:
            states[i] = seg.state
    return states


def round_trip_problems(trace, segments, tsv: bytes) -> list[str]:
    """Re-ingest an export: kinds, targets and OHRF states must come back."""
    back = analysis.ingest_tsv(tsv)
    want = [(e.kind, *exported_target(e.kind, e.chunk_id, e.slot)) for e in trace.events]
    got = [(e.kind, e.chunk_id, e.slot) for e in back.events]
    if got != want:
        return ["re-ingested TSV changed event kinds or targets"]
    again = analysis.segment_ohrf(back)
    if event_states(again, len(back.events)) != event_states(segments, len(trace.events)):
        return ["re-ingested TSV segments into another OHRF state sequence"]
    return []


class _Simulated:
    """Shared op and checks for the two workloads that run episodes.

    An op spec is a tuple of (config, latent, seed) episodes.
    """

    def __init__(self, bundle):
        self.evidence = bundle.evidence
        space = bundle.space
        self.labels = space.labels
        self.renderings = {
            "".join(space.table.chunk(c).target_text for c in o.slots) for o in space.orderings
        }

    def begin_pass(self) -> None:
        clear_selection_cache()

    def prepare(self, spec):
        return spec

    def episode(self, episode):
        cfg, latent, seed = episode
        return agent.run_episode(cfg, self.evidence, latent=latent, seed=seed)

    def export(self, traces) -> bytes:
        out = []
        for trace in traces:
            segments, cycles, _ = analyze(trace)
            out.append(analysis.export_progression(trace, segments, cycles, "tsv"))
        return b"".join(out)

    def check(self, spec, traces):
        problems = []
        for episode, trace in zip(spec, traces):
            segments, _, _ = analyze(trace)
            if not trace.complete:
                problems.append("episode ended incomplete")
            if trace.final_target not in self.renderings:
                problems.append(f"final target {trace.final_target!r} is no candidate ordering")
            tsv = self.export((trace,))
            problems += round_trip_problems(trace, segments, tsv)
            # The rerun meets the selection cache this op has just filled.
            if self.export((self.episode(episode),)) != tsv:
                problems.append("rerun of the same (preset, latent, seed) exported another TSV")
        return problems, self.export(traces)


class PlannerCold(_Simulated):
    """One op is one planner episode from an empty selection cache (one op per pass)."""

    def __init__(self, bundle, seed: int):
        super().__init__(bundle)
        self.cfg = agent.large_context_planner_config()
        self.seed = seed
        self.order = list(self.labels)
        random.Random(seed).shuffle(self.order)

    def pass_ops(self, index: int):
        latent = self.order[index % len(self.order)]
        episode_seed = random.Random(self.seed * 1000 + index).randrange(1_000_000)
        return [((self.cfg, latent, episode_seed),)]

    def run(self, spec):
        return tuple(self.episode(e) for e in spec)


class CompareSweep(_Simulated):
    """One pass is one paired sweep from an empty cache.

    One op is the pair of episodes, head starter then planner, on one
    (latent, seed), each followed by its summary. Pairing keeps the op time
    distribution unimodal, where single episodes of the two presets would
    form two clusters with the median between them.
    """

    def __init__(self, bundle, seed: int):
        super().__init__(bundle)
        self.configs = (agent.head_starter_config(), agent.large_context_planner_config())
        self.seed = seed

    def pass_ops(self, index: int):
        base = (self.seed * 1000 + index) * SWEEP_SEEDS
        return [
            tuple((cfg, latent, s) for cfg in self.configs)
            for latent in self.labels
            for s in range(base, base + SWEEP_SEEDS)
        ]

    def run(self, spec):
        traces = tuple(self.episode(e) for e in spec)
        for trace in traces:
            analyze(trace)
        return traces


def generate_log(rng: random.Random, n_events: int) -> tuple[bytes, list[tuple]]:
    """A keystroke/gaze log in the ingestible TSV shape, with its events.

    Bursts of source reading, typing into the next slot, pauses, glances at
    the target and delete-retype revisions alternate at random. Times are
    whole milliseconds, so they survive the exporter's three decimals.
    """
    events: list[tuple] = []
    t = 0
    chunk = 1
    next_slot = 1

    def emit(kind, chunk_id=None, slot=None, dur=200):
        nonlocal t
        events.append((t, kind, chunk_id, slot))
        t += dur

    while len(events) < n_events:
        r = rng.random()
        if r < 0.3:
            for _ in range(rng.randint(1, 5)):
                chunk = max(1, chunk + rng.randint(-2, 3))
                emit(environment.FIXATE_SOURCE, chunk_id=chunk, dur=rng.randint(120, 450))
        elif r < 0.65:
            for _ in range(rng.randint(1, 6)):
                emit(environment.TYPE, chunk, next_slot, dur=rng.randint(80, 700))
                next_slot += 1
                chunk += 1
        elif r < 0.78:
            emit(environment.PAUSE, dur=rng.randint(900, 4000))
        elif r < 0.9:
            emit(environment.FIXATE_TARGET, slot=max(1, next_slot - rng.randint(1, 3)),
                 dur=rng.randint(150, 2500))
        elif r < 0.97 and next_slot > 1:
            slot = max(1, next_slot - rng.randint(1, 3))
            emit(environment.FIXATE_TARGET, slot=slot, dur=rng.randint(150, 400))
            emit(environment.DELETE, slot=slot, dur=rng.randint(60, 300))
            emit(environment.TYPE, rng.randint(1, chunk), slot, dur=rng.randint(80, 700))
        else:
            emit(environment.CONSULT, dur=rng.randint(500, 3000))
    del events[n_events:]
    lines = ["time_ms\tevent_kind\tchunk_or_slot"]
    for t0, kind, chunk_id, slot in events:
        if kind == environment.TYPE:
            target = f"{chunk_id}@{slot}"
        elif chunk_id is not None:
            target = str(chunk_id)
        elif slot is not None:
            target = f"@{slot}"
        else:
            target = ""
        lines.append(f"{t0}\t{kind}\t{target}")
    return ("\n".join(lines) + "\n").encode("utf-8"), events


def log_lengths(rng: random.Random, n: int) -> list[int]:
    """n lengths, one per log-uniform stratum of [LOG_MIN_EVENTS, LOG_MAX_EVENTS], shuffled.

    Stratifying keeps every pass's length distribution, and with it the op
    time quantiles, nearly the same whatever the seed.
    """
    ratio = LOG_MAX_EVENTS / LOG_MIN_EVENTS
    lengths = [round(LOG_MIN_EVENTS * ratio ** ((i + rng.random()) / n)) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


class SegmentLogs:
    """One op is one generated log through ingestion, analysis and both exports."""

    def __init__(self, bundle, seed: int):
        self.seed = seed

    def begin_pass(self) -> None:
        pass

    def pass_ops(self, index: int):
        rng = random.Random(self.seed * 1000 + index)
        return [(rng.randrange(2**32), n) for n in log_lengths(rng, LOGS_PER_PASS)]

    def prepare(self, spec):
        log_seed, n_events = spec
        return generate_log(random.Random(log_seed), n_events)

    def run(self, prepared):
        data, _ = prepared
        trace = analysis.ingest_tsv(data)
        segments = analysis.segment_ohrf(trace)
        cycles = analysis.group_policies(segments)
        summary = analysis.summarize(trace, segments, cycles)
        tsv = analysis.export_progression(trace, segments, cycles, "tsv")
        analysis.export_progression(trace, segments, cycles, "svg")
        return trace, segments, summary, tsv

    @staticmethod
    def export(out) -> bytes:
        return out[3]

    def check(self, prepared, out):
        _, want = prepared
        trace, segments, summary, tsv = out
        problems = []
        got = [(e.t_start, e.kind, e.chunk_id, e.slot) for e in trace.events]
        if got != want:
            problems.append("ingested events differ from the generated log")
        if [i for seg in segments for i in seg.events] != list(range(len(trace.events))):
            problems.append("segments do not partition the events in order")
        if Counter(dict(summary.state_counts)) != Counter(seg.state for seg in segments):
            problems.append("summary state counts disagree with the segments")
        back = analysis.ingest_tsv(tsv)
        if [(e.t_start, e.kind, e.chunk_id, e.slot) for e in back.events] != want:
            problems.append("re-ingested export differs from the generated log")
        return problems, tsv


WORKLOADS = {
    "planner_cold": PlannerCold,
    "compare_sweep": CompareSweep,
    "segment_logs": SegmentLogs,
}
