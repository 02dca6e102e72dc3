"""Golden digest of the analysis layer: ingestion, segmentation and exports stay byte-identical.

A seeded generator writes external logs that use all six event kinds, with
runs of target fixations, zero gaps and gaps of the pause threshold's size.
For each log the digest covers ``repr`` of the ingested trace, then, at
theta_pause_ms 0, 999 and 1000, the segments, cycles, summary and both
exports of the ingested trace and of a hand-built trace of the same events
whose events leave silent gaps between them (half of them carrying belief
fields). It also covers the IngestError message of each malformed log in
MALFORMED_LOGS. A change that moves any of these updates ANALYSIS_SHA256 and
says in CHANGES.md which outputs moved and why.
"""

import hashlib
import random

import pytest

from abctrans import environment as env
from abctrans.analysis import (
    IngestError,
    export_progression,
    group_policies,
    ingest_tsv,
    segment_ohrf,
    summarize,
)
from abctrans.trace import ProcessEvent, Trace

ANALYSIS_SHA256 = "1e606049bf9035b1f9da12e276a88a420f8fc481ecb9ade08c02af910c1e5cef"

THETAS = (0.0, 999.0, 1000.0)
# Durations and silent gaps: zero, the pause threshold's size and its neighbours.
SPANS = (0, 0, 1, 120, 450, 999, 1000, 1001, 2500)
# Column order and names of a log; the first is the default map's.
LAYOUTS = (
    (("time_ms", "time"), ("event_kind", "kind"), ("chunk_or_slot", "target")),
    (("time_ms", "time"), ("event_kind", "kind"), ("chunk_or_slot", "target"), ("note", None)),
    (("k", "kind"), ("note", None), ("what", "target"), ("t", "time")),
)


def generated_events(rng: random.Random, n: int) -> list[tuple]:
    """n events as (t_start, t_end, kind, chunk, slot), ordered and non-overlapping."""
    events = []
    t = 0.0
    typed: list[int] = []
    deleted: list[int] = []
    chunk = 1
    while len(events) < n:
        kind = rng.choice(
            (env.FIXATE_SOURCE, env.FIXATE_TARGET, env.FIXATE_TARGET, env.TYPE, env.TYPE,
             env.DELETE, env.PAUSE, env.CONSULT)
        )
        repeat = rng.choice((1, 1, 2, 5, 30)) if kind == env.FIXATE_TARGET else 1
        for _ in range(repeat):
            chunk_id = slot = None
            if kind == env.FIXATE_SOURCE:
                chunk = max(1, chunk + rng.randint(-2, 2))
                chunk_id = chunk
            elif kind == env.TYPE:
                chunk_id = rng.randint(1, 6)
                slot = deleted.pop() if deleted and rng.random() < 0.7 else len(typed) + 1
                typed.append(slot)
            elif kind == env.DELETE:
                slot = rng.choice(typed) if typed else 1
                deleted.append(slot)
            elif kind == env.FIXATE_TARGET:
                slot = rng.randint(1, len(typed) + 1)
            t_end = t + rng.choice(SPANS) + rng.choice((0.0, 0.25))
            events.append((t, t_end, kind, chunk_id, slot))
            t = t_end + rng.choice(SPANS)
    return events[:n]


def target_cell(rng: random.Random, kind: str, chunk, slot) -> str:
    if kind == env.TYPE:
        cell = f"{chunk}@{slot}"
    elif kind == env.FIXATE_SOURCE:
        cell = str(chunk)
    elif kind in (env.FIXATE_TARGET, env.DELETE):
        cell = rng.choice((f"@{slot}", str(slot)))
    else:
        cell = ""
    return rng.choice((cell, cell, f" {cell} "))


def generated_log(rng: random.Random, events: list[tuple]) -> tuple[bytes, dict]:
    """The events as a TSV log in one of LAYOUTS, with the column map that reads it."""
    layout = rng.choice(LAYOUTS)
    lines = ["\t".join(name for name, _ in layout)]
    for t, _, kind, chunk, slot in events:
        cells = {
            "time": rng.choice((str(t), f"{t:.3f}")),
            "kind": rng.choice((kind, kind, f"{kind} ")),
            "target": target_cell(rng, kind, chunk, slot),
            None: "-",
        }
        lines.append("\t".join(cells[key] for _, key in layout))
        if rng.random() < 0.05:
            lines.append(rng.choice(("", "  ", "\t")))
    column_map = {key: name for name, key in layout if key is not None}
    return ("\n".join(lines) + rng.choice(("", "\n"))).encode("utf-8"), column_map


def hand_built_trace(rng: random.Random, events: list[tuple]) -> Trace:
    beliefs = rng.random() < 0.5
    return Trace(
        events=tuple(
            ProcessEvent(
                t_start, t_end, kind, chunk_id=chunk, slot=slot,
                belief_entropy=rng.random() * 3.0 if beliefs else None,
                gamma=rng.uniform(0.5, 8.0) if beliefs else None,
            )
            for t_start, t_end, kind, chunk, slot in events
        ),
        complete=rng.random() < 0.8,
        final_target="generated",
        strategy="hand-built",
    )


HEADER = "time_ms\tevent_kind\tchunk_or_slot\n"
MALFORMED_LOGS = (
    (b"", None),
    (b"\n  \n\t\n", None),
    (b"time_ms\tevent_kind\n0\tpause\n", None),
    (HEADER.encode() + b"0\tpause\n", {"target": "slot"}),
    (HEADER.encode() + b"0\tpause\t\n100\ttype\n", None),
    (HEADER.encode() + b"0\tpause\t\nabc\ttype\t1@1\n", None),
    (HEADER.encode() + b"0\tpause\t\nnan\ttype\t1@1\n", None),
    (HEADER.encode() + b"0\tpause\t\n-inf\ttype\t1@1\n", None),
    (HEADER.encode() + b"0\tscroll\t\n", None),
    (HEADER.encode() + b"0\ttype\t3\n", None),
    (HEADER.encode() + b"0\ttype\t3@\n", None),
    (HEADER.encode() + b"0\tfixate_source\t1@2\n", None),
    (HEADER.encode() + b"0\tfixate_source\t\n", None),
    (HEADER.encode() + b"0\tfixate_target\t3@2\n", None),
    (HEADER.encode() + b"0\tdelete\t\n", None),
    (HEADER.encode() + b"0\tpause\t5\n", None),
    (HEADER.encode() + b"0\tconsult\t@1\n", None),
    (HEADER.encode() + b"100\tpause\t\n50\tconsult\t\n", None),
    (HEADER.encode() + b"100\tpause\t\n50\tconsult\t\nx\tpause\t\n", None),
    (HEADER.encode() + b"0\tpause\t\n\n200\ttype\t1@\xe9\n", None),
    (b"time_ms\t\xff\n", None),
)


def test_analysis_outputs_match_the_golden_digest():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    lengths = [0, 1, 2, 3] + [rng.randint(4, 200) for _ in range(60)] + [400, 1500, 3000]
    kinds = set()
    for n in lengths:
        events = generated_events(rng, n)
        kinds.update(kind for _, _, kind, _, _ in events)
        data, column_map = generated_log(rng, events)
        ingested = ingest_tsv(data, column_map)
        digest.update(repr(ingested).encode("utf-8"))
        for trace in (ingested, hand_built_trace(rng, events)):
            for theta in THETAS:
                segments = segment_ohrf(trace, theta_pause_ms=theta)
                cycles = group_policies(segments)
                summary = summarize(trace, segments, cycles)
                digest.update(repr((segments, cycles, summary)).encode("utf-8"))
                for fmt in ("tsv", "svg"):
                    digest.update(export_progression(trace, segments, cycles, fmt))
    assert len(kinds) == 6
    for data, column_map in MALFORMED_LOGS:
        with pytest.raises(IngestError) as info:
            ingest_tsv(data, column_map)
        digest.update(f"{info.value.row}: {info.value}".encode("utf-8"))
    assert digest.hexdigest() == ANALYSIS_SHA256
