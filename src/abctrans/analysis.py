"""Trace analytics: OHRF segmentation, policy cycles, typing entropy drops, exports.

Segmentation is rule based. Source fixations mark orientation, pauses mark
hesitation, deletions and retypes mark revision, and uninterrupted typing is
flow; target fixations side with an adjacent revision, with a long
inter-keystroke gap, or otherwise with flow. Adjacent same-state runs merge.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from . import environment as env
from .trace import ProcessEvent, Trace

O, H, R, F = "O", "H", "R", "F"

EXPORT_FORMATS = ("tsv", "svg")  # what export_progression writes

TSV_COLUMNS = (
    "time_ms",
    "event_kind",
    "chunk_or_slot",
    "ohrf_state",
    "cycle_index",
    "entropy_bits",
    "gamma",
)

_STATE_COLORS = {O: "#7db8e8", H: "#e8c57d", R: "#e87d7d", F: "#8fd18f"}


class AnalysisError(ValueError):
    """Trace analytics applied to unsupported input."""


class IngestError(AnalysisError):
    """Malformed external log; carries the offending row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class Segment:
    state: str
    t_start: float
    t_end: float
    events: tuple[int, ...]

    def __post_init__(self):
        if self.state not in (O, H, R, F):
            raise AnalysisError(f"state {self.state!r} outside the OHRF alphabet")


@dataclass(frozen=True)
class PolicyCycle:
    label: str
    segments: tuple[int, ...]
    implicit_orientation: bool = False


def _base_label(event: ProcessEvent, deleted_slots: set[int]) -> str | None:
    if event.kind in (env.FIXATE_SOURCE, env.CONSULT):
        return O
    if event.kind == env.PAUSE:
        return H
    if event.kind == env.DELETE:
        if event.slot is not None:
            deleted_slots.add(event.slot)
        return R
    if event.kind == env.TYPE:
        if event.slot in deleted_slots:
            deleted_slots.discard(event.slot)
            return R
        return F
    if event.kind == env.FIXATE_TARGET:
        return None  # resolved against context below
    raise AnalysisError(f"unknown event kind {event.kind!r}")


def _resolve_target_fixations(
    events: tuple[ProcessEvent, ...], labels: list[str | None], theta_pause: float
) -> None:
    # Every event before i is labelled by the time i is reached, so its left
    # neighbour is i - 1; its right one, the next base label k, only moves on.
    n = len(events)
    k = 0
    for i, lab in enumerate(labels):
        if lab is not None:
            continue
        if k <= i:
            k = i + 1
            while k < n and labels[k] is None:
                k += 1
        neighbors = (labels[i - 1] if i else None, labels[k] if k < n else None)
        if R in neighbors:
            labels[i] = R
        elif H in neighbors:
            labels[i] = H
        else:
            gap_start = events[i - 1].t_end if i else events[i].t_start
            gap_end = events[k].t_start if k < n else events[i].t_end
            labels[i] = H if gap_end - gap_start > theta_pause else F


def segment_ohrf(
    trace: Trace | tuple[ProcessEvent, ...],
    *,
    theta_pause_ms: float = 1000.0,
) -> list[Segment]:
    """Partition the trace's events into maximal same-state OHRF runs.

    A target fixation with no revision or hesitation beside it is hesitation
    when the silent gap it sits in is longer than theta_pause_ms, else flow.
    """
    if not theta_pause_ms >= 0.0:  # NaN fails too
        raise ValueError(f"theta_pause_ms must be non-negative, got {theta_pause_ms!r}")
    events = trace.events if isinstance(trace, Trace) else tuple(trace)
    if not events:
        return []
    deleted: set[int] = set()
    labels: list[str | None] = [_base_label(e, deleted) for e in events]
    _resolve_target_fixations(events, labels, theta_pause_ms)

    # A typing run broken by a long silent gap resumes as hesitation-adjacent
    # flow; the gap itself carries no events, so only flanking target
    # fixations (already handled) can surface it. Merge adjacent same labels.
    cuts = [i for i in range(1, len(events)) if labels[i] != labels[i - 1]]
    return [
        Segment(labels[a], events[a].t_start, events[b - 1].t_end, tuple(range(a, b)))
        for a, b in zip([0, *cuts], [*cuts, len(events)])
    ]


def group_policies(segments: list[Segment]) -> list[PolicyCycle]:
    """Cut the segment sequence before every orientation and label each cycle.

    A cycle label records its segments' state letters in order, collapsing
    only immediately adjacent duplicates. Traces that do not open with an
    orientation get an implicit zero-length one, flagged on the first cycle.
    """
    if not segments:
        return []
    cycles: list[PolicyCycle] = []
    bounds: list[int] = [i for i, seg in enumerate(segments) if seg.state == O]
    implicit_first = not bounds or bounds[0] != 0
    if implicit_first:
        bounds = [0] + bounds
    for k, start in enumerate(bounds):
        end = bounds[k + 1] if k + 1 < len(bounds) else len(segments)
        members = tuple(range(start, end))
        letters: list[str] = []
        if k == 0 and implicit_first:
            letters.append(O)
        for i in members:
            if not letters or letters[-1] != segments[i].state:
                letters.append(segments[i].state)
        cycles.append(
            PolicyCycle(
                label="".join(letters),
                segments=members,
                implicit_orientation=(k == 0 and implicit_first),
            )
        )
    return cycles


def typing_drops(trace: Trace) -> list[tuple[int, float]]:
    """(chunk id, entropy drop) for every typed placement, in order.

    Drops count from the prior entropy, or, without one, from the first event's.
    """
    if not trace.has_belief_fields:
        raise AnalysisError("trace carries no belief entropies (ingested log?)")
    out: list[tuple[int, float]] = []
    prev = trace.prior_entropy if trace.prior_entropy is not None else trace.events[0].belief_entropy
    for e in trace.events:
        if e.kind == env.TYPE:
            out.append((e.chunk_id, prev - e.belief_entropy))
        prev = e.belief_entropy
    return out


@dataclass(frozen=True)
class TraceSummary:
    first_keystroke_latency_ms: float
    initial_orientation_ms: float
    state_counts: tuple[tuple[str, int], ...]
    cycle_labels: tuple[str, ...]
    total_time_ms: float
    revision_count: int
    hesitation_count: int
    final_target: str
    complete: bool

    def count(self, state: str) -> int:
        return dict(self.state_counts)[state]


def summarize(trace: Trace, segments: list[Segment], cycles: list[PolicyCycle]) -> TraceSummary:
    """Key process metrics for one trace; an empty trace yields the zero record."""
    first_type = next((e for e in trace.events if e.kind == env.TYPE), None)
    t0 = trace.events[0].t_start if trace.events else 0.0
    initial_o = 0.0
    if segments and segments[0].state == O:
        initial_o = segments[0].t_end - segments[0].t_start
    counts = {s: 0 for s in (O, H, R, F)}
    for seg in segments:
        counts[seg.state] += 1
    return TraceSummary(
        first_keystroke_latency_ms=(first_type.t_start - t0) if first_type else 0.0,
        initial_orientation_ms=initial_o,
        state_counts=tuple(sorted(counts.items())),
        cycle_labels=tuple(c.label for c in cycles),
        total_time_ms=trace.total_time_ms,
        revision_count=sum(1 for e in trace.events if e.kind == env.DELETE),
        hesitation_count=counts[H],
        final_target=trace.final_target,
        complete=trace.complete,
    )


def _target_field(e: ProcessEvent) -> str:
    if e.kind == env.TYPE:
        return f"{e.chunk_id}@{e.slot}"
    if e.kind == env.FIXATE_SOURCE:
        return f"{e.chunk_id}" if e.chunk_id is not None else ""
    if e.kind in (env.FIXATE_TARGET, env.DELETE):
        return f"@{e.slot}" if e.slot is not None else ""
    return ""


def export_progression(
    trace: Trace,
    segments: list[Segment],
    cycles: list[PolicyCycle],
    fmt: str = "tsv",
) -> bytes:
    """Serialize the analyzed trace, either as a flat TSV or as an SVG timeline."""
    if fmt not in EXPORT_FORMATS:
        raise AnalysisError(f"unknown export format {fmt!r}")
    return (_export_tsv if fmt == "tsv" else _export_svg)(trace, segments, cycles)


def _export_tsv(trace: Trace, segments: list[Segment], cycles: list[PolicyCycle]) -> bytes:
    out = io.StringIO()
    out.write("\t".join(TSV_COLUMNS) + "\n")
    cycle_of_segment: dict[int, int] = {}
    for c_idx, cyc in enumerate(cycles):
        for seg_idx in cyc.segments:
            cycle_of_segment.setdefault(seg_idx, c_idx)
    state_of, cycle_of = {}, {}
    for seg_idx, seg in enumerate(segments):
        for i in seg.events:
            state_of[i] = seg.state
            if seg_idx in cycle_of_segment:
                cycle_of.setdefault(i, cycle_of_segment[seg_idx])
    for i, e in enumerate(trace.events):
        entropy = f"{e.belief_entropy:.9f}" if e.belief_entropy is not None else ""
        gamma = f"{e.gamma:.9f}" if e.gamma is not None else ""
        out.write(
            f"{e.t_start:.3f}\t{e.kind}\t{_target_field(e)}\t{state_of.get(i, '')}\t"
            f"{cycle_of.get(i, -1)}\t{entropy}\t{gamma}\n"
        )
    return out.getvalue().encode("utf-8")


def _export_svg(trace: Trace, segments: list[Segment], cycles: list[PolicyCycle]) -> bytes:
    width, height = 960.0, 320.0
    pad = 40.0
    inner = width - 2 * pad  # time t sits at x = pad + (t - t0) / span * inner
    t0 = trace.events[0].t_start if trace.events else 0.0
    t1 = trace.events[-1].t_end if trace.events else 1.0
    span = max(t1 - t0, 1.0)

    chunk_rows: dict[int, float] = {}
    for k, cid in enumerate(sorted({e.chunk_id for e in trace.events if e.chunk_id is not None})):
        chunk_rows[cid] = pad + 30.0 + 28.0 * k

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    band_y, band_h = height - pad - 50.0, 26.0
    band = f'y="{band_y:.2f}"'
    band_height = f'height="{band_h:.2f}"'
    band_label = f'y="{band_y + band_h - 8:.2f}"'
    for seg in segments:
        x0 = pad + (seg.t_start - t0) / span * inner
        x1 = pad + (seg.t_end - t0) / span * inner
        parts.append(
            f'<rect class="segment" x="{x0:.2f}" {band} width="{max(x1 - x0, 1.0):.2f}" '
            f'{band_height} fill="{_STATE_COLORS[seg.state]}" '
            f'stroke="black" stroke-width="0.5"/>\n'
            f'<text x="{x0 + 2:.2f}" {band_label} font-size="11">{seg.state}</text>'
        )
    cycle_y = band_y + band_h + 6.0
    cycle_band, cycle_label = f'y="{cycle_y:.2f}"', f'y="{cycle_y + 11:.2f}"'
    for cyc in cycles:
        x0 = pad + (segments[cyc.segments[0]].t_start - t0) / span * inner
        x1 = pad + (segments[cyc.segments[-1]].t_end - t0) / span * inner
        parts.append(
            f'<rect class="cycle" x="{x0:.2f}" {cycle_band} width="{max(x1 - x0, 1.0):.2f}" '
            f'height="14" fill="none" stroke="#555" stroke-dasharray="4 2"/>\n'
            f'<text x="{x0 + 2:.2f}" {cycle_label} font-size="10">{cyc.label}</text>'
        )
    target_cy, delete_y = f'cy="{band_y - 12:.2f}"', f'y="{band_y - 18:.2f}"'
    for e in trace.events:
        x = pad + (e.t_start - t0) / span * inner
        if e.kind == env.FIXATE_SOURCE and e.chunk_id in chunk_rows:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{chunk_rows[e.chunk_id]:.2f}" r="4" fill="#2b6cb0"/>'
            )
        elif e.kind == env.FIXATE_TARGET:
            parts.append(f'<circle cx="{x:.2f}" {target_cy} r="4" fill="#2f855a"/>')
        elif e.kind == env.TYPE and e.chunk_id in chunk_rows:
            parts.append(
                f'<text x="{x:.2f}" y="{chunk_rows[e.chunk_id] + 4:.2f}" '
                f'font-size="12" fill="#1a202c">+{e.chunk_id}@{e.slot}</text>'
            )
        elif e.kind == env.DELETE:
            parts.append(
                f'<text x="{x:.2f}" {delete_y} font-size="12" fill="#c53030">x@{e.slot}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


DEFAULT_COLUMN_MAP = {"time": "time_ms", "kind": "event_kind", "target": "chunk_or_slot"}

# The target form each kind takes in a TSV (README's schema), as ingest names it.
_TARGET_FORMS = {
    env.FIXATE_SOURCE: "<chunk>",
    env.FIXATE_TARGET: "@<slot> or <slot>",
    env.TYPE: "<chunk>@<slot>",
    env.DELETE: "@<slot> or <slot>",
    env.PAUSE: "empty",
    env.CONSULT: "empty",
}


def _parse_target(value: str, kind: str, row: int) -> tuple[int | None, int | None]:
    """(chunk, slot) of one target field, which must take its kind's form."""
    value = value.strip()
    chunk, at, slot = value.partition("@")
    try:  # int("") raises, so an empty part is an error too
        if kind == env.FIXATE_SOURCE and not at:
            return int(value), None
        if kind == env.TYPE:
            return int(chunk), int(slot)
        if kind in (env.FIXATE_TARGET, env.DELETE) and not (at and chunk):
            return None, int(slot if at else chunk)
        if kind in (env.PAUSE, env.CONSULT) and not value:
            return None, None
    except ValueError:
        pass
    raise IngestError(row, f"{kind} target must be {_TARGET_FORMS[kind]}, got {value!r}")


def ingest_tsv(data: bytes, column_map: dict[str, str] | None = None) -> Trace:
    """Normalize an external tabular log into a trace without belief fields.

    The column map names the header columns holding event time (ms), event
    kind, and the chunk/slot target. Event end times are reconstructed from
    the next event's start.
    """
    column_map = dict(DEFAULT_COLUMN_MAP, **(column_map or {}))
    # A leading byte-order mark, and the \r of CRLF line endings, are not data.
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # rows count non-blank lines, as below
        before = data[:exc.start].decode("utf-8").removeprefix("\ufeff").split("\n")[:-1]
        row = 1 + sum(1 for ln in before if ln.strip())
        raise IngestError(row, f"byte {exc.start} is not UTF-8") from None
    lines = [ln.removesuffix("\r") for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise IngestError(0, "empty file: no header row")
    header = lines[0].split("\t")
    columns = []
    for key in ("time", "kind", "target"):
        name = column_map[key]
        if name not in header:
            raise IngestError(1, f"missing column {name!r} in header {header}")
        columns.append(header.index(name))
    t_col, kind_col, target_col = columns
    width = max(columns) + 1

    raw: list[tuple[float, str, int | None, int | None]] = []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) < width:
            raise IngestError(row_no, f"expected at least {width} columns")
        try:
            t = float(cells[t_col])
        except ValueError:
            raise IngestError(row_no, f"unparseable time {cells[t_col]!r}")
        if not math.isfinite(t):
            raise IngestError(row_no, f"time must be finite, got {cells[t_col]!r}")
        kind = cells[kind_col].strip()
        if kind not in _TARGET_FORMS:
            raise IngestError(row_no, f"unknown event kind {kind!r}")
        chunk, slot = _parse_target(cells[target_col], kind, row_no)
        raw.append((t, kind, chunk, slot))

    events = []
    for i, (t, kind, chunk, slot) in enumerate(raw):
        t_end = raw[i + 1][0] if i + 1 < len(raw) else t
        if t_end < t:
            raise IngestError(i + 2, "event times must be non-decreasing")
        events.append(ProcessEvent(t, t_end, kind, chunk, slot))
    return Trace(events=tuple(events), complete=True, strategy="ingested")
