"""Trace analytics: OHRF segmentation, policy cycles, typing entropy drops, exports.

Segmentation is rule based. Source fixations mark orientation, pauses mark
hesitation, deletions and retypes mark revision, and uninterrupted typing is
flow; target fixations side with an adjacent revision, with a long
inter-keystroke gap, or otherwise with flow. Adjacent same-state runs merge.

Everything here reads a trace's columns (``Trace.columns``), and ingestion
parses a log straight into them, so analysing an ingested log builds no
ProcessEvent objects; ``trace.events`` builds them if a caller asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import environment as env
from .trace import Trace

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


# The state a kind of event takes whatever surrounds it; a target
# fixation's (None) is resolved against its neighbours.
_KIND_STATES = {env.FIXATE_SOURCE: O, env.CONSULT: O, env.PAUSE: H, env.FIXATE_TARGET: None}


def _base_labels(kinds, slots) -> list[str | None]:
    labels: list[str | None] = []
    deleted: set[int] = set()
    for kind, slot in zip(kinds, slots):
        if kind == env.TYPE:  # a retype of a deleted slot is revision
            labels.append(R if slot in deleted else F)
            deleted.discard(slot)
        elif kind == env.DELETE:
            if slot is not None:
                deleted.add(slot)
            labels.append(R)
        elif kind in _KIND_STATES:
            labels.append(_KIND_STATES[kind])
        else:
            raise AnalysisError(f"unknown event kind {kind!r}")
    return labels


def _resolve_target_fixations(starts, ends, labels: list[str | None], theta_pause: float) -> None:
    # Every event before i is labelled by the time i is reached, so its left
    # neighbour is i - 1; its right one, the next base label k, only moves on.
    n = len(labels)
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
            gap_start = ends[i - 1] if i else starts[i]
            gap_end = starts[k] if k < n else ends[i]
            labels[i] = H if gap_end - gap_start > theta_pause else F


def segment_ohrf(trace: Trace, *, theta_pause_ms: float = 1000.0) -> list[Segment]:
    """Partition the trace's events into maximal same-state OHRF runs.

    A target fixation with no revision or hesitation beside it is hesitation
    when the silent gap it sits in is longer than theta_pause_ms, else flow.
    """
    if not theta_pause_ms >= 0.0:  # NaN fails too
        raise ValueError(f"theta_pause_ms must be non-negative, got {theta_pause_ms!r}")
    cols = trace.columns
    starts, ends = cols.t_start, cols.t_end
    if not starts:
        return []
    labels = _base_labels(cols.kind, cols.slot)
    _resolve_target_fixations(starts, ends, labels, theta_pause_ms)

    # A typing run broken by a long silent gap resumes as hesitation-adjacent
    # flow; the gap itself carries no events, so only flanking target
    # fixations (already handled) can surface it. Merge adjacent same labels.
    cuts = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    return [
        Segment(labels[a], starts[a], ends[b - 1], tuple(range(a, b)))
        for a, b in zip([0, *cuts], [*cuts, len(labels)])
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
    cols = trace.columns
    out: list[tuple[int, float]] = []
    prev = trace.prior_entropy if trace.prior_entropy is not None else cols.belief_entropy[0]
    for kind, chunk, entropy in zip(cols.kind, cols.chunk_id, cols.belief_entropy):
        if kind == env.TYPE:
            out.append((chunk, prev - entropy))
        prev = entropy
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
    starts, kinds = trace.columns.t_start, trace.columns.kind
    latency = starts[kinds.index(env.TYPE)] - starts[0] if env.TYPE in kinds else 0.0
    initial_o = 0.0
    if segments and segments[0].state == O:
        initial_o = segments[0].t_end - segments[0].t_start
    counts = {s: 0 for s in (O, H, R, F)}
    for seg in segments:
        counts[seg.state] += 1
    return TraceSummary(
        first_keystroke_latency_ms=latency,
        initial_orientation_ms=initial_o,
        state_counts=tuple(sorted(counts.items())),
        cycle_labels=tuple(c.label for c in cycles),
        total_time_ms=trace.total_time_ms,
        revision_count=kinds.count(env.DELETE),
        hesitation_count=counts[H],
        final_target=trace.final_target,
        complete=trace.complete,
    )


def _target_field(kind: str, chunk: int | None, slot: int | None) -> str:
    if kind == env.TYPE:
        return f"{chunk}@{slot}"
    if kind == env.FIXATE_SOURCE:
        return f"{chunk}" if chunk is not None else ""
    if kind in (env.FIXATE_TARGET, env.DELETE):
        return f"@{slot}" if slot is not None else ""
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
    cycle_of_segment: dict[int, int] = {}
    for c_idx, cyc in enumerate(cycles):
        for seg_idx in cyc.segments:
            cycle_of_segment.setdefault(seg_idx, c_idx)
    state_of, cycle_of = {}, {}
    for seg_idx, seg in enumerate(segments):
        c_idx = cycle_of_segment.get(seg_idx)
        for i in seg.events:
            state_of[i] = seg.state
            if c_idx is not None:
                cycle_of.setdefault(i, c_idx)
    lines = ["\t".join(TSV_COLUMNS) + "\n"]
    cols = trace.columns
    rows = zip(cols.t_start, cols.kind, cols.chunk_id, cols.slot, cols.belief_entropy, cols.gamma)
    for i, (t, kind, chunk, slot, entropy, gamma) in enumerate(rows):
        entropy = f"{entropy:.9f}" if entropy is not None else ""
        gamma = f"{gamma:.9f}" if gamma is not None else ""
        lines.append(
            f"{t:.3f}\t{kind}\t{_target_field(kind, chunk, slot)}\t{state_of.get(i, '')}\t"
            f"{cycle_of.get(i, -1)}\t{entropy}\t{gamma}\n"
        )
    return "".join(lines).encode("utf-8")


def _export_svg(trace: Trace, segments: list[Segment], cycles: list[PolicyCycle]) -> bytes:
    width, height = 960.0, 320.0
    pad = 40.0
    inner = width - 2 * pad  # time t sits at x = pad + (t - t0) / span * inner
    cols = trace.columns
    t0 = cols.t_start[0] if cols.t_start else 0.0
    t1 = cols.t_end[-1] if cols.t_start else 1.0
    span = max(t1 - t0, 1.0)

    chunk_rows: dict[int, float] = {}
    for k, cid in enumerate(sorted(set(cols.chunk_id) - {None})):
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
    for t, kind, chunk, slot in zip(cols.t_start, cols.kind, cols.chunk_id, cols.slot):
        x = pad + (t - t0) / span * inner
        if kind == env.FIXATE_SOURCE and chunk in chunk_rows:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{chunk_rows[chunk]:.2f}" r="4" fill="#2b6cb0"/>'
            )
        elif kind == env.FIXATE_TARGET:
            parts.append(f'<circle cx="{x:.2f}" {target_cy} r="4" fill="#2f855a"/>')
        elif kind == env.TYPE and chunk in chunk_rows:
            parts.append(
                f'<text x="{x:.2f}" y="{chunk_rows[chunk] + 4:.2f}" '
                f'font-size="12" fill="#1a202c">+{chunk}@{slot}</text>'
            )
        elif kind == env.DELETE:
            parts.append(
                f'<text x="{x:.2f}" {delete_y} font-size="12" fill="#c53030">x@{slot}</text>'
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
    unknown = sorted(set(column_map or ()) - set(DEFAULT_COLUMN_MAP))
    if unknown:
        raise ValueError(f"unknown column map key {unknown[0]!r}; keys are time, kind, target")
    column_map = dict(DEFAULT_COLUMN_MAP, **(column_map or {}))
    roles: dict[str, str] = {}
    for role, name in column_map.items():
        if name in roles:
            raise IngestError(1, f"{roles[name]} and {role} both name column {name!r}")
        roles[name] = role
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

    starts, kinds, chunks, slots = [], [], [], []  # the columns of the leading fields
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
        starts.append(t)
        kinds.append(kind)
        chunks.append(chunk)
        slots.append(slot)
    # Every row is parsed before times are compared: from_columns rejects an
    # event that ends, where the next begins, before it starts.
    ends = starts[1:] + starts[-1:]
    try:
        return Trace.from_columns((starts, ends, kinds, chunks, slots), strategy="ingested")
    except ValueError:
        i = next(i for i, (t, t_end) in enumerate(zip(starts, ends)) if t_end < t)
        raise IngestError(i + 2, "event times must be non-decreasing") from None
