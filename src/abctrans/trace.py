"""Timestamped process events produced by simulation or ingested from logs.

A Trace stores its events as columns, one tuple per ProcessEvent field, which
is what analysis reads; its ``events`` tuple is built on first access.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from operator import ge, lt, sub


@dataclass(frozen=True, slots=True)
class ProcessEvent:
    """One gaze/keystroke/pause event on the process timeline.

    belief_entropy, gamma, and zeta are snapshots taken after the event's
    updates; ingested human logs leave them as None.
    """

    t_start: float
    t_end: float
    kind: str
    chunk_id: int | None = None
    slot: int | None = None
    cue: str | None = None
    belief_entropy: float | None = None
    gamma: float | None = None
    zeta: float | None = None
    annotations: tuple[str, ...] = ()

    def __post_init__(self):
        # Written as "not valid" so that a NaN time fails too.
        if not self.t_end >= self.t_start:
            raise ValueError("event must end at or after its start")


_FIELDS = fields(ProcessEvent)

# Column k holds field k of every event, in ProcessEvent's field order.
EventColumns = namedtuple("EventColumns", [f.name for f in _FIELDS])

_NO_EVENTS = EventColumns(*((),) * len(_FIELDS))


def event_columns(events) -> EventColumns:
    """The events' fields as columns of equal length, without any ordering check."""
    rows = [
        (e.t_start, e.t_end, e.kind, e.chunk_id, e.slot, e.cue, e.belief_entropy, e.gamma,
         e.zeta, e.annotations)
        for e in events
    ]
    return EventColumns._make(zip(*rows)) if rows else _NO_EVENTS


def _check_order(starts, ends) -> None:
    # Each event may start up to 1e-9 ms before the previous one ends; the
    # exact test, which most traces pass, is the cheaper one.
    later = starts[1:]
    if any(map(lt, later, ends)) and any(map(lt, later, map(sub, ends, repeat(1e-9)))):
        raise ValueError("events must be ordered and non-overlapping")


@dataclass(frozen=True, init=False, repr=False)
class Trace:
    """An ordered, non-overlapping event sequence with episode-level context.

    The events are stored once, as ``columns``: ``Trace(events=...)`` turns
    events into columns and ``Trace.from_columns`` takes columns as given.
    Either way the trace compares, hashes, prints and pickles the same.
    """

    columns: EventColumns
    complete: bool = True
    final_target: str = ""
    seed: int | None = None
    strategy: str = ""
    latent: str | None = None
    prior_entropy: float | None = None

    def __init__(
        self,
        events,
        complete: bool = True,
        final_target: str = "",
        seed: int | None = None,
        strategy: str = "",
        latent: str | None = None,
        prior_entropy: float | None = None,
    ):
        events = tuple(events)
        columns = event_columns(events)
        _check_order(columns.t_start, columns.t_end)
        # Frozen, so the fields go straight into the instance dict; so do the
        # events, which are already built.
        vars(self).update(
            columns=columns, complete=complete, final_target=final_target, seed=seed,
            strategy=strategy, latent=latent, prior_entropy=prior_entropy, events=events,
        )

    @classmethod
    def from_columns(cls, columns, *args, **kwargs) -> Trace:
        """A trace of the events whose fields the columns hold, in ProcessEvent's field order.

        Fields after the last given column take their defaults. The other
        arguments are the constructor's, after ``events``.
        """
        n = len(columns[0])
        defaults = ((f.default,) * n for f in _FIELDS[len(columns):])
        cols = EventColumns(*map(tuple, columns), *defaults)
        if len(set(map(len, cols))) > 1:
            raise ValueError("columns must have one entry per event")
        # As ProcessEvent checks each event; written as "not valid" so that NaN fails too.
        if not all(map(ge, cols.t_end, cols.t_start)):
            raise ValueError("event must end at or after its start")
        _check_order(cols.t_start, cols.t_end)
        trace = cls((), *args, **kwargs)
        vars(trace)["columns"] = cols
        del vars(trace)["events"]
        return trace

    @cached_property
    def events(self) -> tuple[ProcessEvent, ...]:
        """The events as ProcessEvent objects, built from the columns on first access."""
        # Trailing columns that hold only their field's default are left to it.
        cols = list(self.columns)
        while len(cols) > 3 and cols[-1].count(_FIELDS[len(cols) - 1].default) == len(cols[-1]):
            cols.pop()
        return tuple(map(ProcessEvent, *cols))

    def __repr__(self) -> str:
        context = "".join(f", {f.name}={getattr(self, f.name)!r}" for f in fields(self)[1:])
        return f"{type(self).__qualname__}(events={self.events!r}{context})"

    def __getstate__(self) -> dict:
        # A pickle holds the columns only; unpickled, the events are built again.
        return {name: value for name, value in vars(self).items() if name != "events"}

    @property
    def stop_reason(self) -> str:
        """Why the episode ended: "complete", or "max_steps" when its step budget ran out first."""
        return "complete" if self.complete else "max_steps"

    @property
    def total_time_ms(self) -> float:
        starts = self.columns.t_start
        return self.columns.t_end[-1] - starts[0] if starts else 0.0

    @property
    def has_belief_fields(self) -> bool:
        entropies = self.columns.belief_entropy
        return bool(entropies) and None not in entropies
