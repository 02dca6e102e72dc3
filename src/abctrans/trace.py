"""Timestamped process events produced by simulation or ingested from logs."""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class Trace:
    """An ordered, non-overlapping event sequence with episode-level context."""

    events: tuple[ProcessEvent, ...]
    complete: bool = True
    final_target: str = ""
    seed: int | None = None
    strategy: str = ""
    latent: str | None = None
    prior_entropy: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        last_end = None
        for ev in self.events:
            if last_end is not None and ev.t_start < last_end - 1e-9:
                raise ValueError("events must be ordered and non-overlapping")
            last_end = ev.t_end

    @property
    def stop_reason(self) -> str:
        """Why the episode ended: "complete", or "max_steps" when its step budget ran out first."""
        return "complete" if self.complete else "max_steps"

    @property
    def total_time_ms(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].t_end - self.events[0].t_start

    @property
    def has_belief_fields(self) -> bool:
        return bool(self.events) and all(ev.belief_entropy is not None for ev in self.events)
