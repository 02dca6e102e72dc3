"""Generative process: source chunks, target buffer, actions, and observations.

The environment owns the ground truth the agent cannot see directly: a latent
preferred ordering that drives reading cues. Actions cross the boundary in one
direction (fixate, type, delete, pause, consult) and observations cross back
(ordering cues, placement feedback, target glimpses).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .task import CandidateSpace, ReadingEvidenceModel, TaskError

FIXATE_SOURCE = "fixate_source"
FIXATE_TARGET = "fixate_target"
TYPE = "type"
DELETE = "delete"
PAUSE = "pause"
CONSULT = "consult"

ORDERING_CUE = "ordering_cue"
PLACEMENT_FEEDBACK = "placement_feedback"
TARGET_GLIMPSE = "target_glimpse"
NULL = "null"

GAP_MARK = "_"


class OccupancyError(TaskError):
    """Typing into an occupied slot or re-typing an already placed chunk."""


@dataclass(frozen=True)
class Action:
    kind: str
    chunk_id: int | None = None
    slot: int | None = None
    duration_ms: float | None = None
    resource: str | None = None

    def describe(self) -> str:
        if self.kind == FIXATE_SOURCE:
            return f"fixate_source({self.chunk_id})"
        if self.kind == FIXATE_TARGET:
            return f"fixate_target(@{self.slot})"
        if self.kind == TYPE:
            return f"type({self.chunk_id}@{self.slot})"
        if self.kind == DELETE:
            return f"delete(@{self.slot})"
        if self.kind == CONSULT:
            return f"consult({self.resource})"
        return self.kind


def fixate_source(chunk_id: int) -> Action:
    return Action(FIXATE_SOURCE, chunk_id=chunk_id)


def fixate_target(slot: int) -> Action:
    return Action(FIXATE_TARGET, slot=slot)


def type_chunk(chunk_id: int, slot: int) -> Action:
    return Action(TYPE, chunk_id=chunk_id, slot=slot)


def delete(slot: int) -> Action:
    return Action(DELETE, slot=slot)


def pause(duration_ms: float = 800.0) -> Action:
    return Action(PAUSE, duration_ms=duration_ms)


def consult(resource: str = "dictionary") -> Action:
    return Action(CONSULT, resource=resource)


@dataclass(frozen=True)
class Observation:
    kind: str
    chunk_id: int | None = None
    slot: int | None = None
    cue: str | None = None


@dataclass(frozen=True)
class ExternalState:
    """External states: chunk table, target buffer, and the latent preferred ordering."""

    space: CandidateSpace
    buffer: tuple[int | None, ...]
    latent: str
    cue_script: tuple[str, ...] | None = None
    cue_cursor: int = 0

    @classmethod
    def initial(
        cls,
        space: CandidateSpace,
        latent: str,
        cue_script=None,
    ) -> "ExternalState":
        space.index_of(latent)
        script = tuple(cue_script) if cue_script is not None else None
        return cls(
            space=space,
            buffer=(None,) * space.n_slots,
            latent=latent,
            cue_script=script,
        )

    @property
    def placed_chunks(self) -> frozenset[int]:
        return frozenset(c for c in self.buffer if c is not None)


def apply_action(
    state: ExternalState,
    action: Action,
    evidence: ReadingEvidenceModel,
    rng: np.random.Generator,
) -> tuple[ExternalState, Observation]:
    """Execute one active state against the environment and emit the sensory echo.

    The chunk table and latent ordering never change within an episode; only
    the target buffer and the cue script cursor move.
    """
    if action.kind == FIXATE_SOURCE:
        state.space.require_chunk(action.chunk_id)
        if state.cue_script is not None and state.cue_cursor < len(state.cue_script):
            cue = state.cue_script[state.cue_cursor]
            state.space.index_of(cue)
            new = replace(state, cue_cursor=state.cue_cursor + 1)
        else:
            dist = evidence.cue_distribution(action.chunk_id, state.latent)
            idx = int(rng.choice(len(dist), p=dist))
            cue = state.space.labels[idx]
            new = state
        return new, Observation(ORDERING_CUE, chunk_id=action.chunk_id, cue=cue)

    if action.kind == TYPE:
        state.space.require_chunk(action.chunk_id)
        slot = action.slot
        if not 1 <= slot <= len(state.buffer):
            raise TaskError(f"slot {slot} out of range")
        if state.buffer[slot - 1] is not None:
            raise OccupancyError(f"slot {slot} already holds chunk {state.buffer[slot - 1]}")
        if action.chunk_id in state.placed_chunks:
            raise OccupancyError(f"chunk {action.chunk_id} already placed")
        buf = list(state.buffer)
        buf[slot - 1] = action.chunk_id
        new = replace(state, buffer=tuple(buf))
        return new, Observation(PLACEMENT_FEEDBACK, chunk_id=action.chunk_id, slot=slot)

    if action.kind == DELETE:
        slot = action.slot
        if not 1 <= slot <= len(state.buffer):
            raise TaskError(f"slot {slot} out of range")
        buf = list(state.buffer)
        buf[slot - 1] = None
        new = replace(state, buffer=tuple(buf))
        return new, Observation(PLACEMENT_FEEDBACK, chunk_id=None, slot=slot)

    if action.kind == FIXATE_TARGET:
        slot = action.slot
        if not 1 <= slot <= len(state.buffer):
            raise TaskError(f"slot {slot} out of range")
        return state, Observation(TARGET_GLIMPSE, chunk_id=state.buffer[slot - 1], slot=slot)

    if action.kind in (PAUSE, CONSULT):
        return state, Observation(NULL)

    raise TaskError(f"unknown action kind {action.kind!r}")


def is_complete(state: ExternalState) -> bool:
    return all(c is not None for c in state.buffer)


def render_target(state: ExternalState, gap: str = GAP_MARK) -> str:
    """Concatenate placed chunks' target text in slot order; empty slots show a gap mark."""
    parts = []
    for c in state.buffer:
        if c is None:
            parts.append(gap)
        else:
            parts.append(state.space.table.chunk(c).target_text)
    return "".join(parts)
