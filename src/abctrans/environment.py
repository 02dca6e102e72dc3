"""Generative process: source chunks, target buffer, actions, and observations.

The environment owns the ground truth the agent cannot see directly: a latent
preferred ordering that drives reading cues. Actions cross the boundary in one
direction (fixate, type, delete, pause) and observations cross back (ordering
cues, placement feedback, target glimpses). CONSULT is a kind of logs only.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

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


# Enumeration asks for the same few actions thousands of times per decision:
# one shared immutable Action per argument tuple (typed: 1 and a numpy 1 differ).
_shared = functools.lru_cache(maxsize=None, typed=True)


@_shared
def fixate_source(chunk_id: int) -> Action:
    return Action(FIXATE_SOURCE, chunk_id=chunk_id)


def fixate_target(slot: int) -> Action:
    return Action(FIXATE_TARGET, slot=slot)


@_shared
def type_chunk(chunk_id: int, slot: int) -> Action:
    return Action(TYPE, chunk_id=chunk_id, slot=slot)


def delete(slot: int) -> Action:
    return Action(DELETE, slot=slot)


@_shared
def pause() -> Action:
    return Action(PAUSE)


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


def apply_action(
    state: ExternalState,
    action: Action,
    evidence: ReadingEvidenceModel,
    rng: np.random.Generator,
) -> tuple[ExternalState, Observation]:
    """Execute one active state against the environment and emit the sensory echo.

    The chunk table and latent ordering never change within an episode; only
    the target buffer and the cue script cursor move. An unscripted cue is
    drawn from the evidence model's stored cue CDF with one rng.random():
    the same label, and the same generator state after, as
    labels[rng.choice(len(d), p=d)] over d = cue_distribution.
    """
    slot = action.slot
    if action.kind in (TYPE, DELETE, FIXATE_TARGET) and not 1 <= slot <= len(state.buffer):
        raise TaskError(f"slot {slot} out of range")
    if action.kind == FIXATE_SOURCE:
        state.space.table.chunk(action.chunk_id)
        script, cursor = state.cue_script, state.cue_cursor
        if script is not None and cursor < len(script):
            cue = script[cursor]
            state.space.index_of(cue)
            new = ExternalState(state.space, state.buffer, state.latent, script, cursor + 1)
        else:
            cdf = evidence.cue_cdf(action.chunk_id, state.latent)
            cue = state.space.labels[bisect.bisect_right(cdf, rng.random())]
            new = state
        return new, Observation(ORDERING_CUE, chunk_id=action.chunk_id, cue=cue)

    if action.kind == TYPE:
        state.space.table.chunk(action.chunk_id)
        if state.buffer[slot - 1] is not None:
            raise OccupancyError(f"slot {slot} already holds chunk {state.buffer[slot - 1]}")
        if action.chunk_id in state.buffer:
            raise OccupancyError(f"chunk {action.chunk_id} already placed")
        buf = list(state.buffer)
        buf[slot - 1] = action.chunk_id
        new = ExternalState(state.space, tuple(buf), state.latent, state.cue_script, state.cue_cursor)
        return new, Observation(PLACEMENT_FEEDBACK, chunk_id=action.chunk_id, slot=slot)

    if action.kind == DELETE:
        buf = list(state.buffer)
        buf[slot - 1] = None
        new = ExternalState(state.space, tuple(buf), state.latent, state.cue_script, state.cue_cursor)
        return new, Observation(PLACEMENT_FEEDBACK, chunk_id=None, slot=slot)

    if action.kind == FIXATE_TARGET:
        return state, Observation(TARGET_GLIMPSE, chunk_id=state.buffer[slot - 1], slot=slot)

    if action.kind == PAUSE:
        return state, Observation(NULL)

    raise TaskError(f"unknown action kind {action.kind!r}")


def is_complete(state: ExternalState) -> bool:
    return None not in state.buffer


def render_target(state: ExternalState) -> str:
    """Concatenate placed chunks' target text in slot order; empty slots show a gap mark."""
    parts = []
    for c in state.buffer:
        if c is None:
            parts.append(GAP_MARK)
        else:
            parts.append(state.space.table.chunk(c).target_text)
    return "".join(parts)
