"""Rejections by name that no other test reaches: each call raises its error type with its message."""

import dataclasses

import pytest

from abctrans import agent, analysis, environment as env, inference, task
from abctrans.trace import ProcessEvent, Trace

from conftest import point_mass


def full_buffer(space, models):
    """select_policy on a buffer that already holds ordering TT0."""
    placed = tuple(enumerate(space.orderings[0].slots, start=1))
    belief = point_mass(len(space.orderings), 0)
    cognitive = agent.CognitiveState(belief, belief, placed, frozenset(space.table.source_order))
    cfg = agent.head_starter_config()
    agent.select_policy(cognitive, agent.initial_agent_state(space, cfg).affective, models, cfg)


def terminal_step(space, models):
    """step on an episode whose buffer is complete."""
    state = env.ExternalState.initial(space, "TT0")
    state = dataclasses.replace(state, buffer=space.orderings[0].slots)
    cfg = agent.head_starter_config()
    agent.step(agent.initial_agent_state(space, cfg), state, models, cfg, None)


def uneven_slots(space, models):
    """A space whose two orderings hold different numbers of slots."""
    orderings = (task.CandidateOrdering("A", (1, 2)), task.CandidateOrdering("B", (1,)))
    task.CandidateSpace(space.table, orderings, task.Categorical.uniform(2))


CASES = {
    "planner preset": (
        lambda space, models: agent.large_context_planner_config(horizon=2),
        ValueError, "planner preset requires w_e > w_p and a dynamic horizon",
    ),
    "misspelt strategy": (
        lambda space, models: agent.AgentConfig(strategy="head-starter", w_e=8.0, w_p=0.25, horizon=None),
        ValueError, "strategy must be 'custom', 'head_starter' or 'large_context_planner', got 'head-starter'",
    ),
    "strategy of no name": (
        lambda space, models: agent.AgentConfig(strategy=3),
        ValueError, "strategy must be 'custom', 'head_starter' or 'large_context_planner', got 3",
    ),
    "enumeration horizon": (
        lambda space, models: agent.enumerate_policies(
            agent.initial_agent_state(space, agent.AgentConfig()).cognitive, space, 0, agent.AgentConfig()
        ),
        ValueError, "horizon must be an int of at least 1, got 0",
    ),
    "no admissible policy": (full_buffer, ValueError, "no admissible policy: translation already complete"),
    "consult duration": (
        lambda space, models: agent._action_duration(env.Action(env.CONSULT), env.ExternalState.initial(space, "TT0")),
        ValueError, "unknown action kind 'consult'",
    ),
    "terminal episode": (terminal_step, ValueError, "episode already terminal"),
    "segment state": (
        lambda space, models: analysis.Segment("X", 0.0, 1.0, ()),
        analysis.AnalysisError, "state 'X' outside the OHRF alphabet",
    ),
    "segment event kind": (
        lambda space, models: analysis.segment_ohrf(Trace([ProcessEvent(0.0, 1.0, "blink")])),
        analysis.AnalysisError, "unknown event kind 'blink'",
    ),
    "likelihood length": (
        lambda space, models: inference.bayes_update(space.prior, [0.5]),
        ValueError, "one likelihood per option required",
    ),
    "no policies": (
        lambda space, models: inference.policy_posterior([], 1.0), ValueError, "need at least one policy",
    ),
    "chunk kind": (
        lambda space, models: task.Chunk(7, "a", "x", kind="idiom"), task.TaskError, "unknown chunk kind 'idiom'",
    ),
    "unplaced chunk": (
        lambda space, models: task.CandidateOrdering("A", (1, 2)).position_of(3),
        task.UnknownChunkError, "chunk 3 not placed in ordering A",
    ),
    "prior length": (
        lambda space, models: task.CandidateSpace(space.table, space.orderings, task.Categorical.uniform(2)),
        task.TaskError, "prior length must match the number of orderings",
    ),
    "slot counts": (uneven_slots, task.TaskError, "all orderings must share one slot count"),
    "no orderings": (
        lambda space, models: task.build_candidate_space(space.table, []),
        task.TaskError, "need at least one candidate ordering",
    ),
    "one label too many": (
        lambda space, models: task.build_candidate_space(space.table, [space.orderings[0].slots], labels=("A", "B")),
        task.TaskError, "one label per ordering required",
    ),
    "likelihood of no chunk": (
        lambda space, models: models.likelihood_row(99, "TT0"),
        task.UnknownChunkError, "chunk 99 not in evidence model",
    ),
}


def scored_placement(chunk_id, slot, walk):
    """score_policies on one placement: alone (the one-action path) or after a pause (the level walk)."""
    policy = (env.type_chunk(chunk_id, slot),)
    if walk:
        policy = (env.pause(),) + policy
    return lambda space, models: inference.score_policies(space.prior, [policy], models, inference.PreferenceVector())


# Both scorers read a placement through the checked placement_mask: slot 0
# must not wrap round to the last slot's mask.
for walk, path in ((False, "one action"), (True, "walk")):
    CASES[f"placement of no chunk, {path}"] = (
        scored_placement(7, 1, walk), task.UnknownChunkError, "chunk 7 not in this space",
    )
    for slot in (0, 9):
        CASES[f"placement at slot {slot}, {path}"] = (
            scored_placement(1, slot, walk), task.TaskError, f"slot {slot} out of range 1..5",
        )


@pytest.mark.parametrize("case", CASES)
def test_a_call_is_rejected_by_name(space, models, case):
    call, error, message = CASES[case]
    with pytest.raises(error) as raised:
        call(space, models)
    assert type(raised.value) is error and str(raised.value) == message

