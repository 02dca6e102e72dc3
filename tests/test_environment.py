import numpy as np
import pytest

from abctrans import environment as env
from abctrans.agent import large_context_planner_config, run_episode
from abctrans.task import ReadingEvidenceModel, TaskError

from conftest import render_of

TT0_TEXT = (
    "その結果、絶対的リーダーや官僚、職人が狩猟採集民族社会から"
    "支持されることは、めったにありませんでした"
)


@pytest.fixture
def state(space):
    return env.ExternalState.initial(space, "TT3")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestApplyAction:
    def test_typing_fills_slot_and_echoes(self, state, models, rng):
        new, obs = env.apply_action(state, env.type_chunk(1, 1), models, rng)
        assert new.buffer[0] == 1
        assert obs == env.Observation(env.PLACEMENT_FEEDBACK, chunk_id=1, slot=1)

    def test_typing_into_occupied_slot_rejected(self, state, models, rng):
        new, _ = env.apply_action(state, env.type_chunk(1, 1), models, rng)
        with pytest.raises(env.OccupancyError):
            env.apply_action(new, env.type_chunk(2, 1), models, rng)

    def test_retyping_placed_chunk_rejected(self, state, models, rng):
        new, _ = env.apply_action(state, env.type_chunk(1, 1), models, rng)
        with pytest.raises(env.OccupancyError):
            env.apply_action(new, env.type_chunk(1, 2), models, rng)

    def test_noiseless_cue_names_the_latent(self, space, rng):
        exact = ReadingEvidenceModel.with_defaults(space, content=1.0)
        state = env.ExternalState.initial(space, "TT3")
        _, obs = env.apply_action(state, env.fixate_source(3), exact, rng)
        assert obs.kind == env.ORDERING_CUE
        assert obs.cue == "TT3"

    def test_delete_clears_and_reports_empty(self, state, models, rng):
        filled, _ = env.apply_action(state, env.type_chunk(1, 1), models, rng)
        cleared, obs = env.apply_action(filled, env.delete(1), models, rng)
        assert cleared.buffer[0] is None
        assert obs == env.Observation(env.PLACEMENT_FEEDBACK, chunk_id=None, slot=1)

    def test_pause_is_null_and_consult_is_rejected(self, state, models, rng):
        _, obs = env.apply_action(state, env.pause(), models, rng)
        assert obs.kind == env.NULL
        # consult is a kind ingested from logs; the agent never performs it
        with pytest.raises(TaskError, match="unknown action kind"):
            env.apply_action(state, env.Action(env.CONSULT), models, rng)

    def test_target_glimpse_reflects_buffer(self, state, models, rng):
        filled, _ = env.apply_action(state, env.type_chunk(4, 2), models, rng)
        _, obs = env.apply_action(filled, env.fixate_target(2), models, rng)
        assert obs == env.Observation(env.TARGET_GLIMPSE, chunk_id=4, slot=2)

    def test_dynamics_are_stationary(self, state, models, rng):
        new, _ = env.apply_action(state, env.type_chunk(1, 1), models, rng)
        new, _ = env.apply_action(new, env.fixate_source(2), models, rng)
        assert new.space is state.space
        assert new.latent == state.latent

    def test_cue_script_consumed_in_order(self, space, models, rng):
        state = env.ExternalState.initial(space, "TT3", cue_script=("TT5", "TT1"))
        state, obs1 = env.apply_action(state, env.fixate_source(1), models, rng)
        state, obs2 = env.apply_action(state, env.fixate_source(2), models, rng)
        assert (obs1.cue, obs2.cue) == ("TT5", "TT1")

    def test_buffer_stays_a_partial_permutation(self, state, models, rng):
        actions = [
            env.type_chunk(1, 1),
            env.type_chunk(4, 2),
            env.delete(1),
            env.type_chunk(1, 1),
            env.type_chunk(0, 3),
            env.delete(2),
            env.type_chunk(4, 4),
        ]
        for a in actions:
            state, _ = env.apply_action(state, a, models, rng)
            placed = [c for c in state.buffer if c is not None]
            assert len(placed) == len(set(placed))


class TestCompletionAndRender:
    def test_empty_buffer_incomplete(self, state):
        assert not env.is_complete(state)

    def test_full_tt0_buffer_complete(self, space, models, rng):
        state = env.ExternalState.initial(space, "TT0")
        for slot, chunk in enumerate(space.ordering("TT0").slots, start=1):
            state, _ = env.apply_action(state, env.type_chunk(chunk, slot), models, rng)
        assert env.is_complete(state)
        assert env.render_target(state) == TT0_TEXT
        assert env.render_target(state) == render_of(space, "TT0")

    def test_four_of_five_incomplete(self, space, models, rng):
        state = env.ExternalState.initial(space, "TT0")
        for slot, chunk in list(enumerate(space.ordering("TT0").slots, start=1))[:4]:
            state, _ = env.apply_action(state, env.type_chunk(chunk, slot), models, rng)
        assert not env.is_complete(state)

    def test_render_empty_buffer_is_all_gaps(self, state):
        assert env.render_target(state) == "_____"

    def test_render_partial(self, state, models, rng):
        filled, _ = env.apply_action(state, env.type_chunk(1, 1), models, rng)
        assert env.render_target(filled) == "その結果____"


class TestNoiselessPlannerReachesLatent:
    def test_final_buffer_equals_latent(self, space):
        exact = ReadingEvidenceModel.with_defaults(space, content=1.0)
        cfg = large_context_planner_config()
        for latent in ("TT0", "TT3", "TT5"):
            trace = run_episode(cfg, exact, latent=latent, seed=1, max_steps=30)
            assert trace.complete
            assert trace.final_target == render_of(space, latent)
