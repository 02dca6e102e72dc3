import math

import numpy as np
import pytest

from abctrans import environment as env
from abctrans.agent import large_context_planner_config, run_episode
from abctrans.task import ReadingEvidenceModel, TaskError
from abctrans.taskfile import bundled_task_path, load_task

from conftest import cue_distribution, render_of
from gentask import generated_space

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

    @pytest.mark.parametrize(
        "make", [lambda slot: env.type_chunk(1, slot), env.delete, env.fixate_target],
        ids=["type", "delete", "fixate_target"],
    )
    def test_slot_out_of_range_rejected(self, make, state, models, rng):
        for slot in (0, state.space.n_slots + 1):
            with pytest.raises(TaskError, match=f"^slot {slot} out of range$"):
                env.apply_action(state, make(slot), models, rng)

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


def _cue_models():
    bundled = load_task(bundled_task_path()).space
    for content in (0.3, 0.8, 0.99, 1.0):
        yield ReadingEvidenceModel.with_defaults(bundled, content=content, punctuation=0.5)
    yield ReadingEvidenceModel.with_defaults(generated_space(4, 1, 0), content=0.8)
    yield ReadingEvidenceModel.with_defaults(generated_space(4, 12, 0), content=0.9)


class TestCueDraws:
    @pytest.mark.parametrize("models", list(_cue_models()), ids=[
        "bundled-0.3", "bundled-0.8", "bundled-0.99", "bundled-1.0", "one-ordering", "gen-12",
    ])
    def test_cue_draws_equal_generator_choice(self, models):
        # A cue drawn from the stored CDF is the one rng.choice draws from
        # cue_distribution, index for index, and it leaves the generator
        # where rng.choice leaves it.
        space = models.space
        pairs = [(c.id, label) for c in space.table.chunks for label in space.labels]
        for seed in range(50):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for chunk_id, latent in pairs:
                state = env.ExternalState.initial(space, latent)
                dist = cue_distribution(models, chunk_id, latent)
                for _ in range(3):
                    new, obs = env.apply_action(state, env.fixate_source(chunk_id), models, rng)
                    assert new is state
                    assert obs.cue == space.labels[twin.choice(len(dist), p=dist)], (
                        seed, chunk_id, latent,
                    )
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("models", list(_cue_models()), ids=[
        "bundled-0.3", "bundled-0.8", "bundled-0.99", "bundled-1.0", "one-ordering", "gen-12",
    ])
    def test_cue_draws_equal_generator_choice_at_cdf_boundaries(self, models):
        # Random draws almost never land on a CDF entry, so each uniform
        # draw one step of 2**-53 below, at and above every entry of the
        # stored CDF and of the plain cumulative sum, and the largest draw,
        # is forced through a crafted MT19937 state. Chunks of one
        # reliability share their distributions, which are checked once.
        space = models.space
        rng, twin = np.random.Generator(np.random.MT19937(0)), np.random.Generator(np.random.MT19937(0))
        seen = set()
        for chunk in space.table.chunks:
            for latent in space.labels:
                dist = cue_distribution(models, chunk.id, latent)
                if tuple(dist) in seen:
                    continue
                seen.add(tuple(dist))
                entries = set(models.cue_cdf(chunk.id, latent)) | set(dist.cumsum().tolist())
                ks = {math.floor(x * 2**53) + step for x in entries for step in (-1, 0, 1)}
                state = env.ExternalState.initial(space, latent)
                for k in sorted(k for k in ks if 0 <= k < 2**53) + [2**53 - 1]:
                    _force_next_random(rng, k)
                    assert rng.random() == k / 2**53
                    _force_next_random(rng, k)
                    _force_next_random(twin, k)
                    _, obs = env.apply_action(state, env.fixate_source(chunk.id), models, rng)
                    assert obs.cue == space.labels[twin.choice(len(dist), p=dist)], (
                        chunk.id, latent, k,
                    )
                    assert rng.bit_generator.state["state"]["pos"] == 2
                    assert twin.bit_generator.state["state"]["pos"] == 2


def _untempered(y: int) -> int:
    """The MT19937 state word whose tempered output is y."""
    def undo_right(y, shift):
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ (x >> shift)
        return x

    def undo_left(y, shift, mask):
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ ((x << shift) & mask)
        return x & 0xFFFFFFFF

    y = undo_right(y, 18)
    y = undo_left(y, 15, 0xEFC60000)
    y = undo_left(y, 7, 0x9D2C5680)
    return undo_right(y, 11)


def _force_next_random(gen: np.random.Generator, k: int) -> None:
    """Set an MT19937 generator so that its next random() is k / 2**53.

    MT19937's random() joins the top 27 bits of one output and the top 26
    of the next into the 53-bit numerator.
    """
    key = np.zeros(624, dtype=np.uint32)
    key[0] = _untempered((k >> 26) << 5)
    key[1] = _untempered((k & (2**26 - 1)) << 6)
    gen.bit_generator.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}


class TestCompletionAndRender:
    def test_empty_buffer_incomplete(self, state):
        assert not env.is_complete(state)

    def test_full_tt0_buffer_complete(self, space, models, rng):
        state = env.ExternalState.initial(space, "TT0")
        for slot, chunk in enumerate(space.orderings[space.index_of("TT0")].slots, start=1):
            state, _ = env.apply_action(state, env.type_chunk(chunk, slot), models, rng)
        assert env.is_complete(state)
        assert env.render_target(state) == TT0_TEXT
        assert env.render_target(state) == render_of(space, "TT0")

    def test_four_of_five_incomplete(self, space, models, rng):
        state = env.ExternalState.initial(space, "TT0")
        tt0 = space.orderings[space.index_of("TT0")]
        for slot, chunk in list(enumerate(tt0.slots, start=1))[:4]:
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
