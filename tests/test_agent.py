import copy
import dataclasses
import functools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abctrans import analysis, environment as env, inference
from abctrans.agent import (
    AgentConfig,
    AffectiveState,
    CognitiveState,
    GAMMA_MIN,
    ZETA_MAX,
    _consistent,
    _consistent_mass,
    _evidence_map_index,
    _next_actions,
    _offending,
    _recompute_working,
    _scored_policies,
    clear_selection_cache,
    enumerate_policies,
    head_starter_config,
    initial_agent_state,
    large_context_planner_config,
    run_episode,
    select_policy,
    step,
    update_affect,
)
from abctrans.inference import (
    ContradictionError,
    EFEDecomposition,
    PreferenceVector,
    bayes_update,
    expected_free_energy,
    posteriors,
)
from abctrans.task import Categorical, ReadingEvidenceModel, placement_row
from abctrans.trace import ProcessEvent, Trace

from conftest import point_mass, render_of
from gentask import generated_space
from perfbench.workloads import round_trip_problems


def rule_input(cognitive, space):
    """The rule's read, filled and live bitmasks at a decision, from their definitions."""
    read = sum(1 << p for p, c in enumerate(space.table.source_order) if c in cognitive.read_set)
    filled = sum(1 << (slot - 1) for slot, _ in cognitive.placed)
    live = sum(1 << i for i, p in enumerate(cognitive.belief.probs) if p > 0.0)
    return read, filled, live


def dfs_policies(cognitive, space, horizon, cfg, last_was_pause=False):
    """Enumeration's oracle, the recursive depth-first walk it replaced: (rows, truncated).

    Each row holds a policy's actions, padded with None to the horizon.
    """
    rows = []
    order_pos = {c: i for i, c in enumerate(space.table.source_order)}
    truncated = False

    def expand(prefix, read, filled, live, paused):
        nonlocal truncated
        acts = _next_actions(space, read, filled, live, paused)
        if prefix and prefix[-1].kind == env.FIXATE_SOURCE:
            min_pos = order_pos[prefix[-1].chunk_id]
            acts = [
                (a, survivors) for a, survivors in acts
                if a.kind != env.FIXATE_SOURCE or order_pos[a.chunk_id] > min_pos
            ]
        if not acts:
            if prefix:
                rows.append(prefix + [None] * (horizon - len(prefix)))
            return
        for action, survivors in acts:
            if len(rows) >= cfg.max_policies:
                truncated = True
                return
            nxt_read, nxt_filled = read, filled
            if action.kind == env.FIXATE_SOURCE:
                nxt_read = read | 1 << order_pos[action.chunk_id]
            elif action.kind == env.TYPE:
                nxt_filled = filled | 1 << (action.slot - 1)
            if len(prefix) + 1 == horizon:
                rows.append(prefix + [action])
            else:
                expand(prefix + [action], nxt_read, nxt_filled, survivors, action.kind == env.PAUSE)

    expand([], *rule_input(cognitive, space), last_was_pause)
    return rows, truncated


def assert_enumeration_is_the_oracles(cognitive, space, horizon, cfg, last_was_pause=False):
    # Cell by cell the same action (enumeration shares one Action per
    # (kind, chunk, slot)) or the -1 pad, whatever ids name the actions.
    policies = enumerate_policies(cognitive, space, horizon, cfg, last_was_pause)
    rows, truncated = dfs_policies(cognitive, space, horizon, cfg, last_was_pause)
    assert policies.ids.dtype == np.int32 and policies.ids.shape == (len(rows), horizon)
    actions = [id(a) for a in policies.actions]
    assert len(set(actions)) == len(actions)
    cells = [[actions[a] if a >= 0 else None for a in row] for row in policies.ids.tolist()]
    assert cells == [[None if a is None else id(a) for a in row] for row in rows]
    if not truncated:  # an uncut table lists only the actions its rows use
        assert set(policies.ids.ravel().tolist()) - {-1} == set(range(len(actions)))
    assert policies.truncated == truncated
    return policies


def agent_after_cue(space, models, cfg, cue: str, chunk: int = 1):
    belief = bayes_update(space.prior, models.likelihood_row(chunk, cue))
    cognitive = CognitiveState(
        belief=belief, evidence_belief=belief, read_set=frozenset({chunk})
    )
    base = initial_agent_state(space, cfg)
    return base, cognitive


def assert_step_beliefs(space, models, cfg, latent, seed, cue_script=None, max_steps=40):
    """Step an episode; each returned belief is a valid Categorical and the
    working belief is the evidence belief conditioned on the buffer."""
    state = env.ExternalState.initial(space, latent, cue_script=cue_script)
    agent = initial_agent_state(space, cfg)
    rng = np.random.default_rng(seed)
    for _ in range(max_steps):
        if env.is_complete(state):
            break
        agent, state, _ = step(agent, state, models, cfg, rng)
        cognitive = agent.cognitive
        case = (cfg.strategy, latent, seed, cognitive.placed)
        for b in (cognitive.belief, cognitive.evidence_belief):
            assert Categorical(b.probs) == b, case
            assert all(type(p) is float for p in b.probs), case
        if cognitive.placed:
            # The placement rows' product, independent of the step's bitmasks.
            consistent = np.prod([placement_row(space, c, s) for s, c in cognitive.placed], axis=0)
            assert cognitive.belief == bayes_update(cognitive.evidence_belief, consistent), case
        else:
            assert cognitive.belief == cognitive.evidence_belief, case


def revising_episode(space):
    # first cue wrongly suggests a source-like order; later reliable cues
    # flip the evidence MAP to the fronted order and force deletions
    models95 = ReadingEvidenceModel.with_defaults(space, content=0.95)
    cfg = head_starter_config(
        prefs=PreferenceVector(
            progress_bonus=1.0,
            inconsistency_penalty=-1.5,
            unread_cost=2.0,
        )
    )
    return run_episode(
        cfg,
        models95,
        latent="TT5",
        seed=3,
        cue_script=("TT0", "TT5", "TT5", "TT5"),
        max_steps=40,
    )


class TestUpdateAffect:
    def test_zero_surprise_restores_confidence(self):
        cfg = AgentConfig(gamma_max=8.0)
        state = AffectiveState(gamma=1.0, zeta=1.4, surprise_ema=3.0)
        for _ in range(60):
            state = update_affect(state, 0.0, cfg)
        assert abs(state.gamma - cfg.gamma_max) <= 1e-3

    def test_full_replacement_at_beta_one(self):
        cfg = AgentConfig(beta=1.0)
        state = update_affect(AffectiveState(8.0, 1.0), 4.2, cfg)
        assert abs(state.surprise_ema - 4.2) <= 1e-12

    def test_ema_update_value(self):
        cfg = AgentConfig(beta=0.2)
        state = update_affect(AffectiveState(8.0, 1.0, surprise_ema=0.0), 2.585, cfg)
        assert abs(state.surprise_ema - 0.517) <= 1e-3

    def test_surprise_raises_zeta_and_lowers_gamma(self):
        cfg = AgentConfig(beta=0.5, gamma_max=8.0)
        calm = AffectiveState(8.0, 1.0)
        shaken = update_affect(calm, 5.0, cfg)
        assert shaken.gamma < calm.gamma
        assert shaken.zeta > calm.zeta

    def test_precisions_stay_clamped(self):
        cfg = AgentConfig(gamma_max=8.0)
        state = AffectiveState(8.0, 1.0)
        for _ in range(50):
            state = update_affect(state, 30.0, cfg)
        assert state.gamma == GAMMA_MIN
        assert state.zeta == ZETA_MAX

    def test_negative_surprisal_rejected(self):
        with pytest.raises(ValueError):
            update_affect(AffectiveState(8.0, 1.0), -0.1, AgentConfig())

    def test_precision_requires_positive_values(self):
        with pytest.raises(ValueError):
            AffectiveState(0.0, 1.0)
        with pytest.raises(ValueError):
            AffectiveState(1.0, -2.0)

    @pytest.mark.parametrize("surprisal", [math.nan, -math.inf])
    def test_nan_or_negative_infinite_surprisal_rejected(self, surprisal):
        with pytest.raises(ValueError, match="surprisal"):
            update_affect(AffectiveState(8.0, 1.0), surprisal, AgentConfig())

    @pytest.mark.parametrize("gamma, zeta, ema", [
        (math.nan, 1.0, 0.0),
        (1.0, math.nan, 0.0),
        (1.0, 1.0, math.nan),
        (math.nan, math.nan, math.nan),
        (math.inf, 1.0, 0.0),
        (1.0, math.inf, 0.0),
    ])
    def test_nan_or_infinite_precision_and_nan_average_rejected(self, gamma, zeta, ema):
        with pytest.raises(ValueError):
            AffectiveState(gamma=gamma, zeta=zeta, surprise_ema=ema)


class TestPresets:
    def test_head_starter_invariants(self):
        cfg = head_starter_config()
        assert cfg.w_p > cfg.w_e and cfg.horizon == 1

    def test_planner_invariants(self):
        cfg = large_context_planner_config()
        assert cfg.w_e > cfg.w_p and cfg.horizon is None

    def test_inconsistent_preset_rejected(self):
        with pytest.raises(ValueError):
            head_starter_config(w_e=5.0)


class TestAgentConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("beta", -0.1), ("beta", 1.5), ("beta", float("nan")), ("gamma_max", 0.0),
         ("gamma_max", -4.0), ("gamma_max", float("inf")), ("gamma_max", float("nan")),
         ("horizon", 0), ("horizon", 2.5), ("horizon", float("inf")), ("horizon", True),
         ("max_policies", 0), ("max_policies", -3), ("max_policies", 2.5),
         ("max_policies", float("inf")), ("max_policies", True), ("w_e", float("nan")),
         ("w_e", float("inf")), ("w_p", float("inf")), ("w_p", float("-inf")), ("w_p", float("nan"))],
    )
    def test_out_of_range_values_are_rejected_by_name(self, field, value):
        for make in (AgentConfig, head_starter_config, large_context_planner_config):
            with pytest.raises(ValueError, match=f"^{field} must"):
                make(**{field: value})

    @pytest.mark.parametrize("field", ["progress_bonus", "inconsistency_penalty", "unread_cost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_preferences_are_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            AgentConfig(prefs=PreferenceVector(**{field: value}))

    def test_a_finite_negative_weight_is_allowed(self, models):
        assert run_episode(AgentConfig(w_e=-1.0), models, seed=0).stop_reason == "complete"

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_may_take_its_bounds(self, beta):
        assert AgentConfig(beta=beta).beta == beta

    @staticmethod
    def field_hash(cfg):
        return hash(tuple(getattr(cfg, f.name) for f in dataclasses.fields(cfg)))

    def test_hash_is_taken_once_from_the_fields(self, monkeypatch):
        # The selection memo hashes the config on every lookup.
        cfg = large_context_planner_config()
        assert cfg._hash == self.field_hash(cfg) == hash(cfg)
        calls = []
        monkeypatch.setattr(PreferenceVector, "__hash__", lambda self: calls.append(self) or 0)
        hash(cfg)
        assert calls == []

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_pickled_config_takes_its_hash_afresh(self, protocol):
        # A str's hash changes between processes, so the stored hash is not pickled.
        for cfg in (AgentConfig(), head_starter_config(), large_context_planner_config(sample_policies=True)):
            data = pickle.dumps(cfg, protocol)
            assert b"_hash" not in data
            back = pickle.loads(data)
            assert back == cfg and hash(back) == hash(cfg) == self.field_hash(back)
            assert {cfg: 1}[back] == 1

    def test_a_replaced_or_copied_config_hashes_its_own_fields(self):
        cfg = head_starter_config()
        for changes in ({}, {"max_policies": 7}, {"gamma_max": 2.0}, {"prefs": PreferenceVector()}):
            new = dataclasses.replace(cfg, **changes)
            assert new._hash == self.field_hash(new) == hash(new)
            assert (new == cfg) == (hash(new) == hash(cfg)) == (not changes)
        for copied in (copy.copy(cfg), copy.deepcopy(cfg)):
            assert copied == cfg and hash(copied) == hash(cfg)


class TestEnumeratePolicies:
    def test_terminal_state_yields_nothing(self, space, models):
        tt0 = space.orderings[space.index_of("TT0")]
        placed = tuple(sorted((s, c) for s, c in enumerate(tt0.slots, start=1)))
        cognitive = CognitiveState(
            belief=point_mass(6, 0),
            evidence_belief=point_mass(6, 0),
            placed=placed,
            read_set=frozenset({1, 2, 3, 4}),
        )
        assert len(enumerate_policies(cognitive, space, 1, head_starter_config())) == 0

    def test_start_state_contains_read_and_type(self, space, models):
        cfg = head_starter_config()
        agent = initial_agent_state(space, cfg)
        policies = enumerate_policies(agent.cognitive, space, 1, cfg)
        flat = {p[0] for p in policies}
        assert env.fixate_source(1) in flat
        assert env.type_chunk(1, 1) in flat
        assert env.pause() in flat

    def test_point_mass_belief_filters_typing(self, space, models):
        cfg = head_starter_config()
        b = point_mass(6, space.index_of("TT3"))
        cognitive = CognitiveState(belief=b, evidence_belief=b, read_set=frozenset({1, 2, 3, 4}))
        policies = enumerate_policies(cognitive, space, 1, cfg)
        typing = [p[0] for p in policies if p[0].kind == env.TYPE]
        assert typing == [env.type_chunk(1, 1)]  # TT3 puts chunk 1 first

    def test_no_consecutive_pauses(self, space, models):
        cfg = large_context_planner_config()
        agent = initial_agent_state(space, cfg)
        for policy in enumerate_policies(agent.cognitive, space, 4, cfg):
            for a, b in zip(policy, policy[1:]):
                assert not (a.kind == env.PAUSE and b.kind == env.PAUSE)

    def test_opening_shares_one_action_per_kind_chunk_and_slot(self, space):
        # the constructors hand out one Action per (kind, chunk, slot), so an
        # opening's 1,206 policies reference only a few distinct objects
        cfg = large_context_planner_config()
        policies = enumerate_policies(initial_agent_state(space, cfg).cognitive, space, 4, cfg)
        assert len(policies) == 1206
        actions = [a for policy in policies for a in policy]
        fields = {(a.kind, a.chunk_id, a.slot) for a in actions}
        assert len({id(a) for a in actions}) == len(fields)

    def test_policy_cap_respected(self, space, models):
        cfg = large_context_planner_config(max_policies=16)
        agent = initial_agent_state(space, cfg)
        assert len(enumerate_policies(agent.cognitive, space, 4, cfg)) <= 16

    def test_truncation_is_reported(self, space):
        # The bundled opening (1,206 policies) stays under the cap. A
        # generated task with 5 content chunks and 6 orderings has 9,068
        # admissible horizon-5 policies; depth-first order fills the 4,096
        # kept with policies that open with a read.
        cfg = large_context_planner_config()
        bundled = enumerate_policies(initial_agent_state(space, cfg).cognitive, space, 4, cfg)
        assert (len(bundled), bundled.truncated) == (1206, False)
        big = generated_space(5, 6, 1)
        capped = enumerate_policies(initial_agent_state(big, cfg).cognitive, big, 5, cfg)
        assert (len(capped), capped.truncated) == (cfg.max_policies, True)
        assert {policy[0].kind for policy in capped} == {env.FIXATE_SOURCE}
        uncapped_cfg = large_context_planner_config(max_policies=9068)
        uncapped = enumerate_policies(initial_agent_state(big, cfg).cognitive, big, 5, uncapped_cfg)
        assert (len(uncapped), uncapped.truncated) == (9068, False)


class TestEnumerationOracle:
    # The state-graph enumeration gives the recursive walk's table exactly:
    # the same actions in the same order, the same rows and the same flag.
    def test_bundled_opening_and_caps(self, space):
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        total = len(assert_enumeration_is_the_oracles(start, space, 4, cfg))
        assert total == 1206
        for cap in (1, 7, total - 1, total, total + 1):
            capped = dataclasses.replace(cfg, max_policies=cap)
            policies = assert_enumeration_is_the_oracles(start, space, 4, capped)
            assert (len(policies), policies.truncated) == (min(cap, total), cap < total)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_capped_horizon_one_openings(self, space, cap):
        # One-action openings cut by the cap: the rows and the flag, for both
        # presets' openings; the table keeps every action the rule lists at
        # the root, the cut rows' too.
        for preset in (head_starter_config, large_context_planner_config):
            cfg = preset(max_policies=cap)
            start = initial_agent_state(space, cfg).cognitive
            policies = assert_enumeration_is_the_oracles(start, space, 1, cfg)
            listed = [action for action, _ in _next_actions(space, *rule_input(start, space), False)]
            assert list(policies.actions) == listed and len(listed) > cap
            assert (len(policies), policies.truncated) == (cap, True)

    def test_every_decision_of_seeded_planner_episodes(self, space, models, monkeypatch):
        decisions = []

        def checked(cognitive, space, horizon, cfg, last_was_pause=False):
            decisions.append(horizon)
            return assert_enumeration_is_the_oracles(cognitive, space, horizon, cfg, last_was_pause)

        monkeypatch.setattr("abctrans.agent.enumerate_policies", checked)
        monkeypatch.setattr("abctrans.agent._scored_policies", _scored_policies.__wrapped__)
        cfg = large_context_planner_config()
        for latent, seed in (("TT0", 0), ("TT5", 3)):
            run_episode(cfg, models, latent=latent, seed=seed)
        assert len(decisions) > 2 and max(decisions) == 4

    def test_capped_horizon_five_opening_keeps_reads_only(self):
        # 9,068 admissible policies; the 4,096 kept are the first in
        # depth-first order, and every one of them opens with a read.
        big = generated_space(5, 6, 1)
        cfg = large_context_planner_config()
        start = initial_agent_state(big, cfg).cognitive
        policies = assert_enumeration_is_the_oracles(start, big, 5, cfg)
        assert (len(policies), policies.truncated) == (4096, True)
        assert {policy[0].kind for policy in policies} == {env.FIXATE_SOURCE}

    def test_every_decision_of_seeded_episodes_on_generated_tasks(self, monkeypatch):
        # Both presets on two 4x12 tasks at content 0.9, each decision also
        # enumerated with last_was_pause flipped. The scripted planner
        # episode revises: it deletes slot 1 and keeps slot 2, so a buffer
        # with a hole is enumerated.
        decisions = []

        def checked(cognitive, space, horizon, cfg, last_was_pause=False):
            decisions.append(cognitive.placed)
            assert_enumeration_is_the_oracles(cognitive, space, horizon, cfg, not last_was_pause)
            return assert_enumeration_is_the_oracles(cognitive, space, horizon, cfg, last_was_pause)

        monkeypatch.setattr("abctrans.agent.enumerate_policies", checked)
        monkeypatch.setattr("abctrans.agent._scored_policies", _scored_policies.__wrapped__)
        tasks = {s: ReadingEvidenceModel.with_defaults(generated_space(4, 12, s), content=0.9) for s in (1, 2)}
        for models in tasks.values():
            for preset in (head_starter_config, large_context_planner_config):
                for latent, seed in (("G0", 0), ("G5", 1)):
                    run_episode(preset(), models, latent=latent, seed=seed, max_steps=60)
        run_episode(large_context_planner_config(), tasks[2], latent="G0", seed=2, cue_script=("G3", "G3"))
        assert len(decisions) > 20
        assert any(placed and placed[0][0] > 1 for placed in decisions)

    def test_caps_on_a_generated_opening(self):
        # The 4x12 opening at horizons 1-5 (9, 61, 344, 1,686 and 7,381
        # policies), cut at 1 and 7 policies and at one either side of its total.
        space = generated_space(4, 12, 1)
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        for horizon in range(1, 6):
            total = len(enumerate_policies(start, space, horizon, dataclasses.replace(cfg, max_policies=10**6)))
            for cap in (1, 7, total - 1, total + 1):
                capped = dataclasses.replace(cfg, max_policies=cap)
                policies = assert_enumeration_is_the_oracles(start, space, horizon, capped)
                assert (len(policies), policies.truncated) == (min(cap, total), cap < total)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(1, 12),
        seed=st.integers(1, 3),
        horizon=st.integers(1, 4),
        placed=st.integers(0, 2),
        reads=st.integers(0, 15),
        paused=st.booleans(),
        cap=st.sampled_from([1, 7, 50, 4096]),
    )
    @example(n=4, k=12, seed=2, horizon=1, placed=0, reads=0, paused=False, cap=1)
    @example(n=3, k=6, seed=1, horizon=1, placed=1, reads=1, paused=True, cap=2)
    def test_generated_decisions(self, n, k, seed, horizon, placed, reads, paused, cap):
        # A decision part-way through: the first placed slots of ordering 0
        # typed, the belief uniform on the orderings they fit, and the
        # content chunks in the bits of reads already read.
        space = generated_space(n, min(k, math.factorial(n + 1)), seed)
        slots = space.orderings[0].slots
        fits = [i for i, o in enumerate(space.orderings) if o.slots[:placed] == slots[:placed]]
        weights = [1.0 if i in fits else 0.0 for i in range(len(space.orderings))]
        belief = Categorical.from_weights(weights)
        read_set = frozenset(c for c in space.table.source_order if reads >> (c - 1) & 1)
        cognitive = CognitiveState(
            belief, belief, tuple((s, slots[s - 1]) for s in range(1, placed + 1)), read_set
        )
        cfg = large_context_planner_config(max_policies=cap)
        assert_enumeration_is_the_oracles(cognitive, space, horizon, cfg, paused)


class TestSelectPolicy:
    def test_planner_opens_with_a_reading_policy(self, space, models):
        cfg = large_context_planner_config()
        agent = initial_agent_state(space, cfg)
        sel = select_policy(agent.cognitive, agent.affective, models, cfg)
        assert sel.policy[0].kind == env.FIXATE_SOURCE
        assert all(a.kind == env.FIXATE_SOURCE for a in sel.policy)

    def test_head_starter_types_once_first_chunk_read(self, space, models):
        cfg = head_starter_config()
        base, cognitive = agent_after_cue(space, models, cfg, "TT0")
        sel = select_policy(cognitive, base.affective, models, cfg)
        assert sel.policy[0] == env.type_chunk(1, 1)

    def test_high_gamma_concentrates_on_argmax(self, space, models):
        cfg = head_starter_config()
        base, cognitive = agent_after_cue(space, models, cfg, "TT0")
        sharp = AffectiveState(gamma=200.0, zeta=1.0)
        sel = select_policy(cognitive, sharp, models, cfg)
        assert sel.decision.posterior.probs[sel.choice_index] > 0.99

    def test_zero_ish_gamma_spreads_the_posterior(self, space, models):
        cfg = head_starter_config()
        base, cognitive = agent_after_cue(space, models, cfg, "TT0")
        flat = AffectiveState(gamma=1e-9, zeta=1.0)
        sel = select_policy(cognitive, flat, models, cfg)
        n = len(sel.decision.policies)
        assert np.allclose(sel.decision.posterior.probs, 1.0 / n, atol=1e-6)

    def test_scores_follow_zeta_on_a_repeated_state(self, space, models):
        # zeta tempers every predicted cue, so the same state scored under
        # another zeta must not reuse the earlier scores
        cfg = head_starter_config()
        agent = initial_agent_state(space, cfg)
        cognitive = agent.cognitive
        select_policy(cognitive, AffectiveState(gamma=8.0, zeta=1.0), models, cfg)
        sel = select_policy(cognitive, AffectiveState(gamma=8.0, zeta=2.0), models, cfg)
        direct = tuple(
            expected_free_energy(
                cognitive.belief,
                policy,
                models,
                cfg.prefs,
                w_e=cfg.w_e,
                w_p=cfg.w_p,
                read_chunks=cognitive.read_set,
                zeta=2.0,
            )
            for policy in sel.decision.policies
        )
        decision = sel.decision
        scores = (decision.epistemic, decision.pragmatic, decision.totals)
        assert tuple(map(EFEDecomposition, *(column.tolist() for column in scores))) == direct

    def test_results_do_not_depend_on_memo_state(self, space, monkeypatch):
        # The same episodes, once in order on a warm memo and once in reverse
        # order with every decision scored afresh, give the same traces. The
        # second run bypasses the memo rather than clearing it, which is the
        # same for each decision and keeps the memo warm for later tests.
        # Content 0.99 moves zeta away from 1. Each latent runs under one
        # seed, which keeps the grid at 16 episodes.
        episodes = [
            (preset(sample_policies=sample), content, latent, seed)
            for preset in (head_starter_config, large_context_planner_config)
            for content in (0.8, 0.99)
            for sample in (False, True)
            for latent, seed in (("TT0", 0), ("TT5", 1))
        ]

        def run(cfg, content, latent, seed):
            models = ReadingEvidenceModel.with_defaults(space, content=content)
            return repr(run_episode(cfg, models, latent=latent, seed=seed))

        warm = [run(*e) for e in episodes]

        monkeypatch.setattr("abctrans.agent._scored_policies", _scored_policies.__wrapped__)
        cold = [run(*e) for e in reversed(episodes)]
        assert cold[::-1] == warm

    def test_cold_planner_opening_expands_each_state_once(self, space, models, monkeypatch):
        # Scoring the 1,206 opening policies walks 9,729 distinct (belief,
        # tail) states over all levels, where one row per (policy, branch
        # path) would be 36,679. Cue channels are built once per (belief,
        # reliability): the four source chunks share one reliability, so the
        # 516 distinct read nodes need only 260 channels, one per belief they
        # start from. Nodes and restrictions are built per level, so a node
        # two levels need is built twice: 1,941 nodes are built, 1,545 of
        # them distinct, and 175 restrictions. These pins count work, not
        # results.
        tables, built = [], []

        class Counted(inference._Rollout):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

            def build(self, bids, aids, laid):
                built.extend(zip(bids, aids))
                return super().build(bids, aids, laid)

        counts = {"channels": 0, "restrictions": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += len(args[0])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(inference, "_Rollout", Counted)
        monkeypatch.setattr(inference, "_read_branches", counted("channels", inference._read_branches))
        monkeypatch.setattr(inference, "_restrictions", counted("restrictions", inference._restrictions))
        monkeypatch.setattr("abctrans.agent._scored_policies", _scored_policies.__wrapped__)
        cfg = large_context_planner_config()
        agent = initial_agent_state(space, cfg)
        sel = select_policy(agent.cognitive, agent.affective, models, cfg)
        assert len(sel.decision.policies) == 1206
        (rollout,) = tables
        nodes = set(built)
        kinds = [sel.decision.policies.actions[aid].kind for _, aid in nodes]
        assert counts == {"channels": 260, "restrictions": 175}
        assert (len(built), len(nodes)) == (1941, 1545)
        assert len(rollout.gain) == (rollout.channel >= 0).sum() == 260
        assert (kinds.count(env.FIXATE_SOURCE), kinds.count(env.TYPE)) == (516, 769)
        assert rollout.states == 9729

    def test_a_choice_names_the_policy_at_its_index(self, space, models):
        # The memo entry keeps its MAP policy's actions; a sampled choice
        # elsewhere reads the Policies table. Both are policies[choice].
        cfg = large_context_planner_config(sample_policies=True)
        agent = initial_agent_state(space, cfg)
        argmax = select_policy(agent.cognitive, agent.affective, models, cfg)
        assert argmax.choice_index == argmax.decision.map_index
        assert argmax.policy == argmax.decision.policies[argmax.choice_index]
        rng = np.random.default_rng(0)
        sampled = [select_policy(agent.cognitive, agent.affective, models, cfg, rng=rng) for _ in range(20)]
        off_map = [sel for sel in sampled if sel.choice_index != sel.decision.map_index]
        assert off_map
        for sel in sampled:
            assert sel.policy == sel.decision.policies[sel.choice_index]


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestSelectionMemo:
    """The memo keeps one frozen record per (decision, gamma): scores, posterior, MAP and entropy."""

    def test_memoised_selections_equal_a_fresh_posterior(self, space, monkeypatch):
        # Each episode runs twice, so the second run's decisions are served
        # from the records the first run stored. Every
        # decision's posterior, choice and entropy must be bitwise what
        # policy_posterior and shannon_entropy give afresh from its totals,
        # and a sampled choice must leave the generator where a fresh draw
        # would. Content 0.99 moves zeta away from 1.
        selections, computed = [], []

        def counted_posterior(totals, gamma):
            computed.append(gamma)
            return inference.policy_posterior(totals, gamma)

        def checked_select(cognitive, affective, models, cfg, rng=None, last_was_pause=False):
            fresh_rng = copy.deepcopy(rng)
            sel = select_policy(cognitive, affective, models, cfg, rng=rng, last_was_pause=last_was_pause)
            fresh = inference.policy_posterior(sel.decision.totals, affective.gamma)
            assert float_bits(sel.decision.posterior.probs) == float_bits(fresh.probs)
            assert float_bits(sel.decision.posterior_entropy) == float_bits(inference.shannon_entropy(fresh))
            if cfg.sample_policies:
                assert sel.choice_index == int(fresh_rng.choice(len(fresh), p=fresh.as_array()))
                assert rng.bit_generator.state == fresh_rng.bit_generator.state
            else:
                assert sel.choice_index == fresh.map_index
            selections.append(sel)
            return sel

        monkeypatch.setattr("abctrans.agent.select_policy", checked_select)
        monkeypatch.setattr("abctrans.agent.policy_posterior", counted_posterior)
        for preset in (head_starter_config, large_context_planner_config):
            for sample in (False, True):
                cfg = preset(sample_policies=sample)
                for content in (0.8, 0.99):
                    models = ReadingEvidenceModel.with_defaults(space, content=content)
                    for latent, seed in (("TT0", 0), ("TT5", 1)):
                        first = repr(run_episode(cfg, models, latent=latent, seed=seed))
                        assert repr(run_episode(cfg, models, latent=latent, seed=seed)) == first
        # At least the second runs' selections were served from stored posteriors.
        assert len(computed) <= len(selections) // 2

    def test_one_decision_keeps_a_posterior_per_gamma(self, space, models):
        # The same (decision, gamma) returns the identical frozen record;
        # another gamma gives a new record whose policies and scores are
        # bitwise the first one's, and whose posterior is its own.
        cfg = head_starter_config()
        _, cognitive = agent_after_cue(space, models, cfg, "TT0")
        sharp = select_policy(cognitive, AffectiveState(gamma=8.0, zeta=1.0), models, cfg)
        flat = select_policy(cognitive, AffectiveState(gamma=0.5, zeta=1.0), models, cfg)
        again = select_policy(cognitive, AffectiveState(gamma=8.0, zeta=1.0), models, cfg)
        assert again.decision is sharp.decision
        assert flat.decision is not sharp.decision
        assert flat.decision.policies.actions == sharp.decision.policies.actions
        assert flat.decision.policies.ids.tobytes() == sharp.decision.policies.ids.tobytes()
        for name in ("epistemic", "pragmatic", "totals"):
            assert float_bits(getattr(flat.decision, name)) == float_bits(getattr(sharp.decision, name))
        for sel, gamma in ((sharp, 8.0), (flat, 0.5)):
            assert sel.decision.posterior == inference.policy_posterior(sel.decision.totals, gamma)
        assert sharp.decision.posterior_entropy < flat.decision.posterior_entropy
        with pytest.raises(dataclasses.FrozenInstanceError):
            sharp.decision.posterior = flat.decision.posterior

    def test_a_miss_calls_enumeration_and_the_posterior_by_their_module_names(self, space, models, monkeypatch):
        # perfbench's traced run wraps agent.enumerate_policies and
        # agent.policy_posterior where agent looks them up, and its per-op
        # counts read those calls: every miss, of one action or wider, makes
        # one call of each, and a hit makes none.
        memo = functools.lru_cache(maxsize=65536)(_scored_policies.__wrapped__)
        calls, widths = [], []

        def counted_enumeration(*args, **kwargs):
            calls.append("enumerate_policies")
            policies = enumerate_policies(*args, **kwargs)
            widths.append(policies.ids.shape[1])
            return policies

        def counted_posterior(*args, **kwargs):
            calls.append("policy_posterior")
            return inference.policy_posterior(*args, **kwargs)

        monkeypatch.setattr("abctrans.agent.enumerate_policies", counted_enumeration)
        monkeypatch.setattr("abctrans.agent.policy_posterior", counted_posterior)
        monkeypatch.setattr("abctrans.agent._scored_policies", memo)
        for preset in (head_starter_config, large_context_planner_config):
            for _ in range(2):  # the second run's decisions are hits
                run_episode(preset(), models, latent="TT3", seed=4)
        misses = memo.cache_info().misses
        assert memo.cache_info().hits > 0
        assert calls == ["enumerate_policies", "policy_posterior"] * misses
        assert widths.count(1) >= misses - 1 and max(widths) > 1  # the planner's opening is the wide one

    def test_clearing_the_memo_drops_its_posteriors(self, space, models, monkeypatch):
        # A private memo built as agent's is, so the shared one stays warm
        # for later tests; clear_selection_cache is the shared one's clear.
        assert clear_selection_cache == _scored_policies.cache_clear
        memo = functools.lru_cache(maxsize=65536)(_scored_policies.__wrapped__)
        computed = []

        def counted_posterior(totals, gamma):
            computed.append(gamma)
            return inference.policy_posterior(totals, gamma)

        monkeypatch.setattr("abctrans.agent._scored_policies", memo)
        monkeypatch.setattr("abctrans.agent.policy_posterior", counted_posterior)
        cfg = large_context_planner_config()
        agent = initial_agent_state(space, cfg)
        for _ in range(2):
            select_policy(agent.cognitive, agent.affective, models, cfg)
        assert len(computed) == 1
        memo.cache_clear()
        select_policy(agent.cognitive, agent.affective, models, cfg)
        assert len(computed) == 2


class TestStep:
    def test_repertoire_tracks_reads_and_cursor(self, space, models):
        cfg = head_starter_config()
        state = env.ExternalState.initial(space, "TT0", cue_script=("TT0",))
        agent = initial_agent_state(space, cfg)
        rng = np.random.default_rng(0)
        agent, state, _ = step(agent, state, models, cfg, rng)
        cognitive = agent.cognitive
        last_was_pause = agent.behavioral.last_action_kind == env.PAUSE
        rep = [a for a, _ in _next_actions(space, *rule_input(cognitive, space), last_was_pause)]
        assert rep, "an unfinished episode always offers actions"
        assert env.fixate_source(1) not in rep  # already read
        assert env.fixate_source(2) in rep
        assert all(a.slot == 1 for a in rep if a.kind == env.TYPE)

    def test_typing_candidates_rank_by_positional_entropy(self, space):
        # chunks 2 and 4 (1.79 bits) precede chunk 1 (0.92 bits); ties by id
        acts = _next_actions(space, 0, 0, (1 << len(space.orderings)) - 1, False)
        typed = [a.chunk_id for a, _ in acts if a.kind == env.TYPE]
        assert typed == [2, 4, 1]

    def test_planner_first_step_reads(self, space, models):
        cfg = large_context_planner_config()
        state = env.ExternalState.initial(space, "TT3")
        agent = initial_agent_state(space, cfg)
        rng = np.random.default_rng(0)
        agent, state, rows = step(agent, state, models, cfg, rng)
        events = [ProcessEvent(*row) for row in rows]
        assert events[-1].kind == env.FIXATE_SOURCE

    def test_head_starter_types_after_reading(self, space, models):
        cfg = head_starter_config()
        state = env.ExternalState.initial(space, "TT0", cue_script=("TT0",))
        agent = initial_agent_state(space, cfg)
        rng = np.random.default_rng(0)
        agent, state, _ = step(agent, state, models, cfg, rng)
        agent, state, rows = step(agent, state, models, cfg, rng)
        events = [ProcessEvent(*row) for row in rows]
        assert events[-1].kind == env.TYPE
        assert events[-1].chunk_id == 1 and events[-1].slot == 1

    def test_confident_consistent_steps_never_pause_and_gamma_recovers(self, space, models):
        # start from a confident (post-read) belief; every later observation
        # is predicted, so no pause is injected and gamma never decreases
        cfg = head_starter_config()
        state = env.ExternalState.initial(space, "TT0")
        agent = initial_agent_state(space, cfg)
        belief = bayes_update(space.prior, models.likelihood_row(1, "TT0"))
        agent = agent.__class__(
            affective=agent.affective,
            cognitive=CognitiveState(
                belief=belief, evidence_belief=belief, read_set=frozenset({1, 2, 3, 4})
            ),
            behavioral=agent.behavioral,
        )
        rng = np.random.default_rng(0)
        gamma = agent.affective.gamma
        while not env.is_complete(state):
            agent, state, rows = step(agent, state, models, cfg, rng)
            events = [ProcessEvent(*row) for row in rows]
            assert all(e.kind != env.PAUSE for e in events)
            assert agent.affective.gamma >= gamma - 1e-12
            gamma = agent.affective.gamma

    def test_belief_never_contradicts_the_buffer(self, space):
        # After every step the working belief is the evidence belief
        # restricted to the buffer, so it has zero mass on every ordering a
        # placement contradicts; _next_actions relies on this and does not
        # re-check the buffer.
        configs = {
            "head_starter": head_starter_config(),
            "planner": large_context_planner_config(),
            "custom_h1": AgentConfig(w_e=0.1, w_p=1.0, horizon=1,
                                     prefs=PreferenceVector(1.0, -1.0, 0.0)),
        }
        scripts = [None, ("TT5", "TT1", "TT0", "TT4", "TT5", "TT4"), ("TT0", "TT3", "TT3", "TT2")]
        n_steps = 0
        for name, cfg in configs.items():
            for content in (0.0, 0.5, 0.8, 1.0):
                models = ReadingEvidenceModel.with_defaults(space, content=content)
                for latent in ("TT0", "TT3", "TT5"):
                    for script in scripts:
                        case = (name, content, latent, script)
                        state = env.ExternalState.initial(space, latent, cue_script=script)
                        agent = initial_agent_state(space, cfg)
                        rng = np.random.default_rng(5)
                        for _ in range(30):
                            if env.is_complete(state):
                                break
                            agent, state, _ = step(agent, state, models, cfg, rng)
                            n_steps += 1
                            cognitive = agent.cognitive
                            assert cognitive.belief == _recompute_working(
                                cognitive.evidence_belief, cognitive.placed,
                                _consistent(cognitive.placed, space),
                            ), case
                            for i, ordering in enumerate(space.orderings):
                                if any(ordering.slots[s - 1] != c for s, c in cognitive.placed):
                                    assert cognitive.belief.probs[i] == 0.0, case
        assert n_steps >= 108 * 5  # 108 episodes, each at least one step per slot

    def test_step_beliefs_are_valid_and_restrict_the_evidence(self, space):
        for make in (head_starter_config, large_context_planner_config):
            for content in (0.5, 0.8, 1.0):
                models = ReadingEvidenceModel.with_defaults(space, content=content)
                for latent in ("TT0", "TT3", "TT5"):
                    for seed in range(4):
                        assert_step_beliefs(space, models, make(), latent, seed)
        assert_step_beliefs(
            space, ReadingEvidenceModel.with_defaults(space, content=1.0), head_starter_config(),
            "TT5", 0, cue_script=("TT0", "TT5", "TT5", "TT5"),
        )

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 4),
        k=st.integers(1, 12),
        task_seed=st.integers(1, 3),
        content=st.sampled_from([0.5, 0.9, 1.0]),
        planner=st.booleans(),
        latent=st.integers(0, 11),
        seed=st.integers(0, 3),
    )
    @example(n=4, k=12, task_seed=1, content=0.9, planner=True, latent=1, seed=0)
    def test_generated_step_beliefs_are_valid_and_restrict_the_evidence(
        self, n, k, task_seed, content, planner, latent, seed
    ):
        space = generated_space(n, min(k, math.factorial(n + 1)), task_seed)
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        cfg = large_context_planner_config() if planner else head_starter_config()
        assert_step_beliefs(space, models, cfg, space.labels[latent % len(space.labels)], seed)

    def test_each_cue_enters_through_one_bayes_update(self, space, models, monkeypatch):
        # The observation entry stays the checked public rule, and the only
        # caller of it in a step: perfbench traces agent.bayes_update by name.
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return bayes_update(*args, **kwargs)

        monkeypatch.setattr("abctrans.agent.bayes_update", counted)
        episodes = [(make(), models, latent, seed, None)
                    for make in (head_starter_config, large_context_planner_config)
                    for latent in ("TT0", "TT5") for seed in range(3)]
        exact = ReadingEvidenceModel.with_defaults(space, content=1.0)
        # an impossible cue: bayes_update raises and the belief restarts
        episodes.append((head_starter_config(), exact, "TT5", 0, ("TT0", "TT5", "TT5", "TT5")))
        for cfg, evidence, latent, seed, script in episodes:
            calls[0] = 0
            trace = run_episode(cfg, evidence, latent=latent, seed=seed, cue_script=script)
            cues = sum(e.cue is not None for e in trace.events)
            assert cues > 0 and calls[0] == cues, (cfg.strategy, latent, seed)

    def test_forced_revision_after_an_impossible_cue(self, space):
        # chunk 1 is read through a noiseless channel after it was typed at
        # slot 1; its cue TT5 rules out every ordering consistent with that
        # placement, so the contradiction fallback deletes it unconditionally
        models = ReadingEvidenceModel.with_defaults(
            space, overrides={1: 1.0, 2: 0.5, 3: 0.9, 4: 0.0}
        )
        cfg = AgentConfig(w_e=0.1, w_p=1.0, horizon=1,
                          prefs=PreferenceVector(1.0, -1.0, 0.0))
        trace = run_episode(
            cfg, models, latent="TT4", seed=10,
            cue_script=("TT5", "TT1", "TT0", "TT4", "TT5", "TT4"), max_steps=30,
        )
        switch, hesitation = ("policy_switch",), ("hesitation",)
        want = [
            (env.TYPE, 1, 1, None, 2.0, switch),
            # the impossible cue leaves the pre-read working belief in place
            (env.FIXATE_SOURCE, 1, None, "TT5", 2.0, switch),
            (env.FIXATE_TARGET, None, 1, None, 2.0, ("revision",)),
            (env.DELETE, 1, 1, None, 0.0, ("revision", "forced")),
        ]
        for chunk, slot in ((4, 1), (1, 2), (0, 3), (2, 4), (3, 5)):
            want += [
                (env.PAUSE, None, None, None, 0.0, hesitation),
                (env.TYPE, chunk, slot, None, 0.0, switch),
            ]
        got = [
            (e.kind, e.chunk_id, e.slot, e.cue, e.belief_entropy, e.annotations)
            for e in trace.events
        ]
        assert got == want
        assert trace.complete
        assert trace.final_target == render_of(space, "TT5")

    def test_deletions_that_leave_a_contradiction_go_on(self, space, monkeypatch):
        # The working belief says TT0 and the evidence belief TT5, which
        # disagrees with slots 1-3 once 2@3 is typed: the step's restriction
        # contradicts, so the revision is forced, and deleting slots 1 and 2
        # still leaves a placement TT5 rules out. Both contradictions are
        # passed over; deleting slot 3 leaves the buffer empty.
        models = ReadingEvidenceModel.with_defaults(space, content=0.8)
        cfg = head_starter_config()
        n = len(space.orderings)
        start = initial_agent_state(space, cfg)
        cognitive = CognitiveState(
            point_mass(n, space.index_of("TT0")),
            point_mass(n, space.index_of("TT5")),
            placed=((1, 1), (2, 0)),
            read_set=frozenset({1}),
        )
        agent = dataclasses.replace(start, cognitive=cognitive)
        state = env.ExternalState(space, (1, 0, None, None, None), "TT5")
        contradicted = []

        def watched(evidence, placed, consistent):
            try:
                return _recompute_working(evidence, placed, consistent)
            except ContradictionError:
                contradicted.append(placed)
                raise

        monkeypatch.setattr("abctrans.agent._recompute_working", watched)
        agent, state, rows = step(agent, state, models, cfg, np.random.default_rng(0))
        events = [ProcessEvent(*row) for row in rows]
        forced = ("revision", "forced")
        assert [(e.kind, e.chunk_id, e.slot, e.annotations) for e in events] == [
            (env.TYPE, 2, 3, ("policy_switch",)),
            (env.FIXATE_TARGET, None, 1, ("revision",)),
            (env.DELETE, 1, 1, forced),
            (env.FIXATE_TARGET, None, 2, ("revision",)),
            (env.DELETE, 0, 2, forced),
            (env.FIXATE_TARGET, None, 3, ("revision",)),
            (env.DELETE, 2, 3, forced),
        ]
        # the step's restriction, then the two deletions the handler passes over
        assert contradicted == [((1, 1), (2, 0), (3, 2)), ((2, 0), (3, 2)), ((3, 2),)]
        assert agent.cognitive.placed == () and state.buffer == (None,) * 5

    def test_revision_scenario_deletes_and_retypes(self, space):
        trace = revising_episode(space)
        deletes = [e for e in trace.events if e.kind == env.DELETE]
        assert any(e.slot == 1 and e.chunk_id == 1 for e in deletes)
        retyped = [e for e in trace.events if e.kind == env.TYPE and e.slot == 1]
        assert retyped[-1].chunk_id == 4
        assert trace.complete
        assert trace.final_target == render_of(space, "TT5")

    def test_every_event_lasts_its_action_duration(self, space, models):
        # the revising episode refixates, deletes and retypes; a head starter
        # with gamma_max below the hesitation threshold pauses before each act
        traces = [
            revising_episode(space),
            run_episode(head_starter_config(gamma_max=0.5), models, latent="TT3", seed=0),
        ]
        n_chars = {c.id: len(c.target_text) for c in space.table.chunks}
        expected = {
            env.FIXATE_SOURCE: lambda e: 200.0,
            env.FIXATE_TARGET: lambda e: 200.0,
            env.TYPE: lambda e: 120.0 * n_chars[e.chunk_id],
            env.DELETE: lambda e: 100.0 * n_chars[e.chunk_id],
            env.PAUSE: lambda e: 800.0,
        }
        events = [e for trace in traces for e in trace.events]
        assert {e.kind for e in events} == set(expected)
        for e in events:
            assert e.t_end - e.t_start == expected[e.kind](e), e
        for trace in traces:
            assert trace.events[0].t_start == 0.0
            for before, after in zip(trace.events, trace.events[1:]):
                assert after.t_start == before.t_end

    def test_contradictory_noiseless_cues_never_crash(self, space):
        exact = ReadingEvidenceModel.with_defaults(space, content=1.0)
        cfg = head_starter_config()
        trace = run_episode(
            cfg, exact, latent="TT5", seed=0, cue_script=("TT0", "TT5", "TT5", "TT5"),
            max_steps=40,
        )
        assert trace.complete


def float_buffer_rule(evidence, placed, space, forced):
    """The step's buffer checks on the product of float placement rows, its rule before bitmasks.

    Returns the working belief (None where the restriction contradicts),
    the evidence-MAP index, the placements that MAP contradicts, each
    one's consistent mass, and the slots the revision rule deletes.
    """
    consistent = np.ones(len(space.orderings))
    for slot, chunk in placed:
        consistent *= placement_row(space, chunk, slot)
    try:
        working = Categorical._trusted(tuple(posteriors(evidence.as_array(), consistent[None, :])[0].tolist()))
    except ContradictionError:
        working = None
    probs = evidence.probs
    top = max(probs)
    candidates = [i for i, p in enumerate(probs) if p >= top - 1e-12]
    map_idx = next((i for i in candidates if consistent[i]), candidates[0])
    contradicted = [(s, c) for s, c in placed if not placement_row(space, c, s)[map_idx]]
    masses = [sum(p for p, k in zip(probs, placement_row(space, c, s)) if k) for s, c in contradicted]
    deleted = contradicted
    if not forced and any(probs[map_idx] <= mass for mass in masses):
        deleted = []
    return working, map_idx, contradicted, masses, deleted


class TestBufferBitmasks:
    @pytest.mark.parametrize("n, k", [(3, 6), (4, 12), (4, 24)])
    def test_the_bitmask_rule_equals_the_float_row_rule(self, n, k):
        # At 12 and 24 orderings numpy sums the working belief's rows
        # pairwise. Evidence draws hold zeros; integer weights make exact
        # ties between the MAP mass and a consistent mass, where the
        # all-or-nothing rule turns on <=.
        space = generated_space(n, k, 1)
        slots = space.n_slots
        rng = random.Random(k)
        ties = contradictions = revisions = 0
        for draw in range(400):
            if draw % 2:
                weights = [rng.choice([0, 0, 1, 2, 3]) for _ in range(k)]
            else:
                weights = [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(k)]
            if not any(weights):
                weights[rng.randrange(k)] = 1.0
            evidence = Categorical.from_weights(weights)
            if rng.random() < 0.5:
                layout = list(space.orderings[rng.randrange(k)].slots)
            else:
                layout = rng.sample(range(n + 1), n + 1)
            placed = tuple((s, layout[s - 1]) for s in sorted(rng.sample(range(1, slots + 1), rng.randint(1, slots))))
            working, map_idx, contradicted, masses, deleted = float_buffer_rule(evidence, placed, space, False)
            consistent = _consistent(placed, space)
            case = (evidence.probs, placed)
            fitting = [all(o.slots[s - 1] == c for s, c in placed) for o in space.orderings]
            assert consistent == sum(1 << i for i, fits in enumerate(fitting) if fits), case
            try:
                got = _recompute_working(evidence, placed, consistent)
            except ContradictionError:
                assert working is None, case
                contradictions += 1
            else:
                assert [p.hex() for p in got.probs] == [p.hex() for p in working.probs], case
            assert _evidence_map_index(evidence, consistent) == map_idx, case
            assert _offending(evidence, placed, space, consistent, True) == contradicted, case
            got_masses = [_consistent_mass(evidence, _consistent(((s, c),), space)) for s, c in contradicted]
            assert list(map(repr, got_masses)) == list(map(repr, masses)), case  # repr is exact
            assert _offending(evidence, placed, space, consistent, False) == deleted, case
            ties += evidence.probs[map_idx] in masses
            revisions += bool(deleted)
        assert ties and contradictions and revisions


def episode_rows(cfg, models, latent, seed, max_steps=40):
    """run_episode's loop: the rows every step returned, and the final state."""
    rng = np.random.default_rng(seed)
    state = env.ExternalState.initial(models.space, latent)
    agent = initial_agent_state(models.space, cfg)
    rows = []
    for _ in range(max_steps):
        if env.is_complete(state):
            break
        agent, state, new_rows = step(agent, state, models, cfg, rng)
        rows += new_rows
    return rows, state


class TestRunEpisode:
    @pytest.mark.parametrize("task", ["bundled", "4x12"])
    def test_the_column_built_trace_equals_the_event_built_one(self, models, task):
        if task != "bundled":
            models = ReadingEvidenceModel.with_defaults(generated_space(4, 12, 1), content=0.9)
        labels = models.space.labels
        for make in (head_starter_config, large_context_planner_config):
            for sample in (False, True):
                cfg = make(sample_policies=sample)
                for seed in range(3):
                    latent = labels[seed * 5 % len(labels)]
                    trace = run_episode(cfg, models, latent=latent, seed=seed)
                    rows, state = episode_rows(cfg, models, latent, seed)
                    built = Trace(
                        events=[ProcessEvent(*row) for row in rows],
                        complete=env.is_complete(state),
                        final_target=env.render_target(state),
                        seed=seed,
                        strategy=cfg.strategy,
                        latent=latent,
                        prior_entropy=inference.shannon_entropy(models.space.prior),
                    )
                    assert trace == built and hash(trace) == hash(built)
                    assert repr(trace) == repr(built)
                    back = pickle.loads(pickle.dumps(trace))
                    assert back == built and repr(back) == repr(built)

    def test_fixed_seed_reproduces_the_trace(self, models):
        cfg = large_context_planner_config()
        a = run_episode(cfg, models, latent="TT3", seed=11)
        b = run_episode(cfg, models, latent="TT3", seed=11)
        assert a == b

    def test_seeds_differ(self, models):
        cfg = large_context_planner_config()
        runs = {run_episode(cfg, models, latent="TT3", seed=s).events for s in range(8)}
        assert len(runs) > 1

    def test_step_budget_flags_incomplete(self, models):
        cfg = large_context_planner_config()
        trace = run_episode(cfg, models, latent="TT3", seed=0, max_steps=2)
        assert not trace.complete

    @pytest.mark.parametrize("max_steps", [0, 2.5, float("inf"), True])
    def test_a_step_budget_that_is_not_a_count_is_rejected_by_name(self, models, max_steps):
        with pytest.raises(ValueError, match="^max_steps must"):
            run_episode(large_context_planner_config(), models, latent="TT3", seed=0, max_steps=max_steps)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_a_seed_that_is_not_a_non_negative_int_is_rejected_by_name(self, models, seed):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative int, got {seed!r}$"):
            run_episode(head_starter_config(), models, latent="TT3", seed=seed)

    def test_stop_reason_names_how_the_episode_ended(self, models):
        # derived from complete, not a field: repr(trace), and with it the
        # golden digest, does not show it
        cfg = large_context_planner_config()
        done = run_episode(cfg, models, latent="TT3", seed=0)
        cut = run_episode(cfg, models, latent="TT3", seed=0, max_steps=2)
        assert (done.complete, done.stop_reason) == (True, "complete")
        assert (cut.complete, cut.stop_reason) == (False, "max_steps")
        assert "stop_reason" not in repr(done)

    def test_all_presets_terminate_within_four_steps_per_chunk(self, space, models):
        budget = 4 * len(space.table.chunks)
        for make in (head_starter_config, large_context_planner_config):
            cfg = make()
            for latent in ("TT0", "TT3", "TT5"):
                for seed in range(10):
                    trace = run_episode(
                        cfg, models, latent=latent, seed=seed, max_steps=budget
                    )
                    assert trace.complete, (cfg.strategy, latent, seed)

    def test_no_back_to_back_pauses(self, models):
        for make in (head_starter_config, large_context_planner_config):
            cfg = make()
            for seed in range(15):
                trace = run_episode(cfg, models, latent="TT5", seed=seed)
                kinds = [e.kind for e in trace.events]
                for a, b in zip(kinds, kinds[1:]):
                    assert not (a == env.PAUSE and b == env.PAUSE)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="livelock (ROADMAP item 2): the planner deletes and retypes a "
        "placement until max_steps and ends incomplete after 117 events",
    )
    @pytest.mark.parametrize("latent", ["TT1", "TT5"])
    def test_planner_completes_at_high_content_reliability(self, space, latent):
        models99 = ReadingEvidenceModel.with_defaults(space, content=0.99)
        trace = run_episode(large_context_planner_config(), models99, latent=latent, seed=0)
        assert trace.complete

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="livelock (ROADMAP item 2): at content 0.99 the bundled planner episode with latent "
        "TT1 repeats one (state, step events) pair 37 times in 40 steps",
    )
    def test_no_state_and_its_step_repeat_three_times_in_an_episode(self, space):
        # ROADMAP item 1's property: within one episode, no pair of an agent
        # state (cognitive and behavioral, before a step) and the (kind,
        # chunk, slot) of the events that step emits repeats three times.
        # Affect and the clock never repeat exactly, so they are left out.
        # Over 1,800 seeded episodes every incomplete one broke it, and all
        # complete ones but one kept it: the sampling 4x12 planner episode
        # at content 0.3 below loops through type, delete and pause three
        # times before sampling gets it out. Item 2's fix must end that
        # loop too.
        bundled = ReadingEvidenceModel.with_defaults(space)
        generated = ReadingEvidenceModel.with_defaults(generated_space(4, 12, 1), content=0.9)
        cases = [
            (large_context_planner_config(), ReadingEvidenceModel.with_defaults(space, content=0.99), "TT1", 0, 40),
            (large_context_planner_config(sample_policies=True),
             ReadingEvidenceModel.with_defaults(generated_space(4, 12, 2), content=0.3), "G2", 1, 60),
            (head_starter_config(), bundled, "TT3", 0, 40),
            (large_context_planner_config(), bundled, "TT5", 3, 40),
            (head_starter_config(sample_policies=True), generated, "G5", 1, 60),
            (large_context_planner_config(), generated, "G0", 0, 60),
        ]
        broken = []
        for cfg, models, latent, seed, max_steps in cases:
            rng = np.random.default_rng(seed)
            state = env.ExternalState.initial(models.space, latent)
            agent = initial_agent_state(models.space, cfg)
            seen = {}
            for _ in range(max_steps):
                if env.is_complete(state):
                    break
                before = agent.cognitive, agent.behavioral
                agent, state, rows = step(agent, state, models, cfg, rng)
                events = [ProcessEvent(*row) for row in rows]
                pair = before, tuple((e.kind, e.chunk_id, e.slot) for e in events)
                seen[pair] = seen.get(pair, 0) + 1
            if max(seen.values()) >= 3:
                broken.append((cfg.strategy, latent, seed, max(seen.values())))
        assert broken == []

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 4),
        k=st.integers(1, 12),
        task_seed=st.integers(1, 3),
        content=st.sampled_from([0.5, 0.8, 0.9, 0.99, 1.0]),
        planner=st.booleans(),
        latent=st.integers(0, 11),
        seed=st.integers(0, 3),
    )
    @example(n=4, k=12, task_seed=1, content=0.9, planner=True, latent=0, seed=0)
    @example(n=4, k=24, task_seed=1, content=0.9, planner=True, latent=0, seed=0)
    @example(n=4, k=12, task_seed=1, content=0.9, planner=True, latent=1, seed=0)  # ends at max_steps
    @example(n=4, k=12, task_seed=2, content=1.0, planner=False, latent=3, seed=1)
    def test_generated_episode_ends_by_name_and_its_export_round_trips(
        self, n, k, task_seed, content, planner, latent, seed
    ):
        # An episode on a generated task never raises. It completes with a
        # candidate ordering typed out, or runs out of steps: the livelock
        # that the strict xfails above pin still ends some episodes that
        # way, as in the second example. Exporting its trace and ingesting
        # the TSV gives back the event kinds, the targets the export keeps
        # and the OHRF states.
        space = generated_space(n, min(k, math.factorial(n + 1)), task_seed)
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        cfg = large_context_planner_config() if planner else head_starter_config()
        label = space.labels[latent % len(space.labels)]
        trace = run_episode(cfg, models, latent=label, seed=seed)
        assert trace.stop_reason in ("complete", "max_steps")
        if trace.complete:
            assert trace.final_target in {render_of(space, other) for other in space.labels}
        segments = analysis.segment_ohrf(trace)
        tsv = analysis.export_progression(trace, segments, analysis.group_policies(segments), "tsv")
        assert round_trip_problems(trace, segments, tsv) == []

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        n=st.integers(0, 4),  # 0: the bundled sentence
        k=st.integers(1, 12),
        task_seed=st.integers(1, 3),
        reliabilities=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), min_size=5, max_size=5),
        planner=st.booleans(),
        latent=st.integers(0, 11),
        seed=st.integers(0, 3),
    )
    @example(n=0, k=1, task_seed=1, reliabilities=[0.0, 1.0, 0.0, 1.0, 0.5], planner=True,
             latent=5, seed=0)
    @example(n=0, k=1, task_seed=1, reliabilities=[0.3, 1.0, 1.0, 0.0, 0.9], planner=True,
             latent=1, seed=2)  # ends at max_steps
    def test_episode_under_per_chunk_reliabilities_ends_by_name(
        self, space, n, k, task_seed, reliabilities, planner, latent, seed
    ):
        # Task files may set any chunk's reliability in [0, 1]: at 0.0 a cue
        # rules out the ordering it names, at 1.0 it names the true one. An
        # episode never raises; it completes or runs out of steps (item 2).
        if n:
            space = generated_space(n, min(k, math.factorial(n + 1)), task_seed)
        overrides = dict(zip(sorted(space.table.chunk_ids), reliabilities))
        models = ReadingEvidenceModel.with_defaults(space, overrides=overrides)
        cfg = large_context_planner_config() if planner else head_starter_config()
        label = space.labels[latent % len(space.labels)]
        trace = run_episode(cfg, models, latent=label, seed=seed, max_steps=60)
        assert trace.stop_reason in ("complete", "max_steps")

    def test_frozen_affect_changes_behavior_under_surprises(self, models):
        script = ("TT1", "TT5")
        frozen = large_context_planner_config(beta=0.0)
        live = large_context_planner_config(beta=0.2)
        diffs = 0
        for seed in range(20):
            a = run_episode(frozen, models, latent="TT3", seed=seed, cue_script=script)
            b = run_episode(live, models, latent="TT3", seed=seed, cue_script=script)
            diffs += tuple(e.kind for e in a.events) != tuple(e.kind for e in b.events)
        assert diffs > 0
