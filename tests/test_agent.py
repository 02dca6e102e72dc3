import copy
import dataclasses
import functools
import math

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
    _live,
    _next_actions,
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
)
from abctrans.task import Categorical, ReadingEvidenceModel

from conftest import point_mass, render_of
from gentask import generated_space
from perfbench.workloads import round_trip_problems


def dfs_policies(cognitive, space, horizon, cfg, last_was_pause=False):
    """Enumeration's oracle, the recursive depth-first walk it replaced: (actions, ids, truncated)."""
    rows, actions, action_ids = [], [], {}
    order_pos = {c: i for i, c in enumerate(space.table.source_order)}
    truncated = False

    def expand(prefix, read, buffer, live, paused):
        nonlocal truncated
        acts = _next_actions(space, read, buffer, live, paused)
        if prefix and actions[prefix[-1]].kind == env.FIXATE_SOURCE:
            min_pos = order_pos[actions[prefix[-1]].chunk_id]
            acts = [
                (a, survivors) for a, survivors in acts
                if a.kind != env.FIXATE_SOURCE or order_pos[a.chunk_id] > min_pos
            ]
        if not acts:
            if prefix:
                rows.append(prefix + [-1] * (horizon - len(prefix)))
            return
        for action, survivors in acts:
            if len(rows) >= cfg.max_policies:
                truncated = True
                return
            aid = action_ids.setdefault(id(action), len(actions))
            if aid == len(actions):
                actions.append(action)
            nxt_read, nxt_buffer = read, buffer
            if action.kind == env.FIXATE_SOURCE:
                nxt_read = read | {action.chunk_id}
            elif action.kind == env.TYPE:
                nxt_buffer = buffer | {action.slot: action.chunk_id}
            if len(prefix) + 1 == horizon:
                rows.append(prefix + [aid])
            else:
                expand(prefix + [aid], nxt_read, nxt_buffer, survivors, action.kind == env.PAUSE)

    expand([], cognitive.read_set, cognitive.placed_map(), _live(cognitive.belief), last_was_pause)
    return actions, np.array(rows, dtype=np.int32).reshape(len(rows), horizon), truncated


def assert_enumeration_is_the_oracles(cognitive, space, horizon, cfg, last_was_pause=False):
    policies = enumerate_policies(cognitive, space, horizon, cfg, last_was_pause)
    actions, ids, truncated = dfs_policies(cognitive, space, horizon, cfg, last_was_pause)
    assert [id(a) for a in policies.actions] == [id(a) for a in actions]
    assert policies.ids.dtype == np.int32 and policies.ids.shape == ids.shape
    assert policies.ids.tolist() == ids.tolist()
    assert policies.truncated == truncated
    return policies


def agent_after_cue(space, models, cfg, cue: str, chunk: int = 1):
    belief = bayes_update(space.prior, models.likelihood_row(chunk, cue))
    cognitive = CognitiveState(
        belief=belief, evidence_belief=belief, read_set=frozenset({chunk})
    )
    base = initial_agent_state(space, cfg)
    return base, cognitive


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
         ("max_policies", 0), ("max_policies", -3), ("w_e", float("nan")),
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


class TestEnumeratePolicies:
    def test_terminal_state_yields_nothing(self, space, models):
        placed = tuple(
            sorted((s, c) for s, c in enumerate(space.ordering("TT0").slots, start=1))
        )
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
        # One-action openings cut by the cap: the rows, the actions they use
        # and the flag, for both presets' openings.
        for preset in (head_starter_config, large_context_planner_config):
            cfg = preset(max_policies=cap)
            start = initial_agent_state(space, cfg).cognitive
            policies = assert_enumeration_is_the_oracles(start, space, 1, cfg)
            assert (len(policies), len(policies.actions), policies.truncated) == (cap, cap, True)

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
        assert sel.posterior.probs[sel.choice_index] > 0.99

    def test_zero_ish_gamma_spreads_the_posterior(self, space, models):
        cfg = head_starter_config()
        base, cognitive = agent_after_cue(space, models, cfg, "TT0")
        flat = AffectiveState(gamma=1e-9, zeta=1.0)
        sel = select_policy(cognitive, flat, models, cfg)
        n = len(sel.policies)
        assert np.allclose(sel.posterior.probs, 1.0 / n, atol=1e-6)

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
            for policy in sel.policies
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
        assert len(sel.policies) == 1206
        (rollout,) = tables
        nodes = set(built)
        kinds = [sel.policies.actions[aid].kind for _, aid in nodes]
        assert counts == {"channels": 260, "restrictions": 175}
        assert (len(built), len(nodes)) == (1941, 1545)
        assert len(rollout.gain) == (rollout.channel >= 0).sum() == 260
        assert (kinds.count(env.FIXATE_SOURCE), kinds.count(env.TYPE)) == (516, 769)
        assert rollout.states == 9729


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
            assert float_bits(sel.posterior.probs) == float_bits(fresh.probs)
            assert float_bits(sel.posterior_entropy) == float_bits(inference.shannon_entropy(fresh))
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
        assert flat.policies.actions == sharp.policies.actions
        assert flat.policies.ids.tobytes() == sharp.policies.ids.tobytes()
        for name in ("epistemic", "pragmatic", "totals"):
            assert float_bits(getattr(flat.decision, name)) == float_bits(getattr(sharp.decision, name))
        for sel, gamma in ((sharp, 8.0), (flat, 0.5)):
            assert sel.posterior == inference.policy_posterior(sel.decision.totals, gamma)
        assert sharp.posterior_entropy < flat.posterior_entropy
        with pytest.raises(dataclasses.FrozenInstanceError):
            sharp.decision.posterior = flat.posterior

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
        live = tuple(i for i, p in enumerate(cognitive.belief.probs) if p > 0.0)
        last_was_pause = agent.behavioral.last_action_kind == env.PAUSE
        rep = [
            a
            for a, _ in _next_actions(
                space, cognitive.read_set, cognitive.placed_map(), live, last_was_pause
            )
        ]
        assert rep, "an unfinished episode always offers actions"
        assert env.fixate_source(1) not in rep  # already read
        assert env.fixate_source(2) in rep
        assert all(a.slot == 1 for a in rep if a.kind == env.TYPE)

    def test_typing_candidates_rank_by_positional_entropy(self, space):
        # chunks 2 and 4 (1.79 bits) precede chunk 1 (0.92 bits); ties by id
        acts = _next_actions(space, frozenset(), {}, tuple(range(len(space.orderings))), False)
        typed = [a.chunk_id for a, _ in acts if a.kind == env.TYPE]
        assert typed == [2, 4, 1]

    def test_planner_first_step_reads(self, space, models):
        cfg = large_context_planner_config()
        state = env.ExternalState.initial(space, "TT3")
        agent = initial_agent_state(space, cfg)
        rng = np.random.default_rng(0)
        agent, state, events = step(agent, state, models, cfg, rng)
        assert events[-1].kind == env.FIXATE_SOURCE

    def test_head_starter_types_after_reading(self, space, models):
        cfg = head_starter_config()
        state = env.ExternalState.initial(space, "TT0", cue_script=("TT0",))
        agent = initial_agent_state(space, cfg)
        rng = np.random.default_rng(0)
        agent, state, _ = step(agent, state, models, cfg, rng)
        agent, state, events = step(agent, state, models, cfg, rng)
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
            agent, state, events = step(agent, state, models, cfg, rng)
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
                                cognitive.evidence_belief, cognitive.placed, space
                            ), case
                            for i, ordering in enumerate(space.orderings):
                                if any(ordering.chunk_at(s) != c for s, c in cognitive.placed):
                                    assert cognitive.belief.probs[i] == 0.0, case
        assert n_steps >= 108 * 5  # 108 episodes, each at least one step per slot

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

        def watched(evidence, placed, space, consistent=None):
            try:
                return _recompute_working(evidence, placed, space, consistent)
            except ContradictionError:
                contradicted.append(placed)
                raise

        monkeypatch.setattr("abctrans.agent._recompute_working", watched)
        agent, state, events = step(agent, state, models, cfg, np.random.default_rng(0))
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


class TestRunEpisode:
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
        reason="livelock (ROADMAP item 2): the planner deletes and retypes a "
        "placement until max_steps and ends incomplete after 117 events",
    )
    @pytest.mark.parametrize("latent", ["TT1", "TT5"])
    def test_planner_completes_at_high_content_reliability(self, space, latent):
        models99 = ReadingEvidenceModel.with_defaults(space, content=0.99)
        trace = run_episode(large_context_planner_config(), models99, latent=latent, seed=0)
        assert trace.complete

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
