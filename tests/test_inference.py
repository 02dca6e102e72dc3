import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abctrans import environment as env, inference
from abctrans.agent import enumerate_policies, initial_agent_state, large_context_planner_config
from abctrans.inference import (
    ContradictionError,
    PreferenceVector,
    bayes_update,
    expected_free_energy,
    expected_information_gain,
    policy_posterior,
    posteriors,
    score_policies,
    shannon_entropy,
)
from abctrans.task import Categorical, ReadingEvidenceModel, entropy_bits, placement_row

from gentask import generated_space

PREFS = PreferenceVector(progress_bonus=0.5, inconsistency_penalty=-2.0)


def oracle_efe(belief, policy, models, prefs, read):
    """Brute-force oracle: expand the full observation tree path by path."""
    space = models.space
    total_e, total_p = 0.0, 0.0
    paths = [(1.0, belief, frozenset(read))]
    for action in policy:
        new_paths = []
        for w, b, r in paths:
            h_before = shannon_entropy(b)
            if action.kind == env.FIXATE_SOURCE:
                exp_h = 0.0
                for cue in space.labels:
                    row = models.likelihood_row(action.chunk_id, cue)
                    pw = float(b.as_array() @ row)
                    if pw <= 0.0:
                        continue
                    post = bayes_update(b, row)
                    exp_h += pw * shannon_entropy(post)
                    new_paths.append((w * pw, post, r | {action.chunk_id}))
                total_e += w * (h_before - exp_h)
                total_p += w * (-inference.READ_COST)
            elif action.kind == env.TYPE:
                row = placement_row(space, action.chunk_id, action.slot)
                val = 0.0
                for i, p in enumerate(b.probs):
                    if p == 0.0:
                        continue
                    val += p * (
                        prefs.progress_bonus if row[i] > 0 else prefs.inconsistency_penalty
                    )
                if space.table.chunk(action.chunk_id).kind == "content" and action.chunk_id not in r:
                    val -= prefs.unread_cost
                total_p += w * val
                mass = float((b.as_array() * row).sum())
                post = bayes_update(b, row) if mass > 0 else b
                new_paths.append((w, post, r))
            else:
                total_p += w * (-inference.PAUSE_COST)
                new_paths.append((w, b, r))
        paths = new_paths
    return total_e, total_p


# The per-node rules the rollout's batches replaced, kept as oracles.


def oracle_read_branches(b, likelihoods, zeta):
    """One read's cue branches from one belief: (weight, posterior) per cue with mass."""
    weights = [float(b @ row) for row in likelihoods]
    keep = [k for k, w in enumerate(weights) if w > 0.0]
    if len(keep) < len(weights):
        weights = [weights[k] for k in keep]
        likelihoods = likelihoods[keep]
    return list(zip(weights, posteriors(b, likelihoods, zeta).tolist()))


def oracle_typed_value(probs, fits, prefs):
    """Belief-weighted progress bonus or inconsistency penalty of one placement."""
    value = 0.0
    for i, p in enumerate(probs):
        if p == 0.0:
            continue
        if fits[i] > 0.0:
            value += p * prefs.progress_bonus
        else:
            value += p * prefs.inconsistency_penalty
    return value


def oracle_restriction(b, row):
    """One belief restricted by one placement row; None when the row contradicts it."""
    try:
        (post,) = posteriors(b, row[None, :]).tolist()
    except ContradictionError:
        return None
    return post


def bits(values):
    return [float(v).hex() for v in values]


def all_start_actions(space):
    actions = [env.fixate_source(c) for c in space.table.source_order]
    for cid in (0, 1, 2, 3, 4):
        for slot in range(1, 6):
            if any(o.chunk_at(slot) == cid for o in space.orderings):
                actions.append(env.type_chunk(cid, slot))
    actions.append(env.pause())
    return actions


class TestShannonEntropy:
    def test_uniform_six(self):
        assert abs(shannon_entropy(Categorical.uniform(6)) - math.log2(6)) <= 1e-12
        assert abs(shannon_entropy(Categorical.uniform(6)) - 2.584963) <= 1e-6

    def test_point_mass(self):
        assert shannon_entropy(Categorical.point_mass(5, 0)) == 0.0

    def test_half_half(self):
        assert shannon_entropy(Categorical((0.5, 0.5, 0.0, 0.0))) == 1.0


class TestBayesUpdate:
    def test_pruning_by_first_slot(self, space):
        row = placement_row(space, 1, 1)
        post = bayes_update(space.prior, row)
        kept = {space.labels[i] for i, p in enumerate(post.probs) if p > 0}
        assert kept == {"TT0", "TT2", "TT3", "TT4"}
        for i, p in enumerate(post.probs):
            if p > 0:
                assert abs(p - 0.25) <= 1e-12
        assert abs(shannon_entropy(post) - 2.0) <= 1e-12

    def test_fronted_chunk_pins_one_candidate(self, space):
        post = bayes_update(space.prior, placement_row(space, 4, 1))
        assert post.probs[space.index_of("TT5")] == 1.0
        assert shannon_entropy(post) == 0.0

    def test_uninformative_likelihood_keeps_prior(self, space):
        prior = Categorical.from_weights([1, 2, 3, 4, 5, 6])
        post = bayes_update(prior, np.ones(6))
        assert np.allclose(post.probs, prior.probs, atol=1e-15)

    def test_contradiction_raises(self, space):
        prior = Categorical.point_mass(6, 0)
        row = placement_row(space, 4, 1)  # only TT5 allows this
        with pytest.raises(ContradictionError):
            bayes_update(prior, row)

    def test_nan_likelihood_rejected(self, space):
        with pytest.raises(ValueError):
            bayes_update(space.prior, [math.nan, 1.0, 1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("zeta", [1.0, 1.15])
    @pytest.mark.parametrize("content", [0.3, 0.8, 0.99])
    def test_array_update_equals_conditioning_row_by_row(self, space, content, zeta):
        # bitwise: each row of the one-op update is the 1-D update of that row
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        beliefs = [space.prior, Categorical.from_weights([1, 2, 3, 4, 5, 6])]
        beliefs.append(bayes_update(beliefs[1], placement_row(space, 1, 1)))
        for belief in beliefs:
            b = belief.as_array()
            for cid in space.table.chunk_ids:
                table = models.likelihood_table(cid)
                rows = []
                for row in table:
                    weighted = b * np.power(row, zeta)
                    rows.append((weighted / weighted.sum()).tolist())
                assert posteriors(b, table, zeta).tolist() == rows
                assert [list(bayes_update(belief, row, zeta).probs) for row in table] == rows

    def test_zeta_tempers_the_likelihood(self, space, models):
        row = models.likelihood_row(1, "TT3")
        sharp = bayes_update(space.prior, row, zeta=2.0)
        plain = bayes_update(space.prior, row, zeta=1.0)
        i = space.index_of("TT3")
        assert sharp.probs[i] > plain.probs[i]

    def test_deterministic_rows_never_increase_entropy_from_uniform_support(self, space):
        # uniform-on-support beliefs: restriction can only lower entropy
        for cid in (0, 1, 2, 3, 4):
            for slot in range(1, 6):
                row = placement_row(space, cid, slot)
                if row.sum() == 0:
                    continue
                post = bayes_update(space.prior, row)
                assert shannon_entropy(post) <= shannon_entropy(space.prior) + 1e-12


class TestExpectedInformationGain:
    def test_point_mass_learns_nothing(self, space, models):
        b = Categorical.point_mass(6, 2)
        for action in all_start_actions(space):
            assert expected_information_gain(b, action, models) <= 1e-12

    def test_uninformative_channel(self, space, models):
        # the comma read keeps the designated uninformative reliability
        gain = expected_information_gain(space.prior, env.fixate_source(0), models)
        assert abs(gain) <= 1e-12

    def test_read_gain_matches_oracle(self, space, models):
        action = env.fixate_source(2)
        gain = expected_information_gain(space.prior, action, models)
        oe, _ = oracle_efe(space.prior, (action,), models, PREFS, frozenset())
        assert abs(gain - oe) <= 1e-12
        assert gain > 0.0

    def test_any_reliable_cue_strictly_reduces_expected_entropy(self, space):
        from abctrans.task import ReadingEvidenceModel

        for r in (0.55, 0.6, 0.8, 0.95, 1.0):
            m = ReadingEvidenceModel.with_defaults(space, content=r)
            gain = expected_information_gain(space.prior, env.fixate_source(1), m)
            assert gain > 0.0, r

    def test_typing_feedback_channel_is_uninformative(self, space, models):
        # placement feedback is fully determined by the action, so the
        # brute-force enumeration over outcomes gives exactly zero gain
        action = env.type_chunk(4, 4)
        gain = expected_information_gain(space.prior, action, models)
        oe, _ = oracle_efe(space.prior, (action,), models, PREFS, frozenset())
        assert gain == oe == 0.0

    @given(weights=st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=6, max_size=6))
    def test_gain_never_negative(self, space, models, weights):
        b = Categorical.from_weights(weights)
        for action in (env.fixate_source(1), env.fixate_source(0), env.pause()):
            assert expected_information_gain(b, action, models) >= 0.0


def pragmatic(belief, action, models, prefs=PREFS, read_chunks=None):
    """Pragmatic term of the one-action policy (action,)."""
    return expected_free_energy(belief, (action,), models, prefs, read_chunks=read_chunks).pragmatic


class TestPragmaticValue:
    def test_consistent_typing_earns_bonus(self, space, models):
        b = Categorical.point_mass(6, space.index_of("TT3"))
        val = pragmatic(b, env.type_chunk(4, 3), models)
        assert abs(val - PREFS.progress_bonus) <= 1e-12

    def test_pause_costs(self, space, models):
        assert pragmatic(space.prior, env.pause(), models) == -inference.PAUSE_COST

    @pytest.mark.parametrize("action", [env.fixate_target(1), env.Action(env.CONSULT), env.delete(1)])
    def test_unenumerated_action_kinds_are_rejected(self, space, models, action):
        # enumeration emits only reads, typing and pauses
        with pytest.raises(ValueError, match="unknown action kind"):
            pragmatic(space.prior, action, models)
        with pytest.raises(ValueError, match="unknown action kind"):
            expected_free_energy(space.prior, (env.pause(), action), models, PREFS)

    def test_hedged_typing_mixes_bonus_and_penalty(self, space, models):
        probs = [0.0] * 6
        probs[space.index_of("TT0")] = 0.5
        probs[space.index_of("TT5")] = 0.5
        b = Categorical(tuple(probs))
        val = pragmatic(b, env.type_chunk(1, 1), models)
        expected = 0.5 * PREFS.progress_bonus + 0.5 * PREFS.inconsistency_penalty
        assert abs(val - expected) <= 1e-12

    def test_unread_chunk_costs_extra(self, space, models):
        prefs = PreferenceVector(progress_bonus=0.5, unread_cost=0.7)
        b = Categorical.point_mass(6, space.index_of("TT3"))
        read = pragmatic(b, env.type_chunk(4, 3), models, prefs, read_chunks=frozenset({4}))
        unread = pragmatic(b, env.type_chunk(4, 3), models, prefs, read_chunks=frozenset())
        assert abs((read - unread) - 0.7) <= 1e-12


class TestExpectedFreeEnergy:
    def test_empty_policy_rejected(self, space, models):
        with pytest.raises(ValueError):
            expected_free_energy(space.prior, (), models, PREFS)

    def test_single_step_composes_the_two_terms(self, space, models):
        for action in all_start_actions(space):
            dec = expected_free_energy(
                space.prior, (action,), models, PREFS, w_e=1.3, w_p=0.7
            )
            e, p = oracle_efe(space.prior, (action,), models, PREFS, space.table.chunk_ids)
            assert abs(dec.epistemic - e) <= 1e-12
            assert abs(dec.pragmatic - p) <= 1e-12
            assert abs(dec.total - (-(1.3 * e) - (0.7 * p))) <= 1e-12

    def test_every_policy_up_to_two_steps_matches_oracle(self, space, models):
        actions = all_start_actions(space)
        policies = [(a,) for a in actions]
        policies += list(itertools.product(actions, repeat=2))
        for policy in policies:
            dec = expected_free_energy(
                space.prior, policy, models, PREFS, w_e=1.0, w_p=1.0, read_chunks=frozenset()
            )
            oe, op = oracle_efe(space.prior, policy, models, PREFS, frozenset())
            assert abs(dec.epistemic - oe) <= 1e-9
            assert abs(dec.pragmatic - op) <= 1e-9
            assert abs(dec.total - (-(oe + op) + 0.0)) <= 1e-9

    @pytest.mark.parametrize("horizon, stride", [(3, 1), (4, 10)])
    def test_planner_opening_policies_match_oracle(self, space, models, horizon, stride):
        # the horizons the planner scores at: every opening policy at 3, every
        # 10th at 4, under the planner's own preferences and weights
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, horizon, cfg)[::stride]
        assert policies
        for policy in policies:
            dec = expected_free_energy(
                space.prior, policy, models, cfg.prefs, w_e=cfg.w_e, w_p=cfg.w_p,
                read_chunks=frozenset(),
            )
            oe, op = oracle_efe(space.prior, policy, models, cfg.prefs, frozenset())
            assert abs(dec.epistemic - oe) <= 1e-9
            assert abs(dec.pragmatic - op) <= 1e-9
            assert abs(dec.total - (-(cfg.w_e * oe) - (cfg.w_p * op))) <= 1e-9

    @pytest.mark.parametrize("content", [0.8, 0.99])
    @pytest.mark.parametrize("zeta", [1.0, 1.15])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 4])
    def test_shared_node_table_equals_scoring_each_policy_alone(self, space, horizon, zeta, content):
        # bitwise: sharing belief nodes across a decision's policies moves no
        # total, at each horizon the planner scores at, from the opening state
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, horizon, cfg)
        kwargs = dict(w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(), zeta=zeta)
        shared = score_policies(space.prior, policies, models, cfg.prefs, **kwargs)
        alone = tuple(
            expected_free_energy(space.prior, policy, models, cfg.prefs, **kwargs)
            for policy in policies
        )
        assert shared == alone

    def test_partly_shared_reliabilities_match_oracle_and_each_policy_alone(
        self, space, monkeypatch
    ):
        # chunks 1 and 2 share a reliability and so their reads share cue
        # channels; chunks 3 and 4 each have their own
        rollouts = []

        class Watched(inference._Rollout):
            def __init__(self, *args):
                super().__init__(*args)
                rollouts.append(self)

        models = ReadingEvidenceModel.with_defaults(
            space, overrides={1: 0.8, 2: 0.8, 3: 0.7, 4: 0.9}
        )
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, 3, cfg)
        kwargs = dict(w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset())
        monkeypatch.setattr(inference, "_Rollout", Watched)
        shared = score_policies(space.prior, policies, models, cfg.prefs, **kwargs)
        (rollout,) = rollouts
        kinds = [policies.actions[key % rollout.n_actions].kind for key in rollout.keys.tolist()]
        assert {r for _, r in rollout.channels} == {0.7, 0.8, 0.9}
        assert len(rollout.channels) < kinds.count(env.FIXATE_SOURCE)
        alone = tuple(
            expected_free_energy(space.prior, policy, models, cfg.prefs, **kwargs)
            for policy in policies
        )
        assert shared == alone
        for policy, dec in zip(policies, shared):
            oe, op = oracle_efe(space.prior, policy, models, cfg.prefs, frozenset())
            assert abs(dec.epistemic - oe) <= 1e-9
            assert abs(dec.pragmatic - op) <= 1e-9
            assert abs(dec.total - (-(cfg.w_e * oe) - (cfg.w_p * op))) <= 1e-9

    def test_tables_are_freed_on_return_without_the_cycle_collector(self, space, models, monkeypatch):
        # reference counting alone frees a decision's tables: nothing in them
        # refers back to the instance
        refs = []

        class Watched(inference._Rollout):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(inference, "_Rollout", Watched)
        cfg = large_context_planner_config()
        policies = enumerate_policies(initial_agent_state(space, cfg).cognitive, space, 3, cfg)
        gc.disable()
        try:
            score_policies(space.prior, policies, models, cfg.prefs, read_chunks=frozenset())
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

    def test_zero_epistemic_weight_leaves_pragmatic_only(self, space, models):
        policy = (env.fixate_source(1), env.type_chunk(1, 1))
        dec = expected_free_energy(space.prior, policy, models, PREFS, w_e=0.0, w_p=1.0)
        assert abs(dec.total - (-dec.pragmatic)) <= 1e-12


class TestGeneratedTasks:
    # Tasks drawn by gentask: up to 4 content chunks, up to 12 orderings
    # (numpy sums 8 or more terms pairwise, which the bundled task's 6 never
    # reach) and horizons up to 3. Each opening decision is scored once over
    # all its policies, once per policy alone, and against the oracle on at
    # most 24 evenly spaced policies.
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(2, 12),
        seed=st.integers(1, 3),
        horizon=st.integers(1, 3),
        content=st.sampled_from([0.8, 0.9, 0.99]),
        zeta=st.sampled_from([1.0, 1.15]),
    )
    @example(n=4, k=12, seed=1, horizon=3, content=0.9, zeta=1.0)
    @example(n=3, k=9, seed=2, horizon=3, content=0.8, zeta=1.15)
    def test_decision_equals_each_policy_alone_and_the_oracle(self, n, k, seed, horizon, content, zeta):
        space = generated_space(n, min(k, math.factorial(n + 1)), seed)
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, horizon, cfg)
        assert not policies.truncated
        kwargs = dict(w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(), zeta=zeta)
        shared = score_policies(space.prior, policies, models, cfg.prefs, **kwargs)
        alone = tuple(
            expected_free_energy(space.prior, policy, models, cfg.prefs, **kwargs)
            for policy in policies
        )
        assert shared == alone
        if zeta != 1.0:
            return  # the oracle conditions on cues with zeta = 1
        stride = max(1, len(policies) // 24)
        for policy, dec in zip(policies[::stride], shared[::stride]):
            oe, op = oracle_efe(space.prior, policy, models, cfg.prefs, frozenset())
            assert abs(dec.epistemic - oe) <= 1e-9
            assert abs(dec.pragmatic - op) <= 1e-9
            assert abs(dec.total - (-(cfg.w_e * oe) - (cfg.w_p * op))) <= 1e-9


class TestBatchedNodes:
    # The rollout builds a walk level's new nodes in batches. Every read
    # channel, typed value and restriction in its tables after scoring a
    # generated opening equals the per-node rule above bitwise. Reliability
    # 1.0 leaves cues without mass once a read has pinned the belief, and
    # each decision also scores one policy that types a chunk at two slots,
    # whose second restriction contradicts every ordering.
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(2, 12),
        seed=st.integers(1, 3),
        content=st.sampled_from([0.5, 0.8, 0.99, 1.0]),
        zeta=st.sampled_from([0.5, 1.0, 1.15, 2.0]),
        preset=st.booleans(),
    )
    @example(n=4, k=12, seed=1, content=1.0, zeta=0.5, preset=True)
    @example(n=3, k=9, seed=2, content=0.99, zeta=2.0, preset=False)
    def test_tables_equal_the_per_node_rules(self, n, k, seed, content, zeta, preset):
        space = generated_space(n, min(k, math.factorial(n + 1)), seed)
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        cfg = large_context_planner_config()
        prefs = cfg.prefs if preset else PREFS
        start = initial_agent_state(space, cfg).cognitive
        twice = (env.type_chunk(1, 1), env.type_chunk(1, 2), env.pause())
        policies = list(enumerate_policies(start, space, 3, cfg)) + [twice]
        rollouts = []

        class Watched(inference._Rollout):
            def __init__(self, *args):
                super().__init__(*args)
                rollouts.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_Rollout", Watched)
            score_policies(space.prior, policies, models, prefs, read_chunks=frozenset(), zeta=zeta)
        (rollout,) = rollouts
        stack, na = rollout.stack, rollout.n_actions
        actions = inference.Policies.of(policies).actions

        assert rollout.channels
        for (bid, reliability), (gain, count, offset) in rollout.channels.items():
            table = rollout.tables[reliability]
            want = oracle_read_branches(stack[bid], table, zeta)
            children = rollout.beliefs[offset:offset + count].tolist()
            assert bits(rollout.weights[offset:offset + count]) == bits(w for w, _ in want)
            for child, (_, post) in zip(children, want, strict=True):
                assert bits(stack[child]) == bits(post)
            h = inference._information_gain(
                entropy_bits(stack[bid].tolist()), [(w, entropy_bits(post)) for w, post in want]
            )
            assert bits([gain]) == bits([h])

        contradictions = 0
        for position, key in enumerate(rollout.keys.tolist()):
            bid, aid = divmod(key, na)
            action = actions[aid]
            if action.kind != env.TYPE:
                continue
            row = placement_row(space, action.chunk_id, action.slot)
            value = oracle_typed_value(stack[bid].tolist(), row.tolist(), prefs)
            assert bits([rollout.node_p[position]]) == bits([value])
            if rollout.n_branches[position]:
                target = rollout.beliefs[rollout.offsets[position]]
                post = oracle_restriction(stack[bid], row)
                if post is None:
                    contradictions += 1
                    assert target == bid
                else:
                    assert bits(stack[target]) == bits(post)
        assert contradictions

    def test_restriction_batch_keeps_contradicted_rows_out(self, space):
        # one batch of placements from a point mass on TT0: those that fit it
        # restrict it, the one that fits no ordering the belief holds has none
        belief = np.array(Categorical.point_mass(len(space.orderings), 0).probs)
        rows = [placement_row(space, chunk, slot) for chunk, slot in ((1, 1), (2, 1), (0, 2), (4, 4))]
        live, posts = inference._restrictions(np.array([belief] * len(rows)), np.array(rows))
        want = [oracle_restriction(belief, row) for row in rows]
        assert live.tolist() == [post is not None for post in want] == [True, False, True, True]
        assert [bits(post) for post in posts] == [bits(post) for post in want if post is not None]


class TestPolicyPosterior:
    def test_zero_gamma_is_uniform(self):
        post = policy_posterior([0.3, -2.0, 5.0], gamma=0.0)
        assert np.allclose(post.probs, 1 / 3, atol=1e-15)

    def test_reference_softmax_values(self):
        post = policy_posterior([1.0, 2.0], gamma=1.0)
        assert abs(post.probs[0] - 0.731059) <= 1e-6
        assert abs(post.probs[1] - 0.268941) <= 1e-6

    def test_equal_totals_are_uniform(self):
        post = policy_posterior([4.2, 4.2, 4.2, 4.2], gamma=17.0)
        assert np.allclose(post.probs, 0.25, atol=1e-15)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=-30, max_value=30),
    )
    def test_shift_invariance(self, totals, gamma, shift):
        a = policy_posterior(totals, gamma)
        b = policy_posterior([t + shift for t in totals], gamma)
        assert np.allclose(a.probs, b.probs, atol=1e-9)
