import gc
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abctrans import environment as env, inference
from abctrans.agent import (
    CognitiveState,
    enumerate_policies,
    head_starter_config,
    initial_agent_state,
    large_context_planner_config,
)
from abctrans.inference import (
    ContradictionError,
    EFEDecomposition,
    PreferenceVector,
    bayes_update,
    expected_free_energy,
    expected_information_gain,
    policy_posterior,
    posteriors,
    score_policies,
    shannon_entropy,
)
from abctrans.task import Categorical, ReadingEvidenceModel, entropy_bits, placement_row, row_entropies

from conftest import point_mass
from gentask import generated_space

PREFS = PreferenceVector(progress_bonus=0.5, inconsistency_penalty=-2.0)


def decompositions(scores):
    """One EFEDecomposition per policy from score_policies' three arrays."""
    return tuple(map(EFEDecomposition, *(column.tolist() for column in scores)))


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


def oracle_information_gain(h_before, branches):
    """One channel's gain: H(belief) less the weighted entropies of its (weight, entropy) branches, floored at 0."""
    return max(h_before - sum(w * h for w, h in branches), 0.0)


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
        assert shannon_entropy(point_mass(5, 0)) == 0.0

    def test_half_half(self):
        assert shannon_entropy(Categorical((0.5, 0.5, 0.0, 0.0))) == 1.0


# Doubles on which np.log2 and math.log2 differ with numpy 2.4.6, enough to
# change p * log2(p).
NP_LOG2_DIFFERS = [float.fromhex(h) for h in ("0x1.fe924cfaebfdep-1", "0x1.a3ff621ade4f4p-1")]


def at_the_cut(base, past):
    # base plus one key at the largest _distinct counts for that many keys, or one past it
    return base + [32 * (len(base) + 1) + 1024 + past]


def traced_distinct(keys):
    # _distinct's result and the peak it allocated
    tracemalloc.start()
    try:
        return inference._distinct(keys), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDistinct:
    # The walk's dedup is np.unique(keys, return_inverse=True), whether it
    # counts dense keys in a presence table or sorts them.
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 2**40), max_size=1),  # no keys or one
        st.integers(0, 2**40).flatmap(lambda k: st.lists(st.just(k), min_size=2, max_size=50)),
        st.lists(st.integers(0, 64), max_size=200),  # dense
        st.lists(st.integers(0, 40_000), max_size=200),  # either side of the cut
        st.lists(st.integers(2**39, 2**40), min_size=1, max_size=50),  # sparse
        st.builds(at_the_cut, st.lists(st.integers(0, 500), max_size=100), st.sampled_from([0, 1])),
        st.builds(
            list.__add__,
            st.lists(st.integers(0, 64), max_size=50),
            st.lists(st.integers(-2**40, -1), min_size=1, max_size=3),
        ),
    ).flatmap(st.permutations))
    @example([])
    @example([7])
    @example([5] * 10)
    @example([2**40, 0, 2**40])
    @example(at_the_cut(list(range(99)), 0))
    @example(at_the_cut(list(range(99)), 1))
    @example([3, -1, 2, 3])
    @example(list(range(5000, 0, -3)) * 2)
    def test_equals_np_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        (distinct, inverse), peak = traced_distinct(keys)
        expected, expected_inverse = np.unique(keys, return_inverse=True)
        assert distinct.dtype == expected.dtype and inverse.dtype == expected_inverse.dtype
        assert distinct.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.tolist()
        assert peak < 1 << 20  # sparse keys never get a table

    @pytest.mark.parametrize("past", [0, 1])
    def test_counts_up_to_the_cut_and_sorts_past_it(self, past):
        keys = np.array(at_the_cut(list(range(999)), past), dtype=np.int64)
        _, peak = traced_distinct(keys)
        table = 8 * (keys.max() + 1)  # the rank table alone
        assert (peak >= table) if past == 0 else (peak < table // 2)


class TestRowEntropies:
    # The batched entropy of the rollout is entropy_bits, bitwise, also on
    # zeros of either sign, certainty, the smallest subnormal and values
    # that repeat within and across rows.
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.5, 0.25, 1.0 / 3.0] + NP_LOG2_DIFFERS),
                        st.floats(0.0, 1.0),
                    ),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_equals_entropy_bits(self, rows):
        assert bits(row_entropies(np.array(rows))) == bits(map(entropy_bits, rows))

    def test_bundled_beliefs(self, space, models):
        rows = [space.prior.probs, point_mass(6, 2).probs, (0.5, -0.0, 0.5, 0, 0, 0)]
        rows += bayes_update(space.prior, models.likelihood_row(1, "TT0")).probs, NP_LOG2_DIFFERS * 3
        assert bits(row_entropies(np.array(rows))) == bits(map(entropy_bits, rows))


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
        prior = point_mass(6, 0)
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

    @pytest.mark.parametrize("zeta", [math.nan, math.inf, -1.0, 0.0])
    def test_invalid_zeta_rejected_by_name(self, space, models, zeta):
        # A NaN or infinite zeta raised ContradictionError, the error step
        # takes to mean an impossible cue, and a negative one inverted the
        # evidence: (0.5, 0.5) with row (0.2, 0.8) gave (0.8, 0.2).
        with pytest.raises(ValueError, match=f"zeta must be positive and finite, got {zeta!r}"):
            bayes_update(Categorical((0.5, 0.5)), [0.2, 0.8], zeta=zeta)
        with pytest.raises(ValueError, match=f"got {zeta!r}"):
            bayes_update(space.prior, models.likelihood_row(1, "TT3"), zeta=zeta)

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
        b = point_mass(6, 2)
        for action in all_start_actions(space):
            assert expected_information_gain(b, action, models) <= 1e-12

    @pytest.mark.parametrize("zeta", [math.nan, math.inf, -1.0, 0.0])
    @pytest.mark.parametrize("chunk", [0, 1])
    def test_invalid_zeta_rejected_by_name(self, space, models, zeta, chunk):
        with pytest.raises(ValueError, match=f"zeta must be positive and finite, got {zeta!r}"):
            expected_information_gain(space.prior, env.fixate_source(chunk), models, zeta=zeta)

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
        b = point_mass(6, space.index_of("TT3"))
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
        b = point_mass(6, space.index_of("TT3"))
        read = pragmatic(b, env.type_chunk(4, 3), models, prefs, read_chunks=frozenset({4}))
        unread = pragmatic(b, env.type_chunk(4, 3), models, prefs, read_chunks=frozenset())
        assert abs((read - unread) - 0.7) <= 1e-12


class TestExpectedFreeEnergy:
    def test_empty_policy_rejected(self, space, models):
        with pytest.raises(ValueError):
            expected_free_energy(space.prior, (), models, PREFS)

    @pytest.mark.parametrize("zeta", [math.nan, math.inf, -1.0, 0.0])
    def test_invalid_zeta_rejected_by_name(self, space, models, zeta):
        # zeta -1 scored reading chunk 1 from the bundled prior at epistemic
        # 0.206 instead of 1.399; a NaN or infinite one raised ContradictionError.
        for policy in ((env.fixate_source(1),), (env.pause(),)):
            with pytest.raises(ValueError, match=f"zeta must be positive and finite, got {zeta!r}"):
                score_policies(space.prior, (policy,), models, PREFS, zeta=zeta)
            with pytest.raises(ValueError, match=f"got {zeta!r}"):
                expected_free_energy(space.prior, policy, models, PREFS, zeta=zeta)

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
        policies = list(enumerate_policies(start, space, horizon, cfg))[::stride]
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
        shared = decompositions(score_policies(space.prior, policies, models, cfg.prefs, **kwargs))
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
                self.built = set()
                rollouts.append(self)

            def build(self, bids, aids, laid):
                self.built.update(zip(bids, aids))
                return super().build(bids, aids, laid)

        models = ReadingEvidenceModel.with_defaults(
            space, overrides={1: 0.8, 2: 0.8, 3: 0.7, 4: 0.9}
        )
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, 3, cfg)
        kwargs = dict(w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset())
        monkeypatch.setattr(inference, "_Rollout", Watched)
        shared = decompositions(score_policies(space.prior, policies, models, cfg.prefs, **kwargs))
        (rollout,) = rollouts
        kinds = [policies.actions[aid].kind for _, aid in rollout.built]
        # The dense channel index is keyed belief id * len(tables) + table index.
        reliability_of = {models.table_of[cid]: r for cid, r in models.reliabilities}
        keys = (rollout.channel >= 0).nonzero()[0]
        assert {reliability_of[t] for t in keys % len(rollout.tables)} == {0.7, 0.8, 0.9}
        assert len(rollout.gain) == len(keys) < kinds.count(env.FIXATE_SOURCE)
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
    # reach) and horizons up to 3. Each decision is scored once over all its
    # policies, once per policy alone, and against the oracle on at most 24
    # evenly spaced policies.
    @staticmethod
    def check_decision(space, models, cognitive, horizon, zeta):
        cfg = large_context_planner_config()
        policies = enumerate_policies(cognitive, space, horizon, cfg)
        assert not policies.truncated
        belief, read = cognitive.belief, cognitive.read_set
        kwargs = dict(w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=read, zeta=zeta)
        shared = decompositions(score_policies(belief, policies, models, cfg.prefs, **kwargs))
        alone = tuple(
            expected_free_energy(belief, policy, models, cfg.prefs, **kwargs)
            for policy in policies
        )
        assert shared == alone
        if zeta != 1.0:
            return  # the oracle conditions on cues with zeta = 1
        stride = max(1, len(policies) // 24)
        for policy, dec in zip(list(policies)[::stride], shared[::stride]):
            oe, op = oracle_efe(belief, policy, models, cfg.prefs, read)
            assert abs(dec.epistemic - oe) <= 1e-9
            assert abs(dec.pragmatic - op) <= 1e-9
            assert abs(dec.total - (-(cfg.w_e * oe) - (cfg.w_p * op))) <= 1e-9

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
        start = initial_agent_state(space, large_context_planner_config()).cognitive
        self.check_decision(space, models, start, horizon, zeta)

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(2, 12),
        seed=st.integers(1, 3),
        horizon=st.integers(1, 3),
        content=st.sampled_from([0.8, 0.9, 0.99]),
        zeta=st.sampled_from([1.0, 1.15]),
        typed=st.booleans(),
    )
    @example(n=4, k=12, seed=1, horizon=3, content=0.9, zeta=1.0, typed=True)
    @example(n=3, k=9, seed=2, horizon=3, content=0.8, zeta=1.15, typed=False)
    def test_later_decision_equals_each_policy_alone_and_the_oracle(
        self, n, k, seed, horizon, content, zeta, typed
    ):
        # A decision after reading chunk 1 and seeing the cue of one
        # ordering, and, if typed, after then typing that ordering's first
        # chunk at slot 1. Chunk 1 has been read, so placing it pays no
        # unread cost where placing another content chunk does: the
        # unread-cost bits of a walk state differ between policies.
        space = generated_space(n, min(k, math.factorial(n + 1)), seed)
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        shown = seed % len(space.orderings)
        belief = bayes_update(space.prior, models.likelihood_row(1, space.labels[shown]))
        placed = ()
        if typed:
            chunk = space.orderings[shown].chunk_at(1)
            belief = bayes_update(belief, placement_row(space, chunk, 1))
            placed = ((1, chunk),)
        cognitive = CognitiveState(belief, belief, placed, frozenset({1}))
        self.check_decision(space, models, cognitive, horizon, zeta)

    def test_capped_horizon_five_opening_matches_the_oracle(self):
        # The planner's own horizon on a task with 5 content chunks: the
        # capped opening that WIDE_SHA256 pins, scored in one walk. The
        # first policy with each read count from 1 to 4 is checked against
        # the outcome tree; the one 5-read policy takes seconds and is left out.
        space = generated_space(5, 12, 1)
        models = ReadingEvidenceModel.with_defaults(space, content=0.9)
        cfg = large_context_planner_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, 5, cfg)
        assert len(policies) == 4096
        scores = decompositions(score_policies(
            space.prior, policies, models, cfg.prefs,
            w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(),
        ))
        first = {}
        for policy, dec in zip(policies, scores):
            first.setdefault(sum(a.kind == env.FIXATE_SOURCE for a in policy), (policy, dec))
        for reads in (1, 2, 3, 4):
            policy, dec = first[reads]
            oe, op = oracle_efe(space.prior, policy, models, cfg.prefs, frozenset())
            assert abs(dec.epistemic - oe) <= 1e-9
            assert abs(dec.pragmatic - op) <= 1e-9
            assert abs(dec.total - (-(cfg.w_e * oe) - (cfg.w_p * op))) <= 1e-9


class TestBatchedNodes:
    # The rollout builds each walk level's nodes, and their branches, in
    # batches. After scoring a generated opening, every read channel it
    # keeps, and every node term and branch that build returned, equals
    # the per-node rule above bitwise. Reliability
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
            # Records (belief id, action id, epistemic, pragmatic) per node
            # built and (belief id, action id, weights, belief ids) per node
            # whose branches were laid out.
            def __init__(self, *args):
                super().__init__(*args)
                self.built, self.laid = [], []
                rollouts.append(self)

            def build(self, bids, aids, laid):
                epistemic, pragmatic, branches = super().build(bids, aids, laid)
                self.built += zip(bids, aids, epistemic, pragmatic)
                if laid:
                    counts, weights, beliefs = branches
                    ends = counts.cumsum()[:-1]
                    self.laid += zip(bids, aids, np.split(weights, ends), np.split(beliefs, ends))
                return epistemic, pragmatic, branches

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_Rollout", Watched)
            score_policies(space.prior, policies, models, prefs, read_chunks=frozenset(), zeta=zeta)
        (rollout,) = rollouts
        stack = rollout.stack
        actions = inference.Policies.of(policies).actions

        # Channel c's branches follow those of the channels before it; the
        # dense index maps belief id * len(tables) + table index to c.
        offsets = rollout.count.cumsum() - rollout.count

        def channel_of(bid, aid):
            return rollout.channel[bid * len(rollout.tables) + rollout.rel[aid]]

        # Channels built on the last level, which lays out no branches, keep
        # none and count 0 of them; the others keep every branch.
        keys = (rollout.channel >= 0).nonzero()[0]
        assert len(keys) and sorted(rollout.channel[keys]) == list(range(len(rollout.gain)))
        assert (rollout.count > 0).any()
        for bid, table in zip(*np.divmod(keys, len(rollout.tables))):
            c = rollout.channel[bid * len(rollout.tables) + table]
            gain, count, offset = rollout.gain[c], rollout.count[c], offsets[c]
            want = oracle_read_branches(stack[bid], rollout.tables[table], zeta)
            h = oracle_information_gain(
                entropy_bits(stack[bid].tolist()), [(w, entropy_bits(post)) for w, post in want]
            )
            assert bits([gain]) == bits([h])
            if not count:
                continue
            children = rollout.beliefs[offset:offset + count].tolist()
            assert bits(rollout.weights[offset:offset + count]) == bits(w for w, _ in want)
            for child, (_, post) in zip(children, want, strict=True):
                assert bits(stack[child]) == bits(post)

        for bid, aid, epistemic, pragmatic in rollout.built:
            action = actions[aid]
            if action.kind == env.FIXATE_SOURCE:
                channel = channel_of(bid, aid)
                assert channel >= 0
                gain = rollout.gain[channel]
                assert (bits([epistemic]), pragmatic) == (bits([gain]), -inference.READ_COST)
                continue
            assert rollout.rel[aid] == -1
            if action.kind == env.TYPE:
                row = placement_row(space, action.chunk_id, action.slot)
                value = oracle_typed_value(stack[bid].tolist(), row.tolist(), prefs)
                assert (epistemic, bits([pragmatic])) == (0.0, bits([value]))
            else:
                assert (epistemic, pragmatic) == (0.0, -inference.PAUSE_COST)

        contradictions = 0
        for bid, aid, weights, children in rollout.laid:
            action = actions[aid]
            if action.kind == env.FIXATE_SOURCE:
                channel = channel_of(bid, aid)
                count, offset = rollout.count[channel], offsets[channel]
                assert count > 0
                assert bits(weights) == bits(rollout.weights[offset:offset + count])
                assert children.tolist() == rollout.beliefs[offset:offset + count].tolist()
                continue
            (target,) = children.tolist()
            assert weights.tolist() == [1.0]
            if action.kind != env.TYPE:
                assert target == bid
                continue
            post = oracle_restriction(stack[bid], placement_row(space, action.chunk_id, action.slot))
            if post is None:
                contradictions += 1
                assert target == bid
            else:
                assert bits(stack[target]) == bits(post)
        assert contradictions

    @pytest.mark.parametrize("generated", [False, True], ids=["bundled", "4x12"])
    def test_byte_keys_intern_as_probability_tuples_do(self, space, generated):
        # Every intern call of an opening hands out the ids a table keyed by
        # probability tuples would, in the same order, and a -0.0 is the
        # same belief as a 0.0.
        if generated:
            space = generated_space(4, 12, 1)
        models = ReadingEvidenceModel.with_defaults(space)
        cfg = large_context_planner_config()
        rollouts = []

        class Checked(inference._Rollout):
            def __init__(self, *args):
                super().__init__(*args)
                self.tuple_ids = {tuple(self.stack[0].tolist()): 0}
                rollouts.append(self)

            def intern(self, rows):
                ids = super().intern(rows)
                want = [self.tuple_ids.setdefault(tuple(row), len(self.tuple_ids)) for row in rows.tolist()]
                assert ids.tolist() == want
                return ids

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_Rollout", Checked)
            start = initial_agent_state(space, cfg).cognitive
            policies = enumerate_policies(start, space, 4, cfg)
            score_policies(space.prior, policies, models, cfg.prefs, read_chunks=frozenset())
        (rollout,) = rollouts
        assert len(rollout.tuple_ids) == len(rollout.stack) > 250
        assert [list(row) for row in rollout.tuple_ids] == rollout.stack.tolist()
        zeroed = rollout.stack[(rollout.stack == 0.0).any(axis=1)][:1]
        signed = np.concatenate([zeroed, np.where(zeroed == 0.0, -0.0, zeroed)])
        assert signed[0].tobytes() != signed[1].tobytes()
        (bid,) = rollout.intern(zeroed)
        assert rollout.intern(signed).tolist() == [bid, bid] and bid < len(rollout.tuple_ids)

    @pytest.mark.parametrize("generated", [False, True], ids=["bundled", "4x12"])
    @pytest.mark.parametrize("zeta", [1.0, 1.15])
    def test_channel_slices_equal_one_batch(self, space, generated, zeta, monkeypatch):
        # Slices of at most 1, 7 or 64 cue rows (one belief a slice, or up
        # to 64 // orderings) give bitwise the totals of one unbounded batch
        # per level; each slice holds at most its share of beliefs.
        if generated:
            space = generated_space(4, 12, 1)
        models = ReadingEvidenceModel.with_defaults(space, content=0.9)
        cfg = large_context_planner_config()
        policies = enumerate_policies(initial_agent_state(space, cfg).cognitive, space, 4, cfg)
        batches, read_branches = [], inference._read_branches

        def counted(beliefs, *args):
            batches.append(len(beliefs))
            return read_branches(beliefs, *args)

        monkeypatch.setattr(inference, "_read_branches", counted)
        totals, calls = {}, {}
        for rows in (1 << 62, 1, 7, 64):
            monkeypatch.setattr(inference, "CHANNEL_ROWS", rows)
            batches.clear()
            scores = score_policies(space.prior, policies, models, cfg.prefs, w_e=cfg.w_e, w_p=cfg.w_p,
                                    read_chunks=frozenset(), zeta=zeta)
            totals[rows], calls[rows] = [bits(column) for column in scores], len(batches)
            assert max(batches) <= max(1, rows // len(space.orderings)) or rows == 1 << 62
        assert totals[1] == totals[7] == totals[64] == totals[1 << 62]
        assert calls[1] == calls[7] > calls[64] > calls[1 << 62]

    @pytest.mark.parametrize("width", [1, 3])
    def test_no_policies_give_empty_scores(self, space, models, width):
        # enumeration returns a table with no rows once nothing is left to do
        policies = inference.Policies([], np.empty((0, width), dtype=np.int32))
        scores = score_policies(space.prior, policies, models, PREFS, read_chunks=frozenset())
        assert [column.shape for column in scores] == [(0,)] * 3

    def test_restriction_batch_keeps_contradicted_rows_out(self, space):
        # one batch of placements from a point mass on TT0: those that fit it
        # restrict it, the one that fits no ordering the belief holds has none
        belief = np.array(point_mass(len(space.orderings), 0).probs)
        rows = [placement_row(space, chunk, slot) for chunk, slot in ((1, 1), (2, 1), (0, 2), (4, 4))]
        live, posts = inference._restrictions(np.array([belief] * len(rows)), np.array(rows))
        want = [oracle_restriction(belief, row) for row in rows]
        assert live.tolist() == [post is not None for post in want] == [True, False, True, True]
        assert [bits(post) for post in posts] == [bits(post) for post in want if post is not None]

    @pytest.mark.parametrize("generated", [False, True], ids=["bundled", "5x6"])
    @pytest.mark.parametrize("zeta", [1.0, 1.15])
    def test_one_action_branch_equals_the_level_walk(self, space, generated, zeta):
        # A one-action decision scored by walk's own branch is bitwise what
        # the level walk gives the same rows padded with a -1 column, and it
        # visits no state of the level walk. Nothing has been read, so every
        # content placement pays the unread cost.
        if generated:
            space = generated_space(5, 6, 1)
        models = ReadingEvidenceModel.with_defaults(space)
        cfg = head_starter_config()
        start = initial_agent_state(space, cfg).cognitive
        policies = enumerate_policies(start, space, 1, cfg)
        assert policies.ids.shape[1] == 1 and len(policies) > 5
        padded = np.pad(policies.ids, ((0, 0), (0, 1)), constant_values=-1)

        def walked(ids):
            rollout = inference._Rollout(models, cfg.prefs, zeta, policies, frozenset(), space.prior)
            return rollout, rollout.walk(ids)

        branch, (branch_e, branch_p) = walked(policies.ids)
        level, (level_e, level_p) = walked(padded)
        assert branch.unread_typed and branch.states == 0 and level.states == len(policies)
        assert bits(branch_e) == bits(level_e)
        assert bits(branch_p) == bits(level_p)


class TestPolicyPosterior:
    def test_zero_gamma_is_uniform(self):
        post = policy_posterior([0.3, -2.0, 5.0], gamma=0.0)
        assert np.allclose(post.probs, 1 / 3, atol=1e-15)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_invalid_gamma_rejected_by_name(self, gamma):
        # NaN failed as "probabilities must be non-negative", and inf with a
        # RuntimeWarning from the shifted scores.
        with pytest.raises(ValueError, match=f"gamma must be non-negative and finite, got {gamma!r}"):
            policy_posterior([0.3, -2.0, 5.0], gamma=gamma)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_totals_rejected_by_name(self, bad):
        # NaN failed as "probabilities must be non-negative", -inf with a
        # RuntimeWarning from the shifted scores, and inf gave (0.0, 1.0).
        with pytest.raises(ValueError, match=re.escape(f"totals must be finite, got [{bad!r}, 0.0]")):
            policy_posterior([bad, 0.0], gamma=1.0)

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
