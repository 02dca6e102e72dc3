import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abctrans import environment as env
from abctrans.inference import (
    ContradictionError,
    PreferenceVector,
    bayes_update,
    expected_free_energy,
    expected_information_gain,
    policy_posterior,
    pragmatic_value,
    shannon_entropy,
)
from abctrans.task import Categorical, placement_row

PREFS = PreferenceVector(progress_bonus=0.5, inconsistency_penalty=-2.0, pause_cost=0.1)


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
                total_p += w * (-prefs.read_cost)
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
                cost = prefs.pause_cost if action.kind in (env.PAUSE, env.DELETE) else prefs.read_cost
                total_p += w * (-cost)
                new_paths.append((w, b, r))
        paths = new_paths
    return total_e, total_p


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


class TestPragmaticValue:
    def test_consistent_typing_earns_bonus(self, space):
        b = Categorical.point_mass(6, space.index_of("TT3"))
        val = pragmatic_value(b, env.type_chunk(4, 3), PREFS, space)
        assert abs(val - PREFS.progress_bonus) <= 1e-12

    def test_pause_costs(self, space):
        assert pragmatic_value(space.prior, env.pause(), PREFS, space) == -PREFS.pause_cost

    def test_hedged_typing_mixes_bonus_and_penalty(self, space):
        probs = [0.0] * 6
        probs[space.index_of("TT0")] = 0.5
        probs[space.index_of("TT5")] = 0.5
        b = Categorical(tuple(probs))
        val = pragmatic_value(b, env.type_chunk(1, 1), PREFS, space)
        expected = 0.5 * PREFS.progress_bonus + 0.5 * PREFS.inconsistency_penalty
        assert abs(val - expected) <= 1e-12

    def test_unread_chunk_costs_extra(self, space):
        prefs = PreferenceVector(progress_bonus=0.5, unread_cost=0.7)
        b = Categorical.point_mass(6, space.index_of("TT3"))
        read = pragmatic_value(b, env.type_chunk(4, 3), prefs, space, chunk_read=True)
        unread = pragmatic_value(b, env.type_chunk(4, 3), prefs, space, chunk_read=False)
        assert abs((read - unread) - 0.7) <= 1e-12

    def test_ordering_preferences_add_in(self, space):
        log_pref = [0.0] * 6
        log_pref[space.index_of("TT3")] = 0.9
        prefs = PreferenceVector(log_pref=tuple(log_pref), progress_bonus=0.5)
        b = Categorical.point_mass(6, space.index_of("TT3"))
        val = pragmatic_value(b, env.type_chunk(4, 3), prefs, space)
        assert abs(val - 1.4) <= 1e-12


class TestExpectedFreeEnergy:
    def test_empty_policy_rejected(self, space, models):
        with pytest.raises(ValueError):
            expected_free_energy(space.prior, (), models, PREFS)

    def test_single_step_composes_the_two_terms(self, space, models):
        for action in all_start_actions(space):
            dec = expected_free_energy(
                space.prior, (action,), models, PREFS, w_e=1.3, w_p=0.7
            )
            e = expected_information_gain(space.prior, action, models)
            p = pragmatic_value(space.prior, action, PREFS, space)
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

    def test_zero_epistemic_weight_leaves_pragmatic_only(self, space, models):
        policy = (env.fixate_source(1), env.type_chunk(1, 1))
        dec = expected_free_energy(space.prior, policy, models, PREFS, w_e=0.0, w_p=1.0)
        assert abs(dec.total - (-dec.pragmatic)) <= 1e-12


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
