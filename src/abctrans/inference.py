"""Belief updating, expected free energy, and precision-weighted policy scoring.

Beliefs live over the finite candidate-ordering space. Reading cues are the
only observations that carry information about the environment's latent
preferred ordering; typing yields placement feedback that is fully determined
by the action itself, so it contributes commitment (belief restriction during
rollout) but no expected information gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import environment as env
from .task import Categorical, CandidateSpace, ReadingEvidenceModel, entropy_bits, placement_row

PROB_FLOOR = 1e-300


class ContradictionError(RuntimeError):
    """The observation is impossible under the current belief."""


@dataclass(frozen=True)
class PreferenceVector:
    """Log-preferences over outcomes plus the configured action costs.

    progress_bonus rewards placements consistent with believed orderings,
    inconsistency_penalty scores placements the belief rules out, and
    unread_cost discourages committing a content chunk whose source has not
    been fixated yet. Reading and pausing score zero minus their costs.
    """

    log_pref: tuple[float, ...] | None = None
    progress_bonus: float = 1.0
    inconsistency_penalty: float = -1.0
    unread_cost: float = 0.0
    read_cost: float = 0.0
    pause_cost: float = 0.1

    def ordering_pref(self, index: int) -> float:
        if self.log_pref is None:
            return 0.0
        return self.log_pref[index]


@dataclass(frozen=True)
class EFEDecomposition:
    """Expected free energy of a policy, split into its two drives.

    total = -(w_e * epistemic) - (w_p * pragmatic) for the weights recorded
    alongside; lower totals mark better policies.
    """

    epistemic: float
    pragmatic: float
    total: float
    w_e: float
    w_p: float


def shannon_entropy(dist) -> float:
    """Entropy in bits of a Categorical or probability sequence, 0*log(0) = 0."""
    if isinstance(dist, Categorical):
        return entropy_bits(dist.probs)
    return entropy_bits(dist)


def bayes_update(prior: Categorical, likelihoods, zeta: float = 1.0) -> Categorical:
    """Posterior proportional to prior * likelihood**zeta; zeta = 1 is exact Bayes.

    Raises ContradictionError when no option retains mass, rather than
    silently renormalizing an impossible observation.
    """
    lks = np.asarray(likelihoods, dtype=float)
    if lks.shape != (len(prior),):
        raise ValueError("one likelihood per option required")
    if not np.all(lks >= 0.0):  # NaN fails too
        raise ValueError("likelihoods must be non-negative")
    weighted = prior.as_array() * np.power(np.maximum(lks, 0.0), zeta)
    total = float(weighted.sum())
    if total <= PROB_FLOOR:
        raise ContradictionError("observation impossible under the current belief")
    return Categorical(tuple(weighted / total))


def _observation_channel(
    belief: Categorical,
    action: env.Action,
    models: ReadingEvidenceModel,
    zeta: float,
):
    """Predicted observation branches for one action.

    Returns a list of (weight, posterior) pairs. Only source fixations have a
    channel that depends on the latent ordering; every other action yields one
    observation with probability one and leaves the belief unchanged, which is
    exactly what makes it uninformative.
    """
    if action.kind == env.FIXATE_SOURCE:
        b = belief.as_array()
        branches = []
        for cue in models.space.labels:
            row = models.likelihood_row(action.chunk_id, cue)
            weight = float(b @ row)
            if weight <= 0.0:
                continue
            branches.append((weight, bayes_update(belief, row, zeta=zeta)))
        return branches
    return [(1.0, belief)]


def expected_information_gain(
    belief: Categorical,
    action: env.Action,
    models: ReadingEvidenceModel,
    zeta: float = 1.0,
) -> float:
    """Expected drop in belief entropy from the action's observation channel.

    H(belief) minus the predicted-observation average of posterior entropies;
    non-negative, and zero whenever the channel is uninformative about the
    latent ordering or the belief is already a point mass.
    """
    branches = _observation_channel(belief, action, models, zeta)
    h_before = shannon_entropy(belief)
    h_after = sum(w * shannon_entropy(post) for w, post in branches)
    gain = h_before - h_after
    return max(gain, 0.0)


def _typing_scores(
    belief: Categorical,
    space: CandidateSpace,
    chunk_id: int,
    slot: int,
    prefs: PreferenceVector,
) -> float:
    row = placement_row(space, chunk_id, slot)
    value = 0.0
    for i, p in enumerate(belief.probs):
        if p == 0.0:
            continue
        if row[i] > 0.0:
            value += p * (prefs.progress_bonus + prefs.ordering_pref(i))
        else:
            value += p * prefs.inconsistency_penalty
    return value


def pragmatic_value(
    belief: Categorical,
    action: env.Action,
    prefs: PreferenceVector,
    space: CandidateSpace | None = None,
    chunk_read: bool = True,
) -> float:
    """Expected log-preference of the observation the action should produce.

    Typing scores the belief-weighted mix of progress bonus and inconsistency
    penalty (minus the unread cost when the chunk's source is unfixated);
    reading and pausing score zero minus their configured costs.
    """
    if action.kind == env.TYPE:
        if space is None:
            raise ValueError("typing actions need the candidate space")
        value = _typing_scores(belief, space, action.chunk_id, action.slot, prefs)
        if not chunk_read:
            value -= prefs.unread_cost
        return value
    if action.kind in (env.FIXATE_SOURCE, env.FIXATE_TARGET, env.CONSULT):
        return -prefs.read_cost
    if action.kind == env.PAUSE:
        return -prefs.pause_cost
    if action.kind == env.DELETE:
        return -prefs.pause_cost
    raise ValueError(f"unknown action kind {action.kind!r}")


def _restrict(belief: Categorical, space: CandidateSpace, chunk_id: int, slot: int) -> Categorical:
    row = placement_row(space, chunk_id, slot)
    weighted = belief.as_array() * row
    total = float(weighted.sum())
    if total <= 0.0:
        # The plan contradicts every live ordering; the penalty already scored
        # it, so prediction keeps the belief rather than dividing by zero.
        return belief
    return Categorical(tuple(weighted / total))


def _rollout(
    belief: Categorical,
    actions: tuple[env.Action, ...],
    models: ReadingEvidenceModel,
    prefs: PreferenceVector,
    read: frozenset[int],
    zeta: float,
) -> tuple[float, float]:
    if not actions:
        return 0.0, 0.0
    action, rest = actions[0], actions[1:]
    space = models.space
    chunk_read = True
    if action.kind == env.TYPE:
        chunk = space.table.chunk(action.chunk_id)
        chunk_read = chunk.kind != "content" or action.chunk_id in read
    epistemic = expected_information_gain(belief, action, models, zeta=zeta)
    pragmatic = pragmatic_value(belief, action, prefs, space, chunk_read=chunk_read)
    if not rest:
        return epistemic, pragmatic

    if action.kind == env.FIXATE_SOURCE:
        read = read | {action.chunk_id}
        for weight, post in _observation_channel(belief, action, models, zeta):
            e_next, p_next = _rollout(post, rest, models, prefs, read, zeta)
            epistemic += weight * e_next
            pragmatic += weight * p_next
        return epistemic, pragmatic

    if action.kind == env.TYPE:
        belief = _restrict(belief, space, action.chunk_id, action.slot)
    e_next, p_next = _rollout(belief, rest, models, prefs, read, zeta)
    return epistemic + e_next, pragmatic + p_next


def expected_free_energy(
    belief: Categorical,
    policy,
    models: ReadingEvidenceModel,
    prefs: PreferenceVector,
    w_e: float = 1.0,
    w_p: float = 1.0,
    read_chunks: frozenset[int] | None = None,
    zeta: float = 1.0,
) -> EFEDecomposition:
    """Accumulate epistemic and pragmatic value over a policy's predicted trajectory.

    The belief is rolled forward through every predicted observation branch:
    reads branch over cues, typed placements restrict the belief to consistent
    orderings. read_chunks marks source chunks already fixated before the
    policy starts (defaults to all, so unread costs never apply).
    """
    actions = tuple(policy)
    if not actions:
        raise ValueError("policy must contain at least one action")
    if read_chunks is None:
        read_chunks = frozenset(models.space.table.chunk_ids)
    epistemic, pragmatic = _rollout(belief, actions, models, prefs, read_chunks, zeta)
    total = -(w_e * epistemic) - (w_p * pragmatic)
    return EFEDecomposition(epistemic=epistemic, pragmatic=pragmatic, total=total, w_e=w_e, w_p=w_p)


def policy_posterior(efes, gamma: float) -> Categorical:
    """Softmax over -gamma * total, shifted by the max for numerical stability."""
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    totals = np.array(
        [e.total if isinstance(e, EFEDecomposition) else float(e) for e in efes], dtype=float
    )
    if totals.size == 0:
        raise ValueError("need at least one policy")
    scores = -gamma * totals
    scores -= scores.max()
    weights = np.exp(scores)
    return Categorical(tuple(weights / weights.sum()))


def surprisal(probability: float) -> float:
    """Negative log2 probability with a floor against log(0)."""
    return -math.log2(max(probability, PROB_FLOOR))
