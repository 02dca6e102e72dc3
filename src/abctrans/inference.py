"""Belief updating, expected free energy, and precision-weighted policy scoring.

Beliefs live over the finite candidate-ordering space. Reading cues are the
only observations that carry information about the environment's latent
preferred ordering; typing yields placement feedback that is fully determined
by the action itself, so it contributes commitment (belief restriction during
rollout) but no expected information gain.

score_policies scores all policies of a decision over one table of belief
nodes: a node many policies reach has its observation channel, gain and
pragmatic value computed once. Each policy's terms are summed as
expected_free_energy sums them for that policy alone, so totals are bitwise
equal either way.
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
        for row in models.likelihood_table(action.chunk_id):
            weight = float(b @ row)
            if weight <= 0.0:
                continue
            branches.append((weight, bayes_update(belief, row, zeta=zeta)))
        return branches
    return [(1.0, belief)]


def _information_gain(belief: Categorical, branches) -> float:
    h_after = sum(w * shannon_entropy(post) for w, post in branches)
    return max(shannon_entropy(belief) - h_after, 0.0)


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
    return _information_gain(belief, _observation_channel(belief, action, models, zeta))


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
        row = placement_row(space, action.chunk_id, action.slot)
        value = 0.0
        for i, p in enumerate(belief.probs):
            if p == 0.0:
                continue
            if row[i] > 0.0:
                value += p * (prefs.progress_bonus + prefs.ordering_pref(i))
            else:
                value += p * prefs.inconsistency_penalty
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


def _rollout(
    belief: Categorical,
    actions: tuple[env.Action, ...],
    models: ReadingEvidenceModel,
    prefs: PreferenceVector,
    read: frozenset[int],
    zeta: float,
    nodes: dict,
) -> tuple[float, float]:
    """Epistemic and pragmatic value of a non-empty action sequence from one belief node.

    nodes maps (belief, action, chunk_read) to [epistemic, pragmatic, the
    branches the rest continues from], filled on a node's first visit; a
    typed placement's restriction only once some sequence continues past it.
    """
    action, rest = actions[0], actions[1:]
    space = models.space
    chunk_read = True
    if action.kind == env.TYPE:
        chunk = space.table.chunk(action.chunk_id)
        chunk_read = chunk.kind != "content" or action.chunk_id in read
    # The action's fields, not the Action: its generated __hash__ and __eq__
    # would run in Python on every visit.
    key = (belief.probs, action.kind, action.chunk_id, action.slot, chunk_read)
    node = nodes.get(key)
    if node is None:
        branches = _observation_channel(belief, action, models, zeta)
        node = nodes[key] = [
            _information_gain(belief, branches),
            pragmatic_value(belief, action, prefs, space, chunk_read=chunk_read),
            None if action.kind == env.TYPE else branches,
        ]
    epistemic, pragmatic, branches = node
    if not rest:
        return epistemic, pragmatic

    if action.kind == env.FIXATE_SOURCE:
        read = read | {action.chunk_id}
    elif branches is None:
        # A typed placement restricts the belief to the orderings it fits. A
        # plan that contradicts every live ordering keeps the belief: the
        # penalty already scored it.
        row = placement_row(space, action.chunk_id, action.slot)
        try:
            branches = [(1.0, bayes_update(belief, row))]
        except ContradictionError:
            branches = [(1.0, belief)]
        node[2] = branches
    for weight, post in branches:
        e_next, p_next = _rollout(post, rest, models, prefs, read, zeta, nodes)
        epistemic += weight * e_next
        pragmatic += weight * p_next
    return epistemic, pragmatic


def score_policies(
    belief: Categorical,
    policies,
    models: ReadingEvidenceModel,
    prefs: PreferenceVector,
    w_e: float = 1.0,
    w_p: float = 1.0,
    read_chunks: frozenset[int] | None = None,
    zeta: float = 1.0,
) -> tuple[EFEDecomposition, ...]:
    """Expected free energy of each policy of one decision, in order.

    Each policy's belief is rolled forward through every predicted
    observation branch: reads branch over cues, typed placements restrict the
    belief to consistent orderings. All policies share one table of belief
    nodes, so a node reached by many policies is expanded once; the table is
    dropped on return. read_chunks marks source chunks already fixated before
    the policies start (defaults to all, so unread costs never apply).
    """
    if read_chunks is None:
        read_chunks = frozenset(models.space.table.chunk_ids)
    nodes: dict = {}
    efes = []
    for policy in policies:
        actions = tuple(policy)
        if not actions:
            raise ValueError("policy must contain at least one action")
        epistemic, pragmatic = _rollout(belief, actions, models, prefs, read_chunks, zeta, nodes)
        total = -(w_e * epistemic) - (w_p * pragmatic)
        efes.append(
            EFEDecomposition(epistemic=epistemic, pragmatic=pragmatic, total=total, w_e=w_e, w_p=w_p)
        )
    return tuple(efes)


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
    """Expected free energy of one policy: score_policies over that policy alone."""
    (efe,) = score_policies(belief, (policy,), models, prefs, w_e, w_p, read_chunks, zeta)
    return efe


def policy_posterior(totals, gamma: float) -> Categorical:
    """Softmax over -gamma * EFE totals, shifted by the max for numerical stability."""
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    totals = np.asarray(totals, dtype=float)
    if totals.size == 0:
        raise ValueError("need at least one policy")
    scores = -gamma * totals
    scores -= scores.max()
    weights = np.exp(scores)
    return Categorical(tuple(weights / weights.sum()))


def surprisal(probability: float) -> float:
    """Negative log2 probability with a floor against log(0)."""
    return -math.log2(max(probability, PROB_FLOOR))
