"""Belief updating, expected free energy, and precision-weighted policy scoring.

Beliefs live over the finite candidate-ordering space. Reading cues are the
only observations that carry information about the environment's latent
preferred ordering; typing yields placement feedback that is fully determined
by the action itself, so it contributes commitment (belief restriction during
rollout) but no expected information gain. The pragmatic term scores a typed
placement by the PreferenceVector, a read by -READ_COST and a pause by
-PAUSE_COST; the rollout's node is the one place that computes it.

score_policies scores all policies of a decision over memoised tables keyed
by small integers (interned beliefs, policy suffixes, read bitmasks): a read
channel is built once per belief and reliability, with all its cue branches
in one array op, and the value of a suffix once per belief and read set. Each
policy's terms are summed as expected_free_energy sums them for that policy
alone, so totals are bitwise equal either way. posteriors is the one
conditioning rule, over a 2-D likelihood with one row per observation;
bayes_update is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import environment as env
from .task import (
    CONTENT,
    Categorical,
    ReadingEvidenceModel,
    entropy_bits,
    placement_row,
)

PROB_FLOOR = 1e-300

# Fixed action costs of the pragmatic term.
READ_COST = 0.0
PAUSE_COST = 0.1


class ContradictionError(RuntimeError):
    """The observation is impossible under the current belief."""


@dataclass(frozen=True)
class PreferenceVector:
    """The translator's log-preferences over typed outcomes: the values presets set apart.

    progress_bonus rewards placements consistent with believed orderings,
    inconsistency_penalty scores placements the belief rules out, and
    unread_cost discourages committing a content chunk whose source has not
    been fixated yet. Reads and pauses cost the fixed READ_COST and PAUSE_COST.
    """

    progress_bonus: float = 1.0
    inconsistency_penalty: float = -1.0
    unread_cost: float = 0.0


@dataclass(frozen=True)
class EFEDecomposition:
    """Expected free energy of a policy, split into its two drives.

    total = -(w_e * epistemic) - (w_p * pragmatic) for the weights it was
    scored with; lower totals mark better policies.
    """

    epistemic: float
    pragmatic: float
    total: float


def shannon_entropy(dist: Categorical) -> float:
    """Entropy in bits of a Categorical, 0*log(0) = 0."""
    return entropy_bits(dist.probs)


def posteriors(prior: np.ndarray, likelihoods: np.ndarray, zeta: float = 1.0) -> np.ndarray:
    """One posterior per likelihood row: prior * row**zeta, each row normalised.

    The one conditioning rule, for non-negative 2-D likelihoods; zeta = 1 is
    exact Bayes. Raises ContradictionError when some row leaves no mass,
    rather than silently renormalizing an impossible observation.
    """
    weighted = prior * np.power(likelihoods, zeta)
    totals = weighted.sum(axis=1, keepdims=True)
    if not totals.min() > PROB_FLOOR:
        raise ContradictionError("observation impossible under the current belief")
    return weighted / totals


def bayes_update(prior: Categorical, likelihoods, zeta: float = 1.0) -> Categorical:
    """Posterior proportional to prior * likelihood**zeta: posteriors for one row."""
    lks = np.asarray(likelihoods, dtype=float)
    if lks.shape != (len(prior),):
        raise ValueError("one likelihood per option required")
    if not np.all(lks >= 0.0):  # NaN fails too
        raise ValueError("likelihoods must be non-negative")
    (post,) = posteriors(prior.as_array(), lks[None, :], zeta).tolist()
    return Categorical(tuple(post))


def _read_branches(b: np.ndarray, likelihoods: np.ndarray, zeta: float) -> list:
    """Predicted cue branches of one read: (weight, posterior probs) per cue with mass.

    Each weight is b @ row, a 1-D dot per row (a matrix product would round
    differently); the posteriors of all rows come from one posteriors call.
    """
    weights = [float(b @ row) for row in likelihoods]
    keep = [k for k, w in enumerate(weights) if w > 0.0]
    if len(keep) < len(weights):
        weights = [weights[k] for k in keep]
        likelihoods = likelihoods[keep]
    return list(zip(weights, posteriors(b, likelihoods, zeta).tolist()))


def _information_gain(h_before: float, branches) -> float:
    """H(belief) less the weighted entropies of (weight, entropy) branches, floored at 0."""
    h_after = sum(w * h for w, h in branches)
    return max(h_before - h_after, 0.0)


def expected_information_gain(
    belief: Categorical,
    action: env.Action,
    models: ReadingEvidenceModel,
    zeta: float = 1.0,
) -> float:
    """Expected drop in belief entropy from the action's observation channel.

    H(belief) minus the predicted-observation average of posterior entropies;
    non-negative, and zero whenever the channel is uninformative about the
    latent ordering or the belief is already a point mass. Only source
    fixations have a channel that depends on the latent ordering; every other
    action yields one observation with probability one.
    """
    if action.kind != env.FIXATE_SOURCE:
        return 0.0
    branches = _read_branches(belief.as_array(), models.likelihood_table(action.chunk_id), zeta)
    return _information_gain(
        shannon_entropy(belief), [(w, entropy_bits(post)) for w, post in branches]
    )


def _typed_value(probs, fits, prefs: PreferenceVector) -> float:
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


class _Rollout:
    """The tables of one score_policies call, keyed by small integers.

    Beliefs are interned by probability tuple (with their entropy), policy
    suffixes by (first action, rest) in a trie, read sets become bitmasks. A
    node, one action from one belief, is built once; so is the value of a
    suffix of two or more actions per (belief, suffix, the read bits it
    depends on). A read's cue channel is built once per (belief, reliability):
    the evidence model builds every chunk's table from its reliability alone,
    so chunks of equal reliability have bitwise-equal channels. Each value is
    the float the plain recursion computes, so totals do not depend on what
    the tables hold. Nothing refers back to the instance, so the tables are
    freed when score_policies returns.
    """

    def __init__(self, models: ReadingEvidenceModel, prefs: PreferenceVector, zeta: float, policies):
        self.prefs, self.zeta = prefs, zeta
        self.bits = {cid: 1 << i for i, cid in enumerate(sorted(models.space.table.chunk_ids))}
        self.belief_ids: dict = {}
        self.beliefs: list = []  # belief id -> (probability tuple, entropy)
        action_ids: dict = {}
        self.actions: list = []  # action id -> (kind, unread bit, read bit, what its node reads)
        suffix_ids: dict = {}
        self.suffixes: list = []  # suffix id -> (action id, rest id or -1, read bits it depends on)
        self.policies = []  # suffix id of each policy
        for policy in policies:
            if not policy:
                raise ValueError("policy must contain at least one action")
            sid = -1
            for action in reversed(policy):
                # The action's fields, not the Action: its generated __hash__
                # and __eq__ would run in Python.
                fields = (action.kind, action.chunk_id, action.slot)
                aid = action_ids.setdefault(fields, len(self.actions))
                if aid == len(self.actions):
                    self.actions.append(self.action(models, *fields))
                rest, sid = sid, suffix_ids.setdefault((aid, sid), len(self.suffixes))
                if sid == len(self.suffixes):
                    depends = self.suffixes[rest][2] if rest >= 0 else 0
                    self.suffixes.append((aid, rest, depends | self.actions[aid][1]))
            self.policies.append(sid)
        self.n_actions, self.n_suffixes, self.n_bits = len(self.actions), len(self.suffixes), len(self.bits)
        self.channels: dict = {}  # (belief id, reliability) -> (information gain, cue branches)
        self.nodes: dict = {}  # belief id * n_actions + action id -> node
        self.values: dict = {}  # packed (belief id, suffix id, read bits) -> (epistemic, pragmatic)

    def action(self, models: ReadingEvidenceModel, kind: str, chunk, slot) -> tuple:
        """(kind, unread bit, read bit, what its node reads) of one distinct action.

        A read's node reads its (reliability, likelihood table); a placement's
        reads its placement row, as a list and as a one-row likelihood.
        """
        if kind == env.FIXATE_SOURCE:
            table = models.likelihood_table(chunk)
            return kind, 0, self.bits[chunk], (dict(models.reliabilities)[chunk], table)
        if kind == env.TYPE:
            content = models.space.table.chunk(chunk).kind == CONTENT
            row = placement_row(models.space, chunk, slot)
            return kind, self.bits[chunk] if content else 0, 0, (row.tolist(), row[None, :])
        if kind == env.PAUSE:
            return kind, 0, 0, None
        raise ValueError(f"unknown action kind {kind!r}")

    def belief(self, probs: tuple) -> int:
        bid = self.belief_ids.setdefault(probs, len(self.beliefs))
        if bid == len(self.beliefs):
            self.beliefs.append((probs, entropy_bits(probs)))
        return bid

    def node(self, bid: int, aid: int) -> list:
        """[epistemic, pragmatic, unread bit, read bit, branches] of one action from one belief.

        A read's cue branches come from its (belief, reliability) channel; a
        typed placement's branches stay None until some policy continues
        past it.
        """
        kind, unread, read_bit, inputs = self.actions[aid]
        probs, entropy = self.beliefs[bid]
        if kind == env.FIXATE_SOURCE:
            reliability, table = inputs
            channel = self.channels.get((bid, reliability))
            if channel is None:
                cues = _read_branches(np.array(probs), table, self.zeta)
                branches = [(w, self.belief(tuple(post))) for w, post in cues]
                gain = _information_gain(entropy, [(w, self.beliefs[b][1]) for w, b in branches])
                channel = self.channels[bid, reliability] = gain, branches
            node = [channel[0], -READ_COST, 0, read_bit, channel[1]]
        elif kind == env.TYPE:
            node = [0.0, _typed_value(probs, inputs[0], self.prefs), unread, 0, None]
        else:
            node = [0.0, -PAUSE_COST, 0, 0, ((1.0, bid),)]
        self.nodes[bid * self.n_actions + aid] = node
        return node

    def restricted(self, bid: int, aid: int) -> tuple:
        """Branches after a typed placement: the belief restricted to the orderings it fits.

        A plan that contradicts every live ordering keeps the belief: the
        penalty already scored it.
        """
        try:
            (post,) = posteriors(np.array(self.beliefs[bid][0]), self.actions[aid][3][1]).tolist()
        except ContradictionError:
            return ((1.0, bid),)
        return ((1.0, self.belief(tuple(post))),)

    def value(self, bid: int, sid: int, mask: int) -> tuple[float, float]:
        """Epistemic and pragmatic value of suffix sid from belief bid, given read mask."""
        aid, rest, depends = self.suffixes[sid]
        if rest >= 0:
            key = (bid * self.n_suffixes + sid) << self.n_bits | mask & depends
            hit = self.values.get(key)
            if hit is not None:
                return hit
        node = self.nodes.get(bid * self.n_actions + aid) or self.node(bid, aid)
        epistemic, pragmatic, unread, read_bit, branches = node
        if unread & ~mask:
            pragmatic -= self.prefs.unread_cost
        if rest < 0:
            return epistemic, pragmatic
        if branches is None:
            branches = node[4] = self.restricted(bid, aid)
        mask |= read_bit
        for weight, post in branches:
            e_next, p_next = self.value(post, rest, mask)
            epistemic += weight * e_next
            pragmatic += weight * p_next
        self.values[key] = epistemic, pragmatic
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
    belief to consistent orderings. All policies share one set of tables
    (see _Rollout), dropped on return. read_chunks marks source chunks
    already fixated before the policies start (defaults to all, so unread
    costs never apply).
    """
    rollout = _Rollout(models, prefs, zeta, policies)
    bits = rollout.bits
    mask = sum(bits.values() if read_chunks is None else (bits.get(c, 0) for c in read_chunks))
    root = rollout.belief(belief.probs)
    efes = []
    for sid in rollout.policies:
        epistemic, pragmatic = rollout.value(root, sid, mask)
        total = -(w_e * epistemic) - (w_p * pragmatic)
        efes.append(EFEDecomposition(epistemic=epistemic, pragmatic=pragmatic, total=total))
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
