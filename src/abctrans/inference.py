"""Belief updating, expected free energy, and precision-weighted policy scoring.

Beliefs live over the finite candidate-ordering space. Reading cues are the
only observations that carry information about the environment's latent
preferred ordering; typing yields placement feedback that is fully determined
by the action itself, so it contributes commitment (belief restriction during
rollout) but no expected information gain. The pragmatic term scores a typed
placement by the PreferenceVector, a read by -READ_COST and a pause by
-PAUSE_COST; the rollout's node is the one place that computes it.

score_policies, the one scoring entry point, gives the epistemic, pragmatic
and total EFE of a decision's policies, rows of action ids (a Policies
table), as three read-only arrays. It walks all policies in one pass, level
by level, over distinct states. A state is a belief plus a policy's
remaining actions and which of them pay the unread cost; policies that reach
one state share its value, as EFE is a recursion over (belief, remaining
plan). Each level builds the (belief, action) nodes its states need in one
batch, and a state that goes on has one child per cue branch of a read or
per typed restriction. Each batch is bitwise what building its nodes one at
a time gives: np.vecdot runs the same 1-D dot loop as b @ row, posteriors
is elementwise per row, np.cumsum adds left to right, entropies are
task.row_entropies, entropy_bits row by row (math.log2 once per distinct
probability, never np.log2, which differs on about 0.2% of doubles), and a
channel's information gain sums w * h per branch in one zero-padded
np.cumsum, the order of Python's sum. Each state sums its
node's terms and its children's in the order and rounding of scoring one
policy alone, so totals are bitwise equal either way.
posteriors is the one conditioning rule, over a 2-D likelihood with one row
per observation; bayes_update is its one-row case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import environment as env
from .task import (
    CONTENT,
    Categorical,
    ReadingEvidenceModel,
    entropy_bits,
    information_gains,
    placement_row,
    row_entropies,
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


class EFEDecomposition(NamedTuple):
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
    rather than silently renormalizing an impossible observation. No rows
    give no posteriors.
    """
    weighted = prior * np.power(likelihoods, zeta)
    totals = weighted.sum(axis=1, keepdims=True)
    if totals.size and not totals.min() > PROB_FLOOR:
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


def _read_branches(beliefs: np.ndarray, table: np.ndarray, zeta: float):
    """The read channel of one chunk from each belief of a stack (one per row).

    Returns (gains, counts, weights, posteriors): gains[i] is belief i's
    expected information gain and counts[i] the number of cues with mass
    under it, and the branches follow belief by belief, in cue order, one
    weight and one posterior row each. Each weight is np.vecdot of the
    belief and the cue's likelihood row, the 1-D dot loop of b @ row (a
    matrix product would round differently); the posteriors of every branch
    come from one posteriors call, which is elementwise per row, and the
    entropies of beliefs and posteriors from one row_entropies call, so
    every value is bitwise that of one belief alone.
    """
    weights = np.vecdot(beliefs[:, None, :], table[None])
    live = weights > 0.0
    rows, cues = live.nonzero()
    counts, weights = live.sum(axis=1), weights[rows, cues]
    posts = posteriors(beliefs[rows], table[cues], zeta)
    h = row_entropies(np.concatenate([beliefs, posts]))
    gains = information_gains(h[:len(beliefs)], counts, weights, h[len(beliefs):])
    return gains, counts, weights, posts


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
    table = models.likelihood_table(action.chunk_id)
    (gain,), _, _, _ = _read_branches(belief.as_array()[None, :], table, zeta)
    return float(gain)


def _typed_values(beliefs: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Belief-weighted progress bonus or inconsistency penalty of placements, one per row.

    factors[i] holds, per ordering, the progress bonus where placement i
    fits it and the inconsistency penalty where it does not. Each value is
    the sum of p * factor over the orderings, left to right from 0.0:
    np.cumsum adds in that order, and an ordering with p == 0 adds -0.0,
    which leaves any sum as it was.
    """
    values = np.zeros((len(beliefs), beliefs.shape[1] + 1))  # column 0 is the 0.0 each sum starts from
    terms = values[:, 1:]
    np.multiply(beliefs, factors, out=terms)
    terms[beliefs == 0.0] = -0.0
    return values.cumsum(axis=1)[:, -1]


def _restrictions(beliefs: np.ndarray, fits: np.ndarray):
    """Each belief restricted to the orderings its placement row fits: (live, posteriors).

    live marks the rows with mass left, by the sum posteriors checks; the
    posteriors of those rows come from one posteriors call. A placement
    that contradicts every ordering its belief holds has no restriction.
    """
    live = (beliefs * fits).sum(axis=1) > PROB_FLOOR
    return live, posteriors(beliefs[live], fits[live])


class Policies:
    """A decision's policies as one table: distinct actions plus a matrix of their ids.

    Row i of ids holds policy i's action ids, padded with -1 past its end.
    Action tuples are built only when a caller indexes or iterates.
    truncated is true when enumeration's max_policies cut the list.
    """

    __slots__ = ("actions", "ids", "truncated")

    def __init__(self, actions, ids: np.ndarray, truncated: bool = False):
        self.actions = tuple(actions)
        self.ids = ids
        self.ids.flags.writeable = False  # the selection memo shares it
        self.truncated = truncated

    @classmethod
    def of(cls, policies) -> Policies:
        """Policies of plain action sequences, one id per distinct action."""
        if isinstance(policies, cls):
            return policies
        ids: dict = {}
        rows = []
        for policy in policies:
            if not policy:
                raise ValueError("policy must contain at least one action")
            rows.append([ids.setdefault(action, len(ids)) for action in policy])
        width = max(map(len, rows), default=1)
        matrix = np.array([row + [-1] * (width - len(row)) for row in rows], dtype=np.int32)
        return cls(ids, matrix.reshape(len(rows), width))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> tuple:
        return tuple(self.actions[a] for a in self.ids[index].tolist() if a >= 0)

    def __iter__(self):
        for row in self.ids.tolist():
            yield tuple(self.actions[a] for a in row if a >= 0)


# Node kinds of the rollout's action table.
_READ, _TYPE, _PAUSE = 0, 1, 2


class _Rollout:
    """The tables of one score_policies call, keyed by small integers.

    Action ids are those of the Policies table. A belief is interned by the
    bytes of its probability row after + 0.0, so that -0.0 and 0.0 are one
    belief, to a row of a belief stack; the root is id 0. A read's cue
    channel is built once per (belief, reliability), as a chunk's table
    depends on its reliability alone, and keeps its gain and its branches'
    weights and child belief ids in two flat arrays. Beliefs and channels
    are all the walk keeps across levels: each level builds the nodes (one
    action from one belief) that its states need in one batch (build), and
    the branches of those some state continues past in another (branches).
    In a batch, the missing channels take one _read_branches call per
    reliability (row_entropies and information_gains within it), typed
    placements one _typed_values call, and restrictions one _restrictions
    call. Each is
    bitwise what its nodes built one at a time give: vecdot runs b @ row's
    dot loop, posteriors is elementwise, cumsum adds in order, entropies
    take math.log2 once per distinct probability (np.log2 differs on 4,136
    of 2.1M uniform doubles with numpy 2.4.6), and a gain sums w * h per
    branch in the order of Python's sum. The tables are freed when
    score_policies returns, as nothing refers back to them.
    """

    def __init__(self, models: ReadingEvidenceModel, prefs: PreferenceVector, zeta: float,
                 policies: Policies, read_chunks, belief: Categorical):
        self.prefs, self.zeta = prefs, zeta
        space = models.space
        reliabilities = dict(models.reliabilities)
        na = self.n_actions = len(policies.actions)
        # Per action id: its kind, a read's reliability, a placement's row
        # of fits and factors.
        self.kinds = [_PAUSE] * na
        self.reliability: list = [None] * na
        self.tables: dict = {}  # reliability -> likelihood table
        self.row: list = [None] * na
        fits = []
        # Per action id, padded by one for the -1 past a policy's end: the
        # chunk a read reads and the unread content chunk a placement types,
        # as small ints (-2 and -1 match nothing), for the unread cost.
        self.read_chunk, self.typed_chunk = [-2] * (na + 1), [-1] * (na + 1)
        chunks: dict = {}
        for aid, action in enumerate(policies.actions):
            kind, chunk = action.kind, action.chunk_id
            if kind == env.FIXATE_SOURCE:
                self.kinds[aid] = _READ
                reliability = self.reliability[aid] = reliabilities[chunk]
                if reliability not in self.tables:
                    self.tables[reliability] = models.likelihood_table(chunk)
                self.read_chunk[aid] = chunks.setdefault(chunk, len(chunks))
            elif kind == env.TYPE:
                self.kinds[aid] = _TYPE
                self.row[aid] = len(fits)
                fits.append(placement_row(space, chunk, action.slot))
                unread = read_chunks is not None and chunk not in read_chunks
                if unread and space.table.chunk(chunk).kind == CONTENT:
                    self.typed_chunk[aid] = chunks.setdefault(chunk, len(chunks))
            elif kind != env.PAUSE:
                raise ValueError(f"unknown action kind {kind!r}")
        # Per typed placement: whether each ordering fits it (its placement
        # row), and the preference each ordering gives it.
        self.fits = np.array(fits) if fits else np.empty((0, len(space.orderings)))
        self.factors = np.where(self.fits > 0.0, prefs.progress_bonus, prefs.inconsistency_penalty)
        self.stack = np.array([belief.probs]) + 0.0  # belief id -> probabilities; the root is 0
        self.belief_ids = {self.stack.tobytes(): 0}  # row bytes (see intern) -> belief id
        self.channels: dict = {}  # (belief id, reliability) -> (information gain, count, offset)
        self.weights, self.beliefs = np.empty(0), np.empty(0, dtype=np.int32)  # every channel's branches
        self.states = 0  # states the level walk visited, over all levels

    def intern(self, rows: np.ndarray) -> list:
        """Belief ids of the rows of probabilities; a new belief gets a row of the stack.

        A belief is keyed by its row's bytes, after + 0.0 has turned any
        -0.0 into 0.0, so rows that are equal as numbers are one belief.
        """
        rows = rows + 0.0
        ids = self.belief_ids
        known = len(ids)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
        bids = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) > known:
            # Ids are handed out in row order: a new belief's first row is
            # where the running maximum of the ids, from known - 1, rises.
            top = np.maximum.accumulate(np.array([known - 1] + bids))
            self.stack = np.concatenate([self.stack, rows[np.flatnonzero(top[1:] > top[:-1])]])
        return bids

    def read_channels(self, bids: list, aids: list) -> list:
        """(i, information gain, branch count, branch offset) per read i among the nodes (bids[i], aids[i]).

        A read's channel is that of its (belief, reliability). The missing
        channels are built in one _read_branches call per reliability, and
        their branches laid out after the others.
        """
        reads = [
            (i, (bids[i], self.reliability[aid])) for i, aid in enumerate(aids) if self.kinds[aid] == _READ
        ]
        lack: dict = {}  # reliability -> belief ids without its channel
        for bid, reliability in dict.fromkeys(key for _, key in reads):
            if (bid, reliability) not in self.channels:
                lack.setdefault(reliability, []).append(bid)
        for reliability, group in lack.items():
            beliefs = self.stack.take(group, axis=0)
            gains, counts, weights, posts = _read_branches(beliefs, self.tables[reliability], self.zeta)
            children = self.intern(posts)
            counts = counts.tolist()
            offsets = itertools.accumulate(counts[:-1], initial=len(self.weights))
            self.weights = np.concatenate([self.weights, weights])
            self.beliefs = np.concatenate([self.beliefs, children], dtype=np.int32)
            self.channels.update(zip(
                [(bid, reliability) for bid in group], zip(gains.tolist(), counts, offsets)
            ))
        return [(i, *self.channels[key]) for i, key in reads]

    def build(self, bids: list, aids: list) -> tuple:
        """(epistemic, pragmatic) lists of the nodes (bids[i], aids[i]).

        A read takes its channel's gain, and a batch's typed placements
        their values from one _typed_values call.
        """
        m = len(aids)
        epistemic, pragmatic = [0.0] * m, [-PAUSE_COST] * m
        for i, gain, _, _ in self.read_channels(bids, aids):
            epistemic[i], pragmatic[i] = gain, -READ_COST
        typed = [i for i, aid in enumerate(aids) if self.kinds[aid] == _TYPE]
        if typed:
            beliefs = self.stack.take([bids[i] for i in typed], axis=0)
            factors = self.factors.take([self.row[aids[i]] for i in typed], axis=0)
            values = _typed_values(beliefs, factors)
            for i, value in zip(typed, values.tolist()):
                pragmatic[i] = value
        return epistemic, pragmatic

    def branches(self, bids: list, aids: list) -> tuple:
        """(counts, weights, belief ids) of the branches of the nodes (bids[i], aids[i]), node by node.

        A read's branches are its channel's, in cue order. A placement or a
        pause has one branch of weight 1.0. A pause keeps its belief; a
        placement restricts it to the orderings it fits, all the placements
        of one call in one batch. A placement that contradicts every live
        ordering keeps the belief: the penalty already scored it.
        """
        m = len(aids)
        counts, offsets, targets = [1] * m, [-1] * m, list(bids)
        for i, _, count, offset in self.read_channels(bids, aids):
            counts[i], offsets[i] = count, offset
        typed = [i for i, aid in enumerate(aids) if self.kinds[aid] == _TYPE]
        if typed:
            beliefs = self.stack.take([targets[i] for i in typed], axis=0)
            fits = self.fits.take([self.row[aids[i]] for i in typed], axis=0)
            live, posts = _restrictions(beliefs, fits)
            restricted = [i for i, ok in zip(typed, live.tolist()) if ok]
            for i, bid in zip(restricted, self.intern(posts)):
                targets[i] = bid
        # Branch j of node i is channel entry offsets[i] + j, or -1 for a
        # node's one branch of weight 1.0 to its target.
        counts = np.array(counts)
        j = np.arange(counts.sum()) - np.repeat(counts.cumsum() - counts, counts)
        at = np.repeat(offsets, counts) + j
        weights, beliefs = np.ones(len(at)), np.repeat(np.array(targets, dtype=np.int64), counts)
        read = at >= 0
        weights[read], beliefs[read] = self.weights[at[read]], self.beliefs[at[read]]
        return counts, weights, beliefs

    def unread(self, columns: np.ndarray) -> np.ndarray:
        """Per entry of columns (the policies' ids, one row per column): whether it pays the unread cost.

        An action pays it when it types a content chunk that was neither
        read before the policies start nor by an earlier action of the same
        policy, whichever branches it takes.
        """
        # The -1 pad indexes the last entry, which is its own.
        typed_at = np.array(self.typed_chunk, dtype=np.int32)[columns]
        read_at = np.array(self.read_chunk, dtype=np.int32)[columns]
        pays = typed_at >= 0
        for d in range(1, len(columns)):
            pays[d] &= ~(read_at[:d] == typed_at[d]).any(axis=0)
        return pays

    def walk(self, ids: np.ndarray) -> tuple:
        """(epistemic, pragmatic) arrays over the policies, rows of action ids, from the root belief.

        A policy's tail at level d is its actions from d on together with
        whether each pays the unread cost. Tails are numbered bottom-up, one
        np.unique per level over (action, paid, id of the rest), so equal
        tails share an id. A state is a (belief id, tail id) pair, and its
        value depends on the pair alone: EFE is a recursion over (belief,
        remaining plan), and equal keys run the same arithmetic on the same
        numbers. Level 0 holds one state per distinct policy, at the root
        belief. Each level builds the nodes its states need in one batch,
        lays out the branches of those that some state continues past, and
        gives each such state one child per branch position k; the next
        level holds the children's distinct states. Bottom-up, each state
        takes its node's terms, less the unread cost where its action pays
        it, then adds w_k * child for k in branch order, one elementwise
        multiply and add at a time: the order and rounding of scoring each
        policy alone, so every value is bitwise the same.

        One action per policy, a selection by the width of ids alone: the
        rows are the policies, and these small decisions (every head-starter
        decision, every planner decision after the opening) need only their
        nodes' terms, bitwise what the level walk gives them padded with -1.
        Through the level walk, compare_sweep, where they dominate, measured
        a p90 of 2.85-2.91 ref per op instead of 2.28-2.37.
        """
        n, width = ids.shape
        if width == 1:
            aids = ids[:, 0].tolist()
            epistemic, pragmatic = self.build([0] * n, aids)
            for i, aid in enumerate(aids):
                if self.typed_chunk[aid] >= 0:
                    pragmatic[i] -= self.prefs.unread_cost
            return np.array(epistemic), np.array(pragmatic)
        na = self.n_actions
        columns = ids.T  # row d: each policy's action d
        pays = self.unread(columns)
        # Per level, per tail: its action, whether that pays, the id of its
        # rest, and whether the rest holds an action. Past the last level
        # every policy has the empty tail 0, which holds none.
        tail, holds = np.zeros(n, dtype=np.int64), np.zeros(1, dtype=bool)
        heads = []
        for d in reversed(range(width)):
            key = (tail * (na + 1) + columns[d] + 1) * 2 + pays[d]
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            action, rest = columns[d][first], tail[first]
            heads.append((action, pays[d][first], rest, holds[rest]))
            tail, holds = inverse, action >= 0

        bel = np.zeros(n, dtype=np.int64)  # each policy starts at the root belief
        # Per level: each entry's state (the entries are the policies on
        # level 0, the children of the level above after it), the states'
        # terms, and, where states go on, the parent state of each child and
        # its weight, laid out k by k.
        levels = []
        for action, paid, rest, goes_on in reversed(heads):
            keys, up = np.unique(bel * len(action) + tail, return_inverse=True)
            bel, tail = np.divmod(keys, len(action))
            self.states += len(keys)
            nodes, at = np.unique(bel * na + action[tail], return_inverse=True)
            node_bel, node_aid = np.divmod(nodes, na)
            epistemic, pragmatic = map(np.array, self.build(node_bel.tolist(), node_aid.tolist()))
            epistemic, pragmatic = epistemic[at], pragmatic[at]
            pragmatic[paid[tail]] -= self.prefs.unread_cost
            levels.append((up, epistemic, pragmatic))
            parents = np.flatnonzero(goes_on[tail])
            if not len(parents):
                break
            used, at = np.unique(at[parents], return_inverse=True)
            counts, weights, beliefs = self.branches(node_bel[used].tolist(), node_aid[used].tolist())
            n_children, first = counts[at], (counts.cumsum() - counts)[at]
            # Parents with most children first: the parents of the k-th
            # children are a prefix, m[k] long, and the children are laid
            # out k by k.
            order = np.argsort(-n_children, kind="stable")
            parents, n_children, first = parents[order], n_children[order], first[order]
            m = np.bincount(n_children)[::-1].cumsum()[::-1][1:]
            k = np.repeat(np.arange(len(m)), m)
            i = np.arange(len(k)) - np.repeat(np.cumsum(m) - m, m)
            branch = first[i] + k
            levels[-1] += (parents, m.tolist(), weights[branch])
            bel, tail = beliefs[branch], rest[tail[parents[i]]]
        up, epistemic, pragmatic = levels.pop()
        while levels:
            above, above_e, above_p, parents, m, weights = levels.pop()
            below_e, below_p = epistemic[up], pragmatic[up]
            start = 0
            for size in m:
                rows, w, stop = parents[:size], weights[start:start + size], start + size
                above_e[rows] += w * below_e[start:stop]
                above_p[rows] += w * below_p[start:stop]
                start = stop
            up, epistemic, pragmatic = above, above_e, above_p
        return epistemic[up], pragmatic[up]


def score_policies(
    belief: Categorical,
    policies,
    models: ReadingEvidenceModel,
    prefs: PreferenceVector,
    w_e: float = 1.0,
    w_p: float = 1.0,
    read_chunks: frozenset[int] | None = None,
    zeta: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epistemic, pragmatic and total EFE of each policy of one decision, as read-only arrays.

    policies is a Policies or any sequence of action sequences. Each
    policy's belief is rolled forward through every predicted observation
    branch: reads branch over cues, typed placements restrict the belief to
    consistent orderings. All policies share one walk over distinct
    states (see _Rollout.walk), dropped on return. read_chunks marks source chunks already
    fixated before the policies start (defaults to all, so unread costs
    never apply). The totals are -(w_e * epistemic) - (w_p * pragmatic).
    """
    policies = Policies.of(policies)
    epistemic, pragmatic = _Rollout(models, prefs, zeta, policies, read_chunks, belief).walk(policies.ids)
    totals = -(w_e * epistemic) - (w_p * pragmatic)
    for column in (epistemic, pragmatic, totals):
        column.flags.writeable = False
    return epistemic, pragmatic, totals


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
    """Expected free energy of one policy: score_policies over that policy alone, split."""
    scores = score_policies(belief, (policy,), models, prefs, w_e, w_p, read_chunks, zeta)
    return EFEDecomposition(*(column.item() for column in scores))


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
    return Categorical(tuple((weights / weights.sum()).tolist()))


def surprisal(probability: float) -> float:
    """Negative log2 probability with a floor against log(0)."""
    return -math.log2(max(probability, PROB_FLOOR))
