"""Belief updating, expected free energy, and precision-weighted policy scoring.

Beliefs live over the finite candidate-ordering space. Reading cues are the
only observations that carry information about the environment's latent
preferred ordering; typing yields placement feedback that is fully determined
by the action itself, so it contributes commitment (belief restriction during
rollout) but no expected information gain. The pragmatic term scores a typed
placement by the PreferenceVector, a read by -READ_COST and a pause by
-PAUSE_COST; the rollout's node is the one place that computes it.

score_policies scores a decision's policies as rows of action ids (a
Policies table), level by level: the rows that reach a policy's next action
become the next level, one child row per cue branch of a read or per typed
restriction, and each (belief, action) node is built once over the whole
walk, in one batch with the other nodes its level visits first. Each batch
is bitwise what building its nodes one at a time gives: np.vecdot runs the
same 1-D dot loop as b @ row, posteriors is elementwise per row, np.cumsum
adds left to right, and each new belief's entropy is still entropy_bits
(math.log2). Each row sums its node's terms and its children's in the order
and rounding of scoring that policy alone, so totals are bitwise equal
either way. posteriors is the one conditioning rule, over a 2-D likelihood
with one row per observation; bayes_update is its one-row case.
"""

from __future__ import annotations

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
    placement_row,
)

PROB_FLOOR = 1e-300

# Fixed action costs of the pragmatic term.
READ_COST = 0.0
PAUSE_COST = 0.1

# Policies walked at once: bounds the rows a decision holds (about 30 per
# policy on the bundled opening) without adding much per-walk overhead.
POLICIES_PER_WALK = 512


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
    """Predicted cue branches of one read from each belief of a stack (one per row).

    Returns (counts, weights, posteriors): counts[i] is the number of cues
    with mass under belief i, and the branches follow belief by belief, in
    cue order, one weight and one posterior row each. Each weight is
    np.vecdot of the belief and the cue's likelihood row, the 1-D dot loop
    of b @ row (a matrix product would round differently); the posteriors
    of every branch come from one posteriors call, which is elementwise per
    row, so every value is bitwise that of one belief alone.
    """
    weights = np.vecdot(beliefs[:, None, :], table[None])
    live = weights > 0.0
    rows, cues = live.nonzero()
    return live.sum(axis=1), weights[rows, cues], posteriors(beliefs[rows], table[cues], zeta)


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
    table = models.likelihood_table(action.chunk_id)
    _, weights, posts = _read_branches(belief.as_array()[None, :], table, zeta)
    return _information_gain(
        shannon_entropy(belief), zip(weights.tolist(), map(entropy_bits, posts.tolist()))
    )


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
    Action tuples are built only when a caller indexes or iterates, and the
    last one indexed is kept: a memoised decision hands the same table to
    every repeat, which then picks the same policy again. A slice is another
    Policies. truncated is true when enumeration's max_policies cut the list.
    """

    __slots__ = ("actions", "ids", "truncated", "_last")

    def __init__(self, actions, ids: np.ndarray, truncated: bool = False):
        self.actions = tuple(actions)
        self.ids = ids
        self.ids.flags.writeable = False  # the selection memo shares it
        self.truncated = truncated
        self._last = (None, None)  # (index, its Action tuple)

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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Policies(self.actions, self.ids[index], self.truncated)
        if self._last[0] != index:
            self._last = index, tuple(self.actions[a] for a in self.ids[index].tolist() if a >= 0)
        return self._last[1]

    def __iter__(self):
        for row in self.ids.tolist():
            yield tuple(self.actions[a] for a in row if a >= 0)


# Node kinds of the rollout's action table.
_READ, _TYPE, _PAUSE = 0, 1, 2
# The node tables before the walk's first level: read-only, so a write to
# an empty table fails loudly.
_NO_FLOATS, _NO_INTS = np.empty(0), np.empty(0, dtype=np.int32)
_NO_FLOATS.flags.writeable = _NO_INTS.flags.writeable = False


class _Rollout:
    """The tables of one score_policies call, keyed by small integers.

    Action ids are those of the Policies table. Beliefs are interned by
    probability tuple, each with its entropy (entropy_bits, math.log2) and a
    row of a belief stack; the root belief is id 0. A node, one action from
    one belief, is keyed belief id * n_actions + action id and built once,
    in the batch of the walk level that first visits it: its terms
    (node_e, node_p) and its branches (count and offset into the flat
    weights and beliefs) sit at its position in arrays. A read's cue
    channel is built once per (belief, reliability), all the missing
    channels of a batch in one _read_branches call per reliability: the
    evidence model builds every chunk's table from its reliability alone,
    so chunks of equal reliability have bitwise-equal channels, and their
    reads share one laid-out copy of its branches. A batch's typed
    placements take their values from one _typed_values call. A typed
    placement's restriction, and a pause's own belief, are laid out only
    when some policy continues past the node, one _restrictions call per
    level. Each batch gives bitwise what its nodes built one at a time
    would: vecdot runs b @ row's dot loop, posteriors is elementwise per
    row, cumsum adds in order, and entropies stay math.log2 per belief.
    walk scores the policies over these nodes. Nothing refers back to the
    instance, so the tables are freed when score_policies returns.
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
                self.tables.setdefault(reliability, models.likelihood_table(chunk))
                self.read_chunk[aid] = chunks.setdefault(chunk, len(chunks))
            elif kind == env.TYPE:
                self.kinds[aid] = _TYPE
                self.row[aid] = len(fits)
                fits.append(placement_row(space, chunk, action.slot))
                content = space.table.chunk(chunk).kind == CONTENT
                if content and read_chunks is not None and chunk not in read_chunks:
                    self.typed_chunk[aid] = chunks.setdefault(chunk, len(chunks))
            elif kind != env.PAUSE:
                raise ValueError(f"unknown action kind {kind!r}")
        # Per typed placement: whether each ordering fits it (its placement
        # row), and the preference each ordering gives it.
        self.fits = np.array(fits) if fits else np.empty((0, len(space.orderings)))
        self.factors = np.where(self.fits > 0.0, prefs.progress_bonus, prefs.inconsistency_penalty)
        self.belief_ids = {belief.probs: 0}  # probability tuple -> belief id
        self.entropies = [entropy_bits(belief.probs)]  # belief id -> entropy
        self.stack = np.array([belief.probs])  # belief id -> probabilities
        self.channels: dict = {}  # (belief id, reliability) -> (information gain, count, offset)
        # Node tables: index[key] is the node's position, -1 before it is built.
        self.index = self.keys = _NO_INTS  # and position -> key
        self.node_e = self.node_p = _NO_FLOATS
        # A node's branch count and offset, count 0 until its branches are laid out.
        self.n_branches = self.offsets = _NO_INTS
        self.weights, self.beliefs = _NO_FLOATS, _NO_INTS  # every branch, laid out
        self.rows = 0  # rows the walk visited, over all levels

    def intern(self, rows: np.ndarray) -> list:
        """Belief ids of the rows of probabilities; a new belief gets its entropy and a stack row."""
        ids, new = [], []
        for i, probs in enumerate(map(tuple, rows.tolist())):
            bid = self.belief_ids.setdefault(probs, len(self.entropies))
            if bid == len(self.entropies):
                self.entropies.append(entropy_bits(probs))
                new.append(i)
            ids.append(bid)
        if new:
            self.stack = np.concatenate([self.stack, rows.take(new, axis=0)])
        return ids

    def read_channels(self, bids: list, reliabilities: list) -> list:
        """(information gain, branch count, branch offset) of the channel of each (belief, reliability).

        The missing channels are built in one _read_branches call per
        reliability, and their branches laid out after the others.
        """
        keys = list(zip(bids, reliabilities))
        lack: dict = {}  # reliability -> belief ids without its channel
        for bid, reliability in dict.fromkeys(keys):
            if (bid, reliability) not in self.channels:
                lack.setdefault(reliability, []).append(bid)
        for reliability, group in lack.items():
            beliefs = self.stack.take(group, axis=0)
            counts, weights, posts = _read_branches(beliefs, self.tables[reliability], self.zeta)
            children = self.intern(posts)
            offset = len(self.weights)
            self.weights = np.concatenate([self.weights, weights])
            self.beliefs = np.concatenate([self.beliefs, children], dtype=np.int32)
            ws, hs = weights.tolist(), [self.entropies[c] for c in children]
            start = 0
            for bid, count in zip(group, counts.tolist()):
                stop = start + count
                gain = _information_gain(self.entropies[bid], zip(ws[start:stop], hs[start:stop]))
                self.channels[bid, reliability] = gain, count, offset + start
                start = stop
        return [self.channels[key] for key in keys]

    def build(self, bids: list, aids: list) -> tuple:
        """(epistemic, pragmatic, branch counts, branch offsets) lists of the nodes (bids[i], aids[i]).

        A read takes its channel's gain and branches, and a batch's typed
        placements their values from one _typed_values call. A placement's
        or a pause's branches are laid out by branches, so their counts
        are 0 here.
        """
        m = len(aids)
        epistemic, pragmatic, counts, offsets = [0.0] * m, [-PAUSE_COST] * m, [0] * m, [0] * m
        reads = [i for i, aid in enumerate(aids) if self.kinds[aid] == _READ]
        if reads:
            reliabilities = [self.reliability[aids[i]] for i in reads]
            channels = self.read_channels([bids[i] for i in reads], reliabilities)
            for i, (gain, count, offset) in zip(reads, channels):
                epistemic[i], pragmatic[i], counts[i], offsets[i] = gain, -READ_COST, count, offset
        typed = [i for i, aid in enumerate(aids) if self.kinds[aid] == _TYPE]
        if typed:
            beliefs = self.stack.take([bids[i] for i in typed], axis=0)
            factors = self.factors.take([self.row[aids[i]] for i in typed], axis=0)
            values = _typed_values(beliefs, factors)
            for i, value in zip(typed, values.tolist()):
                pragmatic[i] = value
        return epistemic, pragmatic, counts, offsets

    def positions(self, bids: np.ndarray, aids: np.ndarray) -> np.ndarray:
        """Node positions of (bids[i], aids[i]), the nodes not yet built built here in one batch."""
        na = self.n_actions
        if len(self.index) < len(self.entropies) * na:
            grow = np.full(len(self.entropies) * na - len(self.index), -1, dtype=np.int32)
            self.index = np.concatenate([self.index, grow])
        at = bids * na + aids
        pos = self.index[at]
        new = pos < 0
        if new.any():
            self.index[at[new]] = -2
            fresh = np.flatnonzero(self.index == -2)
            self.index[fresh] = np.arange(len(self.keys), len(self.keys) + len(fresh))
            bids, aids = np.divmod(fresh, na)
            epistemic, pragmatic, counts, offsets = self.build(bids.tolist(), aids.tolist())
            self.keys = np.concatenate([self.keys, fresh], dtype=np.int32)
            self.node_e = np.concatenate([self.node_e, epistemic])
            self.node_p = np.concatenate([self.node_p, pragmatic])
            self.n_branches = np.concatenate([self.n_branches, counts], dtype=np.int32)
            self.offsets = np.concatenate([self.offsets, offsets], dtype=np.int32)
            pos = self.index[at]
        return pos

    def branches(self, pos: np.ndarray) -> tuple:
        """Branch counts and offsets of the nodes at pos, laid out on first need.

        A placement or a pause has one branch of weight 1.0. A pause keeps
        its belief; a placement restricts it to the orderings it fits, all
        the placements of one call in one batch. A placement that
        contradicts every live ordering keeps the belief: the penalty
        already scored it.
        """
        counts = self.n_branches[pos]
        if not counts.all():
            lack = np.zeros(len(self.keys), dtype=bool)
            lack[pos[counts == 0]] = True
            lack = np.flatnonzero(lack)
            bids, aids = np.divmod(self.keys[lack], self.n_actions)
            targets, aids = bids.tolist(), aids.tolist()
            typed = [i for i, aid in enumerate(aids) if self.kinds[aid] == _TYPE]
            if typed:
                beliefs = self.stack.take([targets[i] for i in typed], axis=0)
                fits = self.fits.take([self.row[aids[i]] for i in typed], axis=0)
                live, posts = _restrictions(beliefs, fits)
                restricted = [i for i, ok in zip(typed, live.tolist()) if ok]
                for i, bid in zip(restricted, self.intern(posts)):
                    targets[i] = bid
            self.n_branches[lack] = 1
            self.offsets[lack] = np.arange(len(self.weights), len(self.weights) + len(lack))
            self.weights = np.concatenate([self.weights, np.ones(len(lack))])
            self.beliefs = np.concatenate([self.beliefs, targets], dtype=np.int32)
            counts = self.n_branches[pos]
        return counts, self.offsets[pos]

    def terms(self, pos: np.ndarray, paid) -> tuple:
        """(epistemic, pragmatic) of rows at node positions pos, less the unread cost where paid."""
        epistemic, pragmatic = self.node_e[pos], self.node_p[pos]
        if paid is not None:
            pragmatic[paid] -= self.prefs.unread_cost
        return epistemic, pragmatic

    def unread(self, columns: np.ndarray) -> np.ndarray | None:
        """Per entry of columns (the policies' ids, one row per column): whether it pays the unread cost.

        An action pays it when it types a content chunk that was neither
        read before the policies start nor by an earlier action of the same
        policy, whichever branch the row took. None when no action can pay.
        """
        if max(self.typed_chunk) < 0:
            return None
        # The -1 pad indexes the last entry, which is its own.
        typed_at = np.array(self.typed_chunk, dtype=np.int32)[columns]
        read_at = np.array(self.read_chunk, dtype=np.int32)[columns]
        pays = typed_at >= 0
        for d in range(1, len(columns)):
            pays[d] &= ~(read_at[:d] == typed_at[d]).any(axis=0)
        return pays

    def walk(self, ids: np.ndarray) -> tuple:
        """(epistemic, pragmatic) arrays over the policies, rows of action ids, from the root belief.

        Level d has one row per (policy, branch path) that reaches the
        policy's action d; level 0 is the policies. A row whose policy goes
        on has one child row per branch of its node, laid out by branch
        position k. Bottom-up, each row takes its node's terms, less the
        unread cost where it pays it, then adds w_k * child for k in branch
        order, one elementwise multiply and add at a time: the order and
        rounding of scoring each policy alone, so every value is bitwise the
        same. Policies are walked POLICIES_PER_WALK at a time over the same
        nodes, which bounds the rows held at once.
        """
        n, width = ids.shape
        if width == 1:
            # One action per policy: the rows are the policies, and these
            # small decisions need only their nodes' terms, not the tables.
            self.rows += n
            aids = ids[:, 0].tolist()
            epistemic, pragmatic, _, _ = self.build([0] * n, aids)
            for i, aid in enumerate(aids):
                if self.typed_chunk[aid] >= 0:
                    pragmatic[i] -= self.prefs.unread_cost
            return np.array(epistemic), np.array(pragmatic)
        # One contiguous array per column: a level's gather is a 1-D take.
        columns = ids.T.copy()
        pays = self.unread(columns)

        def scored(pol):
            """(epistemic, pragmatic) of each of the policies pol."""
            bel = np.zeros(len(pol), dtype=np.int32)
            # Per level: node positions, rows paying the unread cost, parent
            # rows, children per branch position, and the children's branches.
            # Terms are looked up again on the way back up, so a level holds
            # no floats.
            levels = []
            for d in range(width):
                self.rows += len(pol)
                pos = self.positions(bel, columns[d][pol])
                paid = None if pays is None else pays[d][pol]
                parents = np.flatnonzero(columns[d + 1][pol] >= 0) if d + 1 < width else ()
                if not len(parents):
                    break
                n_children, first = self.branches(pos[parents])
                # Parents with most children first: the parents of the k-th
                # children are a prefix, m[k] long, and the children are laid
                # out k by k.
                order = np.argsort(-n_children, kind="stable")
                parents, n_children, first = parents[order].astype(np.int32), n_children[order], first[order]
                m = np.bincount(n_children)[::-1].cumsum()[::-1][1:]
                k = np.repeat(np.arange(len(m), dtype=np.int32), m)
                i = np.arange(len(k), dtype=np.int32) - np.repeat((np.cumsum(m) - m).astype(np.int32), m)
                branch = first[i] + k
                levels.append((pos, paid, parents, m.tolist(), branch))
                pol, bel = pol[parents[i]], self.beliefs[branch]
            del pol, bel
            epistemic, pragmatic = self.terms(pos, paid)
            while levels:
                pos, paid, parents, m, branch = levels.pop()
                above_e, above_p = self.terms(pos, paid)
                weight = self.weights[branch]
                start = 0
                for size in m:
                    rows, w, stop = parents[:size], weight[start:start + size], start + size
                    above_e[rows] += w * epistemic[start:stop]
                    above_p[rows] += w * pragmatic[start:stop]
                    start = stop
                epistemic, pragmatic = above_e, above_p
            return epistemic, pragmatic

        parts = [
            scored(np.arange(start, min(start + POLICIES_PER_WALK, n), dtype=np.int32))
            for start in range(0, n, POLICIES_PER_WALK)
        ]
        return tuple(np.concatenate(column) for column in zip(*parts))


def policy_scores(
    belief: Categorical,
    policies,
    models: ReadingEvidenceModel,
    prefs: PreferenceVector,
    w_e: float = 1.0,
    w_p: float = 1.0,
    read_chunks: frozenset[int] | None = None,
    zeta: float = 1.0,
) -> tuple[tuple[EFEDecomposition, ...], np.ndarray]:
    """score_policies' EFE of each policy, with the totals as one read-only array.

    The totals are -(w_e * epistemic) - (w_p * pragmatic) over the arrays
    the walk returns, elementwise, so each is bitwise the total of its
    EFEDecomposition.
    """
    policies = Policies.of(policies)
    if not policies:
        return (), np.empty(0)
    epistemic, pragmatic = _Rollout(models, prefs, zeta, policies, read_chunks, belief).walk(policies.ids)
    totals = -(w_e * epistemic) - (w_p * pragmatic)
    efes = tuple(map(EFEDecomposition, epistemic.tolist(), pragmatic.tolist(), totals.tolist()))
    totals.flags.writeable = False
    return efes, totals


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

    policies is a Policies or any sequence of action sequences. Each
    policy's belief is rolled forward through every predicted observation
    branch: reads branch over cues, typed placements restrict the belief to
    consistent orderings. All policies share one set of nodes (see
    _Rollout), dropped on return. read_chunks marks source chunks already
    fixated before the policies start (defaults to all, so unread costs
    never apply).
    """
    efes, _ = policy_scores(belief, policies, models, prefs, w_e, w_p, read_chunks, zeta)
    return efes


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
    return Categorical(tuple((weights / weights.sum()).tolist()))


def surprisal(probability: float) -> float:
    """Negative log2 probability with a floor against log(0)."""
    return -math.log2(max(probability, PROB_FLOOR))
