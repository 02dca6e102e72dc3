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
plan). Each level builds the (belief, action) nodes its states need as
arrays in one batch, bitwise what building them one at a time gives (see
the helpers below), and a state that goes on has one child per cue branch
of a read or per typed restriction. Each state sums its node's terms and
its children's in the order and rounding of scoring one policy alone, so
totals are bitwise equal either way. posteriors is the one conditioning
rule, over a 2-D likelihood with one row per observation; bayes_update is
its one-row case.
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

    def __post_init__(self):
        for name in ("progress_bonus", "inconsistency_penalty", "unread_cost"):
            if not math.isfinite(getattr(self, name)):  # NaN fails too
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


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
    give no posteriors. zeta is unchecked here: its callers check it.
    """
    weighted = prior * np.power(likelihoods, zeta)
    totals = weighted.sum(axis=1, keepdims=True)
    if totals.size and not totals.min() > PROB_FLOOR:
        raise ContradictionError("observation impossible under the current belief")
    return weighted / totals


def bayes_update(prior: Categorical, likelihoods, zeta: float = 1.0) -> Categorical:
    """Posterior proportional to prior * likelihood**zeta: posteriors for one row."""
    if not 0.0 < zeta < math.inf:  # NaN fails too
        raise ValueError(f"zeta must be positive and finite, got {zeta!r}")
    lks = np.asarray(likelihoods, dtype=float)
    if lks.shape != (len(prior),):
        raise ValueError("one likelihood per option required")
    if not (lks >= 0.0).all():  # NaN fails too
        raise ValueError("likelihoods must be non-negative")
    (post,) = posteriors(prior.as_array(), lks[None, :], zeta).tolist()
    return Categorical(tuple(post))


def _read_branches(beliefs: np.ndarray, tables: np.ndarray, zeta: float):
    """The read channels of a stack of beliefs, belief i through likelihood table tables[i].

    Returns (gains, counts, weights, posteriors): gains[i] is belief i's
    expected information gain and counts[i] the number of cues with mass
    under it; the branches follow belief by belief, in cue order, one weight
    (np.vecdot, b @ row's 1-D dot loop; a matrix product rounds differently)
    and one posterior row each. posteriors is elementwise, one row_entropies
    call gives the entropies: every value is bitwise that of one belief alone.
    """
    weights = np.vecdot(beliefs[:, None, :], tables)
    live = weights > 0.0
    rows, cues = live.nonzero()
    counts, weights = live.sum(axis=1), weights[rows, cues]
    posts = posteriors(beliefs[rows], tables[rows, cues], zeta)
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
    if not 0.0 < zeta < math.inf:  # NaN fails too
        raise ValueError(f"zeta must be positive and finite, got {zeta!r}")
    if action.kind != env.FIXATE_SOURCE:
        return 0.0
    table = models.likelihood_table(action.chunk_id)
    (gain,), _, _, _ = _read_branches(belief.as_array()[None, :], table[None], zeta)
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


def _distinct(keys: np.ndarray) -> tuple:
    """(sorted distinct keys, inverse): np.unique(keys, return_inverse=True), less its overhead.

    Dense keys (none negative, the largest at most 32 per key plus 1,024)
    are counted: a presence table marks them, its nonzero entries are the
    distinct keys in order, and their positions, scattered into a table and
    gathered at the keys, are the inverse. Other keys go to np.unique, which
    sorts them when asked for the inverse, so sparse ones never get a table.
    Both give each key its rank among the distinct keys, so they return
    equal arrays, element for element.
    """
    if len(keys) and keys.min() >= 0 and (top := keys.max()) <= 32 * len(keys) + 1024:
        present = np.zeros(top + 1, dtype=bool)
        present[keys] = True
        distinct = present.nonzero()[0]
        rank = np.empty(len(present), dtype=int)
        rank[distinct] = np.arange(len(distinct))
        return distinct, rank[keys]
    return np.unique(keys, return_inverse=True)


# The most cue rows one channel batch holds: a level's missing channels are
# built in slices of at most this many (at least one belief a slice), which
# give bitwise what one batch gives. The bundled opening's largest has 1,512.
CHANNEL_ROWS = 1 << 13

# Read-only empty starts of every rollout's channel arrays, which grow by concatenation, and no reads.
_NO_FLOATS, _NO_INTS = np.empty(0), np.empty(0, dtype=int)
_NO_FLOATS.flags.writeable = _NO_INTS.flags.writeable = False


class _Rollout:
    """The tables of one score_policies call, as arrays indexed by small integers.

    Action ids are those of the Policies table. Per action id, int arrays
    hold the index of a read's table in models.tables (one per reliability)
    and a placement's row of fits and factors (-1 for other kinds, so they
    give the kind too). A belief is interned by the bytes of its probability
    row after + 0.0 (so -0.0 and 0.0 are one belief) to a row of a belief
    stack; the root is id 0. A read's cue channel is built once per (belief,
    table): channel c has gain[c] and count[c] branches, whose weights and
    child belief ids follow those of the channels before it in two flat
    arrays, and a dense channel index over belief id x table index (key
    bid * len(tables) + index), grown with the stack, holds each channel's
    id (-1 for none). Beliefs and channels are all the walk keeps across
    levels. Each level builds the nodes (one action from one belief) its
    states need, and on a level some state continues past their branches,
    in one pass (build): one _read_branches call per CHANNEL_ROWS slice of
    missing channels, one _typed_values and one _restrictions call. Nothing
    refers back to the rollout, so its tables are freed on return.
    """

    def __init__(self, models: ReadingEvidenceModel, prefs: PreferenceVector, zeta: float,
                 policies: Policies, read_chunks, belief: Categorical):
        self.prefs, self.zeta = prefs, zeta
        space = models.space
        na = self.n_actions = len(policies.actions)
        # Per action id: a read's or pause's pragmatic term, the unread cost
        # paid as a first action, then (padded for the -1 past a policy's
        # end) table index, placement row, and the small int of the unread
        # content chunk typed, or -2 less that of the chunk read.
        m = na + 1
        cost, first, rel, row, chunk_of = [-PAUSE_COST] * na, [0.0] * na, [-1] * m, [-1] * m, [-1] * m
        fits, chunks = [], {}
        for aid, action in enumerate(policies.actions):
            kind, chunk = action.kind, action.chunk_id
            if kind == env.FIXATE_SOURCE:
                cost[aid] = -READ_COST
                rel[aid] = models.table_of[chunk]
                chunk_of[aid] = -2 - chunks.setdefault(chunk, len(chunks))
            elif kind == env.TYPE:
                row[aid] = len(fits)
                fits.append(placement_row(space, chunk, action.slot))
                unread = read_chunks is not None and chunk not in read_chunks
                if unread and space.table.chunk(chunk).kind == CONTENT:
                    chunk_of[aid] = chunks.setdefault(chunk, len(chunks))
                    first[aid] = prefs.unread_cost
            elif kind != env.PAUSE:
                raise ValueError(f"unknown action kind {kind!r}")
        self.unread_typed = any(first)  # whether a first action pays a (nonzero) unread cost
        costs, columns = np.array(cost + first), np.array(rel + row + chunk_of)
        self.cost, self.first_cost = costs[:na], costs[na:]
        self.rel, self.row, self.chunk = columns[:m], columns[m:2 * m], columns[2 * m:]
        # Per typed placement and ordering: whether it fits, and its preference.
        self.fits = np.array(fits) if fits else np.empty((0, len(space.orderings)))
        self.factors = np.where(self.fits > 0.0, prefs.progress_bonus, prefs.inconsistency_penalty)
        self.stack = np.array([belief.probs]) + 0.0  # belief id -> probabilities; the root is 0
        self.belief_ids = {self.stack.tobytes(): 0}  # row bytes (see intern) -> belief id
        # Table index -> likelihood table and the dense channel index, if some action reads.
        self.tables, self.channel = (models.tables, np.full(len(models.tables), -1)) if max(rel) >= 0 else ((), ())
        self.gain, self.count, self.weights, self.beliefs = _NO_FLOATS, _NO_INTS, _NO_FLOATS, _NO_INTS
        self.states = 0  # states the level walk visited, over all levels

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """Belief ids of the rows, keyed by their bytes after + 0.0 (-0.0 is 0.0); new ones are stacked."""
        rows = rows + 0.0
        ids = self.belief_ids
        known = len(ids)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
        # Ids are handed out in row order: a new belief's first row is where
        # the running maximum of the ids, from known - 1, rises.
        bids = np.array([known - 1] + [ids.setdefault(key, len(ids)) for key in keys])
        if len(ids) > known:
            top = np.maximum.accumulate(bids)
            self.stack = np.concatenate([self.stack, rows[(top[1:] > top[:-1]).nonzero()[0]]])
        return bids[1:]

    def channels(self, bids: np.ndarray, rels: np.ndarray, laid: bool) -> np.ndarray:
        """Channel ids of the (belief id, table index) pairs; missing ones are built first."""
        n_rel = len(self.tables)
        grow = len(self.stack) * n_rel - len(self.channel)
        if grow:
            self.channel = np.concatenate([self.channel, np.full(grow, -1)])
        keys = bids * n_rel + rels
        lack = (self.channel[keys] < 0).nonzero()[0]
        if len(lack):
            # Each missing pair's entry keeps one of the positions written
            # to it: the positions that kept theirs are the distinct pairs.
            missing = keys[lack]
            self.channel[missing] = lack
            new = lack[self.channel[missing] == lack]
            self.channel[keys[new]] = np.arange(len(self.gain), len(self.gain) + len(new))
            step = max(1, CHANNEL_ROWS // self.stack.shape[1])
            for part in (new[start:start + step] for start in range(0, len(new), step)):
                beliefs, tables = self.stack.take(bids[part], axis=0), self.tables.take(rels[part], axis=0)
                gains, counts, weights, posts = _read_branches(beliefs, tables, self.zeta)
                self.gain = np.concatenate([self.gain, gains])
                self.count = np.concatenate([self.count, counts if laid else np.zeros_like(counts)])
                if laid:
                    self.weights = np.concatenate([self.weights, weights])
                    self.beliefs = np.concatenate([self.beliefs, self.intern(posts)])
        return self.channel[keys]

    def build(self, bids: np.ndarray, aids: np.ndarray, laid: bool) -> tuple:
        """(epistemic, pragmatic, branches) of the nodes (bids[i], aids[i]).

        A read takes its channel's gain; the placements take theirs from one
        _typed_values call. Unless laid (a walk's last level), new channels
        keep no branches and count 0, and branches is None. If laid, branches
        is (counts, weights, belief ids) of every node's branches, node by
        node: a read has its channel's, in cue order. A pause has one branch
        of weight 1.0 to its belief, a placement one to its belief restricted
        to the orderings it fits, or to its belief if it contradicts them all
        (the penalty has scored it); one batch restricts them all.
        """
        epistemic, pragmatic, channel = np.zeros(len(aids)), self.cost[aids], self.rel[aids]
        reads = (channel >= 0).nonzero()[0] if len(self.tables) else _NO_INTS  # no table, no read
        if len(reads):
            channel[reads] = found = self.channels(bids[reads], channel[reads], laid)
            epistemic[reads] = self.gain[found]
        rows = self.row[aids]
        typed = (rows >= 0).nonzero()[0]
        targets = bids
        if len(typed):
            beliefs, rows = self.stack.take(bids[typed], axis=0), rows[typed]
            pragmatic[typed] = _typed_values(beliefs, self.factors.take(rows, axis=0))
            if laid:
                live, posts = _restrictions(beliefs, self.fits.take(rows, axis=0))
                targets = bids.copy()
                targets[typed[live]] = self.intern(posts)
        if not laid:
            return epistemic, pragmatic, None
        counts, offsets = np.ones(len(aids), dtype=int), np.full(len(aids), -1)
        counts[reads] = self.count[channel[reads]]
        offsets[reads] = (self.count.cumsum() - self.count)[channel[reads]]
        # Branch j of node i is channel entry offsets[i] + j, or -1 for a
        # node's one branch of weight 1.0 to its target.
        j = np.arange(counts.sum()) - np.repeat(counts.cumsum() - counts, counts)
        at = np.repeat(offsets, counts) + j
        weights, beliefs = np.ones(len(at)), np.repeat(targets, counts)
        read = at >= 0
        weights[read], beliefs[read] = self.weights[at[read]], self.beliefs[at[read]]
        return epistemic, pragmatic, (counts, weights, beliefs)

    def unread(self, columns: np.ndarray) -> np.ndarray:
        """Per entry of columns (the policies' ids, one row per column): whether it pays the unread cost.

        An action pays it when it types a content chunk that was neither
        read before the policies start nor by an earlier action of the same
        policy, whichever branches it takes.
        """
        typed_at = self.chunk[columns]  # the -1 pad indexes the last entry, which is its own
        read_at, pays = -2 - typed_at, typed_at >= 0
        for d in range(1, len(columns)):
            pays[d] &= ~(read_at[:d] == typed_at[d]).any(axis=0)
        return pays

    def walk(self, ids: np.ndarray) -> tuple:
        """(epistemic, pragmatic) arrays over the policies, rows of action ids, from the root belief.

        A policy's tail at level d is its actions from d on together with
        whether each pays the unread cost. Tails are numbered bottom-up, one
        _distinct per level over (action, paid, id of the rest), so equal
        tails share an id; a tail reads its action, paid bit and rest off a
        row a scatter picks (np.unique's first rows need a stable sort). A
        state is a (belief id, tail id) pair, and its value depends on the
        pair alone: EFE is a recursion over (belief, remaining plan), and
        equal keys run the same arithmetic on the same numbers. Level 0
        holds one state per distinct policy, at the root belief. Each level
        builds its states' nodes and, if some state goes on, their branches
        in the same pass, and gives each such state one child per branch of
        its node, k by k, parents with most children first by a stable
        sort of their counts in a small int dtype (a radix sort); the next
        level holds the children's distinct states. Bottom-up, each state
        takes its node's terms, less the unread cost where its action pays
        it, then adds w_k * child for k in branch order, one elementwise
        multiply and add at a time: the order and rounding of scoring each
        policy alone, so every value is bitwise the same. Tails, states and
        nodes are deduplicated by _distinct, which counts dense keys in a
        presence table (on every opening measured, all calls but one of a
        generated 5x12 horizon-5 opening) and sorts others; each key gets
        its rank among the distinct keys, so the arrays are equal.

        One action per policy, a selection by the width of ids alone: these
        small decisions (every head-starter decision, every planner decision
        after the opening) need only their nodes' terms less each action's
        first-action unread cost (x - 0.0 is x, -0.0 included), bitwise what
        the level walk gives. Through the level walk, compare_sweep measured
        a p90 of 2.85-2.91 ref per op instead of 2.28-2.37.
        """
        n, width = ids.shape
        if width == 1:
            aids = ids[:, 0].astype(int)  # an int32 index costs a cast in every gather
            epistemic, pragmatic, _ = self.build(np.zeros(n, dtype=int), aids, False)
            if self.unread_typed:
                pragmatic -= self.first_cost[aids]
            return epistemic, pragmatic
        na = self.n_actions
        small = np.min_scalar_type(-self.fits.shape[1])  # fits a node's negated branch count
        columns = ids.T  # row d: each policy's action d
        pays = self.unread(columns)
        # Per level, per tail: its action, whether that pays, the id of its
        # rest, and whether the rest holds an action. Past the last level
        # every policy has the empty tail 0, which holds none.
        tail, holds = np.zeros(n, dtype=int), np.zeros(1, dtype=bool)
        heads = []
        for d in reversed(range(width)):
            key, inverse = _distinct((tail * (na + 1) + columns[d] + 1) * 2 + pays[d])
            first = np.empty(len(key), dtype=int)
            first[inverse] = np.arange(n)
            action, rest = columns[d][first], tail[first]
            heads.append((action, pays[d][first], rest, holds[rest]))
            tail, holds = inverse, action >= 0

        bel = np.zeros(n, dtype=int)  # each policy starts at the root belief
        # Per level: each entry's state (entries are the policies on level 0,
        # then the children of the level above), the states' terms, and, if
        # states go on, each child's parent state and weight, k by k.
        levels = []
        for action, paid, rest, goes_on in reversed(heads):
            keys, up = _distinct(bel * len(action) + tail)
            bel, tail = np.divmod(keys, len(action))
            self.states += len(keys)
            nodes, at = _distinct(bel * na + action[tail])
            node_bel, node_aid = np.divmod(nodes, na)
            parents = goes_on[tail].nonzero()[0]
            epistemic, pragmatic, branches = self.build(node_bel, node_aid, len(parents) > 0)
            epistemic, pragmatic = epistemic[at], pragmatic[at]
            pragmatic[paid[tail]] -= self.prefs.unread_cost
            levels.append((up, epistemic, pragmatic))
            if not len(parents):
                break
            counts, weights, beliefs = branches
            at = at[parents]
            n_children, first = counts[at], (counts.cumsum() - counts)[at]
            # Parents with most children first: the parents of the k-th
            # children are a prefix, m[k] long, and the children are laid
            # out k by k.
            order = np.argsort((-n_children).astype(small), kind="stable")
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
    if not 0.0 < zeta < math.inf:  # NaN fails too
        raise ValueError(f"zeta must be positive and finite, got {zeta!r}")
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
    if not 0.0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be non-negative and finite, got {gamma!r}")
    totals = np.asarray(totals, dtype=float)
    if totals.size == 0:
        raise ValueError("need at least one policy")
    if not np.isfinite(totals).all():
        raise ValueError(f"totals must be finite, got {totals.tolist()!r}")
    scores = -gamma * totals
    scores -= scores.max()
    weights = np.exp(scores)
    return Categorical(tuple((weights / weights.sum()).tolist()))


def surprisal(probability: float) -> float:
    """Negative log2 probability with a floor against log(0)."""
    return -math.log2(max(probability, PROB_FLOOR))
