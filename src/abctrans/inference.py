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
walk. Each row sums its node's terms and its children's in the order and
rounding of scoring that policy alone, so totals are bitwise equal either
way. posteriors is the one conditioning rule, over a 2-D likelihood with one
row per observation; bayes_update is its one-row case.
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


class _Rollout:
    """The tables of one score_policies call, keyed by small integers.

    Action ids are those of the Policies table, and beliefs are interned by
    probability tuple (with their entropy). A node, one action from one
    belief, is built once, keyed belief id * n_actions + action id; a typed
    placement's restriction is built only when some policy continues past
    it. A read's cue channel is built once per (belief, reliability): the
    evidence model builds every chunk's table from its reliability alone,
    so chunks of equal reliability have bitwise-equal channels. walk scores
    the policies over these nodes. Nothing refers back to the instance, so
    the tables are freed when score_policies returns.
    """

    def __init__(self, models: ReadingEvidenceModel, prefs: PreferenceVector, zeta: float,
                 policies: Policies, read_chunks):
        self.prefs, self.zeta = prefs, zeta
        self.belief_ids: dict = {}
        self.beliefs: list = []  # belief id -> (probability tuple, entropy)
        self.actions = [self.action(models, a, read_chunks) for a in policies.actions]
        self.n_actions = len(self.actions)
        self.channels: dict = {}  # (belief id, reliability) -> (information gain, cue branches)
        self.nodes: dict = {}  # belief id * n_actions + action id -> node
        self.rows = 0  # rows the walk visited, over all levels

    @staticmethod
    def action(models: ReadingEvidenceModel, action: env.Action, read_chunks) -> tuple:
        """(kind, what its node reads, chunk, whether it types an unread content chunk).

        A read's node reads its (reliability, likelihood table); a placement's
        reads its placement row, as a list and as a one-row likelihood.
        read_chunks None counts every chunk as read.
        """
        kind, chunk = action.kind, action.chunk_id
        if kind == env.FIXATE_SOURCE:
            return kind, (dict(models.reliabilities)[chunk], models.likelihood_table(chunk)), chunk, False
        if kind == env.TYPE:
            row = placement_row(models.space, chunk, action.slot)
            content = models.space.table.chunk(chunk).kind == CONTENT
            unread = content and read_chunks is not None and chunk not in read_chunks
            return kind, (row.tolist(), row[None, :]), chunk, unread
        if kind == env.PAUSE:
            return kind, None, chunk, False
        raise ValueError(f"unknown action kind {kind!r}")

    def belief(self, probs: tuple) -> int:
        bid = self.belief_ids.setdefault(probs, len(self.beliefs))
        if bid == len(self.beliefs):
            self.beliefs.append((probs, entropy_bits(probs)))
        return bid

    def node(self, bid: int, aid: int) -> list:
        """[epistemic, pragmatic, branches] of one action from one belief.

        Branches are (weights, belief ids), in branch order. A read's come
        from its (belief, reliability) channel; a typed placement's stay None
        until some policy continues past it.
        """
        kind, inputs, _, _ = self.actions[aid]
        probs, entropy = self.beliefs[bid]
        if kind == env.FIXATE_SOURCE:
            reliability, table = inputs
            channel = self.channels.get((bid, reliability))
            if channel is None:
                cues = _read_branches(np.array(probs), table, self.zeta)
                weights = tuple(w for w, _ in cues)
                beliefs = tuple(self.belief(tuple(post)) for _, post in cues)
                gain = _information_gain(entropy, [(w, self.beliefs[b][1]) for w, b in zip(weights, beliefs)])
                channel = self.channels[bid, reliability] = gain, (weights, beliefs)
            node = [channel[0], -READ_COST, channel[1]]
        elif kind == env.TYPE:
            node = [0.0, _typed_value(probs, inputs[0], self.prefs), None]
        else:
            node = [0.0, -PAUSE_COST, ((1.0,), (bid,))]
        self.nodes[bid * self.n_actions + aid] = node
        return node

    def restricted(self, bid: int, aid: int) -> tuple:
        """Branches after a typed placement: the belief restricted to the orderings it fits.

        A plan that contradicts every live ordering keeps the belief: the
        penalty already scored it.
        """
        try:
            (post,) = posteriors(np.array(self.beliefs[bid][0]), self.actions[aid][1][1]).tolist()
        except ContradictionError:
            return (1.0,), (bid,)
        return (1.0,), (self.belief(tuple(post)),)

    def unread(self, columns: np.ndarray) -> np.ndarray | None:
        """Per entry of columns (the policies' ids, one row per column): whether it pays the unread cost.

        An action pays it when it types a content chunk that was neither
        read before the policies start nor by an earlier action of the same
        policy, whichever branch the row took. None when no action can pay.
        """
        chunks: dict = {}  # chunk id -> small int; -1 and -2 match nothing
        typed, read = [-1] * (self.n_actions + 1), [-2] * (self.n_actions + 1)
        for aid, (kind, _, chunk, unread) in enumerate(self.actions):
            if unread:
                typed[aid] = chunks.setdefault(chunk, len(chunks))
            elif kind == env.FIXATE_SOURCE:
                read[aid] = chunks.setdefault(chunk, len(chunks))
        if max(typed) < 0:
            return None
        # The -1 pad indexes the last entry, which is its own.
        typed_at = np.array(typed, dtype=np.int32)[columns]
        read_at = np.array(read, dtype=np.int32)[columns]
        pays = typed_at >= 0
        for d in range(1, len(columns)):
            pays[d] &= ~(read_at[:d] == typed_at[d]).any(axis=0)
        return pays

    def walk(self, root: int, ids: np.ndarray):
        """(epistemic, pragmatic) of every policy, a row of action ids, from belief root.

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
        na = self.n_actions
        if width == 1:
            # One action per policy: the rows are the policies, and these
            # small decisions skip the array set-up.
            self.rows += n
            values = []
            for aid in ids[:, 0].tolist():
                epistemic, pragmatic, _ = self.nodes.get(root * na + aid) or self.node(root, aid)
                if self.actions[aid][3]:
                    pragmatic -= self.prefs.unread_cost
                values.append((epistemic, pragmatic))
            return values
        # One contiguous array per column: a level's gather is a 1-D take.
        columns = ids.T.copy()
        pays = self.unread(columns)
        # A node's position in the walk's arrays: its terms, and its branches
        # (count and offset into weights/beliefs) once some row continues
        # past it. index[key] is the position, -1 before the first visit.
        index = np.full(0, -1, dtype=np.int32)
        keys = []  # position -> node key
        node_e, node_p = np.empty(0), np.empty(0)
        n_branches, offsets = np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
        weights, beliefs = np.empty(0), np.empty(0, dtype=np.int32)  # every branch laid out

        def positions(pol, bel, d):
            """Node positions of rows at policy column d, and the rows that pay the unread cost."""
            nonlocal index, node_e, node_p, n_branches, offsets
            self.rows += len(pol)
            if len(index) < len(self.beliefs) * na:
                grow = np.full(len(self.beliefs) * na - len(index), -1, dtype=np.int32)
                index = np.concatenate([index, grow])
            at = bel * na + columns[d][pol]
            pos = index[at]
            new = pos < 0
            if new.any():
                index[at[new]] = -2
                fresh = np.flatnonzero(index == -2)
                index[fresh] = np.arange(len(keys), len(keys) + len(fresh), dtype=np.int32)
                nodes = [self.node(*divmod(key, na)) for key in fresh.tolist()]
                keys.extend(fresh.tolist())
                node_e = np.concatenate([node_e, [node[0] for node in nodes]])
                node_p = np.concatenate([node_p, [node[1] for node in nodes]])
                n_branches = np.concatenate([n_branches, np.zeros(len(nodes), dtype=np.int32)])
                offsets = np.concatenate([offsets, np.zeros(len(nodes), dtype=np.int32)])
                pos = index[at]
            return pos, None if pays is None else pays[d][pol]

        def terms(pos, paid):
            """(epistemic, pragmatic) of rows at node positions pos, less the unread cost where paid."""
            epistemic, pragmatic = node_e[pos], node_p[pos]
            if paid is not None:
                pragmatic[paid] -= self.prefs.unread_cost
            return epistemic, pragmatic

        def branches(pos):
            """Branch count and offset of the nodes at pos, laid out on first need."""
            nonlocal weights, beliefs
            counts = n_branches[pos]
            if not counts.all():
                lack = np.zeros(len(keys), dtype=bool)
                lack[pos[counts == 0]] = True
                lack = np.flatnonzero(lack)
                sizes, new_w, new_b = [], [], []
                for i in lack.tolist():
                    node = self.nodes[keys[i]]
                    if node[2] is None:
                        node[2] = self.restricted(*divmod(keys[i], na))
                    ws, bs = node[2]
                    sizes.append(len(ws))
                    new_w.extend(ws)
                    new_b.extend(bs)
                n_branches[lack] = sizes
                offsets[lack] = np.cumsum(sizes) - sizes + len(weights)
                weights = np.concatenate([weights, new_w])
                beliefs = np.concatenate([beliefs, np.array(new_b, dtype=np.int32)])
                counts = n_branches[pos]
            return counts, offsets[pos]

        def scored(pol):
            """(epistemic, pragmatic) of each of the policies pol."""
            bel = np.full(len(pol), root, dtype=np.int32)
            # Per level: node positions, rows paying the unread cost, parent
            # rows, children per branch position, and the children's branches.
            # Terms are looked up again on the way back up, so a level holds
            # no floats.
            levels = []
            for d in range(width):
                pos, paid = positions(pol, bel, d)
                parents = np.flatnonzero(columns[d + 1][pol] >= 0) if d + 1 < width else ()
                if not len(parents):
                    break
                n_children, first = branches(pos[parents])
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
                pol, bel = pol[parents[i]], beliefs[branch]
            del pol, bel
            epistemic, pragmatic = terms(pos, paid)
            while levels:
                pos, paid, parents, m, branch = levels.pop()
                above_e, above_p = terms(pos, paid)
                weight = weights[branch]
                start = 0
                for size in m:
                    rows, w, stop = parents[:size], weight[start:start + size], start + size
                    above_e[rows] += w * epistemic[start:stop]
                    above_p[rows] += w * pragmatic[start:stop]
                    start = stop
                epistemic, pragmatic = above_e, above_p
            return zip(epistemic.tolist(), pragmatic.tolist())

        values = []
        for start in range(0, n, POLICIES_PER_WALK):
            values += scored(np.arange(start, min(start + POLICIES_PER_WALK, n), dtype=np.int32))
        return values


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
    policies = Policies.of(policies)
    if not policies:
        return ()
    rollout = _Rollout(models, prefs, zeta, policies, read_chunks)
    values = rollout.walk(rollout.belief(belief.probs), policies.ids)
    return tuple(EFEDecomposition(e, p, -(w_e * e) - (w_p * p)) for e, p in values)


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
