"""Three-layer translation agent: affective precision, policy selection, belief upkeep.

The affective layer turns a surprisal moving average into two precisions
(gamma for policy selection, zeta for sensory trust), the behavioral layer
enumerates and commits to action policies scored by expected free energy, and
the cognitive layer maintains two beliefs over candidate orderings: an
evidence belief fed only by reading cues, and a working belief that
additionally rules out orderings contradicted by typed placements. The
mismatch between the two drives revision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import environment as env
from .inference import (
    ContradictionError,
    Policies,
    PreferenceVector,
    bayes_update,
    condition_row,
    expected_free_energy,  # unused here; perfbench/run.py wraps agent.expected_free_energy
    policy_posterior,
    score_policies,
    shannon_entropy,
    surprisal as surprisal_bits,
)
from .task import (
    Categorical,
    CandidateSpace,
    ReadingEvidenceModel,
)
from .trace import Trace

HEAD_STARTER = "head_starter"
LARGE_CONTEXT_PLANNER = "large_context_planner"
CUSTOM = "custom"

# Fixed affective constants: surprise lowers gamma at SURPRISE_GAIN, never
# below GAMMA_MIN, and raises zeta from ZETA_BASE at ZETA_GAIN, within
# [ZETA_MIN, ZETA_MAX]. A hesitation pause is injected when the policy
# posterior is flatter than THETA_HESITATION bits or gamma sags below
# THETA_GAMMA.
SURPRISE_GAIN = 1.0
GAMMA_MIN = 0.05
ZETA_BASE = 1.0
ZETA_GAIN = 0.15
ZETA_MIN = 0.5
ZETA_MAX = 2.0
THETA_HESITATION = 2.5
THETA_GAMMA = 1.0

# Motor durations used to timestamp trace events (milliseconds).
FIXATION_MS = 200.0
KEYSTROKE_MS_PER_CHAR = 120.0
PAUSE_MS = 800.0
DELETE_MS_PER_CHAR = 100.0


@dataclass(frozen=True)
class AffectiveState:
    gamma: float
    zeta: float
    surprise_ema: float = 0.0

    def __post_init__(self):
        # Written as "not valid" so that NaN fails too.
        if not self.surprise_ema >= 0.0:
            raise ValueError(f"surprise average must be non-negative, got {self.surprise_ema!r}")
        if not (0.0 < self.gamma < math.inf and 0.0 < self.zeta < math.inf):
            raise ValueError(f"precisions must be positive and finite, got {self.gamma!r} and {self.zeta!r}")


@dataclass(frozen=True)
class CognitiveState:
    """Beliefs plus the bookkeeping of what has been read and typed.

    belief is the working distribution used for action selection: it assigns
    exactly zero mass to orderings inconsistent with placed slots.
    evidence_belief integrates reading cues only, so it can keep alive an
    ordering the buffer currently contradicts; that divergence is what the
    revision rule watches.
    """

    belief: Categorical
    evidence_belief: Categorical
    placed: tuple[tuple[int, int], ...] = ()  # (slot, chunk id), sorted by slot
    read_set: frozenset[int] = frozenset()


@dataclass(frozen=True)
class BehavioralState:
    current_policy: tuple[env.Action, ...] = ()
    last_action_kind: str | None = None


@dataclass(frozen=True)
class AgentConfig:
    strategy: str = CUSTOM
    w_e: float = 1.0
    w_p: float = 1.0
    horizon: int | None = 1  # None: number of unread content chunks, floored at 1
    gamma_max: float = 8.0
    beta: float = 0.2
    sample_policies: bool = False
    max_policies: int = 4096
    prefs: PreferenceVector = PreferenceVector()

    def __post_init__(self):
        if self.strategy not in (CUSTOM, HEAD_STARTER, LARGE_CONTEXT_PLANNER):  # a typo would skip the preset checks
            raise ValueError(f"strategy must be {CUSTOM!r}, {HEAD_STARTER!r} or {LARGE_CONTEXT_PLANNER!r}, "
                             f"got {self.strategy!r}")
        # type(...) is int: a bool is no count
        if not (self.horizon is None or type(self.horizon) is int and self.horizon >= 1):
            raise ValueError(f"horizon must be None or an int of at least 1, got {self.horizon!r}")
        if not (type(self.max_policies) is int and self.max_policies >= 1):
            raise ValueError(f"max_policies must be an int of at least 1, got {self.max_policies!r}")
        # Written as "not valid" so that NaN fails too.
        for name in ("w_e", "w_p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not 0.0 < self.gamma_max < math.inf:
            raise ValueError(f"gamma_max must be positive and finite, got {self.gamma_max!r}")
        if self.strategy == HEAD_STARTER:
            if not (self.w_p > self.w_e and self.horizon == 1):
                raise ValueError("head starter preset requires w_p > w_e and horizon 1")
        if self.strategy == LARGE_CONTEXT_PLANNER:
            if not (self.w_e > self.w_p and self.horizon is None):
                raise ValueError("planner preset requires w_e > w_p and a dynamic horizon")
        # The selection memo hashes the config on every lookup; the fields are
        # frozen, so their hash (the one dataclass would compute) is taken once.
        object.__setattr__(self, "_hash", hash(self.__reduce__()[1]))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a str's hash differs between processes.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def head_starter_config(**overrides) -> AgentConfig:
    """Types as soon as a placement looks good; resolves uncertainty through action."""
    base = dict(
        strategy=HEAD_STARTER,
        w_e=0.25,
        w_p=1.0,
        horizon=1,
        gamma_max=16.0,
        prefs=PreferenceVector(
            progress_bonus=1.0,
            inconsistency_penalty=-1.5,
            unread_cost=0.3,
        ),
    )
    base.update(overrides)
    return AgentConfig(**base)


def large_context_planner_config(**overrides) -> AgentConfig:
    """Reads the whole sentence first; resolves uncertainty before action."""
    base = dict(
        strategy=LARGE_CONTEXT_PLANNER,
        w_e=8.0,
        w_p=0.25,
        horizon=None,
        gamma_max=4.0,
        prefs=PreferenceVector(
            progress_bonus=0.025,
            inconsistency_penalty=-20.0,
            unread_cost=1.0,
        ),
    )
    base.update(overrides)
    return AgentConfig(**base)


PRESETS = {
    HEAD_STARTER: head_starter_config,
    LARGE_CONTEXT_PLANNER: large_context_planner_config,
}


@dataclass(frozen=True)
class AgentState:
    affective: AffectiveState
    cognitive: CognitiveState
    behavioral: BehavioralState
    clock_ms: float = 0.0


def initial_agent_state(space: CandidateSpace, cfg: AgentConfig) -> AgentState:
    belief = space.prior
    affective = AffectiveState(gamma=cfg.gamma_max, zeta=ZETA_BASE, surprise_ema=0.0)
    cognitive = CognitiveState(belief=belief, evidence_belief=belief)
    return AgentState(affective=affective, cognitive=cognitive, behavioral=BehavioralState())


def update_affect(state: AffectiveState, observation_surprisal: float, cfg: AgentConfig) -> AffectiveState:
    """Fold one observation's surprisal into the precision estimates.

    High running surprise lowers gamma (less trust in predictions, flatter
    policy selection) and raises zeta (more weight on incoming evidence).
    """
    if not observation_surprisal >= 0.0:  # NaN fails too
        raise ValueError(f"surprisal must be non-negative, got {observation_surprisal!r}")
    ema = (1.0 - cfg.beta) * state.surprise_ema + cfg.beta * observation_surprisal
    gamma = min(cfg.gamma_max, max(GAMMA_MIN, cfg.gamma_max * math.exp(-SURPRISE_GAIN * ema)))
    zeta = min(ZETA_MAX, max(ZETA_MIN, ZETA_BASE * (1.0 + ZETA_GAIN * ema)))
    return AffectiveState(gamma=gamma, zeta=zeta, surprise_ema=ema)


def _next_actions(
    space: CandidateSpace,
    read: int,
    filled: int,
    live: int,
    paused: bool,
) -> list[tuple[env.Action, int]]:
    """The admissibility rule: every possible next action, with the live orderings it leaves.

    The inputs are bitmasks: read has bit p set when the chunk at source
    position p has been read, filled bit s - 1 when target slot s holds a
    chunk, and live bit i when ordering i is live. Reads take unread source
    chunks. Typing is append-like: only the leftmost empty target slot
    accepts text, so revision means deleting back to a slot and retyping. A
    chunk is typable there under at least one live ordering, and only typing
    narrows the live orderings. Live orderings are already consistent with
    the buffer: at a decision they are the working belief's support, and
    inside enumeration each typed slot has narrowed them. So the rule reads
    the buffer only through its cursor. Typing candidates are ordered
    most-informative first (the space's typing order: descending positional
    entropy of the chunk, then chunk id) to fix the pruning order
    deterministically. Pauses never repeat back to back. A complete
    translation admits nothing.
    """
    cursor = (~filled & (filled + 1)).bit_length()  # the leftmost empty slot, 1-based
    if cursor > len(space._slot_masks):
        return []
    acts = [(env.fixate_source(c), live) for p, c in enumerate(space.table.source_order) if not read >> p & 1]
    at_cursor = space._slot_masks[cursor - 1]
    for chunk in space._typing_order:
        survivors = live & at_cursor[chunk]
        if survivors:
            acts.append((env.type_chunk(chunk, cursor), survivors))
    if not paused:
        acts.append((env.pause(), live))
    return acts


def _rule_input(cognitive: CognitiveState, space: CandidateSpace) -> tuple[int, int, int]:
    """The rule's read, filled and live bitmasks at a decision; the live orderings are the belief's support."""
    read_set = cognitive.read_set
    read = sum([1 << p for p, c in enumerate(space.table.source_order) if c in read_set])
    filled = sum([1 << (slot - 1) for slot, _ in cognitive.placed])
    live = sum([1 << i for i, p in enumerate(cognitive.belief.probs) if p > 0.0])
    return read, filled, live


def enumerate_policies(
    cognitive: CognitiveState,
    space: CandidateSpace,
    horizon: int,
    cfg: AgentConfig,
    last_was_pause: bool = False,
) -> Policies:
    """All admissible action sequences up to the horizon, capped and ordered.

    Admissibility (``_next_actions``) is simulated over a state graph built
    per call. A state is what the rule reads (the read, filled and live
    bitmasks and whether the last action paused) plus, right after a read,
    how many of the reads the rule lists it skips. Many prefixes reach one
    state, and the rule runs once per distinct input. The rows are built
    level by level from the states' edges, each row's children in the
    rule's order, so they come out in depth-first order: two policies are
    ordered by the rule's order at the first action where they differ. A
    policy that completes the translation early is padded with -1 to the
    horizon. The result is one Policies table, its actions in the order the
    state walk met them; it is empty only when the translation is already
    complete. The first cfg.max_policies rows are kept, and
    truncated says whether the cap cut any: every row in progress ends as
    at least one policy, so each level keeps only its first
    cfg.max_policies rows, which bounds the work when the cap fires.

    Level 0 is the rule's list at the decision, as it gives it: its actions
    are ids 0, 1, ... in that order, so a horizon of 1 needs no state graph.
    """
    if not (type(horizon) is int and horizon >= 1):  # a bool is no horizon
        raise ValueError(f"horizon must be an int of at least 1, got {horizon!r}")
    root = (*_rule_input(cognitive, space), last_was_pause)
    acts = _next_actions(space, *root)
    actions = [action for action, _ in acts]  # the root's are distinct
    cap = cfg.max_policies
    truncated = len(acts) > cap
    if horizon == 1 or not acts:
        return Policies(actions, np.arange(min(len(acts), cap), dtype=np.int32).reshape(-1, horizon), truncated)
    position = {c: p for p, c in enumerate(space.table.source_order)}
    # Enumeration shares one Action per (kind, chunk, slot), so its identity
    # is a key that costs no generated __hash__.
    action_ids = {id(action): aid for aid, action in enumerate(actions)}
    # Edge 0 pads a policy that has ended: it has no action and leads back
    # to itself, and a state the rule admits nothing in has it as its edge.
    # The root's edges are 1, 2, ..., edge e taking action e - 1.
    rule: dict = {root: (1, len(acts))}  # rule input -> (first edge, edge count)
    edge_action: list[int] = [-1, *range(len(acts))]  # per edge: its action id
    edge_first: list[int] = [0] + [-1] * len(acts)  # per edge: the next state's first edge, -1 until a level needs it
    edge_count: list[int] = [1] + [-1] * len(acts)  # per edge: the next state's edge count
    edge_act: list = [None, *acts]  # per edge: (action, live orderings after it), as the rule gave it
    edge_from: list = [None] + [root] * len(acts)  # per edge: the rule input it leaves

    def edges_of(inputs, skip: int) -> tuple[int, int]:
        """A state's first edge and edge count; a new rule input's edges are listed here."""
        entry = rule.get(inputs)
        if entry is None:
            acts = _next_actions(space, *inputs)
            aids = [action_ids.get(id(action)) for action, _ in acts]
            if None in aids:
                for i, (action, _) in enumerate(acts):
                    if aids[i] is None:
                        aids[i] = action_ids[id(action)] = len(actions)
                        actions.append(action)
            entry = rule[inputs] = len(edge_action), len(acts)
            edge_action.extend(aids)
            edge_first.extend([-1] * len(acts))
            edge_count.extend([-1] * len(acts))
            edge_act.extend(acts)
            edge_from.extend([inputs] * len(acts))
        if entry[1] == skip:
            return 0, 1
        return entry[0] + skip, entry[1] - skip

    # Each level's rows end in edges, in depth-first order: the first
    # level's are the root's, and a row's children take the edges of the
    # state its last edge leads to, in order, after the children of the
    # rows before it.
    rows = np.arange(1, 1 + min(len(acts), cap))[:, None]  # each row's edges so far
    for _ in range(1, horizon):
        edge = rows[:, -1]
        for e in set(edge.tolist()):
            if edge_first[e] >= 0:
                continue
            # Follow the edge to its state: (rule input, reads skipped).
            (read, filled, live, _), (action, survivors) = edge_from[e], edge_act[e]
            if action.kind == env.FIXATE_SOURCE:
                # Within a consecutive run of reads, chunks are taken in
                # source order: read permutations are outcome-equivalent, so
                # one representative per read set suffices. The rule lists
                # reads first, in source order, so the next state skips the
                # reads of the unread chunks before this one.
                bit = 1 << position[action.chunk_id]
                state = (read | bit, filled, live, False), (~read & bit - 1).bit_count()
            elif action.kind == env.TYPE:
                state = (read, filled | 1 << (action.slot - 1), survivors, False), 0
            else:
                state = (read, filled, live, True), 0
            edge_first[e], edge_count[e] = edges_of(*state)
        first = np.fromiter(edge_first, np.int64, len(edge_first))[edge]
        count = np.fromiter(edge_count, np.int64, len(edge_count))[edge]
        parent = np.repeat(np.arange(len(edge)), count)
        edge = np.repeat(first - (count.cumsum() - count), count) + np.arange(len(parent))
        if len(edge) > cap:
            truncated = True
            parent, edge = parent[:cap], edge[:cap]
        rows = np.concatenate([rows[parent], edge[:, None]], axis=1)
    return Policies(actions, np.fromiter(edge_action, np.int32, len(edge_action))[rows], truncated)


@dataclass(frozen=True, eq=False)
class ScoredDecision:
    """One decision's policies, their EFE split as read-only arrays, and its policy posterior.

    The selection memo's value for one (decision, gamma): the posterior is
    policy_posterior of the totals under that gamma, with its MAP index, the
    MAP policy's actions and its entropy in bits.
    """

    policies: Policies
    epistemic: np.ndarray
    pragmatic: np.ndarray
    totals: np.ndarray
    posterior: Categorical
    map_index: int
    map_policy: tuple[env.Action, ...]
    posterior_entropy: float


@dataclass(frozen=True)
class SelectionResult:
    decision: ScoredDecision
    choice_index: int

    @property
    def policy(self) -> tuple[env.Action, ...]:
        decision = self.decision
        if self.choice_index == decision.map_index:
            return decision.map_policy
        return decision.policies[self.choice_index]


@functools.lru_cache(maxsize=65536)
def _scored_policies(
    models: ReadingEvidenceModel,
    cfg: AgentConfig,
    belief: Categorical,
    placed: tuple[tuple[int, int], ...],
    read_set: frozenset[int],
    last_was_pause: bool,
    zeta: float,
    gamma: float,
) -> ScoredDecision:
    """Every admissible policy with its EFE arrays and its posterior under gamma, as a ScoredDecision.

    A pure function of exactly what enumeration, scoring and the posterior
    read, memoised on those arguments: a repeated (decision, gamma) costs
    one lookup and can never see another decision's result. The horizon is
    cfg.horizon or, when that is None, the number of unread content chunks,
    floored at 1.
    """
    horizon = cfg.horizon
    if horizon is None:
        horizon = max(1, sum([c not in read_set for c in models.space.table.source_order]))
    # Enumeration reads the working belief, never the evidence belief.
    cognitive = CognitiveState(belief, belief, placed, read_set)
    policies = enumerate_policies(cognitive, models.space, horizon, cfg, last_was_pause)
    if not policies:
        raise ValueError("no admissible policy: translation already complete")
    scores = score_policies(
        belief, policies, models, cfg.prefs,
        w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=read_set, zeta=zeta,
    )
    posterior = policy_posterior(scores[2], gamma=gamma)
    map_index = posterior.map_index
    return ScoredDecision(
        policies, *scores, posterior, map_index, policies[map_index], shannon_entropy(posterior)
    )


clear_selection_cache = _scored_policies.cache_clear


def select_policy(
    cognitive: CognitiveState,
    affective: AffectiveState,
    models: ReadingEvidenceModel,
    cfg: AgentConfig,
    rng: np.random.Generator | None = None,
    last_was_pause: bool = False,
) -> SelectionResult:
    """Score every admissible policy by EFE and pick one under the current gamma.

    The memoised ScoredDecision of (decision, gamma) holds the policies,
    their scores and the posterior. Selection is its argmax by default
    (deterministic, ties to the enumeration order); with sample_policies the
    posterior is sampled through the episode generator. Only the agent's own
    states enter: the external state, latent ordering included, never does.
    """
    decision = _scored_policies(
        models, cfg, cognitive.belief, cognitive.placed, cognitive.read_set,
        last_was_pause, affective.zeta, affective.gamma,
    )
    if cfg.sample_policies and rng is not None:
        choice = int(rng.choice(len(decision.policies), p=decision.posterior.probs))
    else:
        choice = decision.map_index
    return SelectionResult(decision, choice)


def _action_duration(action: env.Action, state: env.ExternalState) -> float:
    """Duration of an action about to run against state (milliseconds).

    Typing and deletion scale with the target text of the chunk typed or
    still in the buffer at the deleted slot.
    """
    table = state.space.table
    if action.kind == env.FIXATE_SOURCE or action.kind == env.FIXATE_TARGET:
        return FIXATION_MS
    if action.kind == env.TYPE:
        return KEYSTROKE_MS_PER_CHAR * len(table.chunk(action.chunk_id).target_text)
    if action.kind == env.DELETE:
        return DELETE_MS_PER_CHAR * len(table.chunk(state.buffer[action.slot - 1]).target_text)
    if action.kind == env.PAUSE:
        return PAUSE_MS
    raise ValueError(f"unknown action kind {action.kind!r}")


def _consistent(placed: tuple[tuple[int, int], ...], space: CandidateSpace) -> int:
    """Bitmask of the orderings that agree with every placed slot: bit i for ordering i."""
    mask = (1 << len(space.orderings)) - 1
    for slot, chunk in placed:
        mask &= space._slot_masks[slot - 1][chunk]
    return mask


def _recompute_working(
    evidence: Categorical,
    placed: tuple[tuple[int, int], ...],
    consistent: int,
) -> Categorical:
    """Evidence belief with orderings contradicting any placed slot zeroed out.

    consistent is _consistent(placed, space), conditioned on as a likelihood
    row of 1.0 and 0.0. Not an observation: both inputs were checked where
    they entered (the evidence at its cues, the bitmasks with the task), so
    the result is not re-checked.
    """
    if not placed:
        return evidence
    fits = [float(consistent >> i & 1) for i in range(len(evidence))]
    return Categorical._trusted(condition_row(evidence.probs, fits))


def _evidence_map_index(evidence: Categorical, consistent: int) -> int:
    """Index of the evidence-MAP ordering; exact ties keep the typed buffer.

    When several orderings share the maximum evidence mass, an ordering
    consistent with the current placements (a bit of the _consistent mask)
    wins, so a coin-flip tie never forces a deletion on its own.
    """
    probs = evidence.probs
    top = max(probs)
    candidates = [i for i, p in enumerate(probs) if p >= top - 1e-12]
    return next((i for i in candidates if consistent >> i & 1), candidates[0])


def _offending(
    evidence: Categorical,
    placed: tuple[tuple[int, int], ...],
    space: CandidateSpace,
    consistent: int,
    forced: bool,
) -> list[tuple[int, int]]:
    """The placed (slot, chunk) pairs the revision rule deletes: those the evidence-MAP ordering contradicts.

    consistent is _consistent(placed, space). Reorganization is
    all-or-nothing: unless the revision is forced, the MAP explanation must
    outweigh the evidence consistent with every placement it contradicts,
    otherwise a hedged buffer would be torn apart piecemeal and retyped in
    a loop.
    """
    map_idx = _evidence_map_index(evidence, consistent)
    map_mass = evidence.probs[map_idx]
    at_slot = space._slot_masks
    offending = [(s, c) for s, c in placed if not at_slot[s - 1][c] >> map_idx & 1]
    if offending and not forced:
        for s, c in offending:
            if map_mass <= _consistent_mass(evidence, at_slot[s - 1][c]):
                return []
    return offending


def _consistent_mass(evidence: Categorical, fits: int) -> float:
    """The evidence mass on the orderings whose bits fits sets, summed in ordering order."""
    return sum(p for i, p in enumerate(evidence.probs) if fits >> i & 1)


def step(
    agent: AgentState,
    state: env.ExternalState,
    models: ReadingEvidenceModel,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> tuple[AgentState, env.ExternalState, list[tuple]]:
    """One perception-action cycle; may emit extra pause and revision events.

    Each event is returned as a row of ProcessEvent's fields, in their order.

    Order of play: affect broadcasts its precisions, behavior continues or
    reselects a policy, a hesitation pause is injected when the policy
    posterior is too flat or gamma has sagged, the action runs against the
    environment, cognition folds in the observation, affect absorbs the
    surprisal, and finally the revision rule deletes any placed slot the
    evidence-MAP ordering now contradicts.
    """
    if env.is_complete(state):
        raise ValueError("episode already terminal")
    space = models.space
    events: list[tuple] = []
    clock = agent.clock_ms
    affective = agent.affective
    cognitive = agent.cognitive
    behavioral = agent.behavioral

    # Behavioral layer: continue the committed policy while its next action
    # stays admissible; otherwise select a fresh one.
    policy = behavioral.current_policy
    last_was_pause = behavioral.last_action_kind == env.PAUSE
    hesitate = False
    annotations: tuple[str, ...] = ()
    if policy and any(
        a == policy[0] for a, _ in _next_actions(space, *_rule_input(cognitive, space), last_was_pause)
    ):
        action, remaining = policy[0], policy[1:]
    else:
        selection = select_policy(
            cognitive, affective, models, cfg, rng=rng, last_was_pause=last_was_pause
        )
        chosen = selection.policy
        action, remaining = chosen[0], chosen[1:]
        hesitate = selection.decision.posterior_entropy > THETA_HESITATION
        annotations = ("policy_switch",)
    if affective.gamma < THETA_GAMMA:
        hesitate = True

    # One path runs every event: perform times it by _action_duration
    # against the state it acts on, applies it and advances the clock;
    # record snapshots the belief and precisions after the event's updates.
    def perform(act: env.Action) -> tuple[float, env.Observation]:
        nonlocal state, clock
        t_start = clock
        clock = t_start + _action_duration(act, state)
        state, obs = env.apply_action(state, act, models, rng)
        return t_start, obs

    def record(act, t_start, obs, belief, notes, chunk_id=None) -> None:
        events.append((
            t_start, clock, act.kind, act.chunk_id if chunk_id is None else chunk_id,
            act.slot, obs.cue, shannon_entropy(belief), affective.gamma, affective.zeta, notes,
        ))

    if hesitate and action.kind != env.PAUSE and not last_was_pause:
        hesitation = env.pause()
        t_start, obs = perform(hesitation)
        affective = update_affect(affective, 0.0, cfg)
        record(hesitation, t_start, obs, cognitive.belief, ("hesitation",))

    # Execute the committed action.
    t_start, obs = perform(action)
    evidence = cognitive.evidence_belief
    placed = cognitive.placed
    read_set = cognitive.read_set
    obs_surprisal = 0.0
    forced_revision = False
    if obs.kind == env.ORDERING_CUE:
        row = models.likelihood_row(obs.chunk_id, obs.cue)
        predictive = float(cognitive.belief.as_array() @ row)
        obs_surprisal = surprisal_bits(predictive)
        try:
            evidence = bayes_update(evidence, row, zeta=affective.zeta)
        except ContradictionError:
            # The cue is impossible under everything believed so far; the
            # belief restarts from its row, uniform on its support, so the
            # restriction below raises exactly when no tied MAP fits the buffer.
            evidence = Categorical.from_weights(row)
        read_set = read_set | {obs.chunk_id}
    elif obs.kind == env.PLACEMENT_FEEDBACK and obs.chunk_id is not None:
        placed = tuple(sorted((dict(placed) | {obs.slot: obs.chunk_id}).items()))

    consistent = _consistent(placed, space)
    try:
        working = _recompute_working(evidence, placed, consistent)
    except ContradictionError:
        forced_revision = True
        working = cognitive.belief

    affective = update_affect(affective, obs_surprisal, cfg)
    record(action, t_start, obs, working, annotations)

    # Revision rule: the offending slots are refixated and deleted; retyping
    # follows naturally at the freed slots.
    offending = _offending(evidence, placed, space, consistent, forced_revision) if placed else ()
    if offending:
        remaining = ()
        keep = dict(placed)
        notes = ("revision", "forced") if forced_revision else ("revision",)
        for slot, chunk in offending:
            refixation, deletion = env.fixate_target(slot), env.delete(slot)
            t_start, obs = perform(refixation)
            record(refixation, t_start, obs, working, ("revision",))
            t_start, obs = perform(deletion)
            del keep[slot]
            kept = tuple(sorted(keep.items()))
            try:
                working = _recompute_working(evidence, kept, _consistent(kept, space))
            except ContradictionError:
                pass  # later deletions in this pass restore consistency
            record(deletion, t_start, obs, working, notes, chunk_id=chunk)
        placed = kept

    cognitive = CognitiveState(
        belief=working, evidence_belief=evidence, placed=placed, read_set=read_set
    )
    behavioral = BehavioralState(
        current_policy=tuple(remaining), last_action_kind=events[-1][2]  # the last event's kind
    )
    agent = AgentState(
        affective=affective, cognitive=cognitive, behavioral=behavioral, clock_ms=clock
    )
    return agent, state, events


def check_seed(seed) -> None:
    """Reject an episode seed that is not a non-negative int."""
    if not (type(seed) is int and seed >= 0):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")


def check_max_steps(max_steps) -> None:
    """Reject a step budget that is not an int of at least 1."""
    if not (type(max_steps) is int and max_steps >= 1):  # a bool is no step budget
        raise ValueError(f"max_steps must be an int of at least 1, got {max_steps!r}")


def run_episode(
    cfg: AgentConfig,
    models: ReadingEvidenceModel,
    latent: str | None = None,
    seed: int = 0,
    max_steps: int = 40,
    cue_script=None,
) -> Trace:
    """Run one seeded perception-action episode and return its event trace.

    Deterministic for a fixed seed: cue sampling and any policy sampling both
    draw from one generator seeded here.
    """
    check_max_steps(max_steps)
    check_seed(seed)
    space = models.space
    if latent is None:
        latent = space.labels[0]
    rng = np.random.default_rng(seed)
    state = env.ExternalState.initial(space, latent, cue_script=cue_script)
    agent = initial_agent_state(space, cfg)
    prior_entropy = shannon_entropy(agent.cognitive.belief)
    rows: list[tuple] = []
    for _ in range(max_steps):
        if env.is_complete(state):
            break
        agent, state, new_rows = step(agent, state, models, cfg, rng)
        rows.extend(new_rows)
    return Trace.from_columns(
        tuple(zip(*rows)),
        complete=env.is_complete(state),
        final_target=env.render_target(state),
        seed=seed,
        strategy=cfg.strategy,
        latent=latent,
        prior_entropy=prior_entropy,
    )
