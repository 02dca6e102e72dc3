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
from dataclasses import dataclass

import numpy as np

from . import environment as env
from .inference import (
    ContradictionError,
    Policies,
    PreferenceVector,
    bayes_update,
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
    placement_row,
    positional_entropy,
)
from .trace import ProcessEvent, Trace

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

    def placed_map(self) -> dict[int, int]:
        return dict(self.placed)


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
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.max_policies < 1:
            raise ValueError(f"max_policies must be at least 1, got {self.max_policies!r}")
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
    read,
    buffer: dict[int, int],
    live: tuple[int, ...],
    last_was_pause: bool,
) -> list[tuple[env.Action, tuple[int, ...]]]:
    """The admissibility rule: every possible next action, with the live orderings it leaves.

    Reads take unread source chunks. Typing is append-like: only the leftmost
    empty target slot accepts text, so revision means deleting back to a slot
    and retyping. A chunk is typable there under at least one live ordering,
    and only typing narrows the live orderings. Live orderings are already
    consistent with the buffer: at a decision they are the working belief's
    support, and inside enumeration each typed slot has narrowed them.
    Typing candidates are ordered most-informative first (descending
    positional entropy of the chunk, then chunk id) to fix the pruning order
    deterministically. Pauses never repeat back to back. A complete
    translation admits nothing.
    """
    cursor = 1
    while cursor in buffer:
        cursor += 1
    if cursor > space.n_slots:
        return []
    acts = [(env.fixate_source(c), live) for c in space.table.source_order if c not in read]
    options: dict[int, list[int]] = {}
    orderings = space.orderings
    for idx in live:
        options.setdefault(orderings[idx].slots[cursor - 1], []).append(idx)
    for chunk in sorted(options, key=lambda chunk: (-positional_entropy(space, chunk), chunk)):
        acts.append((env.type_chunk(chunk, cursor), tuple(options[chunk])))
    if not last_was_pause:
        acts.append((env.pause(), live))
    return acts


def _live(belief: Categorical) -> tuple[int, ...]:
    return tuple(i for i, p in enumerate(belief.probs) if p > 0.0)


def enumerate_policies(
    cognitive: CognitiveState,
    space: CandidateSpace,
    horizon: int,
    cfg: AgentConfig,
    last_was_pause: bool = False,
) -> Policies:
    """All admissible action sequences up to the horizon, capped and ordered.

    Admissibility (``_next_actions``) is simulated over a state graph built
    per call. A state is what the rule reads (read set, buffer, live
    orderings, whether the last action paused) plus, right after a read,
    how many of the reads the rule lists it skips. Many prefixes reach one
    state, and the rule runs once per distinct input. The rows are built
    level by level from the states' edges, each row's children in the
    rule's order, so they come out in depth-first order: two policies are
    ordered by the rule's order at the first action where they differ. A
    policy that completes the translation early is padded with -1 to the
    horizon. The result is one Policies table, its actions numbered in
    order of first appearance; it is empty only when the translation is
    already complete. The first cfg.max_policies rows are kept, and
    truncated says whether the cap cut any: every row in progress ends as
    at least one policy, so each level keeps only its first
    cfg.max_policies rows, which bounds the work when the cap fires.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    source = space.table.source_order
    # Enumeration shares one Action per (kind, chunk, slot), so its identity
    # is a key that costs no generated __hash__.
    action_ids: dict[int, int] = {}
    actions: list[env.Action] = []
    rule: dict = {}  # rule input -> (first edge, edge count)
    edge_action: list[int] = []  # per edge: its action id, -1 to pad an ended policy
    edge_act: list = []  # per edge: (action, live orderings after it), as the rule gave it
    edge_from: list = []  # per edge: the rule input it leaves
    edge_to: list[int] = []  # per edge: the state it leads to, -1 until a level needs it
    state_ids: dict = {}  # (rule input, reads skipped) -> state id
    firsts: list[int] = []  # state id -> its first edge
    counts: list[int] = []  # state id -> its edge count

    def state_id(inputs, skip: int) -> int:
        """The state's id; a new state's edges are listed here."""
        sid = state_ids.setdefault((inputs, skip), len(firsts))
        if sid < len(firsts):
            return sid
        entry = rule.get(inputs)
        if entry is None:
            read, buffer, live, paused = inputs
            acts = _next_actions(space, read, dict(buffer), live, paused)
            known = len(action_ids)
            aids = [action_ids.setdefault(id(action), len(action_ids)) for action, _ in acts]
            actions.extend(action for (action, _), aid in zip(acts, aids) if aid >= known)
            entry = rule[inputs] = len(edge_action), len(acts)
            edge_action.extend(aids)
            edge_act.extend(acts)
            edge_from.extend([inputs] * len(acts))
            edge_to.extend([-1] * len(acts))
        first, count = entry[0] + skip, entry[1] - skip
        if not count:  # the policy ends here: one edge pads it
            first, count = len(edge_action), 1
            edge_action.append(-1)
            edge_act.append(None)
            edge_from.append(None)
            edge_to.append(sid)
        firsts.append(first)
        counts.append(count)
        return sid

    def child(edge: int) -> int:
        (read, buffer, _, _), (action, survivors) = edge_from[edge], edge_act[edge]
        if action.kind == env.FIXATE_SOURCE:
            # Within a consecutive run of reads, chunks are taken in source
            # order: read permutations are outcome-equivalent, so one
            # representative per read set suffices. The rule lists reads
            # first, in source order, so the next state skips the reads of
            # the chunks before this one.
            read = read | {action.chunk_id}
            skip = sum(c not in read for c in source[:source.index(action.chunk_id)])
            return state_id((read, buffer, survivors, False), skip)
        if action.kind == env.TYPE:
            return state_id((read, buffer | {(action.slot, action.chunk_id)}, survivors, False), 0)
        return state_id((read, buffer, survivors, True), 0)

    placed = frozenset(cognitive.placed)
    state_id((cognitive.read_set, placed, _live(cognitive.belief), last_was_pause), 0)
    if edge_action[firsts[0]] < 0:
        return Policies([], np.empty((0, horizon), dtype=np.int32))
    # Each level's rows are edges, in depth-first order: the first level's
    # are the root's, and a row's children take its state's edges in order,
    # after the children of the rows before it.
    cap = cfg.max_policies
    truncated = counts[0] > cap
    ids = np.array(edge_action[:min(counts[0], cap)], dtype=np.int32)[:, None]  # rows so far
    edge = np.arange(len(ids))
    for _ in range(1, horizon):
        for e in set(edge.tolist()):
            if edge_to[e] < 0:
                edge_to[e] = child(e)
        at = np.array(edge_to)[edge]  # each row's state
        first, count = np.array(firsts)[at], np.array(counts)[at]
        parent = np.repeat(np.arange(len(at)), count)
        edge = np.repeat(first - (count.cumsum() - count), count) + np.arange(len(parent))
        if len(edge) > cap:
            truncated = True
            parent, edge = parent[:cap], edge[:cap]
        aids = np.array(edge_action, dtype=np.int32)[edge]
        ids = np.concatenate([ids[parent], aids[:, None]], axis=1)
    # Number the actions in order of first appearance, row by row: the
    # order in which a depth-first walk meets them.
    seen = dict.fromkeys(ids.ravel().tolist())
    seen.pop(-1, None)
    used = list(seen)
    if used != list(range(len(actions))):
        renumber = np.full(len(actions) + 1, -1, dtype=np.int32)  # the last keeps the padding
        renumber[used] = np.arange(len(used), dtype=np.int32)
        ids = renumber[ids]
    return Policies([actions[a] for a in used], ids, truncated)


@dataclass(frozen=True, eq=False)
class ScoredDecision:
    """One decision's policies, their EFE split as read-only arrays, and its policy posterior.

    The selection memo's value for one (decision, gamma): the posterior is
    policy_posterior of the totals under that gamma, with its MAP index and
    its entropy in bits.
    """

    policies: Policies
    epistemic: np.ndarray
    pragmatic: np.ndarray
    totals: np.ndarray
    posterior: Categorical
    map_index: int
    posterior_entropy: float


@dataclass(frozen=True)
class SelectionResult:
    decision: ScoredDecision
    choice_index: int

    @property
    def policies(self) -> Policies:
        return self.decision.policies

    @property
    def posterior(self) -> Categorical:
        return self.decision.posterior

    @property
    def posterior_entropy(self) -> float:
        return self.decision.posterior_entropy

    @property
    def policy(self) -> tuple[env.Action, ...]:
        return self.policies[self.choice_index]


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
        horizon = max(1, sum(c not in read_set for c in models.space.table.source_order))
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
    return ScoredDecision(policies, *scores, posterior, posterior.map_index, shannon_entropy(posterior))


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


def _consistent(placed: tuple[tuple[int, int], ...], space: CandidateSpace) -> np.ndarray:
    """Per-ordering indicator: 1.0 where the ordering agrees with every placed slot."""
    mask = np.ones(len(space.orderings), dtype=float)
    for slot, chunk in placed:
        mask *= placement_row(space, chunk, slot)
    return mask


def _recompute_working(
    evidence: Categorical,
    placed: tuple[tuple[int, int], ...],
    space: CandidateSpace,
    consistent: np.ndarray | None = None,
) -> Categorical:
    """Evidence belief with orderings contradicting any placed slot zeroed out.

    consistent, when given, is _consistent(placed, space), already built.
    """
    if not placed:
        return evidence
    return bayes_update(evidence, _consistent(placed, space) if consistent is None else consistent)


def _evidence_map_index(evidence: Categorical, consistent: np.ndarray) -> int:
    """Index of the evidence-MAP ordering; exact ties keep the typed buffer.

    When several orderings share the maximum evidence mass, an ordering
    consistent with the current placements (the _consistent mask) wins, so
    a coin-flip tie never forces a deletion on its own.
    """
    probs = evidence.probs
    top = max(probs)
    candidates = [i for i, p in enumerate(probs) if p >= top - 1e-12]
    return next((i for i in candidates if consistent[i]), candidates[0])


def step(
    agent: AgentState,
    state: env.ExternalState,
    models: ReadingEvidenceModel,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> tuple[AgentState, env.ExternalState, list[ProcessEvent]]:
    """One perception-action cycle; may emit extra pause and revision events.

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
    events: list[ProcessEvent] = []
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
        a == policy[0]
        for a, _ in _next_actions(
            space,
            cognitive.read_set,
            cognitive.placed_map(),
            _live(cognitive.belief),
            last_was_pause,
        )
    ):
        action, remaining = policy[0], policy[1:]
    else:
        selection = select_policy(
            cognitive, affective, models, cfg, rng=rng, last_was_pause=last_was_pause
        )
        chosen = selection.policy
        action, remaining = chosen[0], chosen[1:]
        hesitate = selection.posterior_entropy > THETA_HESITATION
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
        # ProcessEvent's ten fields in order: keywords would cost 0.4 us more per event.
        events.append(
            ProcessEvent(
                t_start, clock, act.kind, act.chunk_id if chunk_id is None else chunk_id,
                act.slot, obs.cue, shannon_entropy(belief), affective.gamma, affective.zeta, notes,
            )
        )

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
        working = _recompute_working(evidence, placed, space, consistent)
    except ContradictionError:
        forced_revision = True
        working = cognitive.belief

    affective = update_affect(affective, obs_surprisal, cfg)
    record(action, t_start, obs, working, annotations)

    # Revision rule: placed slots the evidence-MAP ordering contradicts are
    # refixated and deleted; retyping follows naturally at the freed slots.
    # Reorganization is all-or-nothing: the MAP explanation must outweigh the
    # evidence consistent with every placement it contradicts, otherwise a
    # hedged buffer would be torn apart piecemeal and retyped in a loop.
    if placed:
        map_idx = _evidence_map_index(evidence, consistent)
        map_mass = evidence.probs[map_idx]
        offending = [(s, c) for s, c in placed if not placement_row(space, c, s)[map_idx]]
        if offending and not forced_revision:
            for s, c in offending:
                row = placement_row(space, c, s)
                consistent_mass = sum(p for p, k in zip(evidence.probs, row) if k)
                if map_mass <= consistent_mass:
                    offending = []
                    break
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
                try:
                    working = _recompute_working(evidence, tuple(sorted(keep.items())), space)
                except ContradictionError:
                    pass  # later deletions in this pass restore consistency
                record(deletion, t_start, obs, working, notes, chunk_id=chunk)
            placed = tuple(sorted(keep.items()))

    cognitive = CognitiveState(
        belief=working, evidence_belief=evidence, placed=placed, read_set=read_set
    )
    behavioral = BehavioralState(
        current_policy=tuple(remaining), last_action_kind=events[-1].kind
    )
    agent = AgentState(
        affective=affective, cognitive=cognitive, behavioral=behavioral, clock_ms=clock
    )
    return agent, state, events


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
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    space = models.space
    if latent is None:
        latent = space.labels[0]
    rng = np.random.default_rng(seed)
    state = env.ExternalState.initial(space, latent, cue_script=cue_script)
    agent = initial_agent_state(space, cfg)
    prior_entropy = shannon_entropy(agent.cognitive.belief)
    events: list[ProcessEvent] = []
    for _ in range(max_steps):
        if env.is_complete(state):
            break
        agent, state, new_events = step(agent, state, models, cfg, rng)
        events.extend(new_events)
    return Trace(
        events=tuple(events),
        complete=env.is_complete(state),
        final_target=env.render_target(state),
        seed=seed,
        strategy=cfg.strategy,
        latent=latent,
        prior_entropy=prior_entropy,
    )
