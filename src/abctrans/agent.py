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
    EFEDecomposition,
    Policies,
    PreferenceVector,
    bayes_update,
    expected_free_energy,  # unused here; perfbench/run.py wraps agent.expected_free_energy
    policy_posterior,
    policy_scores,
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
        if self.surprise_ema < 0.0:
            raise ValueError("surprise average cannot be negative")
        if self.gamma <= 0.0 or self.zeta <= 0.0:
            raise ValueError("precisions must be strictly positive")


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
    if observation_surprisal < 0.0:
        raise ValueError("surprisal cannot be negative")
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
    cursor = next((s for s in range(1, space.n_slots + 1) if s not in buffer), None)
    if cursor is None:
        return []
    acts = [(env.fixate_source(c), live) for c in space.table.source_order if c not in read]
    options: dict[int, list[int]] = {}
    for idx in live:
        options.setdefault(space.orderings[idx].chunk_at(cursor), []).append(idx)
    ranked = sorted(
        options.items(), key=lambda kv: (-positional_entropy(space, kv[0]), kv[0])
    )
    acts.extend((env.type_chunk(chunk, cursor), tuple(idxs)) for chunk, idxs in ranked)
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

    Admissibility (``_next_actions``) is simulated along each candidate
    prefix, depth first. The result is one Policies table, each row padded
    to the horizon; it is empty only when the translation is already
    complete. The first cfg.max_policies sequences are kept, and truncated
    says whether the cap cut any.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rows: list[int] = []  # the policies' action ids, end to end, each padded to the horizon
    n_rows = 0
    pad = [-1] * horizon
    actions: list[env.Action] = []
    # Enumeration shares one Action per (kind, chunk, slot), so its identity
    # is a key that costs no generated __hash__.
    action_ids: dict[int, int] = {}
    order_pos = {c: i for i, c in enumerate(space.table.source_order)}
    truncated = False

    def expand(prefix, read, buffer, live, paused):
        nonlocal n_rows, truncated
        acts = _next_actions(space, read, buffer, live, paused)
        # Within a consecutive run of reads, chunks are taken in source
        # order: read permutations are outcome-equivalent, so one
        # representative per read set suffices.
        if prefix and actions[prefix[-1]].kind == env.FIXATE_SOURCE:
            min_pos = order_pos[actions[prefix[-1]].chunk_id]
            acts = [
                (a, survivors)
                for a, survivors in acts
                if a.kind != env.FIXATE_SOURCE or order_pos[a.chunk_id] > min_pos
            ]
        if not acts:
            if prefix:
                rows.extend(prefix)
                rows.extend(pad[len(prefix):])
                n_rows += 1
            return
        for action, survivors in acts:
            if n_rows >= cfg.max_policies:
                truncated = True
                return
            aid = action_ids.get(id(action))
            if aid is None:
                aid = action_ids[id(action)] = len(actions)
                actions.append(action)
            nxt_read, nxt_buffer = read, buffer
            if action.kind == env.FIXATE_SOURCE:
                nxt_read = read | {action.chunk_id}
            elif action.kind == env.TYPE:
                nxt_buffer = buffer | {action.slot: action.chunk_id}
            prefix.append(aid)
            if len(prefix) == horizon:
                rows.extend(prefix)
                n_rows += 1
            else:
                expand(prefix, nxt_read, nxt_buffer, survivors, action.kind == env.PAUSE)
            prefix.pop()

    expand([], cognitive.read_set, cognitive.placed_map(), _live(cognitive.belief), last_was_pause)
    ids = np.array(rows, dtype=np.int32)
    ids.shape = (n_rows, horizon)  # in place: a reshaped view would hold a second array
    return Policies(actions, ids, truncated)


@dataclass(frozen=True)
class SelectionResult:
    policies: Policies
    efes: tuple[EFEDecomposition, ...]
    posterior: Categorical
    choice_index: int

    @property
    def policy(self) -> tuple[env.Action, ...]:
        return self.policies[self.choice_index]

    @property
    def posterior_entropy(self) -> float:
        return shannon_entropy(self.posterior)


def _dynamic_horizon(cognitive: CognitiveState, space: CandidateSpace) -> int:
    unread = [c for c in space.table.source_order if c not in cognitive.read_set]
    return max(1, len(unread))


@functools.lru_cache(maxsize=65536)
def _scored_policies(
    models: ReadingEvidenceModel,
    cfg: AgentConfig,
    belief: Categorical,
    placed: tuple[tuple[int, int], ...],
    read_set: frozenset[int],
    horizon: int,
    last_was_pause: bool,
    zeta: float,
) -> tuple[Policies, tuple[EFEDecomposition, ...], np.ndarray]:
    """Every admissible policy with its EFE and the read-only array of EFE totals.

    A pure function of exactly what enumeration and scoring read, memoised
    on those arguments: a repeated decision costs one lookup and can never
    see another decision's result.
    """
    # Enumeration reads the working belief, never the evidence belief.
    cognitive = CognitiveState(belief, belief, placed, read_set)
    policies = enumerate_policies(cognitive, models.space, horizon, cfg, last_was_pause)
    efes, totals = policy_scores(
        belief, policies, models, cfg.prefs,
        w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=read_set, zeta=zeta,
    )
    return policies, efes, totals


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

    Selection is argmax of the precision-weighted posterior by default
    (deterministic, ties to the enumeration order); with sample_policies the
    posterior is sampled through the episode generator. Only the agent's own
    states enter: the external state, latent ordering included, never does.
    """
    horizon = cfg.horizon if cfg.horizon is not None else _dynamic_horizon(cognitive, models.space)
    policies, efes, totals = _scored_policies(
        models, cfg, cognitive.belief, cognitive.placed, cognitive.read_set,
        horizon, last_was_pause, affective.zeta,
    )
    if not policies:
        raise ValueError("no admissible policy: translation already complete")

    posterior = policy_posterior(totals, gamma=affective.gamma)
    if cfg.sample_policies and rng is not None:
        choice = int(rng.choice(len(policies), p=posterior.as_array()))
    else:
        choice = posterior.map_index
    return SelectionResult(policies=policies, efes=efes, posterior=posterior, choice_index=choice)


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
    evidence: Categorical, placed: tuple[tuple[int, int], ...], space: CandidateSpace
) -> Categorical:
    """Evidence belief with orderings contradicting any placed slot zeroed out."""
    if not placed:
        return evidence
    return bayes_update(evidence, _consistent(placed, space))


def _evidence_map_index(
    evidence: Categorical, placed: tuple[tuple[int, int], ...], space: CandidateSpace
) -> int:
    """Index of the evidence-MAP ordering; exact ties keep the typed buffer.

    When several orderings share the maximum evidence mass, an ordering
    consistent with the current placements wins, so a coin-flip tie never
    forces a deletion on its own.
    """
    probs = evidence.probs
    top = max(probs)
    candidates = [i for i, p in enumerate(probs) if p >= top - 1e-12]
    consistent = _consistent(placed, space)
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
        events.append(
            ProcessEvent(
                t_start=t_start,
                t_end=clock,
                kind=act.kind,
                chunk_id=act.chunk_id if chunk_id is None else chunk_id,
                slot=act.slot,
                cue=obs.cue,
                belief_entropy=shannon_entropy(belief),
                gamma=affective.gamma,
                zeta=affective.zeta,
                annotations=notes,
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

    try:
        working = _recompute_working(evidence, placed, space)
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
        map_idx = _evidence_map_index(evidence, placed, space)
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
