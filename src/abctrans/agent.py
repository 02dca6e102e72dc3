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

import math
from dataclasses import dataclass

import numpy as np

from . import environment as env
from .inference import (
    ContradictionError,
    EFEDecomposition,
    PreferenceVector,
    bayes_update,
    expected_free_energy,
    policy_posterior,
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

# Fixed affective constants: surprise lowers gamma at SURPRISE_GAIN and raises
# zeta from ZETA_BASE at ZETA_GAIN, never below ZETA_MIN. A hesitation pause is
# injected when the policy posterior is flatter than THETA_HESITATION bits or
# gamma sags below THETA_GAMMA.
SURPRISE_GAIN = 1.0
ZETA_BASE = 1.0
ZETA_GAIN = 0.15
ZETA_MIN = 0.5
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
    gamma_min: float = 0.05
    beta: float = 0.2
    zeta_max: float = 2.0
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
            read_cost=0.0,
            pause_cost=0.1,
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
            read_cost=0.0,
            pause_cost=0.1,
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
    gamma = min(cfg.gamma_max, max(cfg.gamma_min, cfg.gamma_max * math.exp(-SURPRISE_GAIN * ema)))
    zeta = min(cfg.zeta_max, max(ZETA_MIN, ZETA_BASE * (1.0 + ZETA_GAIN * ema)))
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
    and retyping. A chunk is typable there under at least one live ordering
    consistent with everything placed so far, and only typing narrows the
    live orderings. Typing candidates are ordered most-informative first
    (descending positional entropy of the chunk, then chunk id) to fix the
    pruning order deterministically. Pauses never repeat back to back. A
    complete translation admits nothing.
    """
    cursor = next((s for s in range(1, space.n_slots + 1) if s not in buffer), None)
    if cursor is None:
        return []
    acts = [(env.fixate_source(c), live) for c in space.table.source_order if c not in read]
    rows = [placement_row(space, c, s) for s, c in buffer.items()]
    options: dict[int, list[int]] = {}
    for idx in live:
        if all(row[idx] for row in rows):
            options.setdefault(space.orderings[idx].chunk_at(cursor), []).append(idx)
    ranked = sorted(
        options.items(), key=lambda kv: (-positional_entropy(space, kv[0]), kv[0])
    )
    acts.extend((env.type_chunk(chunk, cursor), tuple(idxs)) for chunk, idxs in ranked)
    if not last_was_pause:
        acts.append((env.pause(PAUSE_MS), live))
    return acts


def _live(belief: Categorical) -> tuple[int, ...]:
    return tuple(i for i, p in enumerate(belief.probs) if p > 0.0)


def enumerate_policies(
    cognitive: CognitiveState,
    state: env.ExternalState,
    horizon: int,
    cfg: AgentConfig,
    last_was_pause: bool = False,
) -> list[tuple[env.Action, ...]]:
    """All admissible action sequences up to the horizon, capped and ordered.

    Admissibility (``_next_actions``) is simulated along each candidate
    prefix. Returns [] only when the translation is already complete.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    space = state.space
    out: list[tuple[env.Action, ...]] = []
    order_pos = {c: i for i, c in enumerate(space.table.source_order)}

    def expand(prefix, read, buffer, live, paused):
        if len(out) >= cfg.max_policies:
            return
        acts = _next_actions(space, read, buffer, live, paused)
        # Within a consecutive run of reads, chunks are taken in source
        # order: read permutations are outcome-equivalent, so one
        # representative per read set suffices.
        if prefix and prefix[-1].kind == env.FIXATE_SOURCE:
            min_pos = order_pos[prefix[-1].chunk_id]
            acts = [
                (a, survivors)
                for a, survivors in acts
                if a.kind != env.FIXATE_SOURCE or order_pos[a.chunk_id] > min_pos
            ]
        if not acts:
            if prefix:
                out.append(tuple(prefix))
            return
        for action, survivors in acts:
            if len(out) >= cfg.max_policies:
                return
            nxt_read, nxt_buffer = read, buffer
            if action.kind == env.FIXATE_SOURCE:
                nxt_read = read | {action.chunk_id}
            elif action.kind == env.TYPE:
                nxt_buffer = buffer | {action.slot: action.chunk_id}
            prefix.append(action)
            if len(prefix) == horizon:
                out.append(tuple(prefix))
            else:
                expand(prefix, nxt_read, nxt_buffer, survivors, action.kind == env.PAUSE)
            prefix.pop()

    expand([], cognitive.read_set, cognitive.placed_map(), _live(cognitive.belief), last_was_pause)
    return out


@dataclass(frozen=True)
class SelectionResult:
    policies: tuple[tuple[env.Action, ...], ...]
    efes: tuple[EFEDecomposition, ...]
    posterior: Categorical
    choice_index: int

    @property
    def policy(self) -> tuple[env.Action, ...]:
        return self.policies[self.choice_index]

    @property
    def posterior_entropy(self) -> float:
        return shannon_entropy(self.posterior)


_SELECTION_CACHE: dict = {}


def clear_selection_cache() -> None:
    _SELECTION_CACHE.clear()


def _dynamic_horizon(cognitive: CognitiveState, space: CandidateSpace) -> int:
    unread = [c for c in space.table.source_order if c not in cognitive.read_set]
    return max(1, len(unread))


def select_policy(
    cognitive: CognitiveState,
    affective: AffectiveState,
    state: env.ExternalState,
    models: ReadingEvidenceModel,
    cfg: AgentConfig,
    rng: np.random.Generator | None = None,
    last_was_pause: bool = False,
) -> SelectionResult:
    """Score every admissible policy by EFE and pick one under the current gamma.

    Selection is argmax of the precision-weighted posterior by default
    (deterministic, ties to the enumeration order); with sample_policies the
    posterior is sampled through the episode generator.
    """
    space = models.space
    horizon = cfg.horizon if cfg.horizon is not None else _dynamic_horizon(cognitive, space)
    cache_key = (
        models,
        cfg,
        cognitive.belief.probs,
        cognitive.placed,
        tuple(sorted(cognitive.read_set)),
        horizon,
        last_was_pause,
        affective.zeta,
    )
    cached = _SELECTION_CACHE.get(cache_key)
    if cached is None:
        policies = enumerate_policies(cognitive, state, horizon, cfg, last_was_pause)
        if not policies:
            cached = (tuple(), tuple())
        else:
            efes = tuple(
                expected_free_energy(
                    cognitive.belief,
                    policy,
                    models,
                    cfg.prefs,
                    w_e=cfg.w_e,
                    w_p=cfg.w_p,
                    read_chunks=cognitive.read_set,
                    zeta=affective.zeta,
                )
                for policy in policies
            )
            cached = (tuple(policies), efes)
        if len(_SELECTION_CACHE) > 65536:
            _SELECTION_CACHE.clear()
        _SELECTION_CACHE[cache_key] = cached
    policies, efes = cached
    if not policies:
        raise ValueError("no admissible policy: translation already complete")

    posterior = policy_posterior(efes, gamma=affective.gamma)
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
        return action.duration_ms if action.duration_ms is not None else PAUSE_MS
    raise ValueError(f"unknown action kind {action.kind!r}")


def _recompute_working(
    evidence: Categorical, placed: tuple[tuple[int, int], ...], space: CandidateSpace
) -> Categorical:
    """Evidence belief with orderings contradicting any placed slot zeroed out."""
    if not placed:
        return evidence
    mask = np.ones(len(evidence), dtype=float)
    for slot, chunk in placed:
        mask *= placement_row(space, chunk, slot)
    weighted = evidence.as_array() * mask
    total = float(weighted.sum())
    if total <= 0.0:
        raise ContradictionError("every live ordering contradicts the typed buffer")
    return Categorical(tuple(weighted / total))


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
    for i in candidates:
        if all(placement_row(space, c, s)[i] for s, c in placed):
            return i
    return candidates[0]


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
            cognitive,
            affective,
            state,
            models,
            cfg,
            rng=rng,
            last_was_pause=last_was_pause,
        )
        chosen = selection.policy
        action, remaining = chosen[0], chosen[1:]
        hesitate = selection.posterior_entropy > THETA_HESITATION
        annotations = ("policy_switch",)
    if affective.gamma < THETA_GAMMA:
        hesitate = True

    # Every event is timed by _action_duration against the state it acts on.
    if hesitate and action.kind != env.PAUSE and not last_was_pause:
        hesitation = env.pause(PAUSE_MS)
        t_end = clock + _action_duration(hesitation, state)
        state, _ = env.apply_action(state, hesitation, models, rng)
        affective = update_affect(affective, 0.0, cfg)
        events.append(
            ProcessEvent(
                t_start=clock,
                t_end=t_end,
                kind=env.PAUSE,
                belief_entropy=shannon_entropy(cognitive.belief),
                gamma=affective.gamma,
                zeta=affective.zeta,
                annotations=("hesitation",),
            )
        )
        clock = t_end

    # Execute the committed action.
    t_end = clock + _action_duration(action, state)
    state, obs = env.apply_action(state, action, models, rng)
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
            # belief restarts from the cue's own likelihood and any typed
            # slot it contradicts is forcibly revised below.
            evidence = Categorical.from_weights(row)
            forced_revision = True
        read_set = read_set | {obs.chunk_id}
    elif obs.kind == env.PLACEMENT_FEEDBACK and obs.chunk_id is not None:
        placed = tuple(sorted((dict(placed) | {obs.slot: obs.chunk_id}).items()))

    try:
        working = _recompute_working(evidence, placed, space)
    except ContradictionError:
        forced_revision = True
        working = cognitive.belief

    affective = update_affect(affective, obs_surprisal, cfg)
    events.append(
        ProcessEvent(
            t_start=clock,
            t_end=t_end,
            kind=action.kind,
            chunk_id=action.chunk_id,
            slot=action.slot,
            cue=obs.cue,
            belief_entropy=shannon_entropy(working),
            gamma=affective.gamma,
            zeta=affective.zeta,
            annotations=annotations,
        )
    )
    clock = t_end

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
            for slot, chunk in offending:
                refixation, deletion = env.fixate_target(slot), env.delete(slot)
                t_end = clock + _action_duration(refixation, state)
                state, _ = env.apply_action(state, refixation, models, rng)
                events.append(
                    ProcessEvent(
                        t_start=clock,
                        t_end=t_end,
                        kind=env.FIXATE_TARGET,
                        slot=slot,
                        belief_entropy=shannon_entropy(working),
                        gamma=affective.gamma,
                        zeta=affective.zeta,
                        annotations=("revision",),
                    )
                )
                clock = t_end
                t_end = clock + _action_duration(deletion, state)
                state, _ = env.apply_action(state, deletion, models, rng)
                del keep[slot]
                try:
                    working = _recompute_working(evidence, tuple(sorted(keep.items())), space)
                except ContradictionError:
                    pass  # later deletions in this pass restore consistency
                events.append(
                    ProcessEvent(
                        t_start=clock,
                        t_end=t_end,
                        kind=env.DELETE,
                        chunk_id=chunk,
                        slot=slot,
                        belief_entropy=shannon_entropy(working),
                        gamma=affective.gamma,
                        zeta=affective.zeta,
                        annotations=("revision", "forced") if forced_revision else ("revision",),
                    )
                )
                clock = t_end
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
    complete = False
    for _ in range(max_steps):
        if env.is_complete(state):
            complete = True
            break
        agent, state, new_events = step(agent, state, models, cfg, rng)
        events.extend(new_events)
    if env.is_complete(state):
        complete = True
    return Trace(
        events=tuple(events),
        complete=complete,
        final_target=env.render_target(state),
        seed=seed,
        strategy=cfg.strategy,
        latent=latent,
        prior_entropy=prior_entropy,
    )
