"""Min-of-N in-process times of the EFE and step-loop layers that ROADMAP's baseline quotes.

    PYTHONPATH=src python tests/layer_times.py [--repeat N]

It runs one paired compare sweep on the bundled task from an empty
selection memo: for each of the six latents and each episode seed
262,600,000-262,600,099, a head-starter episode then a planner episode
(the first pass of the seed-2626 compare_sweep workload). It records the
arguments of every selection-memo miss and of every call the step makes to
agent._recompute_working (the working-belief rebuild) and agent.bayes_update
(the cue update) that returns, then times, min of N repeats:

- the cold planner opening (the one miss whose policies are more than one
  action long): enumerate_policies and score_policies, in ms, and the
  set-up of its level walk (inference._Rollout), in us;
- the one-action misses: the whole miss (the memoised function's body:
  enumeration, scoring, posterior) and score_policies alone, in us per
  decision;
- the step's working-belief rebuilds and cue updates, in us per call;
- the whole sweep's episodes from an empty memo, in ms.

Each figure is the fastest repeat's total over its decisions. pytest does
not collect this file.
"""

import argparse
import functools
import time

from abctrans import agent, inference
from abctrans.agent import (
    CognitiveState,
    clear_selection_cache,
    enumerate_policies,
    head_starter_config,
    large_context_planner_config,
    run_episode,
)
from abctrans.inference import score_policies
from abctrans.taskfile import bundled_task_path, load_task

SWEEP_SEED = 2626
SWEEP_SEEDS = 100


def sweep(models) -> None:
    """The sweep's episodes, in the order the workload runs them."""
    configs = (head_starter_config(), large_context_planner_config())
    base = SWEEP_SEED * 1000 * SWEEP_SEEDS
    for latent in models.space.labels:
        for seed in range(base, base + SWEEP_SEEDS):
            for cfg in configs:
                run_episode(cfg, models, latent=latent, seed=seed)


STEP_LAYERS = ("_recompute_working", "bayes_update")


def recorded_calls(models) -> dict[str, list]:
    """The sweep's selection-memo misses and step-layer calls, in the order met.

    "misses" holds each miss's argument tuple; each name in STEP_LAYERS
    holds its calls as zero-argument partials of the layer. A step-layer
    call that raised is not kept.
    """
    calls = {"misses": []}
    memoised = agent._scored_policies
    originals = {name: getattr(agent, name) for name in STEP_LAYERS}

    @functools.lru_cache(maxsize=65536)
    def recording(*args):
        calls["misses"].append(args)
        return memoised.__wrapped__(*args)

    def recorder(name):
        calls[name], layer = [], originals[name]

        def record(*args, **kwargs):
            result = layer(*args, **kwargs)
            calls[name].append(functools.partial(layer, *args, **kwargs))
            return result
        return record

    agent._scored_policies = recording
    for name in STEP_LAYERS:
        setattr(agent, name, recorder(name))
    try:
        sweep(models)
    finally:
        agent._scored_policies = memoised
        for name, layer in originals.items():
            setattr(agent, name, layer)
    return calls


def decision(args) -> tuple:
    """(enumerate, score, set-up, width): zero-argument calls of one miss's layers, as the miss makes them.

    set-up builds the level walk's tables for the miss's policies, as
    score_policies does for policies more than one action (width) long.
    """
    models, cfg, belief, placed, read_set, last_was_pause, zeta, _ = args
    horizon = cfg.horizon
    if horizon is None:
        horizon = max(1, sum(c not in read_set for c in models.space.table.source_order))
    cognitive = CognitiveState(belief, belief, placed, read_set)
    policies = enumerate_policies(cognitive, models.space, horizon, cfg, last_was_pause)

    def enumerate_():
        return enumerate_policies(cognitive, models.space, horizon, cfg, last_was_pause)

    def score():
        return score_policies(belief, policies, models, cfg.prefs, w_e=cfg.w_e, w_p=cfg.w_p,
                              read_chunks=read_set, zeta=zeta)

    def setup():
        return inference._Rollout(models, cfg.prefs, zeta, policies, read_set, belief)

    return enumerate_, score, setup, policies.ids.shape[1]


def fastest(calls, repeat: int) -> float:
    """Seconds of the fastest of repeat runs of every call in turn."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9, help="repeats per figure (default 9)")
    args = parser.parse_args()
    models = load_task(bundled_task_path()).evidence
    clear_selection_cache()
    recorded = recorded_calls(models)
    misses = recorded["misses"]
    decisions = [decision(miss) for miss in misses]
    one = [(miss, score) for miss, (_, score, _, width) in zip(misses, decisions) if width == 1]
    wide = [(enumerate_, score, setup) for enumerate_, score, setup, width in decisions if width > 1]
    print(f"compare sweep, seed {SWEEP_SEED}: {len(misses)} misses, {len(one)} of one action, "
          f"min of {args.repeat}")
    for enumerate_, score, setup in wide:
        print(f"  opening enumerate_policies  {fastest([enumerate_], args.repeat) * 1e3:8.3f} ms")
        print(f"  opening score_policies      {fastest([score], args.repeat) * 1e3:8.3f} ms")
        print(f"  opening _Rollout set-up     {fastest([setup], args.repeat) * 1e6:8.1f} us")
    whole = [functools.partial(agent._scored_policies.__wrapped__, *miss) for miss, _ in one]
    for name, calls in (("whole miss", whole), ("score_policies", [score for _, score in one])):
        print(f"  one-action {name:<16} {fastest(calls, args.repeat) * 1e6 / len(one):8.1f} us per decision")
    for name in STEP_LAYERS:
        layer = recorded[name]
        print(f"  {name:<27} {fastest(layer, args.repeat) * 1e6 / len(layer):8.2f} us per call "
              f"({len(layer)} calls)")
    cold_sweep = [clear_selection_cache, functools.partial(sweep, models)]
    print(f"  sweep from an empty memo    {fastest(cold_sweep, args.repeat) * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
