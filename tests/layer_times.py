"""Min-of-N in-process times of the EFE layers that ROADMAP's baseline quotes.

    PYTHONPATH=src python tests/layer_times.py [--repeat N]

It runs one paired compare sweep on the bundled task from an empty
selection memo: for each of the six latents and each episode seed
262,600,000-262,600,099, a head-starter episode then a planner episode
(the first pass of the seed-2626 compare_sweep workload). It records the
arguments of every selection-memo miss, then times, min of N repeats:

- the cold planner opening (the one miss whose policies are more than one
  action long): enumerate_policies and score_policies, in ms;
- the one-action misses: the whole miss (the memoised function's body:
  enumeration, scoring, posterior) and score_policies alone, in us per
  decision;
- the whole sweep's episodes from an empty memo, in ms.

Each figure is the fastest repeat's total over its decisions. pytest does
not collect this file.
"""

import argparse
import functools
import time

from abctrans import agent
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


def recorded_misses(models) -> list[tuple]:
    """The argument tuples of every selection-memo miss of the sweep, in the order met."""
    misses, memoised = [], agent._scored_policies

    @functools.lru_cache(maxsize=65536)
    def recording(*args):
        misses.append(args)
        return memoised.__wrapped__(*args)

    agent._scored_policies = recording
    try:
        sweep(models)
    finally:
        agent._scored_policies = memoised
    return misses


def decision(args) -> tuple:
    """(enumerate, score): zero-argument calls of one miss's two layers, as the miss makes them."""
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

    return enumerate_, score, policies.ids.shape[1]


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
    misses = recorded_misses(models)
    decisions = [decision(miss) for miss in misses]
    one = [(miss, score) for miss, (_, score, width) in zip(misses, decisions) if width == 1]
    wide = [(enumerate_, score) for enumerate_, score, width in decisions if width > 1]
    print(f"compare sweep, seed {SWEEP_SEED}: {len(misses)} misses, {len(one)} of one action, "
          f"min of {args.repeat}")
    for enumerate_, score in wide:
        print(f"  opening enumerate_policies  {fastest([enumerate_], args.repeat) * 1e3:8.3f} ms")
        print(f"  opening score_policies      {fastest([score], args.repeat) * 1e3:8.3f} ms")
    whole = [functools.partial(agent._scored_policies.__wrapped__, *miss) for miss, _ in one]
    for name, calls in (("whole miss", whole), ("score_policies", [score for _, score in one])):
        print(f"  one-action {name:<16} {fastest(calls, args.repeat) * 1e6 / len(one):8.1f} us per decision")
    cold_sweep = [clear_selection_cache, functools.partial(sweep, models)]
    print(f"  sweep from an empty memo    {fastest(cold_sweep, args.repeat) * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
