"""The livelock sweep and the episode fuzz on generated tasks.

    PYTHONPATH=src python tests/sweeps.py

The sweep runs the planner preset at content reliability 0.8, 0.9, 0.95
and 0.99 on the tasks generated_space(n, k, s) for (n, k) in (3, 6),
(3, 12), (4, 6) and (4, 12) and task seeds s = 1-3: the first six latents,
episode seeds 0-2, max_steps=60. That is 216 episodes per reliability, and
the script prints how many of them end incomplete.

The fuzz runs 5,000 episodes, each on a task drawn from a fixed seed:
1-4 content chunks, up to 12 orderings, a reliability per
chunk drawn from 0.0, 0.5, 1.0 and uniform [0, 1], either preset, argmax
or sampled policies, max_steps=60. It prints how many episodes raised and
how many of each preset's ended at max_steps. Any raise is listed and
makes the exit code 1; the listed task parameters and episode seed
reproduce it.

pytest does not collect this file. The selection memo is emptied after
every task, so memory stays flat.
"""

import math
import random
import sys
import traceback

from abctrans.agent import (
    clear_selection_cache,
    head_starter_config,
    large_context_planner_config,
    run_episode,
)
from abctrans.task import ReadingEvidenceModel

from gentask import generated_space

SWEEP_CONTENT = (0.8, 0.9, 0.95, 0.99)
SWEEP_TASKS = ((3, 6), (3, 12), (4, 6), (4, 12))
FUZZ_EPISODES = 5_000
FUZZ_SEED = 0


def livelock_sweep() -> dict[float, tuple[int, int]]:
    """Reliability -> (incomplete episodes, episodes)."""
    cfg = large_context_planner_config()
    counts = {}
    for content in SWEEP_CONTENT:
        incomplete = episodes = 0
        for n, k in SWEEP_TASKS:
            for task_seed in (1, 2, 3):
                models = ReadingEvidenceModel.with_defaults(generated_space(n, k, task_seed), content=content)
                for latent in models.space.labels[:6]:
                    for seed in range(3):
                        trace = run_episode(cfg, models, latent=latent, seed=seed, max_steps=60)
                        incomplete += not trace.complete
                        episodes += 1
                clear_selection_cache()
        counts[content] = incomplete, episodes
    return counts


def fuzz() -> tuple[list[str], dict[str, list[int]]]:
    """(one line per episode that raised, preset -> [episodes, ended at max_steps])."""
    rng = random.Random(FUZZ_SEED)
    raised, ends = [], {}
    for _ in range(FUZZ_EPISODES):
        n = rng.randint(1, 4)
        k = rng.randint(1, min(12, math.factorial(n + 1)))
        space = generated_space(n, k, rng.randint(1, 1000))
        overrides = {cid: rng.choice([0.0, 0.5, 1.0, rng.random()]) for cid in sorted(space.table.chunk_ids)}
        preset = rng.choice([head_starter_config, large_context_planner_config])
        cfg = preset(sample_policies=rng.random() < 0.5)
        latent = rng.choice(space.labels)
        episode_seed = rng.randrange(2**31)
        case = f"n={n} k={k} reliabilities={overrides} {cfg.strategy} sampling={cfg.sample_policies} " \
               f"latent={latent} seed={episode_seed}"
        tally = ends.setdefault(cfg.strategy, [0, 0])
        tally[0] += 1
        try:
            models = ReadingEvidenceModel.with_defaults(space, overrides=overrides)
            trace = run_episode(cfg, models, latent=latent, seed=episode_seed, max_steps=60)
        except Exception:
            raised.append(f"{case}: {traceback.format_exc(limit=1).strip()}")
        else:
            tally[1] += trace.stop_reason == "max_steps"
        clear_selection_cache()
    return raised, ends


def main() -> int:
    print("livelock sweep, planner preset, max_steps=60: incomplete episodes per content reliability")
    for content, (incomplete, episodes) in livelock_sweep().items():
        print(f"  content {content}: {incomplete} of {episodes}")
    raised, ends = fuzz()
    print(f"fuzz, seed {FUZZ_SEED}: {FUZZ_EPISODES} episodes, {len(raised)} raised")
    for strategy, (runs, at_max) in sorted(ends.items()):
        print(f"  {strategy}: {at_max} of {runs} ended at max_steps")
    for line in raised:
        print(f"  raised: {line}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
