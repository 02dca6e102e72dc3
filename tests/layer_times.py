"""Min-of-N in-process times of the EFE and step-loop layers that ROADMAP's baseline quotes.

    PYTHONPATH=src python tests/layer_times.py [--repeat N] [--against DIR]

It runs one paired compare sweep on the bundled task from an empty
selection memo: for each of the six latents and each episode seed
262,600,000-262,600,099, a head-starter episode then a planner episode
(the first pass of the seed-2626 compare_sweep workload). It records the
arguments of every selection-memo miss and of every call the step makes to
agent._recompute_working (the working-belief rebuild) and agent.bayes_update
(the cue update) that returns, then times, min of N rounds:

- the cold planner opening (the one miss whose policies are more than one
  action long): enumerate_policies and score_policies, in ms, and the
  set-up of its level walk (inference._Rollout), in us;
- the one-action misses, in us per decision: the whole miss (the memoised
  function's body), and its enumerate_policies, score_policies and
  policy_posterior calls alone; "the rest" is the whole less those three;
- the step's working-belief rebuilds and cue updates, in us per call;
- the whole sweep's episodes from an empty memo, in ms.

Each figure is the fastest round's total over its calls. With --against
DIR, DIR is another checkout holding src/abctrans (made with git archive,
say). Its package is loaded in this process as the module
abctrans_against, every recorded call's arguments are rebuilt with its
classes, and each round times every layer on both sides, one side then the
other, the first side alternating between rounds. Each line then gives this
side's fastest round, DIR's, and the median over rounds of this side's
time over DIR's. Timing both in one process, alternately, over the same
calls keeps a shared host's drift out of the ratio. pytest does not collect
this file.
"""

import argparse
import dataclasses
import functools
import importlib.util
import statistics
import sys
import time
import types
from pathlib import Path

import abctrans
from abctrans import agent, inference, task

SWEEP_SEED = 2626
SWEEP_SEEDS = 100
STEP_LAYERS = ("_recompute_working", "bayes_update")
ONE_ACTION = ("enumerate_policies", "score_policies", "policy_posterior")


def package(module) -> types.SimpleNamespace:
    """The modules of one abctrans package, and its bundled task's evidence model."""
    names = ("agent", "inference", "task", "taskfile")
    pkg = types.SimpleNamespace(**{name: importlib.import_module(f"{module.__name__}.{name}") for name in names})
    pkg.models = pkg.taskfile.load_task(pkg.taskfile.bundled_task_path()).evidence
    return pkg


def load_against(directory: str) -> types.SimpleNamespace:
    """DIR/src/abctrans, imported under the name abctrans_against."""
    root = Path(directory, "src", "abctrans")
    spec = importlib.util.spec_from_file_location(
        "abctrans_against", root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return package(module)


def rebuild(value, pkg):
    """value with this package's models, configs, preferences and beliefs remade by pkg's classes.

    Tuples are rebuilt item by item; anything else is shared.
    """
    if type(value) is tuple:
        return tuple(rebuild(item, pkg) for item in value)
    if isinstance(value, task.ReadingEvidenceModel):
        return pkg.models
    if isinstance(value, task.Categorical):
        return pkg.task.Categorical(value.probs)
    for mine, theirs in ((agent.AgentConfig, pkg.agent.AgentConfig),
                         (inference.PreferenceVector, pkg.inference.PreferenceVector)):
        if isinstance(value, mine):
            return theirs(**{f.name: rebuild(getattr(value, f.name), pkg) for f in dataclasses.fields(value)})
    return value


def sweep(pkg) -> None:
    """The sweep's episodes, in the order the workload runs them."""
    configs = (pkg.agent.head_starter_config(), pkg.agent.large_context_planner_config())
    base = SWEEP_SEED * 1000 * SWEEP_SEEDS
    for latent in pkg.models.space.labels:
        for seed in range(base, base + SWEEP_SEEDS):
            for cfg in configs:
                pkg.agent.run_episode(cfg, pkg.models, latent=latent, seed=seed)


def recorded_calls(pkg) -> dict[str, list]:
    """The sweep's selection-memo misses and step-layer calls, in the order met.

    "misses" holds each miss's argument tuple; each name in STEP_LAYERS
    holds its calls as (args, kwargs). A step-layer call that raised is not
    kept.
    """
    calls = {"misses": []}
    memoised = pkg.agent._scored_policies
    originals = {name: getattr(pkg.agent, name) for name in STEP_LAYERS}

    @functools.lru_cache(maxsize=65536)
    def recording(*args):
        calls["misses"].append(args)
        return memoised.__wrapped__(*args)

    def recorder(name):
        calls[name], layer = [], originals[name]

        def record(*args, **kwargs):
            result = layer(*args, **kwargs)
            calls[name].append((args, kwargs))
            return result
        return record

    pkg.agent.clear_selection_cache()
    pkg.agent._scored_policies = recording
    for name in STEP_LAYERS:
        setattr(pkg.agent, name, recorder(name))
    try:
        sweep(pkg)
    finally:
        pkg.agent._scored_policies = memoised
        for name, layer in originals.items():
            setattr(pkg.agent, name, layer)
    return calls


def decision(pkg, args) -> dict:
    """Zero-argument calls of one miss's layers, as the miss makes them, by layer name, and its width.

    "set-up" builds the level walk's tables for the miss's policies, as
    score_policies does for policies more than one action ("width") long.
    """
    models, cfg, belief, placed, read_set, last_was_pause, zeta, gamma = args
    horizon = cfg.horizon
    if horizon is None:
        horizon = max(1, sum(c not in read_set for c in models.space.table.source_order))
    cognitive = pkg.agent.CognitiveState(belief, belief, placed, read_set)
    enumerate_ = functools.partial(pkg.agent.enumerate_policies, cognitive, models.space, horizon, cfg,
                                   last_was_pause)
    policies = enumerate_()
    score = functools.partial(pkg.agent.score_policies, belief, policies, models, cfg.prefs, w_e=cfg.w_e,
                              w_p=cfg.w_p, read_chunks=read_set, zeta=zeta)
    return {
        "whole miss": functools.partial(pkg.agent._scored_policies.__wrapped__, *args),
        "enumerate_policies": enumerate_,
        "score_policies": score,
        "policy_posterior": functools.partial(pkg.agent.policy_posterior, score()[2], gamma=gamma),
        "set-up": functools.partial(pkg.inference._Rollout, models, cfg.prefs, zeta, policies, read_set, belief),
        "width": policies.ids.shape[1],
    }


def layers(pkg, recorded: dict) -> dict[str, tuple[list, float, str]]:
    """Per printed layer: (zero-argument calls, scale of a round's seconds, unit), for one side."""
    misses = [decision(pkg, miss) for miss in recorded["misses"]]
    one = [miss for miss in misses if miss["width"] == 1]
    table = {}
    for miss in misses:
        if miss["width"] > 1:
            table["opening enumerate_policies"] = [miss["enumerate_policies"]], 1e3, "ms"
            table["opening score_policies"] = [miss["score_policies"]], 1e3, "ms"
            table["opening _Rollout set-up"] = [miss["set-up"]], 1e6, "us"
    for name in ("whole miss", *ONE_ACTION):
        table[f"one-action {name}"] = [miss[name] for miss in one], 1e6 / len(one), "us per decision"
    for name in STEP_LAYERS:
        calls = [functools.partial(getattr(pkg.agent, name), *args, **kwargs) for args, kwargs in recorded[name]]
        table[name] = calls, 1e6 / len(calls), f"us per call ({len(calls)} calls)"
    table["sweep from an empty memo"] = [pkg.agent.clear_selection_cache, functools.partial(sweep, pkg)], 1e3, "ms"
    return table


def seconds(calls) -> float:
    """Seconds taken by one run of every call in turn, right after one untimed run that warms them."""
    for call in calls:
        call()
    start = time.perf_counter()
    for call in calls:
        call()
    return time.perf_counter() - start


def rounds(sides: list[dict], repeat: int) -> dict[str, list[list[float]]]:
    """Per layer, per round, each side's scaled time; the first side alternates between rounds."""
    times = {name: [] for name in sides[0]}
    for r in range(repeat):
        order = list(range(len(sides)))[::1 if r % 2 == 0 else -1]
        for name in sides[0]:
            taken = [0.0] * len(sides)
            for s in order:
                calls, scale, _ = sides[s][name]
                taken[s] = seconds(calls) * scale
            times[name].append(taken)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9, help="rounds per figure (default 9)")
    parser.add_argument("--against", metavar="DIR", help="also time DIR's package and print paired ratios")
    args = parser.parse_args()
    pkg = package(abctrans)
    recorded = recorded_calls(pkg)
    sides = [layers(pkg, recorded)]
    if args.against:
        other = load_against(args.against)
        sides.append(layers(other, {key: [rebuild(call, other) for call in calls] for key, calls in recorded.items()}))
    one = len(sides[0]["one-action whole miss"][0])
    print(f"compare sweep, seed {SWEEP_SEED}: {len(recorded['misses'])} misses, {one} of one action, "
          f"min of {args.repeat}"
          + (f"; this side, {args.against}, median paired ratio" if args.against else ""))
    times = rounds(sides, args.repeat)
    fastest = {name: [min(row[s] for row in per_round) for s in range(len(sides))]
               for name, per_round in times.items()}
    units = {name: unit for name, (_, _, unit) in sides[0].items()}
    # The rest of a miss: its fastest figure is the whole's less the three
    # layers', and its ratio pairs each round's differences.
    rest = "one-action the rest"
    parts = ["one-action whole miss"] + [f"one-action {name}" for name in ONE_ACTION]
    times[rest] = [[row[0] - sum(row[1:]) for row in zip(*(times[part][r] for part in parts))]
                   for r in range(args.repeat)]
    fastest[rest] = [whole - sum(layer) for whole, *layer in zip(*(fastest[part] for part in parts))]
    units[rest] = units[parts[0]]
    for name, per_round in times.items():
        line = f"  {name:<30}" + "".join(f" {value:9.3f}" for value in fastest[name])
        if args.against:
            line += f"   {statistics.median(row[0] / row[1] for row in per_round):6.3f}"
        print(f"{line}  {units[name]}")


if __name__ == "__main__":
    main()
