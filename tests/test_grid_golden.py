"""Golden digest of the 576-episode grid: seeded simulation stays byte-identical.

The grid is both presets x argmax and sampling x six content reliabilities
(one ReadingEvidenceModel.with_defaults each) x the six latents of the
bundled sentence x seeds 0-3, every episode at the default max_steps.
GRID_SHA256 is one sha256 over each trace's ``repr`` followed by a newline,
in that loop order. A change that moves any seeded trace updates
GRID_SHA256 and says in CHANGES.md which traces moved and why.

On the bundled task every belief has six entries, and numpy sums a row that
short left to right. GENERATED_GRID_SHA256 pins traces whose beliefs are
longer: tests/gentask.py tasks of 4 content chunks and 12 orderings and of 3
content chunks and 24 orderings (task seed 1), where numpy sums a row with
eight accumulators folded pairwise, 12 entries with a tail of four and 24
with none. The grid is the head-starter, the planner and the sampling
planner x content reliabilities 0.6, 0.9 and 0.99 x every (k / 4)-th latent
x seeds 0-1, 144 episodes hashed the same way, in that loop order.
"""

import hashlib

from abctrans.agent import head_starter_config, large_context_planner_config, run_episode
from abctrans.task import ReadingEvidenceModel

from gentask import generated_space

GRID_SHA256 = "b33cdd6929ba3de39fb677a7ffe657baa85125655f9773d78fb18527b07c3306"
GENERATED_GRID_SHA256 = "bd465edb785042bd1b7fdbe82e2c1ddbe9a623ee20653b5b5cb3c2ff773fa5f0"

PRESETS = (head_starter_config, large_context_planner_config)
CONTENT = (0.8, 0.3, 1.0, 0.6, 0.9, 0.99)
SEEDS = (0, 1, 2, 3)


def grid_traces(space):
    for preset in PRESETS:
        for sample_policies in (False, True):
            cfg = preset(sample_policies=sample_policies)
            for content in CONTENT:
                models = ReadingEvidenceModel.with_defaults(space, content=content)
                for latent in space.labels:
                    for seed in SEEDS:
                        yield run_episode(cfg, models, latent=latent, seed=seed)


def test_grid_traces_match_the_golden_digest(space):
    digest = hashlib.sha256()
    count = 0
    for trace in grid_traces(space):
        digest.update(repr(trace).encode("utf-8") + b"\n")
        count += 1
    assert count == 576
    assert digest.hexdigest() == GRID_SHA256


def generated_grid_traces():
    configs = (
        head_starter_config(),
        large_context_planner_config(),
        large_context_planner_config(sample_policies=True),
    )
    for n, k in ((4, 12), (3, 24)):
        space = generated_space(n, k, 1)
        for cfg in configs:
            for content in (0.6, 0.9, 0.99):
                models = ReadingEvidenceModel.with_defaults(space, content=content)
                for latent in space.labels[::k // 4]:
                    for seed in (0, 1):
                        yield run_episode(cfg, models, latent=latent, seed=seed)


def test_generated_grid_traces_match_the_golden_digest():
    digest = hashlib.sha256()
    count = revisions = 0
    for trace in generated_grid_traces():
        digest.update(repr(trace).encode("utf-8") + b"\n")
        count += 1
        revisions += sum("revision" in e.annotations for e in trace.events)
    assert count == 144
    assert revisions > 0  # the revision loop's rebuilds are covered too
    assert digest.hexdigest() == GENERATED_GRID_SHA256
