"""Golden digest of the 576-episode grid: seeded simulation stays byte-identical.

The grid is both presets x argmax and sampling x six content reliabilities
(one ReadingEvidenceModel.with_defaults each) x the six latents of the
bundled sentence x seeds 0-3, every episode at the default max_steps.
GRID_SHA256 is one sha256 over each trace's ``repr`` followed by a newline,
in that loop order. A change that moves any seeded trace updates
GRID_SHA256 and says in CHANGES.md which traces moved and why.
"""

import hashlib

from abctrans.agent import head_starter_config, large_context_planner_config, run_episode
from abctrans.task import ReadingEvidenceModel

GRID_SHA256 = "b33cdd6929ba3de39fb677a7ffe657baa85125655f9773d78fb18527b07c3306"

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
