"""Golden digest of a small seeded sweep: seeded outputs stay byte-identical.

The digest covers ``repr(trace)`` and the TSV export of every episode. A
change that moves any seeded output updates GOLDEN_SHA256 and says in
CHANGES.md which outputs moved and why.
"""

import hashlib

from abctrans.agent import head_starter_config, large_context_planner_config, run_episode
from abctrans.analysis import export_progression, group_policies, segment_ohrf
from abctrans.task import ReadingEvidenceModel

from test_agent import revising_episode

GOLDEN_SHA256 = "8efebdbf9b6c8aec38a18ec15dca42abfa0c8d4afefc57e1bfef49b69b8a9267"


def golden_sweep(space, models):
    noisy = ReadingEvidenceModel.with_defaults(space, content=0.8)
    traces = [revising_episode(space)]
    for latent in space.labels:
        for seed in (0, 1):
            traces.append(run_episode(head_starter_config(), models, latent=latent, seed=seed))
            traces.append(
                run_episode(head_starter_config(sample_policies=True), noisy, latent=latent, seed=seed)
            )
    for latent in ("TT1", "TT5"):
        for seed in (0, 1):
            traces.append(
                run_episode(head_starter_config(gamma_max=0.5), models, latent=latent, seed=seed)
            )
            traces.append(run_episode(large_context_planner_config(), models, latent=latent, seed=seed))
    return traces


def test_seeded_traces_match_the_golden_digest(space, models):
    traces = golden_sweep(space, models)
    annotations = {a for trace in traces for e in trace.events for a in e.annotations}
    assert {"revision", "hesitation"} <= annotations
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(repr(trace).encode("utf-8"))
        segments = segment_ohrf(trace)
        digest.update(export_progression(trace, segments, group_policies(segments), "tsv"))
    assert digest.hexdigest() == GOLDEN_SHA256
