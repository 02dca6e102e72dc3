"""Golden digest of EFE scores: scoring refactors keep every float bitwise.

The digest covers ``repr`` of the (epistemic, pragmatic, total) split of
every planner opening policy at horizon 4, for each content reliability and
zeta below, and of every decision one seeded planner episode scores, each
scored afresh. ``repr`` of a float is exact, so any change in a summation
order shows. A change that moves any score updates EFE_SHA256 and says in
CHANGES.md which scores moved and why.

GENERATED_SHA256 covers the horizon-4 planner opening of a generated task
(4 content chunks, 12 orderings, 1,686 policies), whose walk levels batch
far more channels and restrictions than the bundled task's.
WIDE_SHA256 covers the horizon-5 planner opening of a generated task with
5 content chunks and 12 orderings, capped at 4,096 policies. Its walk's
keys are the sparsest seen: in one dedup the largest key is about 48 times
the number of keys, so inference._distinct sorts there and counts in every
other, and the digest pins both paths.
BROAD_SHA256 covers the horizon-4 planner opening of a generated task with
4 content chunks and 24 orderings (2,922 policies): a read node there has
up to 24 cue branches, the widest sums of any pinned opening.
"""

import hashlib

from abctrans import agent
from abctrans.agent import (
    _scored_policies,
    enumerate_policies,
    initial_agent_state,
    large_context_planner_config,
    run_episode,
)
from abctrans.inference import score_policies
from abctrans.task import ReadingEvidenceModel
from gentask import generated_space

EFE_SHA256 = "7d53bbb4be660c8291de3bb37dc0017e5684f8d6808aa476615ebb89cae86666"
GENERATED_SHA256 = "cdbe700febb558be77f2ffe1504111a30083658c549eb97d0dfe9cbf4b065719"
WIDE_SHA256 = "022c4ccb49af169f8bf2559a88a27a33750aa9f47b7321cf7935a9fe5ba8558e"
BROAD_SHA256 = "9de48e0be79e2afd07cec2a2d71a36c8f839b22710f4ec84dd6a220d8db42629"


def split(scores):
    # the repr of one (epistemic, pragmatic, total) tuple per policy
    return repr(tuple(zip(*(column.tolist() for column in scores)))).encode("utf-8")


def test_efe_scores_match_the_golden_digest(space, monkeypatch):
    digest = hashlib.sha256()
    cfg = large_context_planner_config()
    start = initial_agent_state(space, cfg).cognitive
    policies = enumerate_policies(start, space, 4, cfg)
    assert len(policies) == 1206
    for content in (0.3, 0.8, 0.99):
        models = ReadingEvidenceModel.with_defaults(space, content=content)
        for zeta in (1.0, 1.15):
            digest.update(split(score_policies(
                space.prior, policies, models, cfg.prefs,
                w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(), zeta=zeta,
            )))

    decisions = []

    def scored_afresh(*args):
        result = _scored_policies.__wrapped__(*args)
        decisions.append((result.epistemic, result.pragmatic, result.totals))
        return result

    monkeypatch.setattr(agent, "_scored_policies", scored_afresh)
    models = ReadingEvidenceModel.with_defaults(space, content=0.8)
    run_episode(cfg, models, latent="TT2", seed=0)
    assert [len(totals) for _, _, totals in decisions] == [1206, 4, 3, 4, 3, 2, 2, 2]
    for scores in decisions:
        digest.update(split(scores))
    assert digest.hexdigest() == EFE_SHA256


def test_generated_opening_scores_match_the_golden_digest():
    digest = hashlib.sha256()
    space = generated_space(4, 12, 1)
    cfg = large_context_planner_config()
    start = initial_agent_state(space, cfg).cognitive
    policies = enumerate_policies(start, space, 4, cfg)
    assert len(policies) == 1686
    models = ReadingEvidenceModel.with_defaults(space, content=0.9)
    for zeta in (1.0, 1.15):
        digest.update(split(score_policies(
            space.prior, policies, models, cfg.prefs,
            w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(), zeta=zeta,
        )))
    assert digest.hexdigest() == GENERATED_SHA256


def test_broad_generated_opening_scores_match_the_golden_digest():
    digest = hashlib.sha256()
    space = generated_space(4, 24, 1)
    cfg = large_context_planner_config()
    start = initial_agent_state(space, cfg).cognitive
    policies = enumerate_policies(start, space, 4, cfg)
    assert len(policies) == 2922
    models = ReadingEvidenceModel.with_defaults(space, content=0.9)
    for zeta in (1.0, 1.15):
        digest.update(split(score_policies(
            space.prior, policies, models, cfg.prefs,
            w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(), zeta=zeta,
        )))
    assert digest.hexdigest() == BROAD_SHA256


def test_wide_generated_opening_scores_match_the_golden_digest():
    space = generated_space(5, 12, 1)
    cfg = large_context_planner_config()
    start = initial_agent_state(space, cfg).cognitive
    policies = enumerate_policies(start, space, 5, cfg)
    assert len(policies) == cfg.max_policies == 4096
    models = ReadingEvidenceModel.with_defaults(space, content=0.9)
    scores = score_policies(
        space.prior, policies, models, cfg.prefs,
        w_e=cfg.w_e, w_p=cfg.w_p, read_chunks=frozenset(), zeta=1.0,
    )
    assert hashlib.sha256(split(scores)).hexdigest() == WIDE_SHA256
