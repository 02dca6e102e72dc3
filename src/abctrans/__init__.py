"""Enactive-inference simulator of translation production with process analytics."""

__version__ = "0.1.0"

from .task import (
    Categorical,
    CandidateOrdering,
    CandidateSpace,
    Chunk,
    ChunkTable,
    ReadingEvidenceModel,
    build_candidate_space,
    lexical_entropy,
    positional_entropy,
)
from .inference import (
    ContradictionError,
    EFEDecomposition,
    PreferenceVector,
    bayes_update,
    expected_free_energy,
    expected_information_gain,
    policy_posterior,
    score_policies,
    shannon_entropy,
)
from .agent import (
    AgentConfig,
    head_starter_config,
    large_context_planner_config,
    run_episode,
)
from .trace import ProcessEvent, Trace
