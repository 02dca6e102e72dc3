import math

import pytest

from abctrans.task import Categorical, Chunk, ChunkTable, ReadingEvidenceModel, build_candidate_space
from abctrans.trace import ProcessEvent

CHUNK_TEXTS = {
    1: ("As a result,", "その結果"),
    2: ("full-time leaders, bureaucrats, or artisans", "絶対的リーダーや官僚、職人が"),
    3: ("are rarely supported", "支持されることは、めったにありませんでした"),
    4: ("by hunter-gatherer societies", "狩猟採集民族社会から"),
}

ORDERINGS = {
    "TT0": (1, 0, 2, 4, 3),
    "TT1": (2, 1, 0, 4, 3),
    "TT2": (1, 2, 0, 4, 3),
    "TT3": (1, 0, 4, 2, 3),
    "TT4": (1, 4, 0, 2, 3),
    "TT5": (4, 1, 0, 2, 3),
}


def make_table() -> ChunkTable:
    chunks = tuple(
        Chunk(cid, src, tgt) for cid, (src, tgt) in sorted(CHUNK_TEXTS.items())
    ) + (Chunk(0, "", "、", kind="punctuation"),)
    return ChunkTable(chunks=chunks, source_order=(1, 2, 3, 4))


@pytest.fixture(scope="session")
def table():
    return make_table()


@pytest.fixture(scope="session")
def space(table):
    return build_candidate_space(table, list(ORDERINGS.values()), labels=tuple(ORDERINGS))


@pytest.fixture(scope="session")
def models(space):
    return ReadingEvidenceModel.with_defaults(space)


@pytest.fixture
def event_builds(monkeypatch):
    """A one-item list counting the ProcessEvents constructed while the test runs."""
    built = [0]
    check = ProcessEvent.__post_init__

    def counting(self):
        built[0] += 1
        check(self)

    monkeypatch.setattr(ProcessEvent, "__post_init__", counting)
    return built


def render_of(space, label: str) -> str:
    """Expected target string for one candidate ordering."""
    ordering = space.ordering(label)
    return "".join(space.table.chunk(c).target_text for c in ordering.slots)


def point_mass(n: int, index: int) -> Categorical:
    """A belief with all its mass on one ordering."""
    probs = [0.0] * n
    probs[index] = 1.0
    return Categorical(tuple(probs))


def entropy_of_counts(counts) -> float:
    """Independent entropy oracle over a histogram."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h
