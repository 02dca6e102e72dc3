"""Translation task model: chunks, candidate target orderings, and entropy analytics.

The task is a single source sentence segmented into translation chunks
(four content phrases plus a comma). Each candidate target translation is a
permutation of chunk placements over target slots; all candidates share one
vocabulary, so the only uncertainty is word order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONTENT = "content"
PUNCTUATION = "punctuation"

# Reliability value that makes a reading cue carry no ordering information.
UNINFORMATIVE = 0.5


class TaskError(ValueError):
    """Invalid chunk table, ordering, or evidence configuration."""


class DuplicateOrderingError(TaskError):
    """Two candidate orderings assign identical slot layouts."""


class UnknownChunkError(TaskError):
    """Chunk id not present in the table or candidate space."""


def entropy_bits(probs) -> float:
    """Shannon entropy in bits with the 0*log(0) = 0 convention."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def row_entropies(rows: np.ndarray) -> np.ndarray:
    """entropy_bits of each row of a 2-D array of probabilities, bitwise.

    math.log2 runs once per distinct probability. np.log2 must not replace
    it: with numpy 2.4.6 it differs from math.log2 on about 0.2% of doubles
    (4,136 of 2.1M uniform draws). Each entropy subtracts p * log2(p) over
    the row, left to right from 0.0, as entropy_bits does: np.cumsum adds
    p * -log2(p), the same value negated, in that order, from the first
    term rather than from 0.0. That and a p == 0, which adds 0.0 where
    entropy_bits skips it, can only turn a 0.0 into -0.0, and the final
    + 0.0 turns it back.
    """
    values = np.sort(rows, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    minus_logs = np.array([-math.log2(p) if p > 0.0 else 0.0 for p in values.tolist()])
    terms = rows * minus_logs[np.searchsorted(values, rows)]
    return terms.cumsum(axis=1)[:, -1] + 0.0


def information_gains(h_before: np.ndarray, counts: np.ndarray, weights: np.ndarray,
                      h_after: np.ndarray) -> np.ndarray:
    """Each channel's gain: its belief's entropy less its branches' weighted entropies, floored at 0.

    The branches (weights, h_after) follow channel by channel, counts[i]
    of them for channel i. Each weighted sum adds w * h left to right from
    0.0, as Python's sum does from 0: one np.cumsum over a row per channel,
    padded with 0.0, which leaves a non-negative sum as it was.
    """
    width = counts.max()
    sums = np.zeros((len(counts), width + 1))  # column 0 is the 0.0 each sum starts from
    sums[:, 1:][np.arange(width) < counts[:, None]] = weights * h_after
    return np.maximum(h_before - sums.cumsum(axis=1)[:, -1], 0.0)


@dataclass(frozen=True)
class Chunk:
    id: int
    source_text: str
    target_text: str
    kind: str = CONTENT

    def __post_init__(self):
        if self.kind not in (CONTENT, PUNCTUATION):
            raise TaskError(f"unknown chunk kind {self.kind!r}")
        if self.kind == CONTENT and (not self.source_text or not self.target_text):
            raise TaskError(f"content chunk {self.id} requires source and target text")


@dataclass(frozen=True)
class ChunkTable:
    """All chunks of one source sentence plus their source-side order."""

    chunks: tuple[Chunk, ...]
    source_order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "chunks", tuple(self.chunks))
        object.__setattr__(self, "source_order", tuple(self.source_order))
        ids = [c.id for c in self.chunks]
        if len(set(ids)) != len(ids):
            raise TaskError("chunk ids must be unique within a table")
        content = {c.id for c in self.chunks if c.kind == CONTENT}
        if set(self.source_order) != content or len(self.source_order) != len(content):
            raise TaskError("source_order must be a permutation of the content chunk ids")
        # Id -> chunk, built once; not a field, so equality and hashing still
        # see only the chunks and their order.
        object.__setattr__(self, "_by_id", {c.id: c for c in self.chunks})

    @property
    def chunk_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.chunks)

    def chunk(self, chunk_id: int) -> Chunk:
        chunk = self._by_id.get(chunk_id)
        if chunk is None:
            raise UnknownChunkError(f"no chunk with id {chunk_id}")
        return chunk


@dataclass(frozen=True)
class CandidateOrdering:
    """One admissible target word order: slots[i] holds the chunk at position i+1."""

    id: str
    slots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))

    def position_of(self, chunk_id: int) -> int:
        """1-based target position of a chunk."""
        try:
            return self.slots.index(chunk_id) + 1
        except ValueError:
            raise UnknownChunkError(f"chunk {chunk_id} not placed in ordering {self.id}")

    def chunk_at(self, slot: int) -> int:
        if not 1 <= slot <= len(self.slots):
            raise TaskError(f"slot {slot} out of range 1..{len(self.slots)}")
        return self.slots[slot - 1]


@dataclass(frozen=True)
class Categorical:
    """A finite probability distribution; carrier of beliefs and policy posteriors."""

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))
        # Written as "not valid" so that NaN fails both checks.
        if not all(p >= 0.0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if not abs(sum(self.probs) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)!r}")

    @classmethod
    def uniform(cls, n: int) -> "Categorical":
        return cls((1.0 / n,) * n)

    @classmethod
    def from_weights(cls, weights) -> "Categorical":
        w = [float(x) for x in weights]
        z = sum(w)
        if not z > 0.0:
            raise ValueError("weights must have positive total mass")
        return cls(tuple(x / z for x in w))

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @property
    def map_index(self) -> int:
        return self.probs.index(max(self.probs))


@dataclass(frozen=True)
class CandidateSpace:
    """The finite set of candidate orderings with a prior belief over them."""

    table: ChunkTable
    orderings: tuple[CandidateOrdering, ...]
    prior: Categorical

    def __post_init__(self):
        object.__setattr__(self, "orderings", tuple(self.orderings))
        if len(self.prior) != len(self.orderings):
            raise TaskError("prior length must match the number of orderings")
        n_slots = {len(o.slots) for o in self.orderings}
        if len(n_slots) != 1:
            raise TaskError("all orderings must share one slot count")
        for o in self.orderings:
            _check_permutation(o, self.table.chunk_ids)
        labels = [o.id for o in self.orderings]
        if len(set(labels)) != len(labels):
            raise TaskError(f"ordering labels must be unique, got {labels}")
        seen = {}
        for o in self.orderings:
            if o.slots in seen:
                raise DuplicateOrderingError(
                    f"ordering {o.id} duplicates {seen[o.slots]}: {list(o.slots)}"
                )
            seen[o.slots] = o.id
        # Placement likelihoods, built once: rows[slot - 1][i] is 1.0 when
        # ordering i puts the chunk at that slot. Not a field, so equality
        # and hashing still see only the task itself.
        layouts = np.array([o.slots for o in self.orderings])
        object.__setattr__(
            self,
            "_placement",
            {cid: _read_only((layouts == cid).T.astype(float)) for cid in self.table.chunk_ids},
        )
        # Positional entropy of each chunk under the prior, also built once.
        object.__setattr__(
            self,
            "_positional",
            {cid: _positional_entropy(self, cid) for cid in self.table.chunk_ids},
        )

    @property
    def n_slots(self) -> int:
        return len(self.orderings[0].slots)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.orderings)

    def index_of(self, label: str) -> int:
        for i, o in enumerate(self.orderings):
            if o.id == label:
                return i
        raise TaskError(f"no ordering labelled {label!r}")

    def ordering(self, label: str) -> CandidateOrdering:
        return self.orderings[self.index_of(label)]


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _check_permutation(ordering: CandidateOrdering, chunk_ids: frozenset[int]) -> None:
    seen = set()
    for cid in ordering.slots:
        if cid in seen:
            raise TaskError(f"ordering {ordering.id}: chunk {cid} placed twice")
        seen.add(cid)
    if seen != chunk_ids:
        missing = sorted(chunk_ids - seen)
        extra = sorted(seen - chunk_ids)
        raise TaskError(
            f"ordering {ordering.id} is not a permutation of the chunk ids"
            f" (missing {missing}, unknown {extra})"
        )


def build_candidate_space(
    table: ChunkTable,
    orderings,
    labels: tuple[str, ...] | None = None,
) -> CandidateSpace:
    """Assemble a candidate space with a uniform prior from raw slot lists.

    Slot lists must each be a permutation of the table's chunk ids; duplicates
    are rejected so the prior stays well defined.
    """
    orderings = [tuple(o) for o in orderings]
    if not orderings:
        raise TaskError("need at least one candidate ordering")
    if labels is None:
        labels = tuple(f"TT{i}" for i in range(len(orderings)))
    if len(labels) != len(orderings):
        raise TaskError("one label per ordering required")
    cands = tuple(CandidateOrdering(lbl, slots) for lbl, slots in zip(labels, orderings))
    prior = Categorical.uniform(len(cands))
    return CandidateSpace(table=table, orderings=cands, prior=prior)


def _histogram_entropy(masses) -> float:
    """Entropy of accumulated masses, renormalized so one bucket is exactly zero."""
    masses = list(masses)
    total = sum(masses)
    if total <= 0.0 or len(masses) == 1:
        return 0.0
    return entropy_bits(m / total for m in masses)


def _positional_entropy(space: CandidateSpace, chunk_id: int) -> float:
    by_position: dict[int, float] = {}
    for o, p in zip(space.orderings, space.prior.probs):
        pos = o.position_of(chunk_id)
        by_position[pos] = by_position.get(pos, 0.0) + p
    return _histogram_entropy(by_position.values())


def positional_entropy(space: CandidateSpace, chunk_id: int) -> float:
    """Entropy (bits) of a chunk's target position under the space's prior."""
    entropy = space._positional.get(chunk_id)
    if entropy is None:
        raise UnknownChunkError(f"chunk {chunk_id} not in this space")
    return entropy


def lexical_entropy(space: CandidateSpace, chunk_id: int) -> float:
    """Entropy (bits) over the chunk's target-text realization across candidates.

    All candidates here share one chunk table, so with the vocabulary held
    constant this is identically zero; the computation is kept general.
    """
    chunk = space.table.chunk(chunk_id)
    by_text: dict[str, float] = {}
    for _, p in zip(space.orderings, space.prior.probs):
        by_text[chunk.target_text] = by_text.get(chunk.target_text, 0.0) + p
    return _histogram_entropy(by_text.values())


def placement_row(space: CandidateSpace, chunk_id: int, slot: int) -> np.ndarray:
    """Per-ordering consistency indicators for placing a chunk at a slot (read-only)."""
    rows = space._placement.get(chunk_id)
    if rows is None:
        raise UnknownChunkError(f"chunk {chunk_id} not in this space")
    if not 1 <= slot <= len(rows):
        raise TaskError(f"slot {slot} out of range 1..{len(rows)}")
    return rows[slot - 1]


@dataclass(frozen=True)
class ReadingEvidenceModel:
    """Noisy channel from reads to ordering-preference cues.

    Reading a chunk emits a cue naming one candidate ordering. With per-chunk
    reliability r the cue matches the true ordering with probability r and is
    otherwise uniform over the remaining candidates. r = 0.5 is the designated
    uninformative setting: every cue is then equally likely regardless of the
    true ordering.
    """

    space: CandidateSpace
    reliabilities: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "reliabilities", tuple(self.reliabilities))
        known = {cid for cid, _ in self.reliabilities}
        if known != set(self.space.table.chunk_ids) or len(known) != len(self.reliabilities):
            raise TaskError("evidence model must cover every chunk exactly once")
        for cid, r in self.reliabilities:
            if not 0.0 <= r <= 1.0:
                raise TaskError(f"reliability for chunk {cid} must lie in [0, 1], got {r}")
        # One read-only [cue, ordering] table per distinct reliability, which
        # alone decides it, stacked as tables and built once; table_of maps
        # each chunk to its table's index, and the rollout shares cue channels
        # on it. Beside each table, each column's CDF as a list, the one
        # Generator.choice builds from P(cue | ordering): cumulative sums
        # renormalised by the last. None of these is a field.
        n = len(self.space.orderings)
        distinct, tables, cdfs = list(dict.fromkeys(r for _, r in self.reliabilities)), [], []
        for r in distinct:
            if abs(r - UNINFORMATIVE) < 1e-12 or n == 1:
                table = np.full((n, n), 1.0 / n)
            else:
                table = np.full((n, n), (1.0 - r) / (n - 1))
                np.fill_diagonal(table, r)
            tables.append(table)
            cdf = table.cumsum(axis=0)
            cdf /= cdf[-1]
            cdfs.append(cdf.T.tolist())
        object.__setattr__(self, "tables", _read_only(np.array(tables)))
        object.__setattr__(self, "table_of", {cid: distinct.index(r) for cid, r in self.reliabilities})
        object.__setattr__(self, "_cue_cdf", cdfs)
        # The selection memo hashes the model on every lookup; the fields are
        # frozen, so their hash (the one dataclass would compute) is taken once.
        object.__setattr__(self, "_hash", hash((self.space, self.reliabilities)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a str's hash differs between processes.
        return type(self), (self.space, self.reliabilities)

    @classmethod
    def with_defaults(
        cls,
        space: CandidateSpace,
        content: float = 0.8,
        punctuation: float = UNINFORMATIVE,
        overrides: dict[int, float] | None = None,
    ) -> "ReadingEvidenceModel":
        rel = {}
        for chunk in space.table.chunks:
            rel[chunk.id] = content if chunk.kind == CONTENT else punctuation
        if overrides:
            rel.update(overrides)
        return cls(space=space, reliabilities=tuple(sorted(rel.items())))

    def likelihood_table(self, chunk_id: int) -> np.ndarray:
        """P(cue | ordering) for reading one chunk, one row per cue label (read-only)."""
        return self.tables[self._table_index(chunk_id)]

    def cue_distribution(self, chunk_id: int, true_label: str) -> np.ndarray:
        """P(cue | true ordering) over cue labels, for reading one chunk (read-only)."""
        return self.likelihood_table(chunk_id)[:, self.space.index_of(true_label)]

    def cue_cdf(self, chunk_id: int, true_label: str) -> list[float]:
        """CDF of cue_distribution, as Generator.choice computes it, over cue labels."""
        return self._cue_cdf[self._table_index(chunk_id)][self.space.index_of(true_label)]

    def _table_index(self, chunk_id: int) -> int:
        index = self.table_of.get(chunk_id)
        if index is None:
            raise UnknownChunkError(f"chunk {chunk_id} not in evidence model")
        return index

    def likelihood_row(self, chunk_id: int, cue_label: str) -> np.ndarray:
        """P(cue | ordering) for a fixed observed cue, one entry per candidate (read-only)."""
        return self.likelihood_table(chunk_id)[self.space.index_of(cue_label)]

