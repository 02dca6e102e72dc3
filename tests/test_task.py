import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from abctrans.task import (
    CandidateSpace,
    Categorical,
    Chunk,
    ChunkTable,
    DuplicateOrderingError,
    ReadingEvidenceModel,
    TaskError,
    UnknownChunkError,
    build_candidate_space,
    lexical_entropy,
    placement_row,
    positional_entropy,
)
from abctrans.taskfile import bundled_task_path, load_task

from conftest import ORDERINGS, entropy_of_counts, make_table


def placement_likelihood(ordering, chunk_id, slot):
    """Oracle: 1.0 if the ordering places the chunk at the slot, else 0.0."""
    return 1.0 if ordering.chunk_at(slot) == chunk_id else 0.0


def brute_force_positional(space, chunk_id):
    """Oracle: histogram of the chunk's positions across orderings."""
    counts = Counter(o.position_of(chunk_id) for o in space.orderings)
    return entropy_of_counts(counts.values())


class TestChunkTable:
    def test_content_chunk_requires_text(self):
        with pytest.raises(TaskError):
            Chunk(1, "", "abc")
        with pytest.raises(TaskError):
            Chunk(1, "src", "")

    def test_punctuation_may_be_empty_source(self):
        assert Chunk(0, "", "、", kind="punctuation").kind == "punctuation"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TaskError):
            ChunkTable(chunks=(Chunk(1, "a", "b"), Chunk(1, "c", "d")), source_order=(1,))

    def test_source_order_must_cover_content_ids(self):
        with pytest.raises(TaskError):
            ChunkTable(chunks=(Chunk(1, "a", "b"), Chunk(2, "c", "d")), source_order=(1,))

    def test_chunk_lookup_by_id(self, table):
        for c in table.chunks:
            assert table.chunk(c.id) is c
        with pytest.raises(UnknownChunkError):
            table.chunk(7)

    def test_lookup_table_is_not_part_of_equality(self, table):
        # the id -> chunk dict is built per instance and is not a field
        twin = make_table()
        assert twin == table and hash(twin) == hash(table)
        assert "_by_id" not in repr(table)


class TestCategorical:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Categorical((0.5, 0.4))

    def test_no_negative_mass(self):
        with pytest.raises(ValueError):
            Categorical((1.5, -0.5))

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError):
            Categorical((math.nan, 0.5, 0.5))
        with pytest.raises(ValueError):
            Categorical.from_weights([math.nan, 1.0])

    def test_uniform_and_point(self):
        u = Categorical.uniform(4)
        assert u.probs == (0.25,) * 4
        p = Categorical((0.0, 0.0, 1.0))
        assert p.probs == (0.0, 0.0, 1.0)
        assert p.map_index == 2

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12))
    def test_from_weights_normalizes(self, weights):
        c = Categorical.from_weights(weights)
        assert abs(sum(c.probs) - 1.0) <= 1e-12
        assert all(p >= 0 for p in c.probs)


class TestBuildCandidateSpace:
    def test_six_orderings_uniform_prior(self, space):
        assert len(space.orderings) == 6
        assert space.labels == tuple(ORDERINGS)
        for p in space.prior.probs:
            assert abs(p - 1 / 6) <= 1e-15

    def test_singleton_space(self, table):
        sp = build_candidate_space(table, [[1, 0, 2, 4, 3]])
        assert sp.prior.probs == (1.0,)

    def test_chunk_placed_twice_message(self, table):
        with pytest.raises(TaskError, match="chunk 1 placed twice"):
            build_candidate_space(table, [[1, 1, 2, 4, 3]])

    def test_missing_chunk_rejected(self, table):
        with pytest.raises(TaskError, match="not a permutation"):
            build_candidate_space(table, [[1, 2, 4, 3]])

    def test_duplicate_ordering_rejected(self, table):
        with pytest.raises(DuplicateOrderingError):
            build_candidate_space(table, [[1, 0, 2, 4, 3], [1, 0, 2, 4, 3]])

    def test_duplicate_label_rejected(self, table):
        # index_of resolves a label to its first ordering, so a repeated
        # label would make cues and likelihood rows ambiguous
        with pytest.raises(TaskError, match="labels must be unique"):
            build_candidate_space(table, [[1, 0, 2, 4, 3], [2, 1, 0, 4, 3]], labels=("A", "A"))


class TestPositionalEntropy:
    def test_verb_chunk_is_fixed(self, space):
        assert positional_entropy(space, 3) == 0.0

    def test_values_match_brute_force(self, space):
        for cid in (0, 1, 2, 3, 4):
            assert abs(positional_entropy(space, cid) - brute_force_positional(space, cid)) <= 1e-12

    def test_frozen_reference_values(self, space):
        assert abs(positional_entropy(space, 2) - 1.792481) <= 1e-6
        assert abs(positional_entropy(space, 1) - 0.918296) <= 1e-6
        assert abs(positional_entropy(space, 0) - 0.918296) <= 1e-6

    def test_middle_chunks_carry_most_information(self, space):
        values = {cid: positional_entropy(space, cid) for cid in (0, 1, 2, 3, 4)}
        top = max(values.values())
        assert abs(values[2] - top) <= 1e-12
        assert abs(values[4] - top) <= 1e-12

    def test_bounded_by_log_candidates(self, space):
        bound = math.log2(len(space.orderings))
        for cid in (0, 1, 2, 3, 4):
            assert positional_entropy(space, cid) <= bound + 1e-12

    def test_unknown_chunk(self, space):
        with pytest.raises(UnknownChunkError):
            positional_entropy(space, 9)


class TestLexicalEntropy:
    def test_zero_for_all_chunks(self, space):
        for cid in (0, 1, 2, 3, 4):
            assert lexical_entropy(space, cid) == 0.0

    def test_unknown_chunk(self, space):
        with pytest.raises(UnknownChunkError):
            lexical_entropy(space, 7)


class TestPlacementLikelihood:
    def test_fronted_chunk(self, space):
        row = placement_row(space, 4, 1)
        assert row[space.index_of("TT5")] == 1.0
        assert row[space.index_of("TT0")] == 0.0

    def test_verb_final_everywhere(self, space):
        assert list(placement_row(space, 3, 5)) == [1.0] * len(space.orderings)

    def test_rows_sum_to_one_over_slots(self, space):
        for cid in (0, 1, 2, 3, 4):
            total = sum(placement_row(space, cid, s) for s in range(1, 6))
            assert list(total) == [1.0] * len(space.orderings)

    def test_slot_range_checked(self, space):
        with pytest.raises(TaskError):
            placement_row(space, 1, 6)


class TestLikelihoodTables:
    @pytest.mark.parametrize("content", [0.3, 0.5, 1.0])
    def test_reading_table_is_the_closed_form_channel(self, content):
        space = load_task(bundled_task_path()).space
        m = ReadingEvidenceModel.with_defaults(space, content=content)
        n = len(space.orderings)
        for chunk in space.table.chunks:
            r = dict(m.reliabilities)[chunk.id]
            for cue in space.labels:
                row = m.likelihood_row(chunk.id, cue)
                for i, label in enumerate(space.labels):
                    if r == 0.5:
                        want = 1.0 / n
                    else:
                        want = r if cue == label else (1.0 - r) / (n - 1)
                    assert row[i] == want
                    assert m.cue_distribution(chunk.id, label)[space.index_of(cue)] == want

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 1.0])
    def test_a_cue_row_with_a_zero_is_uniform_on_its_support(self, r, n):
        # agent.step's contradiction fallback restarts the evidence belief
        # from such a row, so every ordering in its support ties as the MAP
        space = build_candidate_space(make_table(), list(ORDERINGS.values())[:n])
        m = ReadingEvidenceModel.with_defaults(space, content=r, punctuation=r)
        zero_rows = 0
        for cid in space.table.chunk_ids:
            for row in m.likelihood_table(cid):
                if (row == 0.0).any():
                    zero_rows += 1
                    support = row[row > 0.0]
                    assert (support == support[0]).all(), (r, n, cid, row)
        # zeros appear exactly at the deterministic reliabilities
        assert (zero_rows > 0) == (r in (0.0, 1.0) and n > 1)

    def test_placement_table_matches_each_ordering(self, space):
        for cid in space.table.chunk_ids:
            for slot in range(1, space.n_slots + 1):
                row = placement_row(space, cid, slot)
                assert list(row) == [placement_likelihood(o, cid, slot) for o in space.orderings]

    def test_tables_are_read_only(self, space, models):
        for row in (
            models.likelihood_row(1, "TT0"),
            models.cue_distribution(1, "TT0"),
            placement_row(space, 1, 1),
        ):
            with pytest.raises(ValueError):
                row[0] = 0.5

    def test_placement_row_rejects_unknown_chunk_and_slot(self, space):
        with pytest.raises(UnknownChunkError):
            placement_row(space, 7, 1)
        for slot in (0, 6):
            with pytest.raises(TaskError):
                placement_row(space, 1, slot)


class TestReadingLikelihood:
    def test_noiseless_channel(self, space):
        m = ReadingEvidenceModel.with_defaults(space, content=1.0)
        assert m.likelihood_row(3, "TT3")[space.index_of("TT3")] == 1.0
        assert m.likelihood_row(3, "TT0")[space.index_of("TT3")] == 0.0

    def test_uninformative_configuration(self, space, models):
        m = ReadingEvidenceModel.with_defaults(space, content=0.5)
        for cue in space.labels:
            assert abs(m.likelihood_row(1, cue)[space.index_of("TT3")] - 1 / 6) <= 1e-15
        # the comma keeps the uninformative default
        assert abs(models.likelihood_row(0, "TT2")[space.index_of("TT5")] - 1 / 6) <= 1e-15

    def test_mismatch_probability(self, models):
        assert abs(models.likelihood_row(1, "TT0")[models.space.index_of("TT3")] - 0.04) <= 1e-12

    def test_rows_sum_to_one_over_cues(self, space, models):
        for cid in (0, 1, 2, 3, 4):
            for label in space.labels:
                dist = models.cue_distribution(cid, label)
                assert abs(dist.sum() - 1.0) <= 1e-12

    def test_reliability_bounds_checked(self, space):
        with pytest.raises(TaskError):
            ReadingEvidenceModel.with_defaults(space, content=1.2)

    def test_each_chunk_has_exactly_one_reliability(self, space, models):
        with pytest.raises(TaskError):
            ReadingEvidenceModel(space, models.reliabilities + ((1, 0.3),))


class TestEvidenceModelHash:
    def test_hash_is_taken_once_from_the_fields(self, space, monkeypatch):
        m = ReadingEvidenceModel.with_defaults(space, content=0.9)
        assert m._hash == hash((m.space, m.reliabilities)) == hash(m)
        # A lookup hashes the model without hashing its candidate space again.
        calls = []
        monkeypatch.setattr(CandidateSpace, "__hash__", lambda self: calls.append(self) or 0)
        hash(m)
        assert calls == []

    def test_equal_models_hash_equal(self, space):
        a = ReadingEvidenceModel.with_defaults(space, content=0.9)
        b = ReadingEvidenceModel(load_task(bundled_task_path()).space, a.reliabilities)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert ReadingEvidenceModel.with_defaults(space, content=0.8) != a

    def test_a_pickled_model_takes_its_hash_afresh(self, space):
        # A str's hash changes between processes, so the stored hash is not pickled.
        m = ReadingEvidenceModel.with_defaults(space, content=0.9)
        data = pickle.dumps(m)
        assert b"_hash" not in data
        back = pickle.loads(data)
        assert back == m and back._hash == hash((back.space, back.reliabilities))


@given(perm=st.permutations([1, 2, 3, 4, 0]))
def test_any_single_ordering_space_has_zero_entropy(perm):
    sp = build_candidate_space(make_table(), [list(perm)])
    for cid in (0, 1, 2, 3, 4):
        assert positional_entropy(sp, cid) == 0.0
        assert lexical_entropy(sp, cid) == 0.0
