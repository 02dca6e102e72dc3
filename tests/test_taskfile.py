import re

import pytest

from abctrans.taskfile import TaskFileError, bundled_task_path, load_task

MINIMAL = """\
schema: 1
chunks:
  - {{id: 1, source: a, target: x}}
  - {{id: 2, source: b, target: y}}
source_order: [1, 2]
orderings:
  A: [1, 2]
  B: [2, 1]
{extra}
"""


def write(tmp_path, text):
    path = tmp_path / "task.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestBundledTask:
    def test_loads_with_expected_shape(self):
        bundle = load_task(bundled_task_path())
        assert len(bundle.space.orderings) == 6
        assert bundle.space.labels == ("TT0", "TT1", "TT2", "TT3", "TT4", "TT5")
        assert bundle.latent == "TT0"
        assert dict(bundle.evidence.reliabilities)[1] == 0.8
        assert dict(bundle.evidence.reliabilities)[0] == 0.5

    def test_comma_is_punctuation_chunk(self):
        bundle = load_task(bundled_task_path())
        comma = bundle.space.table.chunk(0)
        assert comma.kind == "punctuation"
        assert comma.target_text == "、"


class TestValidation:
    def test_minimal_file_loads(self, tmp_path):
        bundle = load_task(write(tmp_path, MINIMAL.format(extra="")))
        assert bundle.space.labels == ("A", "B")
        assert bundle.latent == "A"

    def test_punctuation_only_file_loads(self, tmp_path):
        # One slot to fill: only a table with no chunk at all is rejected.
        text = "schema: 1\nchunks:\n  - {id: 0, target: ',', kind: punctuation}\nsource_order: []\norderings: {A: [0]}\n"
        bundle = load_task(write(tmp_path, text))
        assert [o.slots for o in bundle.space.orderings] == [(0,)]

    def test_unknown_top_level_field_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.format(extra="surprise: 1"))
        with pytest.raises(TaskFileError, match="surprise"):
            load_task(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.format(extra="").replace("schema: 1", "schema: 2"))
        with pytest.raises(TaskFileError, match="schema"):
            load_task(path)

    def test_missing_orderings_rejected(self, tmp_path):
        text = "schema: 1\nchunks:\n  - {id: 1, source: a, target: x}\nsource_order: [1]\n"
        with pytest.raises(TaskFileError, match="orderings"):
            load_task(write(tmp_path, text))

    def test_ordering_missing_a_chunk_rejected(self, tmp_path):
        path = write(
            tmp_path, MINIMAL.format(extra="").replace("A: [1, 2]", "A: [1, 1]")
        )
        with pytest.raises(TaskFileError, match="placed twice"):
            load_task(path)

    def test_unknown_chunk_field_rejected(self, tmp_path):
        text = MINIMAL.format(extra="").replace("target: x}", "target: x, tone: odd}")
        with pytest.raises(TaskFileError, match="tone"):
            load_task(write(tmp_path, text))

    def test_latent_must_name_an_ordering(self, tmp_path):
        path = write(tmp_path, MINIMAL.format(extra="latent: ZZ"))
        with pytest.raises(TaskFileError, match="latent"):
            load_task(path)

    def test_reliability_overrides_apply(self, tmp_path):
        extra = "reliability: {default: 0.9, overrides: {2: 0.6}}"
        bundle = load_task(write(tmp_path, MINIMAL.format(extra=extra)))
        assert dict(bundle.evidence.reliabilities)[1] == 0.9
        assert dict(bundle.evidence.reliabilities)[2] == 0.6

    @pytest.mark.parametrize("extra", ["reliability: null", "reliability: {overrides: null}", ""])
    def test_an_absent_or_null_reliability_keeps_the_defaults(self, tmp_path, extra):
        bundle = load_task(write(tmp_path, MINIMAL.format(extra=extra)))
        assert bundle.evidence.reliabilities == ((1, 0.8), (2, 0.8))

    def test_unknown_reliability_field_rejected(self, tmp_path):
        extra = "reliability: {default: 0.9, fuzz: 1}"
        with pytest.raises(TaskFileError, match="fuzz"):
            load_task(write(tmp_path, MINIMAL.format(extra=extra)))

    @pytest.mark.parametrize("target", ["missing.yaml", "."], ids=["missing file", "directory"])
    def test_unreadable_file_is_named(self, tmp_path, target):
        path = tmp_path / target
        with pytest.raises(TaskFileError, match=re.escape(f"cannot read {path}: ")):
            load_task(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL.format(extra="").replace("orderings:", "orderings: ["), "cannot parse {path}: "),
            ("- 1\n", "{path}: task file must be a mapping"),
        ],
        ids=["yaml syntax", "not a mapping"],
    )
    def test_a_file_that_is_no_mapping_is_named(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(TaskFileError, match="^" + re.escape(message.format(path=path))):
            load_task(path)

    def test_bytes_that_are_not_utf8_are_named(self, tmp_path):
        path = tmp_path / "task.yaml"
        path.write_bytes(MINIMAL.format(extra="name: caf\xe9").encode("latin-1"))
        offset = MINIMAL.format(extra="name: caf").encode().index(b"caf") + 3
        with pytest.raises(TaskFileError, match=re.escape(f"cannot read {path}: byte {offset} is not UTF-8")):
            load_task(path)

    @pytest.mark.parametrize(
        "old, new, field, message",
        [
            ("chunks:\n  - {id: 1, source: a, target: x}\n  - {id: 2, source: b, target: y}\n",
             "chunks: 5\n", "chunks", "must be a list"),
            ("chunks:\n  - {id: 1, source: a, target: x}\n  - {id: 2, source: b, target: y}\n",
             "chunks: []\n", "chunks", "must list at least one chunk"),
            ("source_order: [1, 2]", "source_order: 5", "source_order", "must be a list of chunk ids"),
            ("B: [2, 1]", "B: [2, 1]\n  TTX: 3", "orderings.TTX", "must be a list of chunk ids"),
            ("A: [1, 2]", "A: [[1], 2]", "orderings.A", "must be a list of chunk ids"),
            ("id: 1,", "id: [1],", "chunks[0].id", "must be a number"),
            ("source: a,", "source: [a],", "chunks[0].source", "must be text"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: 5}",
             "reliability.overrides", "must be a mapping"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: {2: [1]}}",
             "reliability.overrides.2", "must be a number"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {default: high}",
             "reliability.default", "must be a number"),
            ("id: 2,", "id: 2.7,", "chunks[1].id", "must be an integer chunk id, got 2.7"),
            ("id: 2,", "id: 2.0,", "chunks[1].id", "must be an integer chunk id, got 2.0"),
            ("id: 2,", "id: true,", "chunks[1].id", "must be an integer chunk id, got True"),
            ("id: 2,", "id: '2',", "chunks[1].id", "must be an integer chunk id, got '2'"),
            ("source_order: [1, 2]", "source_order: [true, 2]", "source_order", "must be a list of chunk ids"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: {2.7: 0.6}}",
             "reliability.overrides", "must be an integer chunk id, got 2.7"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: {true: 0.6}}",
             "reliability.overrides", "must be an integer chunk id, got True"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: {9: 0.9}}",
             "reliability.overrides.9", "names no chunk of the task"),
            ("target: x}", "target: x, kind: idiom}", "chunks[0]", "unknown chunk kind 'idiom'"),
            ("source_order: [1, 2]", "source_order: [1, 1]", "source_order",
             "source_order must be a permutation of the content chunk ids"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {default: '0.9'}",
             "reliability.default", "must be a number, got '0.9'"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {punctuation: false}",
             "reliability.punctuation", "must be a number, got False"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: {2: '0.6'}}",
             "reliability.overrides.2", "must be a number, got '0.6'"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: 0", "reliability", "must be a mapping"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: []", "reliability", "must be a mapping"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: false", "reliability",
             "must be a mapping"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: ''", "reliability", "must be a mapping"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: 0}",
             "reliability.overrides", "must be a mapping"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {default: 1.5}",
             "reliability.default", "must lie in [0, 1], got 1.5"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {default: .nan}",
             "reliability.default", "must lie in [0, 1], got nan"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {punctuation: -1}",
             "reliability.punctuation", "must lie in [0, 1], got -1"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nreliability: {overrides: {1: -0.1}}",
             "reliability.overrides.1", "must lie in [0, 1], got -0.1"),
            ("source_order: [1, 2]", "source_order: [1, 2]\nname: [1]", "name", "must be text"),
        ],
        ids=[
            "chunks", "no chunks", "source_order", "new ordering", "nested slot", "chunk id", "source text",
            "overrides", "override value", "default", "fractional chunk id", "float chunk id",
            "boolean chunk id", "text chunk id", "boolean in source_order", "fractional override key",
            "boolean override key", "override of no chunk", "chunk kind", "source order not a permutation",
            "text default", "boolean punctuation", "text override value",
            "zero reliability", "list reliability", "false reliability", "empty text reliability",
            "zero overrides", "default above 1", "NaN default", "negative punctuation",
            "negative override", "list name",
        ],
    )
    def test_a_field_of_the_wrong_type_is_named(self, tmp_path, old, new, field, message):
        text = MINIMAL.format(extra="")
        assert old in text
        with pytest.raises(TaskFileError, match=re.escape(f"field {field!r}: {message}")):
            load_task(write(tmp_path, text.replace(old, new, 1)))
