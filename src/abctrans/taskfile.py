"""Versioned YAML task files: chunks, candidate orderings, cue reliabilities.

Unknown fields are rejected outright so a task file cannot silently drift
from the schema it claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .task import (
    CandidateSpace,
    Chunk,
    ChunkTable,
    ReadingEvidenceModel,
    TaskError,
    build_candidate_space,
)

SCHEMA_VERSION = 1

_TOP_FIELDS = {"schema", "name", "chunks", "source_order", "orderings", "reliability", "latent"}
_CHUNK_FIELDS = {"id", "source", "target", "kind"}
_RELIABILITY_FIELDS = {"default", "punctuation", "overrides"}


class TaskFileError(TaskError):
    """Task file fails schema or semantic validation."""


@dataclass(frozen=True)
class TaskBundle:
    name: str
    space: CandidateSpace
    evidence: ReadingEvidenceModel
    latent: str


def bundled_task_path() -> Path:
    """Path of the packaged sample task (the hunter-gatherer sentence)."""
    return Path(resources.files("abctrans").joinpath("data/hunter_gatherer.yaml"))


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise TaskFileError(f"field {field!r}: {message}")


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(type(c) is int for c in value)  # a bool is no id


def _chunk_id(value, field: str) -> int:  # a float such as 2.7 is rejected, not truncated
    _require(isinstance(value, (int, float, str)), field, f"must be a number, got {value!r}")
    _require(type(value) is int, field, f"must be an integer chunk id, got {value!r}")
    return value


def _reliability(value, field: str) -> float:  # a bool or a quoted number is no number
    _require(type(value) in (int, float), field, f"must be a number, got {value!r}")
    _require(0.0 <= value <= 1.0, field, f"must lie in [0, 1], got {value!r}")  # NaN fails too
    return float(value)


def _mapping(raw: dict, key: str, field: str) -> dict:
    """raw[key], which must be a mapping; an absent or null one is empty."""
    value = raw.get(key)
    if value is None:
        return {}
    _require(isinstance(value, dict), field, "must be a mapping")
    return value


def load_task(path: str | Path) -> TaskBundle:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TaskFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise TaskFileError(f"cannot read {path}: byte {exc.start} is not UTF-8") from None
    except yaml.YAMLError as exc:
        raise TaskFileError(f"cannot parse {path}: {exc}")
    if not isinstance(raw, dict):
        raise TaskFileError(f"{path}: task file must be a mapping")
    unknown = set(raw) - _TOP_FIELDS
    _require(not unknown, ",".join(sorted(unknown)), "unknown field(s); schema is strict")
    _require(raw.get("schema") == SCHEMA_VERSION, "schema", f"must be {SCHEMA_VERSION}")
    for field in ("chunks", "source_order", "orderings"):
        _require(field in raw, field, "required")
    _require(isinstance(raw["chunks"], list), "chunks", "must be a list")
    _require(raw["chunks"], "chunks", "must list at least one chunk")  # else nothing is left to translate
    _require(_is_id_list(raw["source_order"]), "source_order", "must be a list of chunk ids")

    chunks = []
    for i, entry in enumerate(raw["chunks"]):
        _require(isinstance(entry, dict), f"chunks[{i}]", "must be a mapping")
        unknown = set(entry) - _CHUNK_FIELDS
        _require(not unknown, f"chunks[{i}]", f"unknown field(s) {sorted(unknown)}")
        _require("id" in entry, f"chunks[{i}].id", "required")
        chunk_id = _chunk_id(entry["id"], f"chunks[{i}].id")
        for key in ("source", "target"):
            _require(isinstance(entry.get(key, ""), str), f"chunks[{i}].{key}", "must be text")
        try:
            chunks.append(
                Chunk(
                    id=chunk_id,
                    source_text=entry.get("source", ""),
                    target_text=entry.get("target", ""),
                    kind=entry.get("kind", "content"),
                )
            )
        except TaskError as exc:
            raise TaskFileError(f"field 'chunks[{i}]': {exc}")
    try:
        table = ChunkTable(chunks=tuple(chunks), source_order=tuple(raw["source_order"]))
    except TaskError as exc:
        raise TaskFileError(f"field 'source_order': {exc}")

    orderings = raw["orderings"]
    _require(isinstance(orderings, dict) and orderings, "orderings", "need a label -> slots mapping")
    labels = tuple(str(k) for k in orderings)
    for label, slots in zip(labels, orderings.values()):
        _require(_is_id_list(slots), f"orderings.{label}", "must be a list of chunk ids")
    try:
        space = build_candidate_space(table, list(orderings.values()), labels=labels)
    except TaskError as exc:
        raise TaskFileError(f"field 'orderings': {exc}")

    rel = _mapping(raw, "reliability", "reliability")
    unknown = set(rel) - _RELIABILITY_FIELDS
    _require(not unknown, "reliability", f"unknown field(s) {sorted(unknown)}")
    overrides = {
        _chunk_id(k, "reliability.overrides"): _reliability(v, f"reliability.overrides.{k}")
        for k, v in _mapping(rel, "overrides", "reliability.overrides").items()
    }
    for chunk_id in overrides:
        _require(chunk_id in table.chunk_ids, f"reliability.overrides.{chunk_id}", "names no chunk of the task")
    evidence = ReadingEvidenceModel.with_defaults(
        space,
        content=_reliability(rel.get("default", 0.8), "reliability.default"),
        punctuation=_reliability(rel.get("punctuation", 0.5), "reliability.punctuation"),
        overrides=overrides,
    )

    latent = str(raw.get("latent", labels[0]))
    _require(latent in labels, "latent", f"must name one of {labels}")
    name = raw.get("name", path.stem)
    _require(isinstance(name, str), "name", "must be text")
    return TaskBundle(
        name=name,
        space=space,
        evidence=evidence,
        latent=latent,
    )
