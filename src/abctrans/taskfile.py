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


def load_task(path: str | Path) -> TaskBundle:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise TaskFileError(f"cannot parse {path}: {exc}")
    if not isinstance(raw, dict):
        raise TaskFileError(f"{path}: task file must be a mapping")
    unknown = set(raw) - _TOP_FIELDS
    _require(not unknown, ",".join(sorted(unknown)), "unknown field(s); schema is strict")
    _require(raw.get("schema") == SCHEMA_VERSION, "schema", f"must be {SCHEMA_VERSION}")
    for field in ("chunks", "source_order", "orderings"):
        _require(field in raw, field, "required")

    chunks = []
    for i, entry in enumerate(raw["chunks"]):
        _require(isinstance(entry, dict), f"chunks[{i}]", "must be a mapping")
        unknown = set(entry) - _CHUNK_FIELDS
        _require(not unknown, f"chunks[{i}]", f"unknown field(s) {sorted(unknown)}")
        _require("id" in entry, f"chunks[{i}].id", "required")
        try:
            chunks.append(
                Chunk(
                    id=int(entry["id"]),
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
    try:
        space = build_candidate_space(
            table, [list(v) for v in orderings.values()], labels=labels
        )
    except TaskError as exc:
        raise TaskFileError(f"field 'orderings': {exc}")

    rel = raw.get("reliability") or {}
    _require(isinstance(rel, dict), "reliability", "must be a mapping")
    unknown = set(rel) - _RELIABILITY_FIELDS
    _require(not unknown, "reliability", f"unknown field(s) {sorted(unknown)}")
    overrides = {int(k): float(v) for k, v in (rel.get("overrides") or {}).items()}
    evidence = ReadingEvidenceModel.with_defaults(
        space,
        content=float(rel.get("default", 0.8)),
        punctuation=float(rel.get("punctuation", 0.5)),
        overrides=overrides,
    )

    latent = str(raw.get("latent", labels[0]))
    _require(latent in labels, "latent", f"must name one of {labels}")
    return TaskBundle(
        name=str(raw.get("name", path.stem)),
        space=space,
        evidence=evidence,
        latent=latent,
    )
