"""JSON serialization of knowledge bases.

A compact, line-oriented-friendly JSON format for shipping generated
datasets and intermediate results.  Schema::

    {
      "name": "BBCmusic",
      "entities": [
        {"uri": "...",
         "pairs": [["attr", {"lit": "text"}], ["rel", {"ref": "uri"}], ...]},
        ...
      ]
    }

The entity records are also the daemon's request grammar
(:mod:`repro.serve.json_codec`): :func:`entity_to_dict` and the
validating :func:`entity_from_dict` are the one codec of both.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TextIO

from .entity import EntityDescription, Literal, UriRef
from .knowledge_base import KnowledgeBase


class EntityFormatError(ValueError):
    """An entity record that does not follow the grammar above."""


def _is_text(value: Any) -> bool:
    return isinstance(value, str) and value != ""


def entity_to_dict(entity: EntityDescription) -> dict[str, Any]:
    """One entity as a ``{"uri", "pairs"}`` record (JSON-serializable)."""
    pairs = []
    for attribute, value in entity:
        box = (
            {"ref": str(value)}
            if isinstance(value, UriRef)
            else {"lit": str(value)}
        )
        pairs.append([attribute, box])
    return {"uri": entity.uri, "pairs": pairs}


def entity_from_dict(record: Any) -> EntityDescription:
    """Decode one :func:`entity_to_dict` record.

    The URI, every attribute and every boxed ``lit`` / ``ref`` must be a
    non-empty string: anything else raises :class:`EntityFormatError`
    naming the record, before it can reach a write-ahead log, a
    tokenizer or a matcher.
    """
    if not isinstance(record, dict) or not _is_text(record.get("uri")):
        raise EntityFormatError(
            "entity record must be an object with a non-empty string "
            f"'uri': {record!r}"
        )
    entity = EntityDescription(record["uri"])
    pairs = record.get("pairs", [])
    if not isinstance(pairs, list):
        raise EntityFormatError(
            f"'pairs' of {record['uri']!r} must be a list"
        )
    for pair in pairs:
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and _is_text(pair[0])
            and isinstance(pair[1], dict)
        ):
            raise EntityFormatError(
                f"malformed pair for {record['uri']!r}: {pair!r} "
                "(expected [attribute, {'lit': ...} | {'ref': ...}])"
            )
        attribute, boxed = pair
        if "ref" in boxed:
            box, value = UriRef, boxed["ref"]
        elif "lit" in boxed:
            box, value = Literal, boxed["lit"]
        else:
            raise EntityFormatError(
                f"malformed value box for {record['uri']!r}: {boxed!r}"
            )
        if not _is_text(value):
            raise EntityFormatError(
                f"value box of {record['uri']!r} must hold a non-empty "
                f"string: {boxed!r}"
            )
        entity.add(attribute, box(value))
    return entity


def kb_to_dict(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-dict representation of a KB (JSON-serializable)."""
    return {"name": kb.name, "entities": list(map(entity_to_dict, kb))}


def kb_from_dict(data: dict[str, Any]) -> KnowledgeBase:
    """Rebuild a KB from :func:`kb_to_dict` output; a malformed record
    raises :class:`EntityFormatError`."""
    kb = KnowledgeBase(data.get("name", "KB"))
    for record in data["entities"]:
        kb.add(entity_from_dict(record))
    return kb


def write_json(kb: KnowledgeBase, target: str | Path | TextIO, indent: int | None = None) -> None:
    """Serialize ``kb`` to a JSON file or stream."""
    payload = kb_to_dict(kb)
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent)
    else:
        json.dump(payload, target, indent=indent)


def read_json(source: str | Path | TextIO) -> KnowledgeBase:
    """Load a KB written by :func:`write_json`."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            return kb_from_dict(json.load(handle))
    return kb_from_dict(json.load(source))
