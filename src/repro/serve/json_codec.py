"""The daemon's JSON request grammar (deltas in, validation errors out).

A ``POST /delta`` body carries an ordered batch of add/remove
operations — the same operations the CLI's ``--apply-delta`` specs
express, with entity descriptions in the :mod:`repro.kb.io_json`
format::

    {
      "ops": [
        {"op": "add", "kb": "kb1", "entities": [
            {"uri": "http://ex/e1",
             "pairs": [["name", {"lit": "An Entity"}],
                        ["linked", {"ref": "http://ex/e2"}]]}
        ]},
        {"op": "remove", "kb": "kb2", "uris": ["http://ex/gone"]}
      ]
    }

Parsing is strict and total: every structural problem raises
:class:`DeltaFormatError` (the daemon's 400) before any operation is
considered, so a malformed batch can never be half-understood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..kb.entity import EntityDescription
from ..kb.io_json import EntityFormatError, entity_from_dict, entity_to_dict


class DeltaFormatError(ValueError):
    """A delta payload that does not follow the grammar above."""


@dataclass(frozen=True)
class DeltaOp:
    """One parsed operation of a delta batch."""

    op: str  # "add" | "remove"
    kb: str  # "kb1" | "kb2"
    entities: tuple[EntityDescription, ...] = field(default=())
    uris: tuple[str, ...] = field(default=())

    @property
    def count(self) -> int:
        return len(self.entities) if self.op == "add" else len(self.uris)


def delta_to_payload(ops: tuple[DeltaOp, ...]) -> list[dict]:
    """Encode parsed operations back into a JSON ``ops`` list.

    Round-trips through :func:`parse_delta` bit-identically: the WAL
    relies on ``parse_delta({"ops": delta_to_payload(ops)}) == ops``.
    """
    payload: list[dict] = []
    for op in ops:
        if op.op == "add":
            payload.append(
                {
                    "op": "add",
                    "kb": op.kb,
                    "entities": [
                        entity_to_dict(entity) for entity in op.entities
                    ],
                }
            )
        else:
            payload.append(
                {"op": "remove", "kb": op.kb, "uris": list(op.uris)}
            )
    return payload


_KB_NAMES = ("kb1", "kb2", "1", "2")


def parse_delta(payload: Any) -> tuple[DeltaOp, ...]:
    """Parse and validate a full ``POST /delta`` body."""
    if not isinstance(payload, dict):
        raise DeltaFormatError("delta payload must be a JSON object")
    ops = payload.get("ops")
    if not isinstance(ops, list) or not ops:
        raise DeltaFormatError(
            "delta payload needs a non-empty 'ops' list"
        )
    parsed: list[DeltaOp] = []
    for index, op in enumerate(ops):
        if not isinstance(op, dict):
            raise DeltaFormatError(f"ops[{index}] must be an object")
        kind = op.get("op")
        if kind not in ("add", "remove"):
            raise DeltaFormatError(
                f"ops[{index}].op must be 'add' or 'remove', got {kind!r}"
            )
        kb = op.get("kb")
        if not isinstance(kb, str) or kb.lower() not in _KB_NAMES:
            raise DeltaFormatError(
                f"ops[{index}].kb must be 'kb1' or 'kb2', got {kb!r}"
            )
        kb = "kb1" if kb.lower() in ("kb1", "1") else "kb2"
        if kind == "add":
            records = op.get("entities")
            if not isinstance(records, list) or not records:
                raise DeltaFormatError(
                    f"ops[{index}] (add) needs a non-empty 'entities' list"
                )
            try:
                entities = tuple(map(entity_from_dict, records))
            except EntityFormatError as error:
                raise DeltaFormatError(str(error)) from None
            parsed.append(DeltaOp(op="add", kb=kb, entities=entities))
        else:
            uris = op.get("uris")
            if (
                not isinstance(uris, list)
                or not uris
                or not all(isinstance(uri, str) for uri in uris)
            ):
                raise DeltaFormatError(
                    f"ops[{index}] (remove) needs a non-empty list of "
                    "string 'uris'"
                )
            parsed.append(DeltaOp(op="remove", kb=kb, uris=tuple(uris)))
    return tuple(parsed)


def validate_against_membership(
    ops: tuple[DeltaOp, ...],
    uris1: frozenset[str] | set[str],
    uris2: frozenset[str] | set[str],
) -> None:
    """Reject a batch that could fail mid-application.

    Walks the operations over simulated membership sets — the
    all-or-nothing guarantee of ``POST /delta``: either every operation
    is applicable in order, or nothing is applied at all.  (The matcher
    validates each *single* batch before mutating; this extends the
    property across the whole request.)
    """
    members = {"kb1": set(uris1), "kb2": set(uris2)}
    for index, op in enumerate(ops):
        side = members[op.kb]
        if op.op == "add":
            seen: set[str] = set()
            for entity in op.entities:
                if entity.uri in side or entity.uri in seen:
                    raise DeltaFormatError(
                        f"ops[{index}] (add): URI already present in "
                        f"{op.kb}: {entity.uri!r}"
                    )
                seen.add(entity.uri)
            side.update(seen)
        else:
            seen = set()
            for uri in op.uris:
                if uri not in side or uri in seen:
                    raise DeltaFormatError(
                        f"ops[{index}] (remove): URI missing from "
                        f"{op.kb} (or repeated): {uri!r}"
                    )
                seen.add(uri)
            side.difference_update(seen)
