"""Minimal N-Triples reader/writer.

The paper's benchmark KBs ship as RDF dumps; this module provides a small,
dependency-free N-Triples subset parser sufficient for such data: one triple
per line, ``<uri>`` terms, ``"literal"`` objects with the usual escapes, and
optional ``@lang`` / ``^^<datatype>`` suffixes (which are dropped — MinoanER
is schema-agnostic and treats all literals as plain text).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .entity import EntityDescription, Literal, UriRef
from .knowledge_base import KnowledgeBase

_TRIPLE_PATTERN = re.compile(
    r"""^\s*
        <(?P<subject>[^>]+)>\s+
        <(?P<predicate>[^>]+)>\s+
        (?:
            <(?P<object_uri>[^>]+)>
          | "(?P<object_literal>(?:[^"\\]|\\.)*)"
            (?:@[A-Za-z0-9-]+|\^\^<[^>]+>)?
        )
        \s*\.\s*$
    """,
    re.VERBOSE,
)

#: One escape sequence of a literal: a character escape, ``\u`` + 4 or
#: ``\U`` + 8 hex digits, or a ``\u`` / ``\U`` that has neither (an
#: error).  Any other backslash is kept as written.
_ESCAPE = re.compile(
    r"""\\(?:
        (?P<char>[nrt"\\])
      | u(?P<hex4>[0-9A-Fa-f]{4})
      | U(?P<hex8>[0-9A-Fa-f]{8})
      | [uU]
    )""",
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}


class NTriplesError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement."""

    def __init__(self, line_number: int, line: str) -> None:
        super().__init__(f"line {line_number}: cannot parse {line!r}")
        self.line_number = line_number
        self.line = line


def _unescaped(match: re.Match) -> str:
    if match.group("char") is not None:
        return _ESCAPES[match.group("char")]
    digits = match.group("hex4") or match.group("hex8")
    code = int(digits, 16) if digits else -1
    if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"invalid escape {match.group()!r}")
    return chr(code)


def _unescape(text: str) -> str:
    """``text`` with its escapes decoded; ``ValueError`` on a ``\\u`` /
    ``\\U`` escape that is truncated, not hex, or names a surrogate."""
    if "\\" not in text:
        return text
    return _ESCAPE.sub(_unescaped, text)


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def parse_lines(
    lines: Iterable[str], strict: bool = True
) -> Iterator[tuple[str, str, Literal | UriRef]]:
    """Yield (subject, predicate, object) triples from N-Triples lines.

    Blank lines and ``#`` comments are skipped.  Under ``strict`` parsing,
    malformed lines (a bad ``\\u`` / ``\\U`` escape included) raise
    :class:`NTriplesError`; otherwise they are silently ignored (useful
    for noisy Web crawls).
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        triple = _parse_line(line)
        if triple is None:
            if strict:
                raise NTriplesError(line_number, raw)
            continue
        yield triple


def _parse_line(line: str) -> tuple[str, str, Literal | UriRef] | None:
    """The triple of one statement line, or None if it is malformed."""
    match = _TRIPLE_PATTERN.match(line)
    if match is None:
        return None
    if match.group("object_uri") is not None:
        obj: Literal | UriRef = UriRef(match.group("object_uri"))
    else:
        try:
            obj = Literal(_unescape(match.group("object_literal")))
        except ValueError:  # a bad \u / \U escape
            return None
    return match.group("subject"), match.group("predicate"), obj


def read_ntriples(
    source: str | Path | TextIO, name: str = "KB", strict: bool = True
) -> KnowledgeBase:
    """Load a KnowledgeBase from an N-Triples file or open text stream.

    Subjects become entity descriptions; triples whose object is a URI that
    never appears as a subject remain URI-valued pairs (they simply have no
    description to point at, which the graph index later ignores).
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            return _read(handle, name, strict)
    return _read(source, name, strict)


def _read(handle: TextIO, name: str, strict: bool) -> KnowledgeBase:
    kb = KnowledgeBase(name)
    for subject, predicate, obj in parse_lines(handle, strict=strict):
        entity = kb.get(subject)
        if entity is None:
            entity = kb.new_entity(subject)
        entity.add(predicate, obj)
    return kb


def write_ntriples(kb: KnowledgeBase, target: str | Path | TextIO) -> None:
    """Serialize a KnowledgeBase as N-Triples (one pair per line)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            _write(kb, handle)
    else:
        _write(kb, target)


def _write(kb: KnowledgeBase, handle: TextIO) -> None:
    for entity in kb:
        for attribute, value in entity:
            if isinstance(value, UriRef):
                obj = f"<{value.uri}>"
            else:
                obj = f'"{_escape(value.value)}"'
            handle.write(f"<{entity.uri}> <{attribute}> {obj} .\n")


def roundtrip(kb: KnowledgeBase, path: str | Path, name: str | None = None) -> KnowledgeBase:
    """Write then re-read a KB; handy for tests and format validation."""
    write_ntriples(kb, path)
    return read_ntriples(path, name or kb.name)
