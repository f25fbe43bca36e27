"""Unit tests for the N-Triples reader/writer."""

import io

import pytest

from repro.kb import (
    EntityDescription,
    KnowledgeBase,
    Literal,
    NTriplesError,
    UriRef,
    read_ntriples,
    write_ntriples,
)
from repro.kb.io_ntriples import parse_lines, roundtrip

SAMPLE = """
# a comment line
<http://e.org/1> <http://e.org/name> "Alan Turing" .
<http://e.org/1> <http://e.org/born> "1912"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e.org/1> <http://e.org/label> "Turing"@en .
<http://e.org/1> <http://e.org/work> <http://e.org/2> .
<http://e.org/2> <http://e.org/name> "Bletchley Park" .
"""

#: ``\u`` / ``\U`` escapes that are not hex, truncated, or name a
#: surrogate: each makes its line malformed.
BAD_ESCAPES = ["\\uZZZZ", "\\u00", "\\uD800", "\\U0011FFFF"]


class TestParsing:
    def test_parses_all_statements(self):
        triples = list(parse_lines(SAMPLE.splitlines()))
        assert len(triples) == 5

    def test_literal_object(self):
        triples = list(parse_lines(SAMPLE.splitlines()))
        assert triples[0] == (
            "http://e.org/1",
            "http://e.org/name",
            Literal("Alan Turing"),
        )

    def test_datatype_suffix_dropped(self):
        triples = list(parse_lines(SAMPLE.splitlines()))
        assert triples[1][2] == Literal("1912")

    def test_language_tag_dropped(self):
        triples = list(parse_lines(SAMPLE.splitlines()))
        assert triples[2][2] == Literal("Turing")

    def test_uri_object(self):
        triples = list(parse_lines(SAMPLE.splitlines()))
        assert triples[3][2] == UriRef("http://e.org/2")

    def test_comments_and_blanks_skipped(self):
        assert list(parse_lines(["", "# hi", "   "])) == []

    def test_escaped_quote(self):
        line = '<u> <p> "say \\"hi\\"" .'
        (_, _, obj), = parse_lines([line])
        assert obj == Literal('say "hi"')

    def test_escaped_newline_and_tab(self):
        line = '<u> <p> "a\\nb\\tc" .'
        (_, _, obj), = parse_lines([line])
        assert obj == Literal("a\nb\tc")

    def test_unicode_escape(self):
        line = '<u> <p> "caf\\u00e9" .'
        (_, _, obj), = parse_lines([line])
        assert obj == Literal("café")

    def test_long_unicode_escape(self):
        line = '<u> <p> "x\\U0001F600" .'
        (_, _, obj), = parse_lines([line])
        assert obj == Literal("x\U0001F600")

    def test_malformed_strict_raises(self):
        with pytest.raises(NTriplesError) as excinfo:
            list(parse_lines(["not a triple"]))
        assert excinfo.value.line_number == 1

    def test_malformed_lenient_skips(self):
        assert list(parse_lines(["not a triple"], strict=False)) == []

    @pytest.mark.parametrize("escape", BAD_ESCAPES, ids=BAD_ESCAPES)
    def test_bad_unicode_escape_strict_raises(self, escape):
        lines = ['<u> <p> "ok" .', f'<u> <p> "x{escape}" .']
        with pytest.raises(NTriplesError) as excinfo:
            list(parse_lines(lines))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("escape", BAD_ESCAPES, ids=BAD_ESCAPES)
    def test_bad_unicode_escape_lenient_skips(self, escape, tmp_path):
        lines = [f'<u> <p> "x{escape}" .', '<u> <p> "ok" .']
        assert list(parse_lines(lines, strict=False)) == [
            ("u", "p", Literal("ok"))
        ]
        kb = read_ntriples(io.StringIO("\n".join(lines)), strict=False)
        write_ntriples(kb, tmp_path / "out.nt")  # encodable as UTF-8


class TestReadWrite:
    def test_read_builds_kb(self):
        kb = read_ntriples(io.StringIO(SAMPLE), name="X")
        assert len(kb) == 2
        assert kb.name == "X"
        assert kb["http://e.org/1"].literals_of("http://e.org/name") == [
            "Alan Turing"
        ]

    def test_read_keeps_uri_objects(self):
        kb = read_ntriples(io.StringIO(SAMPLE))
        assert ("http://e.org/work", "http://e.org/2") in list(
            kb["http://e.org/1"].relation_pairs()
        )

    def test_write_then_read_roundtrip(self, tmp_path):
        kb = read_ntriples(io.StringIO(SAMPLE), name="X")
        back = roundtrip(kb, tmp_path / "kb.nt")
        assert len(back) == len(kb)
        assert back["http://e.org/1"].pairs == kb["http://e.org/1"].pairs

    def test_roundtrip_with_special_characters(self, tmp_path):
        kb = KnowledgeBase("S")
        entity = EntityDescription("http://e.org/s")
        entity.add_literal("p", 'quote " backslash \\ newline \n tab \t end')
        kb.add(entity)
        back = roundtrip(kb, tmp_path / "special.nt")
        assert back["http://e.org/s"].pairs == entity.pairs

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "kb.nt"
        path.write_text(SAMPLE, encoding="utf-8")
        assert len(read_ntriples(path)) == 2

    def test_write_to_stream(self):
        kb = read_ntriples(io.StringIO(SAMPLE))
        out = io.StringIO()
        write_ntriples(kb, out)
        assert out.getvalue().count(" .\n") == 5
