"""Unit tests for the JSON KB serialization."""

import io
import json

import pytest

from repro.kb import (
    EntityDescription,
    KnowledgeBase,
    UriRef,
    kb_from_dict,
    kb_to_dict,
    read_json,
    write_json,
)
from repro.kb.io_json import EntityFormatError, entity_from_dict, entity_to_dict


def make_kb():
    kb = KnowledgeBase("J")
    entity = EntityDescription("u1")
    entity.add_literal("name", "alpha")
    entity.add_relation("near", "u2")
    kb.add(entity)
    kb.add(EntityDescription("u2", [("name", "beta")]))
    return kb


class TestDictConversion:
    def test_round_trip(self):
        kb = make_kb()
        back = kb_from_dict(kb_to_dict(kb))
        assert back.name == kb.name
        assert len(back) == len(kb)
        assert back["u1"].pairs == kb["u1"].pairs

    def test_literal_boxing(self):
        data = kb_to_dict(make_kb())
        assert data["entities"][0]["pairs"][0] == ["name", {"lit": "alpha"}]

    def test_ref_boxing(self):
        data = kb_to_dict(make_kb())
        assert data["entities"][0]["pairs"][1] == ["near", {"ref": "u2"}]

    def test_malformed_box_raises(self):
        data = {"name": "X", "entities": [{"uri": "u", "pairs": [["p", {"zzz": 1}]]}]}
        with pytest.raises(ValueError):
            kb_from_dict(data)

    def test_missing_name_defaults(self):
        assert kb_from_dict({"entities": []}).name == "KB"

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"uri": "u", "pairs": [["p", {"lit": 5}]]}, "'u'"),
            ({"uri": "u", "pairs": [["p", {"ref": ["v"]}]]}, "'u'"),
            ({"uri": "u", "pairs": [["p", {"lit": ""}]]}, "'u'"),
            ({"uri": "u", "pairs": [[3, {"lit": "x"}]]}, "'u'"),
            ({"uri": "u", "pairs": "p"}, "'u'"),
            ({"pairs": [["p", {"lit": "x"}]]}, "'pairs'"),
            ({"uri": 7}, "'uri': 7"),
        ],
    )
    def test_malformed_record_is_refused_by_name(self, record, named):
        """A record the grammar does not allow raises a ValueError
        subclass naming it — never a KeyError, and never later, in the
        tokenizer."""
        with pytest.raises(EntityFormatError) as refused:
            kb_from_dict({"name": "X", "entities": [record]})
        assert named in str(refused.value)

    def test_malformed_file_is_refused(self, tmp_path):
        path = tmp_path / "kb.json"
        record = {"uri": "u", "pairs": [["p", {"lit": 5}]]}
        path.write_text(json.dumps({"entities": [record]}))
        with pytest.raises(ValueError, match="'u'"):
            read_json(path)

    def test_one_codec_for_kb_files_and_requests(self):
        from repro.serve import json_codec

        assert json_codec.entity_from_dict is entity_from_dict
        assert json_codec.entity_to_dict is entity_to_dict
        kb = make_kb()
        assert kb_to_dict(kb)["entities"] == list(map(entity_to_dict, kb))


class TestFileIo:
    def test_path_round_trip(self, tmp_path):
        path = tmp_path / "kb.json"
        write_json(make_kb(), path, indent=2)
        back = read_json(path)
        assert back["u2"].literals_of("name") == ["beta"]

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        write_json(make_kb(), buffer)
        buffer.seek(0)
        back = read_json(buffer)
        assert isinstance(back["u1"].values_of("near")[0], UriRef)
