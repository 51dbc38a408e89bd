"""Corpus JSONL as hostile input: every malformed line is a typed
:class:`CorpusError` naming its line, never a raw exception."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.fuzz import campaigns as campaigns_module
from repro.fuzz.campaigns import generate_campaign
from repro.fuzz.corpus import CorpusEntry, CorpusError, read_corpus
from repro.specstrom.actions import ResolvedAction


def _valid_entries():
    campaign = generate_campaign(11, 0)
    divergence = campaigns_module._divergence_entry(
        campaign, None, "path", "synthetic", jobs=2
    )
    counterexample = CorpusEntry(
        kind="counterexample",
        detail="synthetic",
        machine=campaign.machine,
        fault=None,
        spec_source=campaign.spec_source,
        spec_kind=campaign.spec_kind,
        config=dict(divergence.config),
        default_subscript=campaign.default_subscript,
        actions=[("b0!", ResolvedAction("click", "#b0", 0, ()))],
        verdict="DEFINITELY_FALSE",
    )
    return [divergence, counterexample]


VALID_LINES = [
    json.dumps(entry.to_dict(), sort_keys=True).encode("utf-8")
    for entry in _valid_entries()
]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "corpus.jsonl"


def read_all(path, data: bytes):
    path.write_bytes(data)
    return list(read_corpus(str(path)))


def only_entries_or_corpus_errors(path, data: bytes) -> None:
    try:
        entries = read_all(path, data)
    except CorpusError as error:
        assert error.line is not None and error.line >= 1
    else:
        assert all(isinstance(entry, CorpusEntry) for entry in entries)


class TestTypedErrors:
    def test_valid_lines_round_trip(self, corpus_file):
        entries = read_all(corpus_file, b"\n".join(VALID_LINES) + b"\n")
        assert [entry.kind for entry in entries] == [
            "divergence", "counterexample",
        ]
        assert [entry.line for entry in entries] == [1, 2]

    def test_missing_field_names_the_line(self, corpus_file):
        data = VALID_LINES[0] + b'\n\n{"kind": "counterexample"}\n'
        with pytest.raises(CorpusError, match="line 3: missing field 'detail'"):
            read_all(corpus_file, data)

    def test_non_json_line(self, corpus_file):
        with pytest.raises(CorpusError) as caught:
            read_all(corpus_file, b"not json\n")
        assert caught.value.line == 1

    def test_unknown_config_key(self, corpus_file):
        record = json.loads(VALID_LINES[0])
        record["config"]["no_such_knob"] = True
        with pytest.raises(CorpusError, match="line 1: malformed entry"):
            read_all(corpus_file, json.dumps(record).encode("utf-8"))

    def test_spec_that_no_longer_elaborates(self):
        record = json.loads(VALID_LINES[1])
        record["spec_source"] = "check always{"
        entry = CorpusEntry.from_dict(record, line=4)
        with pytest.raises(CorpusError, match="line 4: spec source"):
            entry.runner()


class TestHostileBytes:
    @settings(max_examples=150, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, corpus_file, text):
        only_entries_or_corpus_errors(corpus_file, text.encode("utf-8"))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(VALID_LINES), st.data())
    def test_truncated_lines(self, corpus_file, line, data):
        cut = data.draw(st.integers(0, len(line)))
        only_entries_or_corpus_errors(corpus_file, line[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(VALID_LINES), st.data())
    def test_byte_flipped_lines(self, corpus_file, line, data):
        index = data.draw(st.integers(0, len(line) - 1))
        mask = data.draw(st.integers(1, 255))
        flipped = bytearray(line)
        flipped[index] ^= mask
        only_entries_or_corpus_errors(corpus_file, bytes(flipped))


class TestReplayCommand:
    def test_malformed_corpus_exits_2_with_one_line(self, capsys, tmp_path):
        corpus = tmp_path / "bad-corpus.jsonl"
        corpus.write_text('not json\n{"kind": "counterexample"}\n')
        code = main(["fuzz", "--replay", str(corpus)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "CorpusError: line 1:" in lines[0]
