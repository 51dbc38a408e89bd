"""The wire codec: round-trips, canonicalisation, malformed input."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monitor import records
from repro.monitor.records import (
    DECODED_CHARS_MAX,
    DECODED_STATES_MAX,
    MonitorRecord,
    RecordError,
    element_to_json,
    encode_record,
    parse_record,
    snapshot_from_json,
    snapshot_to_json,
    state_key,
    trace_records,
)
from repro.specstrom.state import ElementSnapshot, StateSnapshot
from tests.strategies import examples, state_snapshots


class TestSnapshotRoundTrip:
    @given(state=state_snapshots())
    @examples(80)
    def test_json_round_trip_is_identity(self, state):
        assert snapshot_from_json(snapshot_to_json(state)) == state

    @given(state=state_snapshots())
    @examples(60)
    def test_wire_round_trip_through_record(self, state):
        record = parse_record(encode_record("s1", state))
        assert record.session_id == "s1"
        assert record.state == state
        assert not record.end

    def test_attributes_survive_and_sort(self):
        element = ElementSnapshot(
            tag="input", attributes=(("href", "x"), ("id", "a"))
        )
        payload = json.loads(json.dumps(
            {"tag": "input", "attributes": {"id": "a", "href": "x"}}
        ))
        from repro.monitor.records import element_from_json, element_to_json
        assert element_from_json(payload) == element
        assert element_from_json(element_to_json(element)) == element

    def test_defaults_are_omitted_on_the_wire(self):
        from repro.monitor.records import element_to_json
        assert element_to_json(ElementSnapshot(tag="div")) == {"tag": "div"}


class TestStateKey:
    def test_version_and_timestamp_do_not_split_cohorts(self):
        a = StateSnapshot(queries={}, happened=("tick?",), version=1,
                          timestamp_ms=10.0)
        b = StateSnapshot(queries={}, happened=("tick?",), version=9,
                          timestamp_ms=99.5)
        assert state_key(a) == state_key(b)

    def test_happened_matters(self):
        a = StateSnapshot(happened=("tick?",))
        b = StateSnapshot(happened=("stop!",))
        assert state_key(a) != state_key(b)

    def test_wire_formatting_cannot_split_cohorts(self):
        """Explicit defaults, key order and whitespace on the wire must
        map to the same cohort key."""
        verbose = ('{"session": "x", "state": {"happened": ["tick?"], '
                   '"queries": {"#a": [{"enabled": true, "text": "", '
                   '"tag": "div", "visible": true}]}, "version": 3}}')
        terse = ('{"session":"x","state":{"queries":{"#a":[{"tag":"div"}]},'
                 '"happened":["tick?"]}}')
        assert (parse_record(verbose).state_key
                == parse_record(terse).state_key)


class TestParseRecord:
    def test_blank_lines_are_skipped(self):
        assert parse_record("") is None
        assert parse_record("   \n") is None

    def test_integer_session_ids_canonicalise(self):
        record = parse_record('{"session": 17, "end": true}')
        assert record.session_id == "17"

    def test_end_record(self):
        record = parse_record('{"session": "a", "end": true}')
        assert record.end and record.state is None and record.state_key is None

    @pytest.mark.parametrize("line", [
        "not json at all",
        '{"session": "a"',  # torn write
        "[1, 2]",
        '{"state": {}}',  # no session
        '{"session": "", "end": true}',  # empty session
        '{"session": true, "end": true}',  # bool is not an id
        '{"session": "a"}',  # neither state nor end
        '{"session": "a", "end": 1}',
        '{"session": "a", "end": true, "state": {}}',  # both
        '{"session": "a", "state": []}',
        '{"session": "a", "state": {"queries": []}}',
        '{"session": "a", "state": {"queries": {"#x": [{"text": "hi"}]}}}',
        '{"session": "a", "state": {"queries": {"#x": [{"tag": "div", '
        '"checked": "yes"}]}}}',
        '{"session": "a", "state": {"happened": "tick?"}}',
        '{"session": "a", "state": {"happened": [1]}}',
        '{"session": "a", "state": {"version": true}}',
        '{"session": "a", "state": {"timestamp_ms": "soon"}}',
    ])
    def test_malformed_records_raise(self, line):
        with pytest.raises(RecordError):
            parse_record(line)


class TestTraceRecords:
    def test_accepts_snapshots_and_trace_entries(self):
        state = StateSnapshot(happened=("loaded?",))

        class Entry:
            def __init__(self, state):
                self.state = state

        for trace in ([state], [Entry(state)]):
            lines = trace_records("s", trace)
            assert len(lines) == 2
            first = parse_record(lines[0])
            assert first.state == state
            assert parse_record(lines[1]).end

    def test_end_mark_is_optional(self):
        assert trace_records("s", [], end=False) == []
        (only,) = trace_records("s", [], end=True)
        assert parse_record(only).end


# ----------------------------------------------------------------------
# The decoded-state table
# ----------------------------------------------------------------------

#: Bookkeeping values a record may carry: ints and floats, both zeros,
#: and integers that decode to the same float as a stored timestamp.
_VERSIONS = st.integers(min_value=-3, max_value=3)
_TIMESTAMPS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, -7]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _reference(line):
    """What the reference decoder makes of an accepted state line."""
    snapshot = snapshot_from_json(json.loads(line)["state"])
    return snapshot, state_key(snapshot)


def _assert_matches_reference(record, line):
    snapshot, key = _reference(line)
    assert record.state == snapshot
    assert record.state_key == key
    assert type(record.state.version) is int
    assert record.state.version == snapshot.version
    # repr tells 0.0 and -0.0 apart; == does not.
    assert repr(record.state.timestamp_ms) == repr(snapshot.timestamp_ms)


def _state_line(state, version, timestamp_ms):
    payload = snapshot_to_json(state, meta=False)
    payload["version"] = version
    payload["timestamp_ms"] = timestamp_ms
    return json.dumps({"session": "s", "state": payload})


@st.composite
def _rendered(draw, value):
    """``value`` as JSON text with shuffled keys and random spacing."""
    def space():
        return draw(st.sampled_from(["", " ", "\n  ", "\t"]))

    if isinstance(value, dict):
        items = draw(st.permutations(list(value.items())))
        return "{" + ",".join(
            f"{space()}{json.dumps(key)}{space()}:{space()}"
            f"{draw(_rendered(item))}{space()}"
            for key, item in items
        ) + "}"
    if isinstance(value, list):
        return "[" + ",".join(
            f"{space()}{draw(_rendered(item))}{space()}" for item in value
        ) + "]"
    return json.dumps(value, ensure_ascii=draw(st.booleans()))


_ELEMENT_DEFAULTS = {"text": "", "value": "", "checked": False,
                     "enabled": True, "visible": True, "focused": False,
                     "classes": [], "attributes": {}}


@st.composite
def _spelled(draw, state):
    """One of the many wire spellings of ``state``: explicit default
    fields, any key and attribute order, any spacing."""
    queries = {}
    for selector, elements in state.queries.items():
        spelled = []
        for element in elements:
            data = element_to_json(element)
            for name, default in _ELEMENT_DEFAULTS.items():
                if name not in data and draw(st.booleans()):
                    data[name] = default
            spelled.append(data)
        queries[selector] = spelled
    payload = {"queries": queries, "happened": list(state.happened)}
    if not payload["happened"] and draw(st.booleans()):
        del payload["happened"]
    if draw(st.booleans()):
        payload["version"] = state.version
    return draw(_rendered({"session": "s", "state": payload}))


@st.composite
def _attributed_states(draw):
    """States whose elements carry several attributes (the shared
    strategy leaves them empty)."""
    state = draw(state_snapshots())
    attributes = draw(st.dictionaries(
        st.sampled_from(["id", "href", "data-x", "aria-label"]),
        st.text(alphabet="xy\u00e9", max_size=3), max_size=4,
    ))
    queries = {
        selector: tuple(
            ElementSnapshot(**{**vars(element),
                               "attributes": tuple(sorted(attributes.items()))})
            for element in elements
        )
        for selector, elements in state.queries.items()
    }
    return StateSnapshot(queries=queries, happened=state.happened,
                         version=state.version,
                         timestamp_ms=state.timestamp_ms)


def _accepted(line):
    """parse_record's only outcomes: None, a record, or RecordError."""
    try:
        result = parse_record(line)
    except RecordError:
        return None
    assert result is None or isinstance(result, MonitorRecord)
    return result


class TestDecodedStateTable:
    @given(line=st.text(max_size=80))
    @examples(300)
    def test_arbitrary_text_only_parses_or_raises_record_error(self, line):
        _accepted(line)

    @given(state=state_snapshots(), data=st.data())
    @examples(200)
    def test_truncated_and_bit_flipped_lines_stay_contained(self, state, data):
        raw = encode_record("s", state).encode()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        _accepted(raw[:cut].decode("utf-8", errors="replace"))
        index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        flipped = bytearray(raw)
        flipped[index] ^= 1 << bit
        record = _accepted(flipped.decode("utf-8", errors="replace"))
        if record is not None and record.state is not None:
            _assert_matches_reference(
                record, flipped.decode("utf-8", errors="replace")
            )

    @given(state=state_snapshots(), first=st.tuples(_VERSIONS, _TIMESTAMPS),
           second=st.tuples(_VERSIONS, _TIMESTAMPS))
    @examples(200)
    def test_table_hits_equal_the_reference_decode(self, state, first, second):
        for version, timestamp_ms in (first, second, first):
            line = _state_line(state, version, timestamp_ms)
            record = parse_record(line)
            _assert_matches_reference(record, line)
        # The third parse repeats the first line: certainly a hit.
        assert record.table_hit

    @given(state=_attributed_states(), data=st.data())
    @examples(60)
    def test_formatting_variants_share_one_cohort_key(self, state, data):
        canonical = parse_record(encode_record("s", state))
        for _ in range(2):
            line = data.draw(_spelled(state))
            record = parse_record(line)
            assert record.state_key == canonical.state_key
            assert record.state.queries == state.queries
            assert record.state.happened == state.happened

    def test_reused_snapshot_keeps_its_own_bookkeeping(self):
        state = StateSnapshot(happened=("sign-of-zero?",))
        stored = parse_record(_state_line(state, 4, 0.0)).state
        again = parse_record(_state_line(state, 4, 0.0))
        assert again.table_hit
        same = again.state
        negative = parse_record(_state_line(state, 4, -0.0)).state
        assert same is stored
        assert negative is not stored
        assert math.copysign(1.0, negative.timestamp_ms) == -1.0
        # A fresh snapshot for new bookkeeping shares the decoded parts.
        later = parse_record(_state_line(state, 9, 12)).state
        assert (later.version, later.timestamp_ms) == (9, 12.0)
        assert later.queries is stored.queries
        assert later.happened is stored.happened

    @pytest.mark.parametrize("version, timestamp_ms", [
        ("4", 0.0), (True, 0.0), (1.0, 0.0),
        (0, "soon"), (0, False), (0, 10 ** 400),
    ])
    def test_hits_still_validate_bookkeeping(self, version, timestamp_ms):
        state = StateSnapshot(happened=("validated?",))
        parse_record(_state_line(state, 0, 0.0))  # now in the table
        with pytest.raises(RecordError):
            parse_record(_state_line(state, version, timestamp_ms))

    def test_no_depth_near_the_recursion_limit_escapes(self):
        """Whether the depth fails in ``json.loads`` or parses and fails
        validation, each line is one RecordError, never a raw
        RecursionError."""
        import sys

        limit = sys.getrecursionlimit()
        for depth in range(limit - 60, limit + 5):
            line = ('{"session": "a", "state": {"queries": '
                    + "[" * depth + "]" * depth + "}}")
            with pytest.raises(RecordError):
                parse_record(line)

    def test_table_filled_past_its_bound_still_decodes(self):
        def state(index):
            return StateSnapshot(
                queries={"#n": (ElementSnapshot(tag="i", text=str(index)),)},
                happened=("bound?",),
            )

        count = DECODED_STATES_MAX + 50
        lines = [_state_line(state(i), i, float(i)) for i in range(count)]
        for line in lines:
            _assert_matches_reference(parse_record(line), line)
            assert len(records._decoded) <= DECODED_STATES_MAX
        # States decoded before the table was cleared still decode
        # correctly (now as misses again).
        for line in lines[:10] + lines[-10:]:
            _assert_matches_reference(parse_record(line), line)

    def test_table_stays_within_its_character_budget(self, monkeypatch):
        monkeypatch.setattr(records, "_decoded", {})
        monkeypatch.setattr(records, "_decoded_chars", 0)
        width = DECODED_CHARS_MAX // 8

        def line(index):
            text = str(index).ljust(width, "x")
            state = StateSnapshot(
                queries={"#big": (ElementSnapshot(tag="p", text=text),)},
            )
            return _state_line(state, 0, 0.0)

        lines = [line(i) for i in range(20)]
        for text in lines:
            _assert_matches_reference(parse_record(text), text)
            assert records._decoded_chars <= DECODED_CHARS_MAX
            assert records._decoded_chars == sum(map(len, records._decoded))
            assert len(records._decoded) < 8
        assert parse_record(lines[-1]).table_hit
