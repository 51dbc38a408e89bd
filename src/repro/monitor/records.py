"""The monitor's wire format: framed JSONL records and the state codec.

One record per line, each a JSON object tagged with the session it
belongs to:

* ``{"session": ID, "state": {...}}`` -- one observed application state,
* ``{"session": ID, "end": true}``    -- explicit end-of-session (the
  stream promises no further states; the monitor resolves the session's
  final verdict, forcing by the polarity rule if the residual still
  demands states).

``ID`` is any JSON string or integer (integers are canonicalised to
their decimal string).  Blank lines are ignored; anything else that
fails to parse raises :class:`RecordError`, which the ingest layer
quarantines (counted and sampled, never fatal to other sessions).

The ``state`` payload mirrors :class:`~repro.specstrom.state.StateSnapshot`::

    {"queries": {"#sel": [ELEMENT, ...], ...},
     "happened": ["loaded?", ...],
     "version": 0, "timestamp_ms": 0.0}

``version``/``timestamp_ms`` are optional bookkeeping -- spec evaluation
never reads them, so they are *excluded* from :attr:`MonitorRecord.state_key`,
the canonical cohort key the batcher groups by: two sessions observing
semantically identical states land in one cohort even when their stream
positions differ.  ELEMENT payloads omit fields at their defaults
(``element_to_json``), and :func:`state_key` re-encodes the *decoded*
snapshot, so input formatting (key order, whitespace, explicit
defaults) can never split a cohort.

Decoding goes through a process-wide *decoded-state table*: after
``json.loads``, :func:`parse_record` takes ``version``/``timestamp_ms``
out of the state object and looks the rest up by its compact,
sorted-key JSON re-encoding.  That re-encoding is one-to-one on parsed
JSON values (``true``, ``1`` and ``1.0`` stay apart), so equal lookup
keys mean the same validation outcome and the same cohort key.  Only a
miss runs the reference decoder (:func:`snapshot_from_json` +
:func:`state_key`) and stores its result; a hit validates the record's
own ``version``/``timestamp_ms`` and reuses the stored snapshot (or a
copy sharing its ``queries``/``happened`` when they differ), and marks
the record :attr:`MonitorRecord.table_hit`.

The table is cleared when a miss would take it past
:data:`DECODED_STATES_MAX` states or :data:`DECODED_CHARS_MAX`
characters of lookup keys, so memory stays bounded under any stream.
Decoded objects cost about seven times their lookup key, so a full
table holds at most about 7 MB (measured with ``tracemalloc`` on
states from one ``happened`` entry to 200 TodoMVC-style list items).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..specstrom.state import ElementSnapshot, StateSnapshot

__all__ = [
    "RecordError",
    "MonitorRecord",
    "element_to_json",
    "element_from_json",
    "snapshot_to_json",
    "snapshot_from_json",
    "state_key",
    "encode_record",
    "session_tag",
    "parse_record",
    "DECODED_STATES_MAX",
    "DECODED_CHARS_MAX",
    "trace_records",
]


class RecordError(ValueError):
    """A malformed monitor record (quarantined by the ingest layer)."""


@dataclass(frozen=True)
class MonitorRecord:
    """One parsed frame: a state observation or an end-of-session mark."""

    session_id: str
    state: Optional[StateSnapshot]  # None for end records
    state_key: Optional[str]  # canonical cohort key; None for end records
    end: bool = False
    #: The state came from the decoded-state table (not compared).
    table_hit: bool = field(default=False, compare=False)


# ----------------------------------------------------------------------
# Element / snapshot codec
# ----------------------------------------------------------------------

#: Fields serialised only when they differ from the element defaults.
_ELEMENT_DEFAULTS = ElementSnapshot(tag="")
_ELEMENT_OPTIONAL = ("text", "value", "checked", "enabled", "visible", "focused")


def element_to_json(element: ElementSnapshot) -> dict:
    """JSON payload of one element; default-valued fields are omitted."""
    data: dict = {"tag": element.tag}
    for name in _ELEMENT_OPTIONAL:
        value = getattr(element, name)
        if value != getattr(_ELEMENT_DEFAULTS, name):
            data[name] = value
    if element.classes:
        data["classes"] = list(element.classes)
    if element.attributes:
        data["attributes"] = {key: value for key, value in element.attributes}
    return data


def element_from_json(data: object) -> ElementSnapshot:
    if not isinstance(data, dict):
        raise RecordError(f"element payload must be an object, got {type(data).__name__}")
    tag = data.get("tag")
    if not isinstance(tag, str):
        raise RecordError("element payload needs a string 'tag'")
    kwargs: dict = {}
    for name in _ELEMENT_OPTIONAL:
        if name not in data:
            continue
        value = data[name]
        expected = type(getattr(_ELEMENT_DEFAULTS, name))
        # bool is an int subclass; demand the exact flavour the snapshot
        # holds so round-trips (and cohort keys) stay canonical.
        if type(value) is not expected:
            raise RecordError(
                f"element field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        kwargs[name] = value
    classes = data.get("classes", [])
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise RecordError("element 'classes' must be a list of strings")
    attributes = data.get("attributes", {})
    if not isinstance(attributes, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in attributes.items()
    ):
        raise RecordError("element 'attributes' must map strings to strings")
    return ElementSnapshot(
        tag=tag,
        classes=tuple(classes),
        attributes=tuple(sorted(attributes.items())),
        **kwargs,
    )


def snapshot_to_json(state: StateSnapshot, *, meta: bool = True) -> dict:
    """JSON payload of one state snapshot.

    ``meta=False`` drops ``version``/``timestamp_ms`` -- the projection
    used for :func:`state_key`, since spec evaluation reads only
    ``queries`` and ``happened``.
    """
    payload: dict = {
        "queries": {
            selector: [element_to_json(element) for element in elements]
            for selector, elements in state.queries.items()
        },
        "happened": list(state.happened),
    }
    if meta:
        payload["version"] = state.version
        payload["timestamp_ms"] = state.timestamp_ms
    return payload


def snapshot_from_json(data: object) -> StateSnapshot:
    if not isinstance(data, dict):
        raise RecordError(f"state payload must be an object, got {type(data).__name__}")
    queries_data = data.get("queries", {})
    if not isinstance(queries_data, dict):
        raise RecordError("state 'queries' must be an object")
    queries = {}
    for selector, elements in queries_data.items():
        if not isinstance(selector, str):
            raise RecordError("query selectors must be strings")
        if not isinstance(elements, list):
            raise RecordError(f"query {selector!r} must hold a list of elements")
        queries[selector] = tuple(element_from_json(e) for e in elements)
    happened = data.get("happened", [])
    if not isinstance(happened, list) or not all(isinstance(h, str) for h in happened):
        raise RecordError("state 'happened' must be a list of strings")
    version, timestamp_ms = _state_meta(
        data.get("version", 0), data.get("timestamp_ms", 0.0)
    )
    return StateSnapshot(
        queries=queries,
        happened=tuple(happened),
        version=version,
        timestamp_ms=timestamp_ms,
    )


def _state_meta(version: object, timestamp_ms: object) -> Tuple[int, float]:
    """Validate a state's ``version``/``timestamp_ms`` bookkeeping."""
    if not isinstance(version, int) or isinstance(version, bool):
        raise RecordError("state 'version' must be an integer")
    if isinstance(timestamp_ms, int) and not isinstance(timestamp_ms, bool):
        try:
            timestamp_ms = float(timestamp_ms)
        except OverflowError:
            raise RecordError("state 'timestamp_ms' is out of range") from None
    if not isinstance(timestamp_ms, float):
        raise RecordError("state 'timestamp_ms' must be a number")
    return version, timestamp_ms


def state_key(state: StateSnapshot) -> str:
    """The canonical cohort key: semantically identical states (same
    queries and happened set; version/timestamp excluded) get identical
    keys, regardless of how the record was formatted on the wire."""
    return json.dumps(
        snapshot_to_json(state, meta=False),
        sort_keys=True,
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


def encode_record(
    session_id: Union[str, int],
    state: Optional[StateSnapshot] = None,
    *,
    end: bool = False,
) -> str:
    """One wire line (no trailing newline) for a state or an end mark."""
    if (state is None) == (not end):
        raise ValueError("a record carries exactly one of state= or end=True")
    payload: dict = {"session": session_id}
    if end:
        payload["end"] = True
    else:
        payload["state"] = snapshot_to_json(state)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def session_tag(value: object) -> Optional[str]:
    """A record's canonical session id, or ``None`` if ``value`` is not
    a valid tag (integers become their decimal string)."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    if isinstance(value, str) and value:
        return value
    return None


# ----------------------------------------------------------------------
# Decoded-state table
# ----------------------------------------------------------------------

#: Most states the decoded-state table holds.
DECODED_STATES_MAX = 4096

#: Most characters of lookup keys the decoded-state table holds.
DECODED_CHARS_MAX = 1 << 20

#: lookup key (compact sorted JSON of the state minus its bookkeeping)
#: -> (reference-decoded snapshot, canonical cohort key)
_decoded: Dict[str, Tuple[StateSnapshot, str]] = {}
_decoded_chars = 0

_lookup_key = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode


def _decode_state(payload: dict) -> Tuple[StateSnapshot, str, bool]:
    """The snapshot and cohort key of one parsed ``state`` object, and
    whether the decoded-state table supplied them."""
    global _decoded_chars
    version = payload.pop("version", 0)
    timestamp_ms = payload.pop("timestamp_ms", 0.0)
    lookup = _lookup_key(payload)
    entry = _decoded.get(lookup)
    if entry is None:
        payload["version"] = version
        payload["timestamp_ms"] = timestamp_ms
        snapshot = snapshot_from_json(payload)
        key = state_key(snapshot)
        if (len(_decoded) >= DECODED_STATES_MAX
                or _decoded_chars + len(lookup) > DECODED_CHARS_MAX):
            _decoded.clear()
            _decoded_chars = 0
        _decoded[lookup] = (snapshot, key)
        _decoded_chars += len(lookup)
        return snapshot, key, False
    stored, key = entry
    version, timestamp_ms = _state_meta(version, timestamp_ms)
    if (
        version == stored.version
        and timestamp_ms == stored.timestamp_ms
        and (timestamp_ms or math.copysign(1.0, timestamp_ms)
             == math.copysign(1.0, stored.timestamp_ms))
    ):
        return stored, key, True
    return StateSnapshot(
        queries=stored.queries,
        happened=stored.happened,
        version=version,
        timestamp_ms=timestamp_ms,
    ), key, True


def parse_record(line: str) -> Optional[MonitorRecord]:
    """Parse one wire line; blank lines give ``None``.

    Raises :class:`RecordError` for anything malformed: invalid JSON
    (including a partial line from a torn write, or nesting too deep to
    decode), a missing/ill-typed session tag, a record that is neither
    a state nor an end mark, or a state payload that fails validation.
    """
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as error:
        raise RecordError(f"invalid JSON: {error}") from None
    if not isinstance(data, dict):
        raise RecordError(f"record must be an object, got {type(data).__name__}")
    session = session_tag(data.get("session"))
    if session is None:
        raise RecordError("record needs a non-empty 'session' tag")
    end = data.get("end", False)
    if end is not False and end is not True:
        raise RecordError("'end' must be a boolean")
    has_state = "state" in data
    if end and has_state:
        raise RecordError("a record carries either 'state' or 'end', not both")
    if end:
        return MonitorRecord(session_id=session, state=None, state_key=None,
                             end=True)
    if not has_state:
        raise RecordError("record carries neither 'state' nor 'end'")
    payload = data["state"]
    if not isinstance(payload, dict):
        snapshot_from_json(payload)  # raises the reference decoder's error
    snapshot, key, hit = _decode_state(payload)
    return MonitorRecord(session_id=session, state=snapshot, state_key=key,
                         table_hit=hit)


def trace_records(
    session_id: Union[str, int],
    trace: Sequence[object],
    *,
    end: bool = True,
) -> List[str]:
    """Encode a recorded trace as wire lines for one session.

    ``trace`` holds :class:`StateSnapshot`\\ s or objects with a
    ``.state`` attribute (the checker's ``TraceEntry``).  With ``end``
    (the default) a final end-of-session mark is appended, so replaying
    the lines resolves the session exactly like the offline checker
    resolves a finished test.
    """
    lines = []
    for entry in trace:
        state = getattr(entry, "state", entry)
        lines.append(encode_record(session_id, state))
    if end:
        lines.append(encode_record(session_id, end=True))
    return lines
