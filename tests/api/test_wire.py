"""Wire frames under hostile bytes: a dict or a ``FrameError``, nothing
else.

Every coordinator<->worker message goes through
:func:`repro.api.transport.wire.recv_frame`.  Whatever a peer sends --
arbitrary bytes, a truncated frame, a bit-flipped one, a frame nested
deeper than the JSON decoder's stack -- the reader must either return a
typed message or raise :class:`FrameError` (which the transport turns
into a closed connection), never a raw exception that kills the
reading thread.
"""

import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.transport.wire import FrameError, recv_frame, send_frame


def _read_after(data: bytes):
    """Feed ``data`` (then EOF) to ``recv_frame`` over a socketpair;
    return the message or the exception it raised."""
    reader, writer = socket.socketpair()
    reader.settimeout(10.0)

    def feed():
        try:
            writer.sendall(data)
        except OSError:  # the reader gave up early (oversized header)
            pass
        finally:
            writer.shutdown(socket.SHUT_WR)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return recv_frame(reader)
    except Exception as err:  # noqa: BLE001 - the property inspects it
        return err
    finally:
        reader.close()
        feeder.join(timeout=10)
        writer.close()


def _frame(message) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def _typed(outcome) -> bool:
    return (isinstance(outcome, dict) and "type" in outcome) or isinstance(
        outcome, FrameError
    )


VALID = _frame({"type": "result", "id": 3, "epoch": 1, "elapsed": 0.25,
                "payload": "gAR9lC4=", "warm_hits": 1})


class TestHostileBytes:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, data):
        assert _typed(_read_after(data))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_payload_behind_a_true_header(self, body):
        assert _typed(_read_after(len(body).to_bytes(4, "big") + body))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, len(VALID) - 1))
    def test_truncated_frames(self, cut):
        assert isinstance(_read_after(VALID[:cut]), FrameError)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(VALID) * 8 - 1))
    def test_bit_flipped_frames(self, bit):
        flipped = bytearray(VALID)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert _typed(_read_after(bytes(flipped)))

    @pytest.mark.parametrize("opener", [b"[", b'{"a":'])
    def test_deep_nesting_is_a_frame_error(self, opener):
        nested = opener * 100_000
        outcome = _read_after(len(nested).to_bytes(4, "big") + nested)
        assert isinstance(outcome, FrameError)

    def test_untyped_json_is_a_frame_error(self):
        assert isinstance(_read_after(_frame([1, 2])), FrameError)
        assert isinstance(_read_after(_frame({"id": 1})), FrameError)

    def test_well_formed_frames_round_trip(self):
        reader, writer = socket.socketpair()
        try:
            send_frame(writer, {"type": "next"})
            assert recv_frame(reader) == {"type": "next"}
        finally:
            reader.close()
            writer.close()
