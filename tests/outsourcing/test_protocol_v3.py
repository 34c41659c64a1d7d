"""The trace-id trailer of the envelope and the O(1) raw-frame helpers."""

from __future__ import annotations

import pytest

from repro.outsourcing import protocol
from repro.outsourcing.protocol import (
    PROTOCOL_VERSION,
    TRACE_ID_SIZE,
    Message,
    MessageKind,
    ProtocolError,
)

TID = bytes(range(TRACE_ID_SIZE))


def _frame(body: bytes = b"payload") -> bytes:
    return Message(kind=MessageKind.QUERY, relation_name="Emp", body=body).to_bytes()


class TestMessageV3:
    def test_frame_layout(self):
        # DPH | 3 | kind | relation | body | trace id, each variable part
        # length-prefixed with 4 big-endian bytes; untraced is all-zero.
        fields = (
            b"DPH\x03"
            + b"\x00\x00\x00\x05query"
            + b"\x00\x00\x00\x03Emp"
            + b"\x00\x00\x00\x02ab"
        )
        traced = Message(
            kind=MessageKind.QUERY, relation_name="Emp", body=b"ab", trace_id=TID
        )
        untraced = Message(kind=MessageKind.QUERY, relation_name="Emp", body=b"ab")
        assert traced.to_bytes() == fields + TID
        assert untraced.to_bytes() == fields + bytes(TRACE_ID_SIZE)
        assert protocol.parse_message(fields + TID) == traced
        assert protocol.parse_message(fields + bytes(TRACE_ID_SIZE)) == untraced

    def test_round_trip_preserves_the_trace_id(self):
        message = Message(
            kind=MessageKind.INSERT_TUPLE, relation_name="Emp", body=b"x" * 33,
            trace_id=TID,
        )
        parsed = Message.from_bytes(message.to_bytes())
        assert parsed.trace_id == TID
        assert parsed.kind is MessageKind.INSERT_TUPLE
        assert parsed.relation_name == "Emp"
        assert parsed.body == b"x" * 33

    def test_wrong_size_trace_id_is_rejected_at_serialization(self):
        message = Message(
            kind=MessageKind.QUERY, relation_name="Emp", trace_id=b"short"
        )
        with pytest.raises(ProtocolError, match="16 bytes"):
            message.to_bytes()

    def test_truncated_v3_frame_is_rejected(self):
        raw = protocol.attach_trace(_frame(), TID)
        with pytest.raises(ProtocolError):
            Message.from_bytes(raw[: len(raw) - TRACE_ID_SIZE + 3][:12])


class TestRawHelpers:
    def test_attach_splices_the_id_into_the_trailer(self):
        raw = _frame()
        traced = protocol.attach_trace(raw, TID)
        assert len(traced) == len(raw)
        assert traced[-TRACE_ID_SIZE:] == TID
        # the header and kind/name/body encoding are reused verbatim
        assert traced[:-TRACE_ID_SIZE] == raw[:-TRACE_ID_SIZE]

    def test_attach_twice_is_a_caller_bug(self):
        traced = protocol.attach_trace(_frame(), TID)
        with pytest.raises(ProtocolError, match="already carries"):
            protocol.attach_trace(traced, TID)

    def test_attach_validates_the_id_size(self):
        with pytest.raises(ProtocolError, match="16 bytes"):
            protocol.attach_trace(_frame(), b"nope")

    def test_peek_trace_id(self):
        raw = _frame()
        assert protocol.peek_trace_id(raw) is None
        assert protocol.peek_trace_id(protocol.attach_trace(raw, TID)) == TID
        assert protocol.parse_message(protocol.attach_trace(raw, TID)).trace_id == TID

    def test_peek_envelope_accepts_v3(self):
        version, kind, relation = protocol.peek_envelope(
            protocol.attach_trace(_frame(), TID)
        )
        assert version == PROTOCOL_VERSION
        assert kind is MessageKind.QUERY
        assert relation == "Emp"
