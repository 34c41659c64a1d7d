"""Tests for the CRUD/batch/index message kinds, version checks and wire dispatch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dph import EncryptedQuery, EncryptedRelation, EncryptedTuple, EvaluationResult
from repro.outsourcing.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    Message,
    MessageKind,
    ProtocolError,
    ProtocolVersionError,
    decode_count,
    decode_evaluation_result,
    decode_query_batch,
    decode_result_batch,
    decode_tuple_ids,
    encode_count,
    encode_evaluation_result,
    encode_query_batch,
    encode_result_batch,
    encode_tuple_ids,
    parse_message,
)
from repro.relational import RelationSchema, Selection


# --------------------------------------------------------------------------- #
# Hypothesis strategies for the new body types
# --------------------------------------------------------------------------- #

tuple_ids_strategy = st.lists(st.binary(min_size=1, max_size=24), max_size=8)

queries_strategy = st.lists(
    st.builds(
        EncryptedQuery,
        scheme_name=st.text(min_size=1, max_size=12),
        tokens=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=4).map(tuple),
        metadata=st.binary(max_size=12),
    ),
    max_size=5,
)

kinds_strategy = st.sampled_from(list(MessageKind))
names_strategy = st.text(max_size=20)
bodies_strategy = st.binary(max_size=64)


@given(tuple_ids=tuple_ids_strategy)
@settings(max_examples=60, deadline=None)
def test_property_tuple_ids_roundtrip(tuple_ids):
    assert decode_tuple_ids(encode_tuple_ids(tuple_ids)) == tuple(tuple_ids)


@given(queries=queries_strategy)
@settings(max_examples=60, deadline=None)
def test_property_query_batch_roundtrip(queries):
    assert decode_query_batch(encode_query_batch(queries)) == tuple(queries)


@given(kind=kinds_strategy, name=names_strategy, body=bodies_strategy)
@settings(max_examples=60, deadline=None)
def test_property_v2_envelope_roundtrip(kind, name, body):
    message = Message(kind=kind, relation_name=name, body=body)
    assert Message.from_bytes(message.to_bytes()) == message
    assert parse_message(message.to_bytes()) == message


@given(kind=kinds_strategy, name=names_strategy, body=bodies_strategy)
@settings(max_examples=60, deadline=None)
def test_property_v2_envelope_truncation_rejected(kind, name, body):
    raw = Message(kind=kind, relation_name=name, body=body).to_bytes()
    with pytest.raises(ProtocolError):
        Message.from_bytes(raw[:-1])
    with pytest.raises(ProtocolError):
        Message.from_bytes(raw + b"x")


@given(tuple_ids=tuple_ids_strategy)
@settings(max_examples=30, deadline=None)
def test_property_tuple_ids_trailing_bytes_rejected(tuple_ids):
    with pytest.raises(ProtocolError):
        decode_tuple_ids(encode_tuple_ids(tuple_ids) + b"!")


class TestEvaluationResultEncoding:
    def _result(self, swp_dph, employee_relation) -> EvaluationResult:
        encrypted = swp_dph.encrypt_relation(employee_relation)
        query = swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        return swp_dph.server_evaluator().evaluate(query, encrypted)

    def test_roundtrip_preserves_statistics(self, swp_dph, employee_relation):
        result = self._result(swp_dph, employee_relation)
        decoded, consumed = decode_evaluation_result(encode_evaluation_result(result))
        assert consumed == len(encode_evaluation_result(result))
        assert decoded.matching.encrypted_tuples == result.matching.encrypted_tuples
        assert decoded.examined == result.examined
        assert decoded.token_evaluations == result.token_evaluations

    def test_result_batch_roundtrip(self, swp_dph, employee_relation):
        result = self._result(swp_dph, employee_relation)
        decoded = decode_result_batch(encode_result_batch([result, result]))
        assert len(decoded) == 2
        assert decoded[0].examined == result.examined

    def test_truncated_statistics_rejected(self, swp_dph, employee_relation):
        raw = encode_evaluation_result(self._result(swp_dph, employee_relation))
        with pytest.raises(ProtocolError):
            decode_evaluation_result(raw[:-1])

    def test_result_batch_trailing_bytes_rejected(self, swp_dph, employee_relation):
        raw = encode_result_batch([self._result(swp_dph, employee_relation)])
        with pytest.raises(ProtocolError):
            decode_result_batch(raw + b"z")


class TestCounts:
    def test_roundtrip(self):
        assert decode_count(encode_count(0)) == 0
        assert decode_count(encode_count(12345)) == 12345

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            encode_count(-1)

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_count(b"\x00" * 7)


class TestVersioning:
    def test_unknown_future_version_rejected(self):
        raw = Message(kind=MessageKind.QUERY, relation_name="emp", body=b"b").to_bytes()
        for version in (1, 2, 4, 7):
            other = raw[: len(MAGIC)] + bytes([version]) + raw[len(MAGIC) + 1:]
            with pytest.raises(ProtocolVersionError):
                Message.from_bytes(other)
            with pytest.raises(ProtocolVersionError):
                parse_message(other)

class TestWireDispatch:
    """The server's handle_message serves every request kind."""

    @pytest.fixture
    def loaded_server(self, swp_dph, employee_relation):
        from repro.outsourcing import OutsourcedDatabaseServer
        from repro.outsourcing.protocol import encode_encrypted_relation

        server = OutsourcedDatabaseServer()
        server.register_evaluator("Emp", swp_dph.server_evaluator())
        store = Message(
            kind=MessageKind.STORE_RELATION,
            relation_name="Emp",
            body=encode_encrypted_relation(swp_dph.encrypt_relation(employee_relation)),
        )
        response = parse_message(server.handle_message(store.to_bytes()))
        assert response.kind is MessageKind.ACK
        assert decode_count(response.body) == len(employee_relation)
        return server

    def test_query_v2_carries_statistics(self, loaded_server, swp_dph):
        from repro.outsourcing.protocol import encode_encrypted_query

        query = Message(
            kind=MessageKind.QUERY,
            relation_name="Emp",
            body=encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "HR"))),
        )
        response = parse_message(loaded_server.handle_message(query.to_bytes()))
        assert response.kind is MessageKind.QUERY_RESULT
        result, _ = decode_evaluation_result(response.body)
        assert len(result.matching) == 2
        assert result.examined == 5

    def test_delete_tuples_by_id(self, loaded_server):
        stored = loaded_server.stored_relation("Emp")
        victims = [t.tuple_id for t in stored.encrypted_tuples[:2]]
        delete = Message(
            kind=MessageKind.DELETE_TUPLES_EXACT,
            relation_name="Emp",
            body=encode_tuple_ids(victims + [b"no-such-id"]),
        )
        response = parse_message(loaded_server.handle_message(delete.to_bytes()))
        assert response.kind is MessageKind.TUPLE_IDS
        assert decode_tuple_ids(response.body) == tuple(victims)
        assert len(loaded_server.stored_relation("Emp")) == 3

    def test_batch_query(self, loaded_server, swp_dph):
        queries = [
            swp_dph.encrypt_query(Selection.equals("dept", "HR")),
            swp_dph.encrypt_query(Selection.equals("dept", "SALES")),
        ]
        batch = Message(
            kind=MessageKind.BATCH_QUERY,
            relation_name="Emp",
            body=encode_query_batch(queries),
        )
        response = parse_message(loaded_server.handle_message(batch.to_bytes()))
        assert response.kind is MessageKind.BATCH_RESULT
        results = decode_result_batch(response.body)
        assert [len(r.matching) for r in results] == [2, 1]

    def test_errors_come_back_as_error_messages(self, loaded_server, swp_dph):
        from repro.outsourcing.protocol import encode_encrypted_query

        query = Message(
            kind=MessageKind.QUERY,
            relation_name="missing",
            body=encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "HR"))),
        )
        response = parse_message(loaded_server.handle_message(query.to_bytes()))
        assert response.kind is MessageKind.ERROR
        assert b"missing" in response.body

    def test_malformed_body_comes_back_as_error(self, loaded_server):
        bad = Message(
            kind=MessageKind.DELETE_TUPLES_EXACT, relation_name="Emp", body=b"\x01"
        )
        response = parse_message(loaded_server.handle_message(bad.to_bytes()))
        assert response.kind is MessageKind.ERROR

    def test_list_tuple_ids_returns_ids_without_ciphertexts(self, loaded_server):
        stored = loaded_server.stored_relation("Emp")
        request = Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp")
        response = parse_message(loaded_server.handle_message(request.to_bytes()))
        assert response.kind is MessageKind.TUPLE_IDS
        ids = decode_tuple_ids(response.body)
        assert ids == tuple(t.tuple_id for t in stored.encrypted_tuples)
        # O(ids) on the wire: the response is far smaller than the data.
        assert len(response.body) < stored.size_in_bytes()

    def test_list_tuple_ids_rejects_a_body(self, loaded_server):
        request = Message(
            kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp", body=b"junk"
        )
        response = parse_message(loaded_server.handle_message(request.to_bytes()))
        assert response.kind is MessageKind.ERROR
        assert b"no body" in response.body

    def test_list_tuple_ids_unknown_relation_is_an_error(self, loaded_server):
        request = Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="missing")
        response = parse_message(loaded_server.handle_message(request.to_bytes()))
        assert response.kind is MessageKind.ERROR

    def test_peek_envelope_matches_the_full_parse(self, loaded_server):
        from repro.outsourcing.protocol import peek_envelope

        for envelope in (
            Message(kind=MessageKind.QUERY, relation_name="Emp", body=b"x" * 64),
            Message(kind=MessageKind.INSERT_TUPLE, relation_name="Other", body=b"y"),
            Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"),
        ):
            raw = envelope.to_bytes()
            parsed = parse_message(raw)
            assert peek_envelope(raw) == (
                PROTOCOL_VERSION, parsed.kind, parsed.relation_name
            )

    def test_peek_envelope_rejects_what_the_parsers_reject(self):
        from repro.outsourcing.protocol import peek_envelope

        good = Message(kind=MessageKind.QUERY, relation_name="Emp", body=b"abc")
        raw = good.to_bytes()
        with pytest.raises(ProtocolError):
            peek_envelope(raw[:-1])  # truncated body
        with pytest.raises(ProtocolError):
            peek_envelope(raw + b"!")  # trailing bytes
        unknown_kind = raw.replace(b"\x00\x00\x00\x05query", b"\x00\x00\x00\x05junk!")
        with pytest.raises(ProtocolError, match="unknown message kind"):
            peek_envelope(unknown_kind)
        with pytest.raises(ProtocolError):
            parse_message(unknown_kind)
        with pytest.raises(ProtocolVersionError):
            peek_envelope(raw[:3] + b"\x02" + raw[4:])

    def test_list_tuple_ids_is_audited(self, loaded_server):
        from repro.outsourcing.audit import AuditEventKind

        loaded_server.list_tuple_ids("Emp")
        events = loaded_server.audit_log.events_of_kind(AuditEventKind.TUPLE_IDS_LISTED)
        assert events and events[-1].detail["id_count"] == 5
