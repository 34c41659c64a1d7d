"""The one request seam: ``protocol.request`` against every provider surface.

Every caller -- the session, the outsourcing client, the proxies' id
listing, the rebalancer -- builds an envelope, hands it to a provider's
``handle_message``, parses the reply and checks its kind through
:func:`~repro.outsourcing.protocol.request`.  These tests pin that
contract on an in-process provider, the TCP proxy, an in-process shard
router and a router over one TCP shard plus one in-process shard (its
scatter's socket-wait-plus-inline path), and the typed errors it raises
in place of matching on error text.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardRouter
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import OutsourcedDatabaseServer, protocol
from repro.outsourcing.protocol import (
    MAGIC,
    ErrorReply,
    Message,
    MessageKind,
    ProtocolError,
    ProtocolVersionError,
)
from repro.relational import Selection

SURFACES = ("local", "tcp", "cluster-mixed", "router")


@pytest.fixture(params=SURFACES)
def provider(request):
    """A fresh provider behind one of the request surfaces."""
    if request.param == "local":
        yield OutsourcedDatabaseServer()
    elif request.param == "router":
        router = ShardRouter([OutsourcedDatabaseServer(), OutsourcedDatabaseServer()])
        yield router
        router.close()
    elif request.param == "cluster-mixed":
        with ThreadedTcpServer() as server:
            router = ShardRouter(
                [f"tcp://127.0.0.1:{server.port}", OutsourcedDatabaseServer()]
            )
            try:
                yield router
            finally:
                router.close()
    else:
        with ThreadedTcpServer() as server:
            proxy = RemoteServerProxy("127.0.0.1", server.port)
            try:
                yield proxy
            finally:
                proxy.close()


def _store(provider, swp_dph, relation) -> None:
    provider.register_evaluator("Emp", swp_dph.server_evaluator())
    response = protocol.request(
        provider,
        MessageKind.STORE_RELATION,
        "Emp",
        protocol.encode_encrypted_relation(swp_dph.encrypt_relation(relation)),
        expect=MessageKind.ACK,
    )
    assert protocol.decode_count(response.body) == len(relation)


def _with_version(raw: bytes, version: int) -> bytes:
    return raw[: len(MAGIC)] + bytes([version]) + raw[len(MAGIC) + 1:]


class TestEverySurface:
    def test_crud_round_trip(self, provider, swp_dph, employee_relation):
        _store(provider, swp_dph, employee_relation)
        query = protocol.encode_encrypted_query(
            swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        )
        response = protocol.request(
            provider, MessageKind.QUERY, "Emp", query, expect=MessageKind.QUERY_RESULT
        )
        hr_ids = [
            t.tuple_id
            for t in protocol.decode_query_result(response.body).matching.encrypted_tuples
        ]
        assert len(hr_ids) == 2
        listed = protocol.request(
            provider, MessageKind.LIST_TUPLE_IDS, "Emp", expect=MessageKind.TUPLE_IDS
        )
        assert set(hr_ids) <= set(protocol.decode_tuple_ids(listed.body))
        deleted = protocol.request(
            provider,
            MessageKind.DELETE_TUPLES_EXACT,
            "Emp",
            protocol.encode_tuple_ids(hr_ids),
            expect=MessageKind.TUPLE_IDS,
        )
        assert sorted(protocol.decode_tuple_ids(deleted.body)) == sorted(hr_ids)
        after = protocol.request(
            provider, MessageKind.QUERY, "Emp", query, expect=MessageKind.QUERY_RESULT
        )
        assert len(protocol.decode_query_result(after.body).matching) == 0

    def test_an_error_reply_is_typed_and_carries_the_provider_text(
        self, provider, swp_dph
    ):
        query = protocol.encode_encrypted_query(
            swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        )
        with pytest.raises(ErrorReply, match="Missing") as excinfo:
            protocol.request(
                provider,
                MessageKind.QUERY,
                "Missing",
                query,
                expect=MessageKind.QUERY_RESULT,
            )
        assert not isinstance(excinfo.value, ProtocolVersionError)


class TestCheckReply:
    def test_an_unexpected_kind_is_a_protocol_error_not_an_error_reply(self):
        raw = Message(kind=MessageKind.ACK, relation_name="Emp").to_bytes()
        with pytest.raises(ProtocolError, match="expected 'tuple-ids'") as excinfo:
            protocol.check_reply(raw, MessageKind.TUPLE_IDS)
        assert not isinstance(excinfo.value, ErrorReply)
        assert protocol.check_reply(raw, MessageKind.ACK).kind is MessageKind.ACK

    def test_a_reply_in_another_version_is_a_version_error(self):
        raw = Message(kind=MessageKind.ACK, relation_name="Emp").to_bytes()
        with pytest.raises(ProtocolVersionError):
            protocol.check_reply(_with_version(raw, 2), MessageKind.ACK)

    def test_requests_travel_untraced_in_the_one_envelope(self):
        seen = []

        class Recorder:
            def handle_message(self, raw: bytes) -> bytes:
                seen.append(raw)
                return Message(kind=MessageKind.TUPLE_IDS, relation_name="Emp",
                               body=protocol.encode_tuple_ids([])).to_bytes()

        protocol.request(
            Recorder(), MessageKind.LIST_TUPLE_IDS, "Emp", expect=MessageKind.TUPLE_IDS
        )
        (raw,) = seen
        assert protocol.peek_trace_id(raw) is None
        assert protocol.parse_message(raw) == Message(
            kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"
        )


class TestForeignFrames:
    def test_the_provider_refuses_another_version_and_keeps_serving(
        self, swp_dph, employee_relation
    ):
        server = OutsourcedDatabaseServer()
        raw = Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp").to_bytes()
        with pytest.raises(ProtocolVersionError):
            server.handle_message(_with_version(raw, 2))
        _store(server, swp_dph, employee_relation)
        assert len(protocol.check_reply(
            server.handle_message(raw), MessageKind.TUPLE_IDS
        ).body) > 0

    def test_a_pre_magic_frame_is_not_an_envelope(self):
        # The retired v1 layout began straight with the kind's length prefix.
        legacy = (
            (5).to_bytes(4, "big") + b"query"
            + (3).to_bytes(4, "big") + b"Emp"
            + (0).to_bytes(4, "big")
        )
        with pytest.raises(ProtocolError, match="not a protocol envelope") as excinfo:
            protocol.parse_message(legacy)
        assert not isinstance(excinfo.value, ProtocolVersionError)

    def test_the_retired_delete_kind_is_unknown(self):
        raw = Message(kind=MessageKind.DELETE_TUPLES_EXACT, relation_name="Emp",
                      body=protocol.encode_tuple_ids([b"x"])).to_bytes()
        retired = raw.replace(
            b"\x00\x00\x00\x13delete-tuples-exact", b"\x00\x00\x00\x0ddelete-tuples"
        )
        for parse in (protocol.parse_message, protocol.peek_envelope):
            with pytest.raises(ProtocolError, match="unknown message kind"):
                parse(retired)

    def test_a_proxy_refuses_to_ship_another_version(self):
        with ThreadedTcpServer() as server:
            with RemoteServerProxy("127.0.0.1", server.port) as proxy:
                raw = Message(
                    kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"
                ).to_bytes()
                with pytest.raises(ProtocolVersionError):
                    proxy.handle_message(_with_version(raw, 2))
                # nothing was shipped: the connection still serves
                assert proxy.ping()
