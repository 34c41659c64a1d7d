"""Tests for the client/server outsourcing layer and the audit log."""

from __future__ import annotations

import pytest

from repro.core import SearchableSelectDph
from repro.outsourcing import (
    AuditEventKind,
    ClientError,
    ErrorReply,
    MessageKind,
    OutsourcedDatabaseServer,
    OutsourcingClient,
    ServerError,
    protocol,
)
from repro.relational import Relation, RelationSchema, Selection
from repro.relational.tuples import RelationTuple
from repro.schemes import HacigumusDph


@pytest.fixture
def server():
    return OutsourcedDatabaseServer()


@pytest.fixture
def client(swp_dph, server):
    return OutsourcingClient(swp_dph, server)


def _query(server, name, encrypted_query):
    """One QUERY envelope through the request seam; the decoded result."""
    response = protocol.request(
        server,
        MessageKind.QUERY,
        name,
        protocol.encode_encrypted_query(encrypted_query),
        expect=MessageKind.QUERY_RESULT,
    )
    return protocol.decode_query_result(response.body)


class TestServer:
    def test_store_and_retrieve(self, swp_dph, employee_relation, server):
        encrypted = swp_dph.encrypt_relation(employee_relation)
        server.store_relation("emp", encrypted, swp_dph.server_evaluator())
        assert server.relation_names == ("emp",)
        assert server.stored_relation("emp") is encrypted
        assert server.storage_in_bytes("emp") == encrypted.size_in_bytes()
        assert server.storage_in_bytes() == encrypted.size_in_bytes()

    def test_empty_name_rejected(self, swp_dph, employee_relation, server):
        with pytest.raises(ServerError):
            server.store_relation("", swp_dph.encrypt_relation(employee_relation),
                                  swp_dph.server_evaluator())

    def test_unknown_relation_rejected(self, server, swp_dph):
        with pytest.raises(ServerError):
            server.stored_relation("missing")
        with pytest.raises(ErrorReply, match="missing"):
            _query(server, "missing", swp_dph.encrypt_query(Selection.equals("dept", "HR")))

    def test_execute_query_and_audit(self, swp_dph, employee_relation, server):
        server.store_relation("emp", swp_dph.encrypt_relation(employee_relation),
                              swp_dph.server_evaluator())
        result = _query(server, "emp", swp_dph.encrypt_query(Selection.equals("dept", "HR")))
        assert len(result.matching) == 2
        sizes = server.audit_log.query_result_sizes("emp")
        assert sizes == [2]
        assert server.audit_log.summary()["query-executed"] == 1

    def test_scheme_mismatch_rejected(self, swp_dph, employee_relation, server, employee_schema, secret_key, rng):
        server.store_relation("emp", swp_dph.encrypt_relation(employee_relation),
                              swp_dph.server_evaluator())
        other = HacigumusDph(employee_schema, secret_key, rng=rng)
        with pytest.raises(ErrorReply, match="does not match"):
            _query(server, "emp", other.encrypt_query(Selection.equals("dept", "HR")))

    def test_insert_tuple(self, swp_dph, employee_relation, employee_schema, server):
        server.store_relation("emp", swp_dph.encrypt_relation(employee_relation),
                              swp_dph.server_evaluator())
        new_tuple = RelationTuple(employee_schema, {"name": "Eve", "dept": "HR", "salary": 1})
        protocol.request(
            server,
            MessageKind.INSERT_TUPLE,
            "emp",
            protocol.encode_encrypted_tuple(swp_dph.encrypt_tuple(new_tuple)),
            expect=MessageKind.ACK,
        )
        assert len(server.stored_relation("emp")) == len(employee_relation) + 1
        assert len(server.audit_log.events_of_kind(AuditEventKind.TUPLE_INSERTED)) == 1


class TestClient:
    def test_outsource_and_select(self, client, employee_relation):
        shipped = client.outsource(employee_relation)
        assert shipped > 0
        outcome = client.select(Selection.equals("dept", "HR"))
        assert len(outcome.relation) == 2
        assert outcome.false_positives == 0

    def test_select_with_sql(self, client, employee_relation):
        client.outsource(employee_relation)
        outcome = client.select("SELECT name, salary FROM Emp WHERE dept = 'IT'")
        assert len(outcome.relation) == 2
        assert sorted(outcome.projected_rows) == [("Adams", 6100), ("Smith", 5200)]

    def test_retrieve_all(self, client, employee_relation):
        client.outsource(employee_relation)
        assert client.retrieve_all() == employee_relation

    def test_insert_then_select(self, client, employee_relation):
        client.outsource(employee_relation)
        client.insert({"name": "Zoe", "dept": "HR", "salary": 3000})
        outcome = client.select(Selection.equals("name", "Zoe"))
        assert len(outcome.relation) == 1

    def test_schema_mismatch_rejected(self, client):
        other = Relation(RelationSchema.parse("Other(x:string[3])"))
        with pytest.raises(ClientError):
            client.outsource(other)

    def test_provider_errors_surface_as_server_errors(self, client):
        # nothing outsourced yet: the provider answers the query with ERROR
        with pytest.raises(ServerError) as excinfo:
            client.select(Selection.equals("dept", "HR"))
        assert isinstance(excinfo.value.__cause__, ErrorReply)

    def test_relation_name_defaults_to_schema_name(self, client):
        assert client.relation_name == "Emp"

    def test_server_only_sees_ciphertext(self, client, employee_relation, server):
        client.outsource(employee_relation)
        stored = server.stored_relation("Emp")
        blob = b"".join(
            t.tuple_id + t.payload + b"".join(t.search_fields) + t.metadata
            for t in stored.encrypted_tuples
        )
        assert b"Montgomery" not in blob
        assert b"7500" not in blob


class TestEndToEndWithAllSchemes:
    def test_every_scheme_supports_the_client_workflow(self, all_schemes, employee_relation):
        for scheme in all_schemes:
            server = OutsourcedDatabaseServer()
            client = OutsourcingClient(scheme, server, relation_name=scheme.name)
            client.outsource(employee_relation)
            outcome = client.select(Selection.equals("dept", "HR"))
            assert len(outcome.relation) == 2
            assert outcome.relation == employee_relation.select_equal("dept", "HR")
