"""The outsourcing client (Alex).

Alex owns the data and the key.  The client wraps a database privacy
homomorphism and a (reference to the) untrusted server, and exposes the
operations an application would actually use:

* :meth:`OutsourcingClient.outsource` -- encrypt a plaintext relation and ship
  it to the provider;
* :meth:`OutsourcingClient.insert` -- encrypt and append a single tuple;
* :meth:`OutsourcingClient.select` -- issue an exact select (as a query AST
  node or a SQL string), let the provider evaluate it over ciphertext, then
  decrypt and filter the result;
* :meth:`OutsourcingClient.retrieve_all` -- fetch and decrypt the provider's
  full copy.

All post-processing the paper assigns to Alex -- decryption, mapping words
back to tuples, and filtering false positives -- happens here.  Every data
operation travels as an envelope through
:func:`repro.outsourcing.protocol.request`, so the client drives an
in-process provider, a TCP proxy and a shard router alike; provider
failures surface as :class:`~repro.outsourcing.server.ServerError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dph import (
    DatabasePrivacyHomomorphism,
    DecryptionReport,
    EvaluationResult,
)
from repro.outsourcing import protocol
from repro.outsourcing.protocol import MessageKind, ProtocolError
from repro.outsourcing.server import OutsourcedDatabaseServer, ServerError
from repro.relational.query import Projection, Query
from repro.relational.relation import Relation
from repro.relational.sql import parse_sql
from repro.relational.tuples import RelationTuple


class ClientError(Exception):
    """The client refused or failed to process a request."""


@dataclass(frozen=True)
class SelectOutcome:
    """The result of a client-side select: tuples plus bookkeeping."""

    report: DecryptionReport
    projected_rows: list[tuple] | None = None
    #: The provider-side evaluation stats (pre-decryption), when the
    #: transport carried them: result sizes, tuples examined, token work.
    #: ``examined`` is how O(result) index serving shows up vs O(data) scans.
    evaluation: EvaluationResult | None = None

    @property
    def relation(self) -> Relation:
        """The filtered result relation."""
        return self.report.relation

    @property
    def false_positives(self) -> int:
        """Tuples the provider returned that the filter discarded."""
        return self.report.false_positives


class OutsourcingClient:
    """Alex: holds the key, talks ciphertext to the provider."""

    def __init__(
        self,
        dph: DatabasePrivacyHomomorphism,
        server: OutsourcedDatabaseServer,
        relation_name: str | None = None,
    ) -> None:
        self._dph = dph
        self._server = server
        self._relation_name = relation_name or dph.schema.name

    @property
    def relation_name(self) -> str:
        """Name under which the relation is stored at the provider."""
        return self._relation_name

    @property
    def scheme(self) -> DatabasePrivacyHomomorphism:
        """The underlying database privacy homomorphism."""
        return self._dph

    def outsource(self, relation: Relation) -> int:
        """Encrypt ``relation`` and store it at the provider.

        Returns the number of ciphertext bytes shipped.
        """
        if relation.schema != self._dph.schema:
            raise ClientError("relation schema does not match the scheme's schema")
        encrypted = self._dph.encrypt_relation(relation)
        self._server.register_evaluator(
            self._relation_name, self._dph.server_evaluator()
        )
        self._request(
            MessageKind.STORE_RELATION,
            protocol.encode_encrypted_relation(encrypted),
            MessageKind.ACK,
        )
        return encrypted.size_in_bytes()

    def insert(self, values: RelationTuple | dict) -> None:
        """Encrypt and append one tuple."""
        if isinstance(values, dict):
            values = RelationTuple(self._dph.schema, values)
        encrypt_tuple = getattr(self._dph, "encrypt_tuple", None)
        if encrypt_tuple is None:
            raise ClientError(
                f"scheme {self._dph.name!r} does not support single-tuple inserts"
            )
        self._request(
            MessageKind.INSERT_TUPLE,
            protocol.encode_encrypted_tuple(encrypt_tuple(values)),
            MessageKind.ACK,
        )

    def select(self, query: Query | str) -> SelectOutcome:
        """Issue an exact select and return the decrypted, filtered result."""
        parsed = self._parse(query)
        encrypted_query = self._dph.encrypt_query(parsed)
        response = self._request(
            MessageKind.QUERY,
            protocol.encode_encrypted_query(encrypted_query),
            MessageKind.QUERY_RESULT,
        )
        evaluation = protocol.decode_query_result(response.body)
        report = self._dph.decrypt_result(evaluation, parsed)
        projected = None
        if isinstance(parsed, Projection) and parsed.attributes:
            projected = report.relation.project(list(parsed.attributes))
        return SelectOutcome(report=report, projected_rows=projected)

    def retrieve_all(self) -> Relation:
        """Fetch the provider's full copy and decrypt it."""
        stored = self._server.stored_relation(self._relation_name)
        return self._dph.decrypt_relation(stored)

    def _request(self, kind: MessageKind, body: bytes, expect: MessageKind):
        try:
            return protocol.request(
                self._server, kind, self._relation_name, body, expect=expect
            )
        except ProtocolError as exc:
            raise ServerError(str(exc)) from exc

    def _parse(self, query: Query | str) -> Query:
        if isinstance(query, str):
            parsed = parse_sql(query, self._dph.schema)
            return parsed.query
        return query
