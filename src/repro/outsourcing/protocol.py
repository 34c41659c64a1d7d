"""Wire format of the outsourcing protocol.

The client (Alex) and the service provider (Eve) exchange only ciphertext
objects; this module defines a compact, self-describing byte encoding for them
so the protocol layer is genuinely message-based (and so the storage /
bandwidth overhead experiments E8-E9 measure realistic serialized sizes, not
Python object graphs).

Every request and response travels in one envelope, :class:`Message`::

    DPH | version (1 byte, = PROTOCOL_VERSION) | kind | relation_name | body | trace id

with the usual 4-byte length prefixes on the three variable parts and
exactly :data:`TRACE_ID_SIZE` trailing bytes carrying a trace id (see
:mod:`repro.obs.trace`); an all-zero id means untraced, and responses are
always untraced.  The fixed trailing length keeps trace handling O(1) on
raw frames: :func:`attach_trace` splices an id into a serialized envelope
without re-encoding it and :func:`peek_trace_id` reads it without parsing.
A frame with another version byte is refused with
:class:`ProtocolVersionError`.

:func:`request` is the one request seam: build an envelope, hand it to a
provider's ``handle_message`` (an in-process server, a TCP proxy or a
shard router), parse the reply and check its kind.  An ``ERROR`` reply
raises :class:`ErrorReply`, which callers wrap in their own error type.

Encoding conventions: all integers are big-endian; variable-length byte
strings are length-prefixed with 4 bytes; sequences are prefixed with a
4-byte element count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from repro.core.dph import (
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
)
from repro.relational.schema import RelationSchema

#: The envelope version this module speaks (the only one).
PROTOCOL_VERSION = 3

#: Size of the trace id every envelope carries as its trailing bytes.
TRACE_ID_SIZE = 16

#: The trace id of an untraced envelope.
UNTRACED = bytes(TRACE_ID_SIZE)

#: Leading magic of every envelope.
MAGIC = b"DPH"

_HEADER = MAGIC + bytes([PROTOCOL_VERSION])


class ProtocolError(Exception):
    """A message could not be encoded or decoded."""


class ProtocolVersionError(ProtocolError):
    """The peer speaks another protocol version than :data:`PROTOCOL_VERSION`."""


class ErrorReply(ProtocolError):
    """The provider answered a request with an ``ERROR`` envelope.

    The message is the provider's error text; callers wrap this in their
    own public error type.
    """


# --------------------------------------------------------------------------- #
# Primitive encoders
# --------------------------------------------------------------------------- #

def _encode_bytes(value: bytes) -> bytes:
    return len(value).to_bytes(4, "big") + value


def _decode_bytes(raw: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(raw):
        raise ProtocolError("truncated length prefix")
    length = int.from_bytes(raw[offset: offset + 4], "big")
    offset += 4
    if offset + length > len(raw):
        raise ProtocolError("truncated byte string")
    return raw[offset: offset + length], offset + length


def _encode_sequence(items: list[bytes]) -> bytes:
    return len(items).to_bytes(4, "big") + b"".join(_encode_bytes(i) for i in items)


def _decode_sequence(raw: bytes, offset: int) -> tuple[list[bytes], int]:
    if offset + 4 > len(raw):
        raise ProtocolError("truncated sequence count")
    count = int.from_bytes(raw[offset: offset + 4], "big")
    offset += 4
    items = []
    for _ in range(count):
        item, offset = _decode_bytes(raw, offset)
        items.append(item)
    return items, offset


# --------------------------------------------------------------------------- #
# Ciphertext object encoders
# --------------------------------------------------------------------------- #

def encode_encrypted_tuple(encrypted_tuple: EncryptedTuple) -> bytes:
    """Serialize one tuple ciphertext."""
    return (
        _encode_bytes(encrypted_tuple.tuple_id)
        + _encode_bytes(encrypted_tuple.payload)
        + _encode_sequence(list(encrypted_tuple.search_fields))
        + _encode_bytes(encrypted_tuple.metadata)
    )


def decode_encrypted_tuple(raw: bytes, offset: int = 0) -> tuple[EncryptedTuple, int]:
    """Parse one tuple ciphertext, returning it and the next offset."""
    tuple_id, offset = _decode_bytes(raw, offset)
    payload, offset = _decode_bytes(raw, offset)
    fields, offset = _decode_sequence(raw, offset)
    metadata, offset = _decode_bytes(raw, offset)
    return (
        EncryptedTuple(
            tuple_id=tuple_id,
            payload=payload,
            search_fields=tuple(fields),
            metadata=metadata,
        ),
        offset,
    )


def encode_encrypted_relation(encrypted_relation: EncryptedRelation) -> bytes:
    """Serialize an encrypted relation (schema travels as its public declaration)."""
    schema_decl = _schema_declaration(encrypted_relation.schema)
    body = [encode_encrypted_tuple(t) for t in encrypted_relation.encrypted_tuples]
    return _encode_bytes(schema_decl.encode("utf-8")) + _encode_sequence(body)


def decode_encrypted_relation(raw: bytes) -> EncryptedRelation:
    """Parse an encrypted relation."""
    schema_bytes, offset = _decode_bytes(raw, 0)
    schema = RelationSchema.parse(schema_bytes.decode("utf-8"))
    bodies, offset = _decode_sequence(raw, offset)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after encrypted relation")
    tuples = []
    for body in bodies:
        encrypted_tuple, consumed = decode_encrypted_tuple(body, 0)
        if consumed != len(body):
            raise ProtocolError("trailing bytes after encrypted tuple")
        tuples.append(encrypted_tuple)
    return EncryptedRelation(schema=schema, encrypted_tuples=tuple(tuples))


def encode_encrypted_query(encrypted_query: EncryptedQuery) -> bytes:
    """Serialize an encrypted query."""
    return (
        _encode_bytes(encrypted_query.scheme_name.encode("utf-8"))
        + _encode_sequence(list(encrypted_query.tokens))
        + _encode_bytes(encrypted_query.metadata)
    )


def decode_encrypted_query(raw: bytes) -> EncryptedQuery:
    """Parse an encrypted query."""
    name, offset = _decode_bytes(raw, 0)
    tokens, offset = _decode_sequence(raw, offset)
    metadata, offset = _decode_bytes(raw, offset)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after encrypted query")
    return EncryptedQuery(
        scheme_name=name.decode("utf-8"), tokens=tuple(tokens), metadata=metadata
    )


def _schema_declaration(schema: RelationSchema) -> str:
    columns = ", ".join(
        f"{a.name}:{a.attribute_type.value}[{a.max_length}]" for a in schema.attributes
    )
    return f"{schema.name}({columns})"


# --------------------------------------------------------------------------- #
# Body codecs
# --------------------------------------------------------------------------- #

def encode_tuple_ids(tuple_ids: Sequence[bytes]) -> bytes:
    """Serialize an id list (a ``DELETE_TUPLES_EXACT`` or ``TUPLE_IDS`` body)."""
    return _encode_sequence(list(tuple_ids))


def decode_tuple_ids(raw: bytes) -> tuple[bytes, ...]:
    """Parse a ``DELETE_TUPLES_EXACT`` or ``TUPLE_IDS`` body."""
    ids, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after tuple id list")
    return tuple(ids)


def encode_query_batch(queries: Iterable[EncryptedQuery]) -> bytes:
    """Serialize the query list of a ``BATCH_QUERY`` request."""
    return _encode_sequence([encode_encrypted_query(q) for q in queries])


def decode_query_batch(raw: bytes) -> tuple[EncryptedQuery, ...]:
    """Parse a ``BATCH_QUERY`` body."""
    bodies, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after query batch")
    return tuple(decode_encrypted_query(body) for body in bodies)


def encode_evaluation_result(result: EvaluationResult) -> bytes:
    """Serialize a server evaluation result (matches plus work statistics)."""
    return (
        _encode_bytes(encode_encrypted_relation(result.matching))
        + result.examined.to_bytes(8, "big")
        + result.token_evaluations.to_bytes(8, "big")
    )


def decode_evaluation_result(raw: bytes, offset: int = 0) -> tuple[EvaluationResult, int]:
    """Parse an evaluation result, returning it and the next offset."""
    relation_bytes, offset = _decode_bytes(raw, offset)
    if offset + 16 > len(raw):
        raise ProtocolError("truncated evaluation statistics")
    examined = int.from_bytes(raw[offset: offset + 8], "big")
    token_evaluations = int.from_bytes(raw[offset + 8: offset + 16], "big")
    return (
        EvaluationResult(
            matching=decode_encrypted_relation(relation_bytes),
            examined=examined,
            token_evaluations=token_evaluations,
        ),
        offset + 16,
    )


def decode_query_result(raw: bytes) -> EvaluationResult:
    """Parse a ``QUERY_RESULT`` body (exactly one evaluation result)."""
    result, consumed = decode_evaluation_result(raw)
    if consumed != len(raw):
        raise ProtocolError("trailing bytes after evaluation result")
    return result


def encode_result_batch(results: Iterable[EvaluationResult]) -> bytes:
    """Serialize the result list of a ``BATCH_RESULT`` response."""
    return _encode_sequence([encode_evaluation_result(r) for r in results])


def decode_result_batch(raw: bytes) -> tuple[EvaluationResult, ...]:
    """Parse a ``BATCH_RESULT`` body."""
    bodies, offset = _decode_sequence(raw, 0)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after result batch")
    results = []
    for body in bodies:
        result, consumed = decode_evaluation_result(body, 0)
        if consumed != len(body):
            raise ProtocolError("trailing bytes after evaluation result")
        results.append(result)
    return tuple(results)


def encode_count(count: int) -> bytes:
    """Serialize the non-negative count carried by an ``ACK`` body."""
    if count < 0:
        raise ProtocolError("counts are non-negative")
    return count.to_bytes(8, "big")


def decode_count(raw: bytes) -> int:
    """Parse an ``ACK`` count body."""
    if len(raw) != 8:
        raise ProtocolError("malformed count body")
    return int.from_bytes(raw, "big")


# --------------------------------------------------------------------------- #
# Message envelope
# --------------------------------------------------------------------------- #

class MessageKind(Enum):
    """Protocol message types."""

    STORE_RELATION = "store-relation"
    INSERT_TUPLE = "insert-tuple"
    QUERY = "query"
    QUERY_RESULT = "query-result"
    ERROR = "error"
    ACK = "ack"
    BATCH_QUERY = "batch-query"
    BATCH_RESULT = "batch-result"
    LIST_TUPLE_IDS = "list-tuple-ids"
    TUPLE_IDS = "tuple-ids"
    DELETE_TUPLES_EXACT = "delete-tuples-exact"
    INDEX_PUT = "index-put"
    INDEX_DELTA = "index-delta"
    INDEX_LOOKUP = "index-lookup"


def _check_header(raw: bytes) -> None:
    """Reject foreign magic, other versions and frames too short for a trace id."""
    if raw[: len(MAGIC)] != MAGIC or len(raw) < len(_HEADER):
        raise ProtocolError("not a protocol envelope")
    version = raw[len(MAGIC)]
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"unsupported protocol version {version} (this build speaks "
            f"{PROTOCOL_VERSION})"
        )
    if len(raw) < len(_HEADER) + TRACE_ID_SIZE:
        raise ProtocolError("truncated trace id")


def _decode_kind_and_name(
    kind_bytes: bytes, name_bytes: bytes
) -> tuple[MessageKind, str]:
    try:
        kind = MessageKind(kind_bytes.decode("utf-8"))
    except ValueError as exc:  # covers UnicodeDecodeError too
        raise ProtocolError(f"unknown message kind {kind_bytes!r}") from exc
    try:
        relation_name = name_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"relation name {name_bytes!r} is not valid UTF-8") from exc
    return kind, relation_name


@dataclass(frozen=True)
class Message:
    """One protocol envelope: a kind, a target relation, a body, a trace id.

    ``trace_id`` is None for an untraced envelope (all-zero on the wire).
    """

    kind: MessageKind
    relation_name: str
    body: bytes = b""
    trace_id: bytes | None = None

    def to_bytes(self) -> bytes:
        """Serialize the envelope."""
        trace_id = UNTRACED if self.trace_id is None else self.trace_id
        if len(trace_id) != TRACE_ID_SIZE:
            raise ProtocolError(
                f"trace ids are {TRACE_ID_SIZE} bytes, got {len(trace_id)}"
            )
        return (
            _HEADER
            + _encode_bytes(self.kind.value.encode("utf-8"))
            + _encode_bytes(self.relation_name.encode("utf-8"))
            + _encode_bytes(self.body)
            + trace_id
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Message":
        """Parse an envelope, rejecting foreign magic and other versions."""
        _check_header(raw)
        end = len(raw) - TRACE_ID_SIZE
        kind_bytes, offset = _decode_bytes(raw, len(_HEADER))
        name_bytes, offset = _decode_bytes(raw, offset)
        body, offset = _decode_bytes(raw, offset)
        if offset != end:
            raise ProtocolError("trailing bytes after message")
        kind, relation_name = _decode_kind_and_name(kind_bytes, name_bytes)
        trace_id = raw[end:]
        return cls(
            kind=kind,
            relation_name=relation_name,
            body=body,
            trace_id=None if trace_id == UNTRACED else trace_id,
        )


def parse_message(raw: bytes) -> Message:
    """Parse one envelope."""
    return Message.from_bytes(raw)


def peek_envelope(raw: bytes) -> tuple[int, MessageKind, str]:
    """Validate an envelope's structure without copying its body.

    Returns ``(version, kind, relation_name)``.  Performs every structural
    check the full parser does -- magic and version, kind validity, name
    decoding, the body's length prefix accounting for exactly the bytes
    before the trace id -- but never slices the body, so a dispatcher can
    learn an envelope's routing key at ``O(header)`` cost even for a frame
    carrying a whole relation.
    """
    _check_header(raw)
    end = len(raw) - TRACE_ID_SIZE
    kind_bytes, offset = _decode_bytes(raw, len(_HEADER))
    name_bytes, offset = _decode_bytes(raw, offset)
    if offset + 4 > len(raw):
        raise ProtocolError("truncated length prefix")
    body_length = int.from_bytes(raw[offset: offset + 4], "big")
    if offset + 4 + body_length < end:
        raise ProtocolError("trailing bytes after message")
    if offset + 4 + body_length > end:
        raise ProtocolError("truncated byte string")
    kind, relation_name = _decode_kind_and_name(kind_bytes, name_bytes)
    return PROTOCOL_VERSION, kind, relation_name


def attach_trace(raw: bytes, trace_id: bytes) -> bytes:
    """Splice ``trace_id`` into a serialized untraced envelope.

    O(1) on the frame structure: the trailing zero id is replaced and the
    kind/name/body encoding is reused verbatim, never re-parsed.  A frame
    that already carries an id is a caller bug.
    """
    if len(trace_id) != TRACE_ID_SIZE:
        raise ProtocolError(
            f"trace ids are {TRACE_ID_SIZE} bytes, got {len(trace_id)}"
        )
    if peek_trace_id(raw) is not None:
        raise ProtocolError("the envelope already carries a trace id")
    return raw[:-TRACE_ID_SIZE] + trace_id


def peek_trace_id(raw: bytes) -> bytes | None:
    """The trace id of a raw envelope (None when untraced), O(1)."""
    _check_header(raw)
    trace_id = raw[-TRACE_ID_SIZE:]
    return None if trace_id == UNTRACED else trace_id


# --------------------------------------------------------------------------- #
# The request seam
# --------------------------------------------------------------------------- #

def check_reply(raw: bytes, expect: MessageKind) -> Message:
    """Parse a provider's reply and check it is of kind ``expect``.

    Raises :class:`ErrorReply` for an ``ERROR`` reply and
    :class:`ProtocolError` for any other unexpected kind.
    """
    response = parse_message(raw)
    if response.kind is MessageKind.ERROR:
        raise ErrorReply(response.body.decode("utf-8", "replace"))
    if response.kind is not expect:
        raise ProtocolError(
            f"expected {expect.value!r} response, got {response.kind.value!r}"
        )
    return response


def request(
    server,
    kind: MessageKind,
    relation_name: str,
    body: bytes = b"",
    *,
    expect: MessageKind,
) -> Message:
    """Send one request envelope through ``server.handle_message``.

    ``server`` is anything that answers envelopes: an in-process provider,
    a TCP proxy or a shard router.  Returns the reply, checked by
    :func:`check_reply`.
    """
    envelope = Message(kind=kind, relation_name=relation_name, body=body)
    return check_reply(server.handle_message(envelope.to_bytes()), expect)
