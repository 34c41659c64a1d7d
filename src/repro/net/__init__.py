"""``repro.net`` -- the TCP serving layer of the outsourced database.

Until this subsystem existed, client (Alex) and provider (Eve) lived in one
process: :meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.handle_message`
already spoke byte-level protocol frames, but nothing carried them across a
machine boundary.  ``repro.net`` is that missing transport, in three layers:

**Framing** (:mod:`repro.net.framing`)
    Length-prefixed frames over a byte stream, with a strict size ceiling
    and eager rejection of truncated, oversized or garbage input.  A
    one-byte channel tag multiplexes *envelope* frames (opaque protocol
    messages, exactly the bytes ``handle_message`` consumes) and
    *control* frames (JSON session management) on one connection, and a
    4-byte **correlation id** pairs every response to its request so a
    connection is a pipeline: many requests in flight, answered in
    whatever order dispatch completes.  The decoder is sans-IO, shared by
    every endpoint.

**Provider side** (:mod:`repro.net.server`)
    :class:`~repro.net.server.DatabaseTcpServer`: an asyncio server hosting
    one :class:`~repro.outsourcing.server.OutsourcedDatabaseServer` for many
    concurrent connections.  Each connection starts with a hello exchange
    that refuses any other protocol version; envelope dispatch is parallel
    across relations and FIFO within one
    (:class:`~repro.net.server.KeyedSerialDispatcher`), so a heavy scan of
    one relation blocks neither other connections' I/O nor other
    relations' requests; shutdown drains in-flight requests.
    Per-connection and aggregate stats (including the dispatch parallelism
    achieved) are kept, and ``repro serve`` (see :mod:`repro.cli`) runs the
    whole thing as a standalone process over any registered storage
    backend.

**Client side** (:mod:`repro.net.client`)
    One transport: framed connections that never block, over a sans-IO
    protocol core (:mod:`repro.net.wire`).
    :class:`~repro.net.client.RemoteServerProxy` satisfies the duck-type
    :class:`~repro.api.EncryptedDatabase` and
    :class:`~repro.outsourcing.client.OutsourcingClient` already use
    (``connect("tcp://host:port")``).  Its pool hands each concurrent
    caller an idle connection, opening one only when none is idle, so
    concurrency comes from threads, one request in flight per connection.
    Every request is a :class:`~repro.net.client.RemoteCall`: it waits on
    its socket's readiness for every step, connect included, so the proxy
    ``timeout`` bounds it whole, and the cluster's scatter can drive many
    shards' calls with one wait from one thread.  A dead connection is
    retried once, with at-most-once semantics for non-idempotent
    operations.

Evaluator deployment is the one operation that cannot ship objects across
the wire; :mod:`repro.net.evaluators` serializes evaluators as allowlisted
public-parameter descriptions instead -- the provider reconstructs the
keyless code locally, and key material never has a representation on the
wire.

Trust boundary: the transport moves exactly the bytes the in-process path
already produced.  Eve's view over TCP is Eve's view in-process plus
traffic metadata (frame sizes and timing), which the paper's model already
concedes to her.
"""

from repro.net.client import (
    ConnectionLostError,
    ConnectionPool,
    RemoteCall,
    RemoteConnection,
    RemoteError,
    RemoteServerProxy,
    parse_tcp_options,
    parse_tcp_url,
)
from repro.net.evaluators import (
    EvaluatorDescriptionError,
    build_evaluator,
    describe_evaluator,
    register_evaluator_type,
)
from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    FRAME_HEADER_SIZE,
    Frame,
    FrameDecoder,
    FramingError,
    OversizedFrameError,
    TruncatedFrameError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.net.server import (
    ConnectionStats,
    DatabaseTcpServer,
    KeyedSerialDispatcher,
    TcpServerStats,
    ThreadedTcpServer,
)
from repro.net.wire import ClientChannel, ServerHello

__all__ = [
    "ConnectionLostError",
    "ConnectionPool",
    "RemoteCall",
    "RemoteConnection",
    "RemoteError",
    "RemoteServerProxy",
    "parse_tcp_options",
    "parse_tcp_url",
    "EvaluatorDescriptionError",
    "build_evaluator",
    "describe_evaluator",
    "register_evaluator_type",
    "CHANNEL_CONTROL",
    "CHANNEL_ENVELOPE",
    "DEFAULT_MAX_FRAME_SIZE",
    "FRAME_HEADER_SIZE",
    "Frame",
    "FrameDecoder",
    "FramingError",
    "OversizedFrameError",
    "TruncatedFrameError",
    "encode_frame",
    "recv_frame",
    "send_frame",
    "ConnectionStats",
    "DatabaseTcpServer",
    "KeyedSerialDispatcher",
    "TcpServerStats",
    "ThreadedTcpServer",
    "ClientChannel",
    "ServerHello",
]
