"""Client side of the TCP transport: connections, pool, and the proxy.

:class:`RemoteServerProxy` is the piece that makes the network transparent:
it exposes the provider's request surface -- the byte-level
:meth:`~RemoteServerProxy.handle_message` that every envelope (and so
:func:`repro.outsourcing.protocol.request`) goes through -- plus the
management calls (:meth:`~RemoteServerProxy.register_evaluator`,
:attr:`~RemoteServerProxy.relation_names`,
:meth:`~RemoteServerProxy.stored_relation`, ...), so
:class:`~repro.api.EncryptedDatabase` and
:class:`~repro.outsourcing.client.OutsourcingClient` drive a remote
provider with the code paths they already use in-process.

Each request is a :class:`RemoteCall` on one connection from a
:class:`ConnectionPool`, which reuses an idle connection and opens a new
one only when none is idle, so any number of threads can call one proxy
at once, each on its own connection.  A :class:`RemoteConnection` never
blocks -- connect, hello, send and receive all wait on the socket's
readiness -- so the caller's wait bounds the whole call: the proxy
``timeout`` for a single call, the scatter budget when the cluster's
scatter waits on every shard's call at once from one thread.  Every new
connection opens with the hello handshake; a provider speaking another
protocol version is refused with
:class:`~repro.outsourcing.protocol.ProtocolVersionError`.  A call that
hits a dead connection -- the provider restarted, an idle socket timed
out -- is retried once on a fresh connection before the error surfaces,
except that an ``INSERT_TUPLE`` (or ``drop-relation``) that may have
reached the provider is never replayed.

Errors raised here subclass
:class:`~repro.outsourcing.server.ServerError`, so the facade's existing
error translation applies unchanged to remote sessions.
"""

from __future__ import annotations

import base64
import contextlib
import errno
import os
import selectors
import socket
import threading
import time
from typing import Any, Callable
from urllib.parse import urlsplit

from repro.core.dph import EncryptedRelation, ServerEvaluator
from repro.net.evaluators import describe_evaluator
from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    Frame,
    FramingError,
)
from repro.net import wire
from repro.obs import current_trace
from repro.outsourcing import protocol
from repro.outsourcing.protocol import MessageKind, ProtocolError
from repro.outsourcing.server import ServerError


class RemoteError(ServerError):
    """A remote provider operation failed (subclasses the in-process error)."""


class ConnectionLostError(RemoteError):
    """The transport died mid-call; callers may retry on a fresh socket.

    ``request_delivered`` distinguishes failures where the request frame had
    already been handed to the kernel (the provider *may* have processed it)
    from failures before any byte left -- the proxy only auto-retries
    non-idempotent operations in the latter case.
    """

    def __init__(self, message: str, request_delivered: bool = False) -> None:
        super().__init__(message)
        self.request_delivered = request_delivered


#: Envelope kinds whose replay would change provider state a second time.
#: (STORE_RELATION replaces, DELETE_TUPLES_EXACT ignores unknown ids,
#: queries are read-only -- only INSERT_TUPLE appends blindly.)
NON_IDEMPOTENT_KINDS = frozenset({MessageKind.INSERT_TUPLE})

#: Truthy / falsy spellings accepted by boolean URL options.
_TRUE_OPTION_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_OPTION_VALUES = frozenset({"0", "false", "no", "off"})


def parse_bool_option(key: str, value: str) -> bool:
    """Parse a boolean URL query value, strictly."""
    lowered = value.strip().lower()
    if lowered in _TRUE_OPTION_VALUES:
        return True
    if lowered in _FALSE_OPTION_VALUES:
        return False
    raise RemoteError(
        f"URL option {key} must be a boolean (0/1/true/false), got {value!r}"
    )


def parse_tcp_options(url: str) -> tuple[str, int, dict]:
    """Split ``tcp://host:port[?index=1&cache=1]`` into its parts, strictly.

    Returns ``(host, port, options)``; the supported options are ``index``
    (the session maintains encrypted inverted indexes and serves exact
    selects through ``INDEX_LOOKUP``) and ``cache`` (the session keeps a
    client-side result cache of its reads, see :mod:`repro.cache`).
    ``async`` is still accepted, as a boolean, so URLs written for the
    removed pipelined transport keep opening; it selects nothing and is
    not returned.  Unknown options are rejected, not ignored: a silently
    dropped typo like ``?idnex=1`` would quietly run the session without
    its index.
    """
    parts = urlsplit(url)
    if parts.scheme != "tcp":
        raise RemoteError(f"unsupported provider URL scheme {parts.scheme!r} (want tcp://)")
    try:
        hostname, port = parts.hostname, parts.port
    except ValueError as exc:  # non-numeric or out-of-range port
        raise RemoteError(f"provider URL {url!r}: {exc}") from exc
    if not hostname or port is None:
        raise RemoteError(f"provider URL {url!r} needs both a host and a port")
    if parts.path or parts.fragment:
        raise RemoteError(f"provider URL {url!r} carries an unexpected path")
    options: dict = {}
    if parts.query:
        for item in parts.query.split("&"):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key not in ("async", "index", "cache"):
                raise RemoteError(
                    f"unknown provider URL option {key!r} "
                    "(supported: index, cache)"
                )
            parsed = parse_bool_option(key, value)
            if key != "async":
                options[key] = parsed
    return hostname, port, options


def parse_tcp_url(url: str) -> tuple[str, int]:
    """Split a bare ``tcp://host:port`` into its parts (no options allowed)."""
    hostname, port, options = parse_tcp_options(url)
    if options:
        raise RemoteError(f"provider URL {url!r} carries unexpected options")
    return hostname, port


class RemoteConnection:
    """One framed connection to a provider, driven without blocking.

    Construction starts a non-blocking connect and queues the hello;
    :meth:`request` queues one request frame, sent as soon as the provider
    has accepted the hello.  The owner waits until :meth:`fileno` is ready
    for :meth:`events` and calls :meth:`advance`, which does the I/O the
    socket allows now and returns the reply frame once it has fully
    arrived.  No step -- connect, hello, send, receive -- ever blocks
    (name resolution aside), so the owner's wait alone bounds a call, and
    one thread can drive many connections at once.  The wire work -- correlation ids, response
    pairing, the hello -- lives in the sans-IO
    :class:`~repro.net.wire.ClientChannel`.
    """

    def __init__(
        self, host: str, port: int, *, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE
    ) -> None:
        self._channel = wire.ClientChannel(max_frame_size)
        self._max_frame_size = max_frame_size
        self._where = f"{host}:{port}"
        self._sock: socket.socket | None = None
        try:
            self._addresses = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to provider at {self._where}: {exc}"
            ) from exc
        self._connect_next(None)
        _, hello = self._channel.send(wire.encode_hello(), CHANNEL_CONTROL)
        self._outgoing = memoryview(hello)
        self._queued: bytes | None = None  # a request waiting for the hello
        self._handshaken = False
        #: True once the pending request's frame has fully left.
        self.delivered = False

    def request(self, payload: bytes, channel: int) -> None:
        """Queue one request and send what the socket takes right away.

        Raises :class:`ConnectionLostError` when it cannot be sent.
        """
        try:
            _, frame = self._channel.send(payload, channel)
        except FramingError as exc:
            raise ConnectionLostError(f"provider connection failed: {exc}") from exc
        self.delivered = False
        if self._handshaken:
            self._outgoing = memoryview(frame)
            self._flush()
        else:
            self._queued = frame

    @property
    def handshaken(self) -> bool:
        """True once the provider has accepted the hello."""
        return self._handshaken

    def fileno(self) -> int:
        """The socket's descriptor (it changes if an address is skipped)."""
        return self._sock.fileno()

    def events(self) -> int:
        """What the socket must be ready for before the next :meth:`advance`."""
        if self._connecting or self._outgoing:
            return selectors.EVENT_WRITE
        return selectors.EVENT_READ

    def advance(self) -> Frame | None:
        """Do the ready I/O; the reply frame once it has fully arrived.

        Any transport failure raises :class:`ConnectionLostError`, whose
        ``request_delivered`` tells whether the request had fully left; a
        hello the provider refuses raises :class:`RemoteError` (or
        :class:`~repro.outsourcing.protocol.ProtocolVersionError`).
        """
        try:
            if self._connecting:
                status = self._sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if status:
                    self._connect_next(OSError(status, os.strerror(status)))
                    return None
                self._connecting = False
            if self._outgoing:
                self._flush()
                return None
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionLostError(
                    self._connection_lost_message(), request_delivered=self.delivered
                )
            matched = self._channel.receive(chunk)
        except BlockingIOError:
            return None
        except (OSError, FramingError) as exc:
            raise ConnectionLostError(
                f"provider connection failed: {exc}", request_delivered=self.delivered
            ) from exc
        if not matched:
            if self._channel.fault is not None:
                # The server broadcast why it is hanging up (e.g. our frame
                # exceeded its size limit); surface that instead of the
                # bare EOF that follows.
                raise ConnectionLostError(
                    self._connection_lost_message(), request_delivered=self.delivered
                )
            return None
        # One request in flight at a time: the only match is its answer.
        frame = matched[0][1]
        if self._handshaken:
            return frame
        self._accept_hello(frame)
        if self._queued is not None:
            self._outgoing, self._queued = memoryview(self._queued), None
            self._flush()
        return None

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        with contextlib.suppress(OSError):
            self._sock.close()

    def _connect_next(self, error: OSError | None) -> None:
        """Start a non-blocking connect to the next resolved address."""
        while self._addresses:
            family, kind, proto, _, address = self._addresses.pop(0)
            try:
                sock = socket.socket(family, kind, proto)
            except OSError as exc:
                error = exc
                continue
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            status = sock.connect_ex(address)
            if status in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
                # Swapped in before the old socket closes, so the new one
                # never reuses a descriptor number a waiter still holds.
                old, self._sock = self._sock, sock
                if old is not None:
                    old.close()
                self._connecting = status != 0
                return
            sock.close()
            error = OSError(status, os.strerror(status))
        raise ConnectionLostError(f"cannot connect to provider at {self._where}: {error}")

    def _flush(self) -> None:
        """Send queued bytes until they are out or the socket buffer is full."""
        try:
            while self._outgoing:
                sent = self._sock.send(self._outgoing)
                self._outgoing = self._outgoing[sent:]
        except BlockingIOError:
            return
        except OSError as exc:  # the frame did not fully leave
            raise ConnectionLostError(f"provider connection failed: {exc}") from exc
        if self._handshaken:
            self.delivered = True

    def _accept_hello(self, frame: Frame) -> None:
        try:
            wire.decode_hello(
                wire.decode_control_response(frame.payload), self._max_frame_size
            )
        except wire.WireProtocolError as exc:
            raise RemoteError(str(exc)) from exc
        self._handshaken = True

    def _connection_lost_message(self) -> str:
        if self._channel.fault is not None:
            return f"provider closed the connection: {self._channel.fault}"
        return "provider closed the connection"


def envelope_payload(frame: Frame) -> bytes:
    """The envelope bytes of a reply frame.

    The server only answers an envelope with a control frame to report a
    fatal transport-level failure before closing; that becomes a
    :class:`RemoteError` carrying the provider's text.
    """
    if frame.channel != CHANNEL_CONTROL:
        return frame.payload
    try:
        error = wire.control_error(wire.decode_control_response(frame.payload))
    except wire.WireProtocolError:
        error = "unreadable provider error"
    raise RemoteError(error)


def control_response(frame: Frame) -> dict:
    """The response object of a control reply frame, when it is ``ok``."""
    if frame.channel != CHANNEL_CONTROL:
        raise RemoteError("provider answered a control op on the wrong channel")
    try:
        response = wire.decode_control_response(frame.payload)
    except wire.WireProtocolError as exc:
        raise RemoteError(str(exc)) from exc
    if not response.get("ok"):
        raise RemoteError(wire.control_error(response))
    return response


class ConnectionPool:
    """Idle :class:`RemoteConnection` objects, reused most recent first.

    :meth:`acquire` hands out an idle connection or opens a new one when
    none is idle, so the pool grows to the peak number of concurrent
    callers and never makes one wait.  A connection goes back with
    :meth:`release` only after a completed round trip; one in an unknown
    state (a failed or abandoned request) is closed instead, so a late
    reply can never reach the next caller (:meth:`RemoteCall.close`).
    """

    def __init__(self, factory: Callable[[], RemoteConnection]) -> None:
        self._factory = factory
        self._lock = threading.Lock()
        self._idle: list[RemoteConnection] = []
        self._closed = False

    def acquire(self) -> RemoteConnection:
        """An idle connection, or a new one (possibly still connecting)."""
        with self._lock:
            if self._closed:
                raise RemoteError("the connection pool is closed")
            if self._idle:
                return self._idle.pop()
        return self._factory()

    def release(self, connection: RemoteConnection) -> None:
        """Return a healthy connection (closed instead if the pool is)."""
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def discard_idle(self) -> None:
        """Drop every idle connection (e.g. after a provider restart)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def close(self) -> None:
        """Close the pool and every idle connection."""
        with self._lock:
            self._closed = True
        self.discard_idle()


class RemoteServerProxy:
    """A remote provider behind a pool of non-blocking connections.

    Every request -- each envelope through :meth:`handle_message` and each
    management or diagnostic control op -- is one :class:`RemoteCall`,
    run to completion on the caller's thread within :attr:`timeout`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_frame_size = max_frame_size
        self._pool = ConnectionPool(self._new_connection)
        # Handshake eagerly: fail fast on a bad address or a provider that
        # speaks another protocol version.
        connection = self._new_connection()
        try:
            def handshaken() -> bool:
                connection.advance()
                return connection.handshaken

            if not wait_ready(connection, handshaken, timeout):
                raise ConnectionLostError(
                    f"provider at {host}:{port} did not answer the hello "
                    f"within {timeout}s"
                )
        except BaseException:
            connection.close()
            raise
        self._pool.release(connection)

    @classmethod
    def connect(cls, url: str, **kwargs) -> "RemoteServerProxy":
        """Open a proxy from a ``tcp://host:port`` URL."""
        host, port, _ = parse_tcp_options(url)
        return cls(host, port, **kwargs)

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """The provider's ``(host, port)``."""
        return self._host, self._port

    @property
    def timeout(self) -> float | None:
        """The longest one request may take, connect included (None: no limit)."""
        return self._timeout

    def close(self) -> None:
        """Close the proxy's connection pool."""
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _new_connection(self) -> RemoteConnection:
        return RemoteConnection(
            self._host, self._port, max_frame_size=self._max_frame_size
        )

    def _control(self, op: str, *, idempotent: bool = True, **fields) -> dict:
        payload = wire.encode_control_request(op, **fields)
        call = RemoteCall(
            self, payload, CHANNEL_CONTROL, parse=control_response, idempotent=idempotent
        )
        return call.wait()

    # ------------------------------------------------------------------ #
    # The provider's request surface
    # ------------------------------------------------------------------ #

    def handle_message(self, raw: bytes) -> bytes:
        """Ship one protocol envelope and return the provider's response."""
        trace = current_trace()
        started = time.time()
        mono = time.monotonic()
        try:
            return self.envelope_call(raw).wait()
        finally:
            if trace is not None:
                trace.record(
                    "proxy.request",
                    started,
                    time.monotonic() - mono,
                    transport="tcp",
                    host=self._host,
                    port=self._port,
                )

    def envelope_call(
        self, raw: bytes, decode: Callable[[bytes], Any] | None = None
    ) -> "RemoteCall":
        """One envelope as a :class:`RemoteCall`, not yet started.

        The envelope carries the caller's ambient trace id; the call's
        result is the reply envelope, through ``decode`` when given.
        """
        _, kind, _ = protocol.peek_envelope(raw)  # O(header): no body copy
        trace = current_trace()
        if trace is not None:
            raw = protocol.attach_trace(raw, trace.trace_id)
        if decode is None:
            parse = envelope_payload
        else:
            def parse(frame: Frame) -> Any:
                return decode(envelope_payload(frame))
        return RemoteCall(
            self, raw, CHANNEL_ENVELOPE, parse=parse,
            idempotent=kind not in NON_IDEMPOTENT_KINDS,
        )
    def register_evaluator(self, name: str, evaluator: ServerEvaluator) -> None:
        """Deploy an evaluator remotely, by public-parameter description."""
        description = describe_evaluator(evaluator)
        self._control("register-evaluator", relation=name, evaluator=description)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of the relations the provider stores."""
        response = self._control("relation-names")
        return tuple(response.get("names", ()))

    def stored_relation(self, name: str) -> EncryptedRelation:
        """Fetch the provider's ciphertext copy of a relation."""
        return self.stored_relation_call(name).wait()

    def stored_relation_call(self, name: str) -> "RemoteCall":
        """:meth:`stored_relation` as a :class:`RemoteCall`, not yet started."""

        def parse(frame: Frame) -> EncryptedRelation:
            response = control_response(frame)
            try:
                raw = base64.b64decode(response["relation_b64"])
            except (KeyError, ValueError) as exc:
                raise RemoteError(f"malformed stored-relation response: {exc}") from exc
            return protocol.decode_encrypted_relation(raw)

        payload = wire.encode_control_request("stored-relation", relation=name)
        return RemoteCall(self, payload, CHANNEL_CONTROL, parse=parse)

    def tuple_count(self, name: str) -> int:
        """Number of tuple ciphertexts the provider stores for a relation."""
        response = self._control("tuple-count", relation=name)
        return int(response.get("count", 0))

    def list_tuple_ids(self, name: str) -> tuple[bytes, ...]:
        """The public tuple ids a relation stores, without its ciphertexts.

        ``O(ids)`` bytes over the wire via ``LIST_TUPLE_IDS`` -- what
        replicated coordinators use to count distinct tuples without
        fetching whole stored relations.
        """
        try:
            response = protocol.request(
                self, MessageKind.LIST_TUPLE_IDS, name, expect=MessageKind.TUPLE_IDS
            )
        except ProtocolError as exc:
            raise RemoteError(str(exc)) from exc
        return protocol.decode_tuple_ids(response.body)

    def drop_relation(self, name: str) -> None:
        """Drop a relation (and its evaluator) at the provider.

        Not auto-retried once delivered: replaying a drop that was applied
        would surface a spurious "no such relation" error.
        """
        self._control("drop-relation", relation=name, idempotent=False)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """One control round trip; True when the provider answers."""
        self._control("ping")
        return True

    def server_stats(self) -> dict:
        """The provider's aggregate transport stats and audit summary."""
        response = self._control("stats")
        return {key: value for key, value in response.items() if key != "ok"}

    def metrics(self, format: str | None = None) -> dict:
        """The provider's metrics snapshot (or its Prometheus rendering).

        With ``format="prometheus"`` the response carries a ``prometheus``
        text body instead of the structured ``metrics`` snapshot.
        """
        fields = {"format": format} if format is not None else {}
        response = self._control("metrics", **fields)
        return {key: value for key, value in response.items() if key != "ok"}

    def collect_trace(self, trace_id: bytes) -> list[dict]:
        """The spans this provider recorded under ``trace_id`` (may be [])."""
        response = self._control("trace", trace_id=trace_id.hex())
        trace = response.get("trace")
        if not trace:
            return []
        return list(trace.get("spans", ()))

    def recent_traces(self, limit: int = 10) -> dict:
        """The provider's most recent traces and slow-query entries."""
        response = self._control("trace", limit=limit)
        return {key: value for key, value in response.items() if key != "ok"}




class RemoteCall:
    """One request to a :class:`RemoteServerProxy`, split at the wire.

    :meth:`start` queues the request on a pooled connection, or on a new
    one that is still connecting.  The caller then waits until
    :meth:`fileno` is ready for :meth:`events` and calls :meth:`advance`,
    which returns True once the reply has arrived; :meth:`result` parses
    it.  :meth:`wait` does all of that on the caller's thread within
    :attr:`timeout`; the cluster's scatter drives many calls with one
    wait instead.

    The proxy's retry rules live here and only here: a connection that
    fails -- a dead idle socket, a provider that restarted -- is replaced
    once and the request sent again (which changes :meth:`fileno`), except
    that an ``INSERT_TUPLE`` or a ``drop-relation`` that fully left is
    never replayed: the provider may have applied it.  :meth:`close` ends
    the call: only a connection that delivered its reply goes back to the
    pool; after a failure or an abandoned wait it is closed, so a late
    reply can never reach a later caller.
    """

    def __init__(
        self,
        proxy: RemoteServerProxy,
        payload: bytes,
        channel: int,
        *,
        parse: Callable[[Frame], Any],
        idempotent: bool = True,
    ) -> None:
        self._proxy = proxy
        self._payload = payload
        self._channel = channel
        self._parse = parse
        self._idempotent = idempotent
        #: The longest a waiter should wait for the reply (the proxy's).
        self.timeout = proxy.timeout
        self._connection: RemoteConnection | None = None
        self._retried = False
        self._reply: Frame | None = None

    def start(self) -> None:
        """Queue the request (on a replacement connection if need be)."""
        try:
            self._connection = self._proxy._pool.acquire()
            self._connection.request(self._payload, self._channel)
        except ConnectionLostError as exc:
            self._retry(exc)

    def fileno(self) -> int:
        """The descriptor to wait on."""
        return self._connection.fileno()

    def events(self) -> int:
        """What :meth:`fileno` must be ready for before :meth:`advance`."""
        return self._connection.events()

    def advance(self) -> bool:
        """Do the ready I/O; True once the reply is complete."""
        try:
            frame = self._connection.advance()
        except ConnectionLostError as exc:
            self._retry(exc)
            return False
        if frame is None:
            return False
        self._reply = frame
        return True

    def result(self) -> Any:
        """The parsed reply."""
        return self._parse(self._reply)

    def wait(self) -> Any:
        """Run the call to completion on the caller's thread; its result.

        A provider that has not answered within :attr:`timeout` -- connect
        and hello included -- raises :class:`ConnectionLostError`; the
        budget is spent, so that is not retried.
        """
        try:
            self.start()
            if not wait_ready(self, self.advance, self.timeout):
                host, port = self._proxy.address
                raise ConnectionLostError(
                    f"provider at {host}:{port} did not answer within {self.timeout}s",
                    request_delivered=self._connection.delivered,
                )
            return self.result()
        finally:
            self.close()

    def close(self) -> None:
        """Return the connection if it delivered its reply, else close it."""
        connection, self._connection = self._connection, None
        if connection is None:
            return
        if self._reply is not None and self._reply.channel == self._channel:
            self._proxy._pool.release(connection)
        else:
            # Failed, abandoned, or answered with a transport-fatal error.
            connection.close()

    def _retry(self, exc: ConnectionLostError) -> None:
        if self._retried or (exc.request_delivered and not self._idempotent):
            raise exc
        self._retried = True
        self._proxy._pool.discard_idle()
        dead, self._connection = self._connection, None
        try:
            # Opened before the dead socket closes, so the replacement
            # never reuses a descriptor number a waiter still holds.
            self._connection = self._proxy._new_connection()
        finally:
            if dead is not None:
                dead.close()
        self._connection.request(self._payload, self._channel)


def wait_ready(
    source: Any, advance: Callable[[], bool], timeout: float | None
) -> bool:
    """Call ``advance()`` whenever ``source`` is ready, until it returns True.

    ``source`` is a :class:`RemoteConnection` or :class:`RemoteCall`; its
    :meth:`fileno` and :meth:`events` are re-read after every step, since
    a retry or an address fallback swaps the socket.  False when
    ``timeout`` passed first.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        fd, events = source.fileno(), source.events()
        selector.register(fd, events)
        while True:
            wait_s = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            if not selector.select(wait_s):
                return False
            if advance():
                return True
            if source.fileno() != fd:
                selector.unregister(fd)
                fd, events = source.fileno(), source.events()
                selector.register(fd, events)
            elif source.events() != events:
                events = source.events()
                selector.modify(fd, events)
