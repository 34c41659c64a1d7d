"""Edge cases of the TCP serving layer: the hello, hostile bytes, lifecycle."""

from __future__ import annotations

import json
import selectors
import socket
import threading

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.net import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    RemoteError,
    RemoteServerProxy,
    ThreadedTcpServer,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.net.client import (
    ConnectionLostError,
    ConnectionPool,
    RemoteCall,
    RemoteConnection,
    parse_tcp_url,
)
from repro.outsourcing import Message, MessageKind, OutsourcedDatabaseServer
from repro.outsourcing.protocol import PROTOCOL_VERSION, ProtocolVersionError

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"


@pytest.fixture
def provider():
    with ThreadedTcpServer() as server:
        yield server


def raw_connection(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def send_hello(sock, versions=(PROTOCOL_VERSION,)) -> dict:
    send_frame(sock, json.dumps({"op": "hello", "versions": list(versions)}).encode(),
               channel=CHANNEL_CONTROL)
    frame = recv_frame(sock)
    return json.loads(frame.payload)


class TestHelloNegotiation:
    def test_hello_accepts_the_protocol_version(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock)
            assert hello["ok"] and hello["version"] == PROTOCOL_VERSION
            assert hello["max_frame_size"] > 0
        finally:
            sock.close()

    def test_other_version_refused_but_the_server_keeps_serving(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock, versions=(2,))
            assert not hello["ok"]
            assert hello["versions"] == [PROTOCOL_VERSION]
            assert recv_frame(sock) is None  # only this connection closed
        finally:
            sock.close()
        with EncryptedDatabase.connect(f"tcp://127.0.0.1:{provider.port}") as db:
            db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 1

    def test_no_common_version_is_an_error(self, provider):
        sock = raw_connection(provider.port)
        try:
            hello = send_hello(sock, versions=(99,))
            assert not hello["ok"]
            assert "common protocol version" in hello["error"]
        finally:
            sock.close()

    def test_envelope_before_hello_rejected_and_closed(self, provider):
        sock = raw_connection(provider.port)
        try:
            frame = Message(kind=MessageKind.QUERY, relation_name="Emp").to_bytes()
            send_frame(sock, frame, channel=CHANNEL_ENVELOPE)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            assert "hello" in response["error"]
            assert recv_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_proxies_refuse_a_provider_speaking_another_version(self, monkeypatch):
        monkeypatch.setattr("repro.net.server.PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
        with ThreadedTcpServer() as server:
            with pytest.raises(ProtocolVersionError):
                RemoteServerProxy("127.0.0.1", server.port)
            url = f"tcp://127.0.0.1:{server.port}"
            for url in (url, url + "?async=1"):
                with pytest.raises(DatabaseError) as excinfo:
                    EncryptedDatabase.connect(url)
                assert isinstance(excinfo.value.__cause__, ProtocolVersionError)

    def test_a_cluster_with_one_shard_on_another_version_refuses_to_connect(
        self, provider
    ):
        # A listener whose hello refuses ours while listing another version:
        # the one shard of a fleet that was never upgraded.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.2)
        stop = threading.Event()

        def refuse_hellos() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue
                with conn:
                    conn.settimeout(5.0)
                    frame = recv_frame(conn)
                    if frame is None:
                        continue
                    refusal = {"ok": False, "error": "",
                               "versions": [PROTOCOL_VERSION + 1]}
                    send_frame(conn, json.dumps(refusal).encode(),
                               channel=CHANNEL_CONTROL, correlation=frame.correlation)

        thread = threading.Thread(target=refuse_hellos, daemon=True)
        thread.start()
        try:
            old_port = listener.getsockname()[1]
            url = f"cluster://127.0.0.1:{provider.port},127.0.0.1:{old_port}"
            with pytest.raises(DatabaseError) as excinfo:
                EncryptedDatabase.connect(url)
            cause = excinfo.value.__cause__
            while cause is not None and not isinstance(cause, ProtocolVersionError):
                cause = cause.__cause__
            assert isinstance(cause, ProtocolVersionError)
        finally:
            stop.set()
            thread.join(timeout=5.0)
            listener.close()


class TestHostileBytes:
    def test_garbage_stream_answered_with_error_then_closed(self, provider):
        sock = raw_connection(provider.port)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: eve\r\n\r\n")
            frame = recv_frame(sock)
            assert frame.channel == CHANNEL_CONTROL
            assert not json.loads(frame.payload)["ok"]
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_oversized_frame_rejected(self):
        with ThreadedTcpServer(max_frame_size=1024) as server:
            sock = raw_connection(server.port)
            try:
                sock.sendall((1024 * 1024).to_bytes(4, "big"))
                response = json.loads(recv_frame(sock).payload)
                assert not response["ok"]
                assert "exceeds" in response["error"]
            finally:
                sock.close()

    def test_truncated_frame_then_close_leaves_server_alive(self, provider):
        sock = raw_connection(provider.port)
        sock.sendall(encode_frame(b"x" * 64, channel=CHANNEL_CONTROL)[:-10])
        sock.close()  # peer dies mid-frame
        # the server survives and serves the next connection normally
        fresh = raw_connection(provider.port)
        try:
            assert send_hello(fresh)["ok"]
        finally:
            fresh.close()

    def test_garbage_envelope_after_hello_is_fatal_for_the_connection(self, provider):
        sock = raw_connection(provider.port)
        try:
            assert send_hello(sock)["ok"]
            send_frame(sock, b"\x00not-an-envelope", channel=CHANNEL_ENVELOPE)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_malformed_control_json_rejected(self, provider):
        sock = raw_connection(provider.port)
        try:
            send_frame(sock, b"{not json", channel=CHANNEL_CONTROL)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
        finally:
            sock.close()

    def test_unknown_control_op_is_non_fatal(self, provider):
        sock = raw_connection(provider.port)
        try:
            assert send_hello(sock)["ok"]
            send_frame(sock, json.dumps({"op": "format-disk"}).encode(),
                       channel=CHANNEL_CONTROL)
            response = json.loads(recv_frame(sock).payload)
            assert not response["ok"]
            # ... but the connection survives protocol-level errors
            send_frame(sock, json.dumps({"op": "ping"}).encode(), channel=CHANNEL_CONTROL)
            assert json.loads(recv_frame(sock).payload)["ok"]
        finally:
            sock.close()


class TestConcurrentClients:
    def test_many_sessions_one_provider(self, provider, secret_key):
        """Six threads, each with its own table, hammering one provider."""
        errors = []

        def worker(index: int) -> None:
            try:
                db = EncryptedDatabase.connect(
                    f"tcp://127.0.0.1:{provider.port}", secret_key
                )
                decl = f"T{index}(name:string[10], value:int[6])"
                db.create_table(decl, rows=[(f"row{i}", i) for i in range(20)])
                for i in range(10):
                    outcome = db.select(
                        f"SELECT * FROM T{index} WHERE value = {i}"
                    )
                    assert len(outcome.relation) == 1, (index, i)
                db.insert(f"T{index}", {"name": "extra", "value": 999})
                assert db.count(f"T{index}") == 21
                db.close()
            except Exception as exc:  # noqa: BLE001 - collected for the assert below
                errors.append((index, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        stats = provider.server.stats
        assert stats.connections_total >= 6
        names = provider.server.database_server.relation_names
        assert set(names) == {f"T{i}" for i in range(6)}

    def test_stats_count_frames_and_bytes(self, provider, secret_key):
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{provider.port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        proxy = db.server
        stats = proxy.server_stats()
        assert stats["stats"]["connections_total"] >= 1
        assert stats["stats"]["envelope_frames"] >= 2  # store + query
        assert stats["stats"]["control_frames"] >= 2  # hello + register
        assert stats["audit"]["query-executed"] >= 1
        assert stats["relations"] == ["Emp"]
        db.close()


class TestReconnect:
    def test_client_survives_a_provider_restart(self, secret_key):
        """The same provider state behind a bounced TCP front-end."""
        database = OutsourcedDatabaseServer()
        first = ThreadedTcpServer(database).start()
        port = first.port
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1), ("B", "IT", 2)])
        assert db.count("Emp") == 2
        first.stop()

        # every pooled connection is now dead; restart on the same port
        second = ThreadedTcpServer(database, port=port).start()
        try:
            assert db.count("Emp") == 2  # transparent retry on a fresh socket
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 1
            db.insert("Emp", {"name": "C", "dept": "HR", "salary": 3})
            assert db.count("Emp") == 3
            db.close()
        finally:
            second.stop()

    def test_call_with_provider_down_raises_remote_error(self, secret_key):
        server = ThreadedTcpServer().start()
        port = server.port
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        server.stop()
        with pytest.raises(Exception) as excinfo:
            db.count("Emp")
        # surfaced through the facade's error type, not a raw socket error
        from repro.api import DatabaseError

        assert isinstance(excinfo.value, DatabaseError)
        db.close()


class TestClientPieces:
    def test_parse_tcp_url(self):
        assert parse_tcp_url("tcp://localhost:7707") == ("localhost", 7707)
        for bad in ("http://x:1", "tcp://nohost", "tcp://h:1/path", "tcp://:9",
                    "tcp://h:abc", "tcp://h:99999"):
            with pytest.raises(RemoteError):
                parse_tcp_url(bad)

    def test_connect_refused_surfaces_cleanly(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            unused_port = placeholder.getsockname()[1]
        with pytest.raises(ConnectionLostError):
            RemoteServerProxy("127.0.0.1", unused_port, timeout=1.0)

    def test_pool_opens_only_when_none_is_idle(self, provider):
        built = []

        def factory():
            connection = RemoteConnection("127.0.0.1", provider.port)
            built.append(connection)
            return connection

        pool = ConnectionPool(factory)
        held = [pool.acquire() for _ in range(3)]
        assert len({id(connection) for connection in held}) == 3  # no cap
        for connection in held:
            pool.release(connection)
        # all went back to the pool; later acquires reuse, not rebuild
        again = [pool.acquire() for _ in range(2)]
        assert all(connection in held for connection in again)
        assert len(built) == 3
        pool.close()
        for connection in again:
            connection.close()

    def test_pool_discards_broken_connections(self, provider):
        """A call abandoned before its reply closes its connection."""
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        try:
            envelope = Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="X").to_bytes()
            call = proxy.envelope_call(envelope)
            call.start()
            abandoned = call._connection
            call.close()
            assert abandoned not in proxy._pool._idle
            assert not proxy._pool._idle
            assert proxy.ping()  # a fresh connection serves the next call
        finally:
            proxy.close()

    def test_pool_reuses_connection_after_protocol_level_error(self, provider):
        """An ok:false answer completes the round trip; no reconnect churn."""
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        try:
            with pytest.raises(RemoteError):
                proxy.stored_relation("nope")
            assert proxy.ping()
            # the same healthy connection served the handshake and both calls
            assert provider.server.stats.connections_total == 1
        finally:
            proxy.close()

    def test_non_idempotent_ops_are_not_retried_once_delivered(self, provider):
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        built: list = []

        def exploding_connection():
            connection = ExplodingConnection()
            built.append(connection)
            return connection

        proxy._pool.discard_idle()
        proxy._pool._factory = proxy._new_connection = exploding_connection
        # delivered + idempotent -> one retry; delivered + non-idempotent -> none
        for idempotent, attempts in ((True, 2), (False, 1)):
            built.clear()
            call = RemoteCall(
                proxy, b"{}", CHANNEL_CONTROL, parse=lambda frame: frame,
                idempotent=idempotent,
            )
            with pytest.raises(ConnectionLostError, match="late failure"):
                call.wait()
            assert len(built) == attempts
            assert all(connection.closed for connection in built)
        proxy.close()

    def test_closed_pool_rejects_checkout(self, provider):
        pool = ConnectionPool(lambda: RemoteConnection("127.0.0.1", provider.port))
        pool.close()
        with pytest.raises(RemoteError, match="closed"):
            pool.acquire()


class ExplodingConnection:
    """A connection whose request is delivered and then lost."""

    def __init__(self) -> None:
        self.ours, self.theirs = socket.socketpair()
        self.theirs.sendall(b"!")  # readable at once
        self.closed = False

    def request(self, payload: bytes, channel: int) -> None:
        pass

    def fileno(self) -> int:
        return self.ours.fileno()

    def events(self) -> int:
        return selectors.EVENT_READ

    def advance(self):
        raise ConnectionLostError("late failure", request_delivered=True)

    def close(self) -> None:
        self.closed = True
        self.ours.close()
        self.theirs.close()


class TestGracefulShutdown:
    def test_stop_drains_and_reports(self, secret_key):
        server = ThreadedTcpServer().start()
        db = EncryptedDatabase.connect(f"tcp://127.0.0.1:{server.port}", secret_key)
        db.create_table(EMP_DECL, rows=[("A", "HR", 1)])
        db.close()
        server.stop()
        stats = server.server.stats
        assert stats.connections_active == 0
        assert stats.connections_total >= 1
        assert stats.frames_received == stats.envelope_frames + stats.control_frames
        assert "connection(s)" in stats.throughput_summary()

    def test_double_stop_is_idempotent(self):
        server = ThreadedTcpServer().start()
        server.stop()
        server.stop()
