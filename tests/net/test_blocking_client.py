"""The one client transport: non-blocking connections behind an uncapped pool."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api import EncryptedDatabase
from repro.net import ConnectionLostError, RemoteServerProxy, ThreadedTcpServer
from repro.net.framing import CHANNEL_CONTROL, FrameDecoder, encode_frame
from repro.outsourcing.protocol import Message, MessageKind, parse_message

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("A", "HR", 1), ("B", "IT", 2), ("C", "HR", 3)]


@pytest.fixture
def provider():
    with ThreadedTcpServer() as server:
        yield server


class TestConcurrentCallers:
    def test_eight_threads_share_one_proxy(self, provider):
        """Each concurrent caller takes its own connection; the pool grows to
        the peak concurrency, never to one connection per call."""
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        start = threading.Barrier(8, timeout=10)
        errors: list = []

        def worker():
            try:
                start.wait()
                for _ in range(10):
                    assert proxy.ping()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            assert 1 <= provider.server.stats.connections_total <= 8
            assert len(proxy._pool._idle) == provider.server.stats.connections_total
        finally:
            proxy.close()

    def test_sequential_calls_reuse_one_connection(self, provider):
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        try:
            for _ in range(5):
                assert proxy.ping()
            assert provider.server.stats.connections_total == 1
        finally:
            proxy.close()


class TestOldUrls:
    def test_async_option_opens_the_blocking_proxy(self, provider, secret_key, rng):
        url = f"tcp://127.0.0.1:{provider.port}?async=1"
        with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
            assert type(db.server) is RemoteServerProxy
            db.create_table(EMP_DECL, rows=ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 2
            db.drop_table("Emp")

    def test_proxy_connect_accepts_the_async_option(self, provider):
        with RemoteServerProxy.connect(
            f"tcp://127.0.0.1:{provider.port}?async=1&index=0"
        ) as proxy:
            assert proxy.ping()
            assert proxy.address == ("127.0.0.1", provider.port)


class TestDeliveredRequests:
    def test_a_delivered_drop_is_not_replayed_when_the_peer_dies(self):
        """drop-relation is the non-idempotent control op: delivered but
        unanswered, it surfaces instead of being sent again."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def rogue_provider():
            conn, _ = listener.accept()
            decoder = FrameDecoder()
            frames: list = []
            while not frames:  # the hello
                frames += decoder.feed(conn.recv(65536))
            response = {"ok": True, "version": 3, "server": "rogue"}
            conn.sendall(encode_frame(
                json.dumps(response).encode(),
                channel=CHANNEL_CONTROL,
                correlation=frames[0].correlation,
            ))
            while len(frames) < 2:  # the first real request...
                frames += decoder.feed(conn.recv(65536))
            conn.close()  # ...answered by hanging up

        thread = threading.Thread(target=rogue_provider, daemon=True)
        thread.start()
        proxy = RemoteServerProxy("127.0.0.1", port, timeout=10.0)
        try:
            with pytest.raises(ConnectionLostError) as excinfo:
                proxy.drop_relation("X")
            assert excinfo.value.request_delivered
            assert not proxy._pool._idle  # the dead connection was dropped
        finally:
            proxy.close()
            listener.close()
            thread.join(timeout=10)

    def test_a_lost_connection_is_closed_not_pooled(self, provider):
        proxy = RemoteServerProxy("127.0.0.1", provider.port)
        try:
            call = proxy.envelope_call(
                Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="X").to_bytes()
            )
            call.start()
            lost = call._connection
            lost._sock.shutdown(socket.SHUT_RDWR)  # the link dies mid-call
            # A list is idempotent: retried once on a fresh connection.
            assert parse_message(call.wait()).kind is MessageKind.ERROR
            assert lost not in proxy._pool._idle
            assert len(proxy._pool._idle) == 1
        finally:
            proxy.close()


class TestTimeouts:
    def test_the_timeout_bounds_connect_and_hello(self):
        """A listener that never answers the hello: the proxy gives up
        after its timeout instead of hanging in the handshake."""
        with socket.create_server(("127.0.0.1", 0)) as silent:
            port = silent.getsockname()[1]
            started = time.monotonic()
            with pytest.raises(ConnectionLostError, match="did not answer"):
                RemoteServerProxy("127.0.0.1", port, timeout=0.3)
            assert time.monotonic() - started < 1.0
