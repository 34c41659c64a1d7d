"""The one scatter path: socket calls started first, inline shards, one wait.

A remote shard's envelope is a :class:`~repro.net.client.RemoteCall` on a
pooled (or newly opened) non-blocking connection; the executor starts them
all, calls the in-process shards inline, then drives every socket with one
``selectors`` wait.  These tests pin the ordering, the shared timeout
budget (connecting and the hello included), the rule that a connection
whose shard timed out or failed is closed (never pooled), and the proxy's
retry rules inside a scatter.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time

import pytest
from gated_provider import GatedServer

from repro.api import EncryptedDatabase
from repro.cluster import (
    DEGRADED,
    ScatterGatherExecutor,
    ShardRouter,
    ShardTimeoutError,
)
from repro.net import (
    ConnectionLostError,
    RemoteServerProxy,
    ThreadedTcpServer,
)
from repro.net.framing import CHANNEL_CONTROL, FrameDecoder, encode_frame
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import Message, MessageKind, check_reply, parse_message

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


def list_ids(relation: str) -> bytes:
    return Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name=relation).to_bytes()


@pytest.fixture
def fleet():
    with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
        yield one, two


def cluster_url(*servers, options: str = "") -> str:
    hosts = ",".join(f"127.0.0.1:{server.port}" for server in servers)
    return f"cluster://{hosts}{options}"


class FakeSocketCall:
    """A socket call over a socketpair, for executor-level tests."""

    def __init__(self, log: list, name: str, reply: bytes | None = b"ok") -> None:
        self.log = log
        self.name = name
        self.reply = reply
        self.closed = False
        self.ours, self.theirs = socket.socketpair()

    def start(self) -> None:
        self.log.append(("start", self.name))
        if self.reply is not None:
            self.theirs.sendall(self.reply)

    def fileno(self) -> int:
        return self.ours.fileno()

    def events(self) -> int:
        return selectors.EVENT_READ

    def advance(self) -> bool:
        self.received = self.ours.recv(1024)
        return True

    def result(self):
        return self.received

    def close(self) -> None:
        self.closed = True
        self.ours.close()
        self.theirs.close()


class TestExecutorSockets:
    def test_sockets_are_started_before_inline_calls_run(self):
        log: list = []
        remote = FakeSocketCall(log, "remote")

        def inline():
            log.append(("inline", "local"))
            return "local"

        outcomes = ScatterGatherExecutor().scatter(
            [("local", inline), ("remote", remote)]
        )
        assert log == [("start", "remote"), ("inline", "local")]
        assert [(o.shard_id, o.value) for o in outcomes] == [
            ("local", "local"), ("remote", b"ok"),
        ]
        assert remote.closed

    def test_a_silent_socket_times_out_and_is_closed(self):
        log: list = []
        silent = FakeSocketCall(log, "silent", reply=None)
        started = time.monotonic()
        outcomes = ScatterGatherExecutor(timeout=0.1).scatter(
            [("silent", silent), ("fast", lambda: 1)]
        )
        assert time.monotonic() - started < 2.0
        assert isinstance(outcomes[0].error, ShardTimeoutError)
        assert outcomes[1].value == 1
        assert silent.closed

    def test_replies_that_arrived_in_time_survive_an_overrunning_thunk(self):
        """The remote reply was in the socket before the deadline; only the
        inline thunk, which ran past the budget, is a timeout."""
        log: list = []
        remote = FakeSocketCall(log, "remote")
        outcomes = ScatterGatherExecutor(timeout=0.05).scatter(
            [("remote", remote), ("slow", lambda: time.sleep(0.15))]
        )
        assert outcomes[0].ok and outcomes[0].value == b"ok"
        assert isinstance(outcomes[1].error, ShardTimeoutError)

    def test_a_failed_start_is_an_outcome_and_closes_the_call(self):
        log: list = []
        broken = FakeSocketCall(log, "broken")

        def refuse():
            raise ConnectionLostError("refused")

        broken.start = refuse
        outcomes = ScatterGatherExecutor().scatter([("broken", broken), ("ok", lambda: 2)])
        assert isinstance(outcomes[0].error, ConnectionLostError)
        assert outcomes[1].value == 2
        assert broken.closed

    def test_an_interrupted_gather_closes_its_sockets(self):
        log: list = []
        remote = FakeSocketCall(log, "remote", reply=None)

        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ScatterGatherExecutor().scatter([("remote", remote), ("local", interrupt)])
        assert remote.closed


class TestRemoteCalls:
    def test_a_call_checks_its_reply_and_returns_the_connection(self, fleet):
        one, _ = fleet
        proxy = RemoteServerProxy("127.0.0.1", one.port)
        try:
            envelope = Message(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Nope").to_bytes()
            call = proxy.envelope_call(
                envelope, lambda reply: check_reply(reply, MessageKind.TUPLE_IDS)
            )
            outcome = ScatterGatherExecutor().scatter([("one", call)])[0]
            # The provider answered ERROR: a completed round trip, so the
            # decode raises but the connection is healthy and pooled.
            assert not outcome.ok
            assert "Nope" in str(outcome.error)
            assert len(proxy._pool._idle) == 1
            assert proxy.ping()
            assert one.server.stats.connections_total == 1
        finally:
            proxy.close()

    def test_a_dead_idle_connection_is_retried_once_on_a_fresh_one(self):
        database = OutsourcedDatabaseServer()
        first = ThreadedTcpServer(database).start()
        port = first.port
        proxy = RemoteServerProxy("127.0.0.1", port, timeout=10.0)
        first.stop()  # the proxy's idle connection is now dead
        second = ThreadedTcpServer(database, port=port).start()
        # The counter lives in the database's registry, shared by both servers.
        connections_before = second.server.stats.connections_total
        try:
            call = proxy.envelope_call(
                list_ids("Emp"), lambda reply: parse_message(reply).kind
            )
            outcome = ScatterGatherExecutor(timeout=5.0).scatter([("s", call)])[0]
            assert outcome.value is MessageKind.ERROR  # answered, on a fresh socket
            assert second.server.stats.connections_total == connections_before + 1
        finally:
            proxy.close()
            second.stop()

    def test_a_delivered_insert_is_never_replayed(self):
        """The provider hangs up after receiving an INSERT_TUPLE: it may
        have applied it, so the scatter reports the loss instead of
        sending the insert again on a fresh connection."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(1.0)  # no further connection: no replay came
        port = listener.getsockname()[1]
        envelopes: list = []

        def serve_one(conn) -> None:
            decoder = FrameDecoder()
            frames: list = []
            while not frames:  # the hello
                frames += decoder.feed(conn.recv(65536))
            hello = {"ok": True, "version": 3, "server": "rogue"}
            conn.sendall(encode_frame(
                json.dumps(hello).encode(),
                channel=CHANNEL_CONTROL,
                correlation=frames[0].correlation,
            ))
            frames = []
            while not frames:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                frames = decoder.feed(chunk)
            envelopes.extend(frames)
            conn.close()  # ...answered by hanging up

        def rogue_provider():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    serve_one(conn)

        thread = threading.Thread(target=rogue_provider, daemon=True)
        thread.start()
        proxy = RemoteServerProxy("127.0.0.1", port, timeout=10.0)
        try:
            insert = Message(
                kind=MessageKind.INSERT_TUPLE, relation_name="X", body=b"t"
            ).to_bytes()
            outcome = ScatterGatherExecutor(timeout=5.0).scatter(
                [("rogue", proxy.envelope_call(insert))]
            )[0]
            assert isinstance(outcome.error, ConnectionLostError)
            assert outcome.error.request_delivered
            assert len(envelopes) == 1
        finally:
            proxy.close()
            listener.close()
            thread.join(timeout=10)

    def test_the_proxy_timeout_bounds_a_wait_without_a_shard_budget(self):
        database = GatedServer()
        gate = database.gate("Emp")
        with ThreadedTcpServer(database) as server:
            proxy = RemoteServerProxy("127.0.0.1", server.port, timeout=0.3)
            try:
                started = time.monotonic()
                outcome = ScatterGatherExecutor().scatter(
                    [("slow", proxy.envelope_call(list_ids("Emp")))]
                )[0]
                assert time.monotonic() - started < 2.0
                assert isinstance(outcome.error, ShardTimeoutError)
                assert not proxy._pool._idle  # the stuck connection was closed
            finally:
                gate.set()
                proxy.close()


class TestRouterScatter:
    def test_crud_over_a_remote_fleet(self, fleet, secret_key, rng):
        with EncryptedDatabase.connect(cluster_url(*fleet), secret_key, rng=rng) as db:
            router = db.server
            db.create_table(EMP_DECL, rows=ROWS)
            assert sum(router.per_shard_tuple_counts("Emp").values()) == len(ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
            db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
            assert db.delete("SELECT * FROM Emp WHERE dept = 'IT'") == 12
            assert db.count("Emp") == 13
            db.drop_table("Emp")

    def test_the_old_async_url_opens_the_one_transport(self, fleet, secret_key, rng):
        url = cluster_url(*fleet, options="?replicas=2&async=1&cache=1")
        with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
            assert db.server.replication == 2
            assert db.server.cache is not None
            assert all(
                isinstance(db.server.shard(shard_id), RemoteServerProxy)
                for shard_id in db.server.shard_ids
            )
            db.create_table(EMP_DECL, rows=ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation) == 12
            db.drop_table("Emp")

    def test_mixed_fleet_scatters_sockets_and_inline_shards(self, fleet, secret_key, rng):
        one, _ = fleet
        local = OutsourcedDatabaseServer()
        router = ShardRouter([f"tcp://127.0.0.1:{one.port}", local])
        db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            counts = router.per_shard_tuple_counts("Emp")
            assert all(count > 0 for count in counts.values())
            assert db.count("Emp") == len(ROWS)
            assert len(db.select("SELECT * FROM Emp WHERE dept = 'IT'").relation) == 12
            db.drop_table("Emp")
        finally:
            db.close()

    def test_replicated_failover(self, secret_key, rng):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            three = ThreadedTcpServer().start()
            url = cluster_url(one, two, three, options="?replicas=2")
            with EncryptedDatabase.connect(url, secret_key, rng=rng, timeout=10.0) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                three.stop()  # a provider dies mid-workload
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert len(outcome.relation) == 12  # complete, not partial
                assert db.count("Emp") == len(ROWS)
                assert db.server.stats.failover_reads >= 1
                assert db.server.stats.degraded_reads == 0

    def test_session_survives_a_shard_provider_restart(self, secret_key, rng):
        database = OutsourcedDatabaseServer()
        with ThreadedTcpServer() as steady:
            first = ThreadedTcpServer(database).start()
            port = first.port
            url = f"cluster://127.0.0.1:{steady.port},127.0.0.1:{port}"
            db = EncryptedDatabase.connect(url, secret_key, rng=rng, timeout=10.0)
            try:
                db.create_table(EMP_DECL, rows=ROWS)
                assert db.count("Emp") == len(ROWS)
                first.stop()
                second = ThreadedTcpServer(database, port=port).start()
                try:
                    # Idle connections to the restarted shard are dead; each
                    # read retries once on a fresh one, transparently.
                    assert db.count("Emp") == len(ROWS)
                    outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                    assert len(outcome.relation) == 12
                    db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
                    assert db.count("Emp") == len(ROWS) + 1
                    db.drop_table("Emp")
                finally:
                    second.stop()
            finally:
                db.close()

    def test_a_timed_out_shard_degrades_and_its_late_reply_never_surfaces(
        self, secret_key, rng
    ):
        """A gated shard exceeds the budget: the read degrades and the
        connection carrying the unanswered request is closed.  Once the gate
        opens, the next select gets all 12 rows on a fresh connection -- a
        pooled stale connection would hand it the late reply instead."""
        slow_database = GatedServer()
        with ThreadedTcpServer() as fast, ThreadedTcpServer(slow_database) as slow:
            router = ShardRouter.connect(
                cluster_url(fast, slow), policy=DEGRADED, shard_timeout=0.5,
                timeout=10.0,
            )
            db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
            gate = None
            try:
                db.create_table(EMP_DECL, rows=ROWS)
                connections_before = slow.server.stats.connections_total
                gate = slow_database.gate("Emp")
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert 0 < len(outcome.relation) < 12  # the fast shard's slice
                slow_shard_id = f"tcp://127.0.0.1:{slow.port}"
                assert router.stats.last_missing_shard_ids == (slow_shard_id,)
                assert not router.shard(slow_shard_id)._pool._idle
                gate.set()
                del slow_database.gates["Emp"]
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'IT'")
                assert len(outcome.relation) == 12
                assert {row["dept"] for row in outcome.relation} == {"IT"}
                assert slow.server.stats.connections_total == connections_before + 1
                assert router.stats.degraded_reads == 1
            finally:
                if gate is not None:
                    gate.set()
                db.close()

    def test_a_shard_that_never_answers_the_hello_costs_one_budget(
        self, secret_key, rng
    ):
        """A provider that accepts connections but never answers the hello
        (a frozen process, a wedged event loop): connecting and the hello
        wait inside the scatter's one wait, so every DEGRADED read still
        ends within the budget with the other shard's rows.  Were the
        connect blocking, the shard after it would be started only once
        the budget was spent and time out too."""
        with ThreadedTcpServer() as fast:
            doomed = ThreadedTcpServer().start()
            port = doomed.port
            router = ShardRouter.connect(
                cluster_url(doomed, fast), policy=DEGRADED, shard_timeout=0.3,
                timeout=10.0,
            )
            db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
            try:
                db.create_table(EMP_DECL, rows=ROWS)
                doomed.stop()
                # Connections land in the kernel's backlog; nothing answers.
                with socket.create_server(("127.0.0.1", port)):
                    for dept in ("HR", "IT", "HR"):
                        started = time.monotonic()
                        outcome = db.select(f"SELECT * FROM Emp WHERE dept = '{dept}'")
                        elapsed = time.monotonic() - started
                        assert elapsed < 1.0, elapsed
                        assert 0 < len(outcome.relation) < 12
                        assert {row["dept"] for row in outcome.relation} == {dept}
                    assert router.stats.degraded_reads == 3
            finally:
                db.close()

    def test_two_gated_shards_share_one_budget(self, secret_key, rng):
        """Every shard's clock ticks at once: two shards stuck past a 0.3s
        budget cost one gather 0.3s, not 0.6s."""
        gated = [GatedServer(), GatedServer()]
        with ThreadedTcpServer() as fast, ThreadedTcpServer(
            gated[0]
        ) as slow_one, ThreadedTcpServer(gated[1]) as slow_two:
            router = ShardRouter.connect(
                cluster_url(fast, slow_one, slow_two), policy=DEGRADED,
                shard_timeout=0.3, timeout=10.0,
            )
            db = EncryptedDatabase.open(secret_key, server=router, rng=rng)
            gates = []
            try:
                db.create_table(EMP_DECL, rows=ROWS)
                gates = [database.gate("Emp") for database in gated]
                started = time.monotonic()
                outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                elapsed = time.monotonic() - started
                assert elapsed < 0.6, elapsed
                assert len(router.stats.last_missing_shard_ids) == 2
                assert len(outcome.relation) < 12
            finally:
                for gate in gates:
                    gate.set()
                db.close()

    def test_one_router_serves_concurrent_sessions(self, fleet, secret_key, rng):
        """Several threads scatter through one router at once; each takes
        its own pooled connection per shard."""
        router = ShardRouter.connect(cluster_url(*fleet, options="?replicas=2"))
        seeder = EncryptedDatabase.open(secret_key, server=router, rng=rng)
        errors: list = []
        try:
            seeder.create_table(EMP_DECL, rows=ROWS)

            def reader():
                try:
                    session = EncryptedDatabase.open(secret_key, server=router)
                    session.attach_table(EMP_DECL)
                    for dept in ("HR", "IT") * 5:
                        outcome = session.select(f"SELECT * FROM Emp WHERE dept = '{dept}'")
                        assert {row["dept"] for row in outcome.relation} == {dept}
                        assert len(outcome.relation) == 12
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            for server in fleet:
                # pooled, not one connection per request
                assert server.server.stats.connections_total <= 5
            seeder.drop_table("Emp")
        finally:
            seeder.close()
