"""Self-tests of the benchmark: seeded streams, the reference-model checker,
the whole-window figures and the layer wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import itertools
import os
import sys
import time

import pytest

from perfbench import layers
from perfbench.workloads import (
    SPECS,
    TABLE,
    TABLE_DECL,
    OpStream,
    ReferenceModel,
    WorkloadSpec,
    as_rows,
    execute,
    initial_values,
)
from repro.api import EncryptedDatabase
from repro.core.construction import SearchableSelectDph
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer

SMALL = WorkloadSpec("durable-mixed", rows=40, clients=1, read_frac=0.7)


def _ops(spec, seed, client, count=400):
    return list(itertools.islice(OpStream(spec, seed, client), count))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_streams_are_deterministic_per_seed(name):
    spec = SPECS[name]
    for client in range(spec.clients):
        assert _ops(spec, 7, client) == _ops(spec, 7, client)
        assert _ops(spec, 7, client) != _ops(spec, 8, client)
    assert initial_values(spec, 7) == initial_values(spec, 7)
    assert initial_values(spec, 7) != initial_values(spec, 8)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_stream_writes_target_valid_keys(name):
    spec = SPECS[name]
    for client in range(spec.clients):
        live = dict(initial_values(spec, 3))
        for op in _ops(spec, 3, client, 3000):
            kind, key = op[0], op[1]
            if kind == "select":
                continue
            assert key % spec.clients == client  # one owner per key
            if kind == "insert":
                assert key not in live
                live[key] = op[2]
            elif kind == "update":
                assert live[key][1] != op[2][1]  # an update is always visible
                live[key] = op[2]
            else:
                del live[key]


def test_read_racing_a_write_may_see_either_value():
    model = ReferenceModel({1: ("alpha", 5)})
    start = model.read_begin(1)
    assert model.read_ok(1, start, [("alpha", 5)])
    assert not model.read_ok(1, start, [])
    model.write_begin(1, ("beta", 6))  # the owner's update is in flight
    for rows in ([("alpha", 5)], [("beta", 6)], [("alpha", 5), ("beta", 6)]):
        assert model.read_ok(1, start, rows)
    assert not model.read_ok(1, start, [("gamma", 7)])
    assert not model.read_ok(1, start, [])
    model.write_end(1)
    after = model.read_begin(1)
    assert model.read_ok(1, after, [("beta", 6)])
    assert not model.read_ok(1, after, [("alpha", 5)])


class DroppingServer(OutsourcedDatabaseServer):
    """Acknowledges the first tuple insert without storing it."""

    dropped = None

    def insert_tuple(self, name, encrypted_tuple):
        if self.dropped is None:
            self.dropped = encrypted_tuple
            return
        super().insert_tuple(name, encrypted_tuple)


def _run_small(server):
    key = SecretKey.generate(rng=DeterministicRng(5))
    values = initial_values(SMALL, 5)
    session = EncryptedDatabase.open(key, server=server)
    session.create_table(TABLE_DECL, rows=as_rows(values))
    model = ReferenceModel(values)
    ops = _ops(SMALL, 5, 0, 120)
    failed = sum(not execute(session, op, model) for op in ops)
    # The end-of-run comparison the durability check makes.
    stored = sorted((t["name"], t["grp"], t["val"]) for t in session.retrieve_all(TABLE))
    return failed, stored == sorted(model.committed_rows())


def test_checker_accepts_an_honest_provider():
    assert _run_small(OutsourcedDatabaseServer()) == (0, True)


def test_checker_flags_a_provider_that_drops_a_row():
    server = DroppingServer()
    failed, _ = _run_small(server)
    assert server.dropped is not None
    assert failed > 0  # later ops on the lost row answer or acknowledge wrong


class StallingServer(OutsourcedDatabaseServer):
    """Answers the third select after a long pause, as an fsync stall would."""

    STALL_S = 0.4
    selects = 0

    def execute_query(self, name, encrypted_query):
        self.selects += 1
        if self.selects == 3:
            time.sleep(self.STALL_S)
        return super().execute_query(name, encrypted_query)


def test_window_figures_keep_a_stall_of_the_program():
    from perfbench import run

    key = SecretKey.generate(rng=DeterministicRng(5))
    values = initial_values(SMALL, 5)
    session = EncryptedDatabase.open(key, server=StallingServer())
    session.create_table(TABLE_DECL, rows=as_rows(values))
    window = run.run_loop([session], [OpStream(SMALL, 5, 0)], ReferenceModel(values), 1.0)
    assert window.failed == 0
    assert window.ops_per_s == pytest.approx(window.completed / window.elapsed_s)
    assert max(window.reads) >= 1000 * StallingServer.STALL_S
    assert run.percentile(window.reads, 1.0) == max(window.reads)
    assert window.steal_ticks >= 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _layered(clock):
    class Layered:
        def outer(self):
            clock.now += 1
            self.inner()
            clock.now += 3
            return "outer"

        def inner(self):
            clock.now += 2
            return "inner"

    class Child(Layered):
        pass

    return Layered, Child


def test_self_time_subtracts_nested_calls():
    clock = FakeClock()
    Layered, _ = _layered(clock)
    tracer = layers.LayerTracer(clock=clock)
    tracer.wrap_method(Layered, "outer", "api", root=True)
    tracer.wrap_method(Layered, "inner", "core")
    assert Layered().outer() == "outer"
    Layered().inner()  # outside any root call: not timed
    snapshot = tracer.snapshot()
    assert snapshot["self_s"] == {"api": 4.0, "core": 2.0, "<root>": 6.0}


def test_opaque_calls_absorb_nested_probes():
    clock = FakeClock()
    Layered, _ = _layered(clock)
    tracer = layers.LayerTracer(clock=clock)
    tracer.wrap_method(Layered, "outer", "storage", root=True, opaque=True)
    tracer.wrap_method(Layered, "inner", "protocol")
    Layered().outer()
    assert tracer.snapshot()["self_s"] == {"storage": 6.0, "<root>": 6.0}


def test_wrappers_restore_the_original_functions():
    clock = FakeClock()
    Layered, Child = _layered(clock)
    outer = Layered.__dict__["outer"]
    tracer = layers.LayerTracer(clock=clock)
    tracer.wrap_method(Layered, "outer", "api", root=True)
    tracer.wrap_method(Child, "inner", "core")  # inherited: shadowed on Child
    assert "inner" in vars(Child)
    tracer.restore()
    assert Layered.__dict__["outer"] is outer
    assert "inner" not in vars(Child)


def _bindings():
    """Every attribute of every repro module, plus ``os.fsync``."""
    seen = {name: dict(vars(module)) for name, module in sys.modules.items()
            if name.startswith("repro")}
    seen["os.fsync"] = os.fsync
    return seen


def test_client_and_provider_installs_restore_everything():
    import repro.net.evaluators  # noqa: F401 - load every codec reference
    import repro.net.server  # noqa: F401

    before = _bindings()
    classes = {cls: dict(vars(cls)) for cls in _patched_classes()}
    tracer = layers.LayerTracer()
    layers.install_client(tracer, SearchableSelectDph)
    layers.install_provider(tracer)
    assert os.fsync is not before["os.fsync"]
    tracer.restore()
    after = _bindings()
    for name, attrs in before.items():
        if name == "os.fsync":
            assert after[name] is attrs
            continue
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    for cls, attrs in classes.items():
        assert dict(vars(cls)) == attrs, f"{cls.__name__} not restored"


def _patched_classes():
    from repro.cache import ResultCache
    from repro.cluster.executor import ScatterGatherExecutor
    from repro.cluster.router import ShardRouter
    from repro.core.construction import SearchableServerEvaluator
    from repro.index.access import IndexAccess, ScanAccess
    from repro.index.client import TableIndexer
    from repro.net.client import RemoteServerProxy
    from repro.outsourcing.storage import FileStorageBackend, InMemoryStorageBackend

    return (
        EncryptedDatabase, SearchableSelectDph, TableIndexer, ShardRouter, ResultCache,
        RemoteServerProxy, ScatterGatherExecutor, OutsourcedDatabaseServer, IndexAccess,
        ScanAccess, SearchableServerEvaluator, InMemoryStorageBackend, FileStorageBackend,
    )


def test_breakdown_sums_to_the_session_time():
    client = {
        "self_s": {"<root>": 10.0, "api": 0.5, "core": 1.0, "protocol": 0.5, "net": 8.0},
        "counts": {"net.request_s": 8.0},
    }
    provider = {
        "self_s": {"<root>": 6.0, "server": 1.0, "protocol": 1.0, "scan": 4.0},
        "counts": {"server.reads": 10},
    }
    metrics = layers.breakdown(
        client, provider, ops=10, writes=0, dispatch_wait_s=1.0, failover_reads=0,
        traced_ops_per_s=9.0, untraced_ops_per_s=10.0,
    )
    total = sum(metrics[name] for name in layers.BREAKDOWN_LAYERS)
    assert total == pytest.approx(metrics["api.busy_ms_per_op"]) == pytest.approx(1000.0)
    assert metrics["net.wait_ms_per_op"] == pytest.approx(100.0)  # 8 - 6 - 1 seconds
    assert metrics["residual_ms_per_op"] == pytest.approx(50.0)
    assert metrics["trace_overhead_frac"] == pytest.approx(0.1)
