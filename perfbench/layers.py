"""Per-layer timing by wrapping each layer's public calls from outside.

:class:`LayerTracer` swaps a layer's functions and methods for probes that
time every call on a per-thread stack, so a layer's *self time* is its calls'
duration minus the time spent in nested probed calls.  Only calls nested in a
*root* probe are timed (the session API on the client, the provider's
``handle_message`` in a provider), which keeps set-up traffic and background
threads out of the figures.  :meth:`LayerTracer.restore` puts every original
back.

:func:`install_client` and :func:`install_provider` name the timed calls of
each side; :func:`breakdown` turns both sides' totals into the per-layer
metrics, split so that they sum to ``api.busy_ms_per_op``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

#: Message kinds that read; a router call carrying one is a read scatter.
READ_KINDS = ("query", "index-lookup", "batch-query")
#: Message kinds whose request body is the logical write (write_amp base).
WRITE_KINDS = ("insert-tuple", "delete-tuples", "delete-tuples-exact")


class LayerTracer:
    """Self time per layer plus named counters, from wrapped calls."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._self_s: dict[str, float] = defaultdict(float)
        self._counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def stack_tags(self) -> list:
        """Tags of the calling thread's open probes, outermost first."""
        return [frame[3] for frame in self._stack()]

    def probe(self, fn, layer: str, *, root=False, opaque=False, tag=None, observe=None):
        """A timed stand-in for ``fn``.

        ``root`` calls open a timing context; other calls are timed only
        inside one.  Inside an ``opaque`` call, nested probes are not split
        out (a storage load's own decoding is storage time).  ``tag(args)``
        labels the frame for observers below it; ``observe(args, result,
        elapsed_s)`` records counters after a successful call.
        """
        tracer = self
        clock = self._clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            if (not stack and not root) or (stack and stack[-1][2]):
                return fn(*args, **kwargs)
            frame = [layer, 0.0, opaque, tag(args) if tag is not None else None]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{layer}.exceptions")
                raise
            finally:
                elapsed = clock() - started
                stack.pop()
                with tracer._lock:
                    tracer._self_s[layer] += elapsed - frame[1]
                    if not stack:
                        tracer._self_s["<root>"] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(args, result, elapsed)
            return result

        return timed

    def counter(self, fn, observe):
        """A stand-in for ``fn`` that only feeds ``observe(args, result)``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result

        return counted

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self._self_s), "counts": dict(self._counts)}

    # -- patching ------------------------------------------------------- #

    def patch(self, owner, name: str, value) -> None:
        """Set ``owner.name`` to ``value`` until :meth:`restore`."""
        had_own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str, layer: str, **options) -> None:
        original = getattr(cls, name)
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__name__}.{name} is not a plain function")
        self.patch(cls, name, self.probe(original, layer, **options))

    def replace_everywhere(self, fn, replacement) -> None:
        """Point every ``repro`` module's reference to ``fn`` at ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _codec_functions():
    from repro.index import wire
    from repro.outsourcing import protocol

    for module in (protocol, wire):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and (
                name.startswith(("encode_", "decode_")) or name == "parse_message"
            ):
                yield fn


def _install_protocol(tracer: LayerTracer) -> None:
    # The storage backend's own codec calls stay storage time: its load,
    # save and append probes are opaque.
    for fn in _codec_functions():
        tracer.replace_everywhere(fn, tracer.probe(fn, "protocol"))


def install_client(tracer: LayerTracer, scheme_cls) -> None:
    """Wrap the client process's layers (session, crypto, index, codec,
    coordinator, cache and the transport wait)."""
    from repro.api import EncryptedDatabase
    from repro.cache import ResultCache
    from repro.cluster.executor import ScatterGatherExecutor
    from repro.cluster.router import ShardRouter
    from repro.index.client import TableIndexer
    from repro.net.client import RemoteServerProxy
    from repro.outsourcing.protocol import peek_envelope

    for name in ("select", "insert", "update", "delete"):
        tracer.wrap_method(EncryptedDatabase, name, "api", root=True)

    def decrypted(args, report, elapsed):
        tracer.count("core.returned", report.returned)
        tracer.count("core.false_positives", report.false_positives)

    for name in ("encrypt_query", "encrypt_tuple", "decrypt_tuple", "encrypt_relation"):
        tracer.wrap_method(scheme_cls, name, "core")
    tracer.wrap_method(scheme_cls, "decrypt_result", "core", observe=decrypted)
    for name in ("snapshot", "query_labels", "insert_delta", "remove_delta"):
        tracer.wrap_method(TableIndexer, name, "index.client")
    _install_protocol(tracer)

    def router_tag(args):
        return "read" if peek_envelope(args[1])[1].value in READ_KINDS else "write"

    tracer.wrap_method(ShardRouter, "handle_message", "cluster", tag=router_tag)

    def looked_up(args, value, elapsed):
        tracer.count("cache.lookups")
        tracer.count("cache.hits", value is not None)

    tracer.wrap_method(ResultCache, "lookup", "cache", observe=looked_up)
    tracer.wrap_method(ResultCache, "put", "cache")
    tracer.wrap_method(
        ResultCache, "invalidate", "cache",
        observe=lambda args, value, elapsed: tracer.count("cache.invalidations"),
    )

    # The transport wait: a blocking proxy round trip, or a whole scatter
    # (the session thread blocks until every shard answered).
    def proxied(args, response, elapsed):
        tracer.count("net.request_s", elapsed)

    tracer.wrap_method(RemoteServerProxy, "handle_message", "net", observe=proxied)

    def scattered(args, outcomes, elapsed):
        tracer.count("net.request_s", sum(o.elapsed_s for o in outcomes))
        tracer.count("net.errors", sum(not o.ok for o in outcomes))
        if "read" in tracer.stack_tags():
            tracer.count("cluster.read_scatters")
            tracer.count("cluster.read_shard_requests", len(outcomes))
            tracer.count("cluster.slowest_shard_s", max(o.elapsed_s for o in outcomes))

    for name in ("scatter", "scatter_on_loop"):
        tracer.wrap_method(ScatterGatherExecutor, name, "net", observe=scattered)


def install_provider(tracer: LayerTracer) -> None:
    """Wrap a provider process's layers (envelope handling, codec, access
    method, the paper's scan and storage)."""
    from repro.core.construction import SearchableServerEvaluator
    from repro.index.access import IndexAccess, ScanAccess
    from repro.outsourcing import storage
    from repro.outsourcing.protocol import peek_envelope
    from repro.outsourcing.server import OutsourcedDatabaseServer

    def handled(args, response, elapsed):
        raw = args[1]
        kind = peek_envelope(raw)[1].value
        tracer.count("server.requests")
        tracer.count("protocol.bytes", len(raw) + len(response))
        if kind in READ_KINDS:
            tracer.count("server.reads")
        if kind in WRITE_KINDS:
            tracer.count("server.write_request_bytes", len(raw))

    tracer.wrap_method(
        OutsourcedDatabaseServer, "handle_message", "server", root=True, observe=handled
    )
    _install_protocol(tracer)

    def searched(args, result, elapsed):
        # ScanAccess.search runs execute_query: count the outer call only.
        if "access" not in tracer.stack_tags():
            tracer.count("access.examined", result.examined)
            tracer.count("access.results", len(result.matching))

    for cls, name in (
        (IndexAccess, "search"),
        (ScanAccess, "search"),
        (OutsourcedDatabaseServer, "execute_query"),
    ):
        tracer.wrap_method(cls, name, "access", tag=lambda args: "access", observe=searched)
    tracer.wrap_method(
        SearchableServerEvaluator, "evaluate", "scan",
        observe=lambda args, result, elapsed: tracer.count(
            "scan.token_evaluations", result.token_evaluations
        ),
    )
    for cls in (storage.InMemoryStorageBackend, storage.FileStorageBackend):
        for name in ("load", "save", "append", "delete"):
            tracer.wrap_method(cls, name, "storage", opaque=True)
    # Bytes the file backend reads and writes, counted at its codec calls.
    tracer.patch(storage, "decode_encrypted_relation", tracer.counter(
        storage.decode_encrypted_relation,
        lambda args, result: tracer.count("storage.bytes_read", len(args[0])),
    ))
    # An append also writes the tuple's 4-byte length and rewrites the count.
    for name, overhead in (("encode_encrypted_relation", 0), ("encode_encrypted_tuple", 8)):
        tracer.patch(storage, name, tracer.counter(
            getattr(storage, name),
            lambda args, result, overhead=overhead: tracer.count(
                "storage.bytes_written", len(result) + overhead
            ),
        ))
    tracer.patch(os, "fsync", tracer.counter(
        os.fsync, lambda args, result: tracer.count("storage.fsyncs")
    ))


def delta(before: dict, after: dict) -> dict:
    """``after - before`` of two :meth:`LayerTracer.snapshot` results."""
    return {
        part: {
            name: value - before[part].get(name, 0.0)
            for name, value in after[part].items()
        }
        for part in ("self_s", "counts")
    }


def merge(*snapshots: dict) -> dict:
    merged = {"self_s": defaultdict(float), "counts": defaultdict(float)}
    for snapshot in snapshots:
        for part in merged:
            for name, value in snapshot[part].items():
                merged[part][name] += value
    return {part: dict(values) for part, values in merged.items()}


def breakdown(
    client: dict,
    provider: dict,
    *,
    ops: int,
    writes: int,
    dispatch_wait_s: float,
    failover_reads: int,
    traced_ops_per_s: float,
    untraced_ops_per_s: float,
) -> dict:
    """The per-layer metrics of one traced window.

    Client layers are timed where they run.  The transport wait (``net`` on
    the client: proxy round trips, or whole scatters) is the part of an
    operation spent on the providers and the wire; it is split in the ratio
    the providers report -- their own layers' self times, the dispatch
    queue wait, and the rest of the summed per-request round trip times as
    ``net``.  Concurrent shard requests overlap, so the split is scaled to
    the wait the session actually saw; *_per_op busy times therefore sum
    with ``residual_ms_per_op`` (the session API's own time) to
    ``api.busy_ms_per_op``.  *_per_read provider costs are unscaled: the
    provider's work per read request it served.
    """
    c_self, c_n = client["self_s"], client["counts"]
    p_self, p_n = provider["self_s"], provider["counts"]
    ops = max(ops, 1)
    remote_wall = c_self.get("net", 0.0)
    provider_total = p_self.get("<root>", 0.0)
    request_s = c_n.get("net.request_s", 0.0)
    net_raw = max(request_s - provider_total - dispatch_wait_s, 0.0)
    remote_raw = {
        "server": p_self.get("server", 0.0),
        "protocol": p_self.get("protocol", 0.0),
        "access": p_self.get("access", 0.0),
        "scan": p_self.get("scan", 0.0),
        "storage": p_self.get("storage", 0.0),
        "dispatch": dispatch_wait_s,
        "net": net_raw,
    }
    total_raw = sum(remote_raw.values())
    scale = remote_wall / total_raw if total_raw > 0 else 0.0
    layer_s = {name: value * scale for name, value in remote_raw.items()}
    for name in ("core", "index.client", "cluster", "cache"):
        layer_s[name] = c_self.get(name, 0.0)
    layer_s["protocol"] += c_self.get("protocol", 0.0)
    api_busy = c_self.get("<root>", 0.0)
    residual = api_busy - sum(layer_s.values())
    provider_reads = max(p_n.get("server.reads", 0.0), 1.0)
    read_scatters = c_n.get("cluster.read_scatters", 0.0)

    def ms_per_op(seconds: float) -> float:
        return 1000.0 * seconds / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "api.busy_ms_per_op": ms_per_op(api_busy),
        "core.client_ms_per_op": ms_per_op(layer_s["core"]),
        "core.false_positive_frac": ratio(
            c_n.get("core.false_positives", 0.0), c_n.get("core.returned", 0.0)
        ),
        "index.client_ms_per_op": ms_per_op(layer_s["index.client"]),
        "protocol.busy_ms_per_op": ms_per_op(layer_s["protocol"]),
        "protocol.bytes_per_op": p_n.get("protocol.bytes", 0.0) / ops,
        "net.wait_ms_per_op": ms_per_op(layer_s["net"]),
        "net.round_trips_per_op": p_n.get("server.requests", 0.0) / ops,
        "net.errors": c_n.get("net.errors", 0.0) + c_n.get("net.exceptions", 0.0),
        "dispatch.queue_wait_ms_per_op": ms_per_op(layer_s["dispatch"]),
        "cluster.busy_ms_per_op": ms_per_op(layer_s["cluster"]),
        "cluster.shard_requests_per_read": ratio(
            c_n.get("cluster.read_shard_requests", 0.0), read_scatters
        ),
        "cluster.slowest_shard_ms_per_read": 1000.0 * ratio(
            c_n.get("cluster.slowest_shard_s", 0.0), read_scatters
        ),
        "cluster.failover_reads": float(failover_reads),
        "cache.hit_ratio": ratio(c_n.get("cache.hits", 0.0), c_n.get("cache.lookups", 0.0)),
        "cache.invalidations_per_write": ratio(c_n.get("cache.invalidations", 0.0), writes),
        "cache.busy_ms_per_op": ms_per_op(layer_s["cache"]),
        "server.busy_ms_per_op": ms_per_op(layer_s["server"]),
        "access.busy_ms_per_op": ms_per_op(layer_s["access"]),
        "access.busy_ms_per_read": 1000.0 * p_self.get("access", 0.0) / provider_reads,
        "access.examined_per_result": ratio(
            p_n.get("access.examined", 0.0), p_n.get("access.results", 0.0)
        ),
        "scan.busy_ms_per_op": ms_per_op(layer_s["scan"]),
        "scan.busy_ms_per_read": 1000.0 * p_self.get("scan", 0.0) / provider_reads,
        "scan.token_evaluations_per_read": p_n.get("scan.token_evaluations", 0.0)
        / provider_reads,
        "storage.busy_ms_per_op": ms_per_op(layer_s["storage"]),
        "storage.bytes_read_per_op": p_n.get("storage.bytes_read", 0.0) / ops,
        "storage.write_amp": ratio(
            p_n.get("storage.bytes_written", 0.0), p_n.get("server.write_request_bytes", 0.0)
        ),
        "storage.fsyncs_per_write": ratio(p_n.get("storage.fsyncs", 0.0), writes),
        "residual_ms_per_op": ms_per_op(residual),
        "trace_overhead_frac": ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s),
    }


#: Layers whose *_per_op self times, with the residual, sum to api.busy.
BREAKDOWN_LAYERS = (
    "core.client_ms_per_op",
    "index.client_ms_per_op",
    "protocol.busy_ms_per_op",
    "cluster.busy_ms_per_op",
    "cache.busy_ms_per_op",
    "net.wait_ms_per_op",
    "dispatch.queue_wait_ms_per_op",
    "server.busy_ms_per_op",
    "access.busy_ms_per_op",
    "scan.busy_ms_per_op",
    "storage.busy_ms_per_op",
    "residual_ms_per_op",
)
