"""The shard router: one logical provider over a fleet of shards.

:class:`ShardRouter` implements the same request surface
:class:`~repro.api.EncryptedDatabase` and
:class:`~repro.outsourcing.client.OutsourcingClient` already consume --
byte-level :meth:`~ShardRouter.handle_message` plus the management calls --
so a session drives N providers exactly as it drives one.  Each backend is
either an in-process :class:`~repro.outsourcing.server.OutsourcedDatabaseServer`
(or anything with its request surface) or a ``tcp://host:port`` URL (opened
as an owned :class:`~repro.net.client.RemoteServerProxy`), mixed freely.
Shards are driven only through envelopes (each shard's ``handle_message``)
and the management calls; the router has no object-level data API.

Routing is per *encrypted tuple*: the consistent-hash ring of
:mod:`repro.cluster.ring` keys on the public random tuple id, so placement
is a function of values every provider sees anyway.  With a replication
factor R (``replicas=R``) every tuple lives on its R ring successors --
R distinct shards.  Operation shapes:

=======================  ================================================
``INSERT_TUPLE``         all R replica shards of the tuple id (fail-fast)
``DELETE_TUPLES_EXACT``  scatter the public ids to every shard (providers
                         ignore unknown ids, so this stays correct while
                         tuples are mid-migration or a rebalance is
                         deferred); the union of the per-shard deleted
                         ids is the exact logical outcome
``STORE_RELATION``       partitioned across all shards, each tuple stored
                         on its R successors (every shard stores the
                         relation, possibly empty, so queries can fan out)
``QUERY``                scatter to all shards, merge the evaluation
                         results (deduplicated by public tuple id)
``BATCH_QUERY``          scatter the whole batch, merge element-wise
``INDEX_LOOKUP``         scatter to all shards like ``QUERY`` (a shard
                         without the index answers by scan itself)
``INDEX_PUT`` /          replicate to every shard (each holds the whole
``INDEX_DELTA``          index)
``LIST_TUPLE_IDS``       scatter, answer the sorted union
=======================  ================================================

Writes always run fail-fast (a partially applied write is corruption).
Scatter reads first try to *fail over*: when some shards fail but every
ring segment still has a live replica (:meth:`ConsistentHashRing.covers`),
the surviving answers are provably complete after deduplication and the
read succeeds as if nothing happened -- no policy fires, nothing degrades.
Only when failover is impossible (more failures than replicas can absorb)
does the router fall back to its partial-failure ``policy``
(:data:`~repro.cluster.executor.FAIL_FAST` or
:data:`~repro.cluster.executor.DEGRADED`).

Merged reads deduplicate by the public tuple id: replication makes
multiple physical copies of one ciphertext the *normal* case, and the
insert-first rebalancer can leave transient duplicates after a crash, so
every read path collapses copies before answering (a tuple id is a random
nonce chosen at encryption time; two ciphertexts sharing it are the same
stored tuple, not a collision).

The coordinator (this class) runs client-side and is trusted; the providers
individually observe strictly less than the single-provider deployment --
each sees only its ``1/N`` of the ciphertexts and every query's fan-out,
which is the same access pattern the paper already concedes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from repro.cache import CacheError, ResultCache, coerce_cache_config
from repro.core.dph import (
    DphError,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
    ServerEvaluator,
)
from repro.cluster.executor import (
    ClusterError,
    FAIL_FAST,
    GatherResult,
    PARTIAL_FAILURE_POLICIES,
    ScatterGatherExecutor,
    resolve_outcomes,
)
from repro.cluster.ring import ConsistentHashRing, DEFAULT_VIRTUAL_NODES
from repro.obs import MetricsRegistry, merge_snapshots
from repro.outsourcing import protocol
from repro.outsourcing.protocol import Message, MessageKind, ProtocolError
from repro.outsourcing.server import ServerError
from repro.outsourcing.storage import StorageError

#: URL scheme of a sharded deployment: ``cluster://host:port,host:port,...``
CLUSTER_URL_PREFIX = "cluster://"


def parse_cluster_options(url: str) -> tuple[tuple[str, ...], dict]:
    """Split ``cluster://h1:p1,...?replicas=R&cache=1`` into URLs and options.

    Returns the per-shard ``tcp://`` URLs plus the parsed query options:
    ``replicas`` (the replication factor of the deployment), ``index``
    (the session maintains encrypted inverted indexes and serves exact
    selects through ``INDEX_LOOKUP``) and ``cache`` (the router keeps a
    coordinator-side result cache shared by every session it serves).
    ``async`` is still accepted, as a boolean, so URLs written for the
    removed pipelined transport keep opening; it selects nothing and is
    not returned.  Unknown options are rejected rather than ignored: a
    typo silently dropping ``?cache=1`` would be a silent performance
    change.
    """
    from repro.net.client import RemoteError, parse_bool_option, parse_tcp_url

    if not url.startswith(CLUSTER_URL_PREFIX):
        raise ClusterError(
            f"unsupported cluster URL {url!r} (want {CLUSTER_URL_PREFIX}host:port,...)"
        )
    rest = url[len(CLUSTER_URL_PREFIX):]
    options: dict = {}
    if "?" in rest:
        rest, _, query = rest.partition("?")
        for item in query.split("&"):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key == "replicas":
                try:
                    options["replicas"] = int(value)
                except ValueError as exc:
                    raise ClusterError(
                        f"cluster URL option replicas must be an integer, got {value!r}"
                    ) from exc
            elif key in ("async", "index", "cache"):
                try:
                    parsed = parse_bool_option(key, value)
                except RemoteError as exc:
                    raise ClusterError(str(exc)) from exc
                if key != "async":
                    options[key] = parsed
            else:
                raise ClusterError(
                    f"unknown cluster URL option {key!r} "
                    "(supported: replicas, index, cache)"
                )
    parts = [part.strip() for part in rest.split(",")]
    parts = [part for part in parts if part]
    if not parts:
        raise ClusterError(f"cluster URL {url!r} names no shards")
    urls = []
    for part in parts:
        tcp_url = part if part.startswith("tcp://") else f"tcp://{part}"
        try:
            parse_tcp_url(tcp_url)
        except RemoteError as exc:
            raise ClusterError(str(exc)) from exc
        if tcp_url in urls:
            raise ClusterError(f"cluster URL {url!r} lists shard {part!r} twice")
        urls.append(tcp_url)
    return tuple(urls), options


def parse_cluster_url(url: str) -> tuple[str, ...]:
    """Split ``cluster://h1:p1,h2:p2,...`` into per-shard ``tcp://`` URLs."""
    return parse_cluster_options(url)[0]


def merge_evaluation_results(
    results: Sequence[EvaluationResult],
) -> EvaluationResult:
    """Merge per-shard matches, one copy per public tuple id.

    Replication stores each ciphertext on R shards, and the insert-first
    rebalancer can leave a transient extra copy after a crash, so the same
    tuple id may arrive from several shards; answering it once is what
    keeps query multiplicities exact.  The server-side work counters
    (``examined``/``token_evaluations``) stay summed -- they measure work
    the fleet really performed, duplicates included.
    """
    if not results:
        raise ClusterError("cannot merge zero evaluation results")
    tuples: list[EncryptedTuple] = []
    seen: set[bytes] = set()
    examined = 0
    token_evaluations = 0
    for result in results:
        for encrypted_tuple in result.matching.encrypted_tuples:
            if encrypted_tuple.tuple_id in seen:
                continue
            seen.add(encrypted_tuple.tuple_id)
            tuples.append(encrypted_tuple)
        examined += result.examined
        token_evaluations += result.token_evaluations
    return EvaluationResult(
        matching=EncryptedRelation(
            schema=results[0].matching.schema, encrypted_tuples=tuple(tuples)
        ),
        examined=examined,
        token_evaluations=token_evaluations,
    )


class ClusterStats:
    """Counters of the router's scatter-gather activity.

    The counters live in a :class:`~repro.obs.MetricsRegistry` (as
    ``cluster_<name>_total``), so one registry snapshot covers transport,
    provider, and routing activity alike; every historical attribute read
    (``stats.scatter_reads``, ...) keeps working through ``__getattr__``
    and :meth:`as_dict` keeps its key set.  Several sessions may share one
    router from their own threads, so mutations go through the
    ``record_*`` methods (registry counters carry their own locks; the
    last-shard-id tuples share this object's lock) and :meth:`as_dict`
    returns an atomic snapshot of the tuple pair.
    """

    # :meth:`as_dict` reads the counters in this order, one at a time.  A
    # degraded or failover read is recorded after its scatter read, so
    # reading those two before ``scatter_reads`` keeps every concurrent
    # snapshot consistent (never more degraded than scatter reads).
    _COUNTERS = (
        "degraded_reads",
        #: see record_failover_read: reads completed via surviving replicas.
        "failover_reads",
        "scatter_reads",
        "routed_inserts",
        # ``INDEX_LOOKUP`` scatters routed across the fleet.
        "index_lookups",
        # ``INDEX_PUT`` / ``INDEX_DELTA`` fan-outs.
        "index_writes",
    )

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        self._metrics = registry
        self._counters = {
            name: registry.counter(f"cluster_{name}_total") for name in self._COUNTERS
        }
        self._lock = threading.Lock()
        #: Shards missing from the most recent degraded read.
        self.last_missing_shard_ids: tuple[str, ...] = ()
        #: Shards whose failure the most recent failover read absorbed.
        self.last_failover_shard_ids: tuple[str, ...] = ()

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding the routing counters."""
        return self._metrics

    def __getattr__(self, name: str) -> int:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def record_scatter_read(self) -> None:
        self._counters["scatter_reads"].inc()

    def record_routed_insert(self) -> None:
        self._counters["routed_inserts"].inc()

    def record_index_lookup(self) -> None:
        self._counters["index_lookups"].inc()

    def record_index_write(self) -> None:
        self._counters["index_writes"].inc()

    def record_degraded_read(self, missing_shard_ids: Sequence[str]) -> None:
        self._counters["degraded_reads"].inc()
        with self._lock:
            self.last_missing_shard_ids = tuple(missing_shard_ids)

    def record_failover_read(self, failed_shard_ids: Sequence[str]) -> None:
        self._counters["failover_reads"].inc()
        with self._lock:
            self.last_failover_shard_ids = tuple(failed_shard_ids)

    def as_dict(self) -> dict:
        counts = {name: self._counters[name].value for name in self._COUNTERS}
        with self._lock:
            counts["last_missing_shard_ids"] = list(self.last_missing_shard_ids)
            counts["last_failover_shard_ids"] = list(self.last_failover_shard_ids)
        return counts


@dataclass
class _Shard:
    """One backend: the provider (or proxy) plus ownership bookkeeping."""

    shard_id: str
    server: Any
    #: True when the router opened this backend itself (a tcp:// proxy) and
    #: is therefore responsible for closing it.
    owned: bool = False


class ShardRouter:
    """One logical :class:`OutsourcedDatabaseServer` spread over many shards."""

    def __init__(
        self,
        shards: Sequence[Any],
        *,
        shard_ids: Sequence[str] | None = None,
        replicas: int = 1,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        policy: str = FAIL_FAST,
        shard_timeout: float | None = None,
        timeout: float | None = 30.0,
        cache=None,
    ) -> None:
        """Build a router over backends (server objects and/or tcp:// URLs).

        Parameters
        ----------
        shards:
            The backends.  A string is treated as a ``tcp://host:port`` URL
            and opened as an owned proxy; anything else must offer the
            request surface of
            :class:`~repro.outsourcing.server.OutsourcedDatabaseServer`
            (``handle_message`` plus the management calls).
        shard_ids:
            Ring identifiers, one per backend.  Defaults to the URL for URL
            shards and ``shard-<index>`` for object shards.  Identifiers are
            the ring's key space: reuse the same ids (and order, for the
            positional defaults) across coordinator restarts, or tuples will
            appear misplaced until a rebalance.
        replicas:
            Replication factor R: every tuple is written to its R ring
            successor shards (fail-fast), so reads stay complete with up to
            R-1 shards down.  Needs at least R shards; 1 disables
            replication.
        virtual_nodes:
            Virtual nodes per shard on the ring.
        policy:
            Partial-failure policy for scatter reads whose failures exceed
            what the replicas can absorb (``fail_fast`` or ``degraded``);
            writes are always fail-fast.
        shard_timeout:
            Per-shard gather timeout in seconds, one budget all shards of a
            scatter spend at once (None bounds a remote shard's wait by
            ``timeout`` alone).
        timeout:
            Timeout of the proxies opened for URL shards: the longest one
            request may take, connect included.  It also bounds each
            small management call (register, relation names, drop,
            per-shard counts), which visit the shards one at a time.
        cache:
            Keep a coordinator-side result cache (see :mod:`repro.cache`):
            repeated hot reads are answered from the router's memory
            before any shard is touched, and the cache is shared by every
            session this router serves.  Invalidation rides the existing
            write paths (ring-routed inserts invalidate only the owning
            relation, delete fan-outs likewise; membership changes and
            rebalances flush everything), and degraded reads are never
            cached, so replication and failover cannot resurrect stale
            entries.  ``True`` enables the defaults; an int sets the entry
            budget; a :class:`~repro.cache.CacheConfig` (or dict of its
            fields) sets everything (``cluster://...?cache=1``).  Off by
            default.
        """
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        if replicas < 1:
            raise ClusterError("the replication factor must be at least 1")
        if replicas > len(shards):
            raise ClusterError(
                f"replication factor {replicas} needs at least {replicas} "
                f"shard(s), got {len(shards)}"
            )
        if policy not in PARTIAL_FAILURE_POLICIES:
            raise ClusterError(
                f"unknown partial-failure policy {policy!r} "
                f"(choose from {PARTIAL_FAILURE_POLICIES})"
            )
        if shard_ids is not None and len(shard_ids) != len(shards):
            raise ClusterError(
                f"{len(shards)} shard(s) but {len(shard_ids)} shard id(s)"
            )
        self._policy = policy
        self._replication = replicas
        self._timeout = timeout
        self._shards: dict[str, _Shard] = {}
        self._ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        self._evaluators: dict[str, ServerEvaluator] = {}
        self._schemas: dict[str, Any] = {}
        self._metrics = MetricsRegistry()
        self._stats = ClusterStats(metrics=self._metrics)
        try:
            cache_config = coerce_cache_config(cache)
        except CacheError as exc:
            raise ClusterError(str(exc)) from exc
        self._cache = (
            ResultCache(cache_config, metrics=self._metrics, tier="coordinator")
            if cache_config is not None
            else None
        )
        self._closed = False
        self._executor = ScatterGatherExecutor(timeout=shard_timeout)
        try:
            for index, backend in enumerate(shards):
                explicit = shard_ids[index] if shard_ids is not None else None
                shard = self._open_backend(backend, explicit, index)
                if shard.shard_id in self._shards:
                    if shard.owned:
                        shard.server.close()
                    raise ClusterError(f"duplicate shard id {shard.shard_id!r}")
                self._shards[shard.shard_id] = shard
                self._ring.add_shard(shard.shard_id)
        except BaseException:
            self.close()
            raise

    @classmethod
    def connect(
        cls,
        url: str,
        *,
        replicas: int | None = None,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        policy: str = FAIL_FAST,
        shard_timeout: float | None = None,
        timeout: float | None = 30.0,
        cache=None,
    ) -> "ShardRouter":
        """Open a router from a ``cluster://h1:p1[?replicas=R&cache=1]`` URL.

        The replication factor and the coordinator cache can come from the
        URL query or the keywords (they must agree when both are given);
        replication defaults to 1, the cache to off.
        """
        urls, options = parse_cluster_options(url)
        url_replicas = options.get("replicas")
        if replicas is None:
            replicas = url_replicas if url_replicas is not None else 1
        elif url_replicas is not None and url_replicas != replicas:
            raise ClusterError(
                f"conflicting replication factors: the URL says "
                f"{url_replicas}, the caller says {replicas}"
            )
        url_cache = options.get("cache")
        if cache is None:
            cache = bool(url_cache) if url_cache is not None else None
        elif url_cache is not None and bool(url_cache) != bool(cache):
            raise ClusterError(
                f"conflicting cache settings: the URL says cache={url_cache}, "
                f"the caller says cache={cache}"
            )
        return cls(
            urls,
            replicas=replicas,
            virtual_nodes=virtual_nodes,
            policy=policy,
            shard_timeout=shard_timeout,
            timeout=timeout,
            cache=cache,
        )

    @classmethod
    def from_manifest(
        cls,
        manifest,
        *,
        policy: str = FAIL_FAST,
        shard_timeout: float | None = None,
        timeout: float | None = 30.0,
        cache=None,
    ) -> "ShardRouter":
        """Open a router from a :class:`~repro.cluster.manifest.ClusterManifest`.

        The manifest supplies the topology -- shard URLs *and their stable
        ring ids*, replication factor, virtual-node count -- so a
        coordinator restart reproduces the placement ring exactly (no
        tuples look misplaced just because the shard order changed hands).
        Runtime knobs (policy, timeouts, cache) stay caller-side.
        """
        return cls(
            manifest.shard_urls,
            shard_ids=manifest.shard_ids,
            replicas=manifest.replicas,
            virtual_nodes=manifest.virtual_nodes,
            policy=policy,
            shard_timeout=shard_timeout,
            timeout=timeout,
            cache=cache,
        )

    def _open_backend(
        self, backend: Any, shard_id: str | None, index: int
    ) -> _Shard:
        if isinstance(backend, str):
            from repro.net.client import RemoteServerProxy

            proxy = RemoteServerProxy.connect(backend, timeout=self._timeout)
            return _Shard(
                shard_id=shard_id if shard_id is not None else backend,
                server=proxy,
                owned=True,
            )
        return _Shard(
            shard_id=shard_id if shard_id is not None else self._free_shard_id(index),
            server=backend,
        )

    def _free_shard_id(self, index: int) -> str:
        """First unused positional id (an earlier remove may have freed one)."""
        while f"shard-{index}" in self._shards:
            index += 1
        return f"shard-{index}"

    # ------------------------------------------------------------------ #
    # Cluster introspection
    # ------------------------------------------------------------------ #

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """Ring identifiers of the shards, in insertion order."""
        return tuple(self._shards)

    @property
    def ring(self) -> ConsistentHashRing:
        """The placement ring (shared, do not mutate directly)."""
        return self._ring

    @property
    def policy(self) -> str:
        """Partial-failure policy applied to scatter reads."""
        return self._policy

    @property
    def replication(self) -> int:
        """Replication factor R: physical copies stored per tuple."""
        return self._replication

    @property
    def stats(self) -> ClusterStats:
        """Scatter/routing counters."""
        return self._stats

    @property
    def cache(self) -> ResultCache | None:
        """The coordinator-side result cache, or None when disabled."""
        return self._cache

    def shard(self, shard_id: str) -> Any:
        """The backend registered under one ring identifier."""
        try:
            return self._shards[shard_id].server
        except KeyError as exc:
            raise ClusterError(f"no shard named {shard_id!r}") from exc

    def shard_for(self, tuple_id: bytes) -> str:
        """The primary shard of a tuple id (its first ring successor)."""
        return self._ring.assign(tuple_id)

    def replica_shards(self, tuple_id: bytes) -> tuple[str, ...]:
        """The R shards storing a tuple id, primary first."""
        return self._ring.successors(tuple_id, self._replication)

    def per_shard_tuple_counts(self, name: str) -> dict[str, int]:
        """Ciphertext count of one relation on every shard."""
        gathered = self._gather(
            f"tuple-count({name!r})",
            [(s.shard_id, (lambda sv: lambda: sv.tuple_count(name))(s.server))
             for s in self._shards.values()],
            policy=FAIL_FAST,
        )
        return dict(zip(self.shard_ids, gathered.values))

    def cluster_status(self) -> dict[str, dict]:
        """Best-effort per-shard health/stats snapshot (never raises)."""
        status: dict[str, dict] = {}
        for shard in self._shards.values():
            try:
                names = tuple(shard.server.relation_names)
                entry: dict[str, Any] = {
                    "ok": True,
                    "relations": {n: shard.server.tuple_count(n) for n in names},
                }
                remote_stats = getattr(shard.server, "server_stats", None)
                if remote_stats is not None:
                    entry["stats"] = remote_stats()
                else:
                    entry["audit"] = shard.server.audit_log.summary()
            except Exception as exc:  # noqa: BLE001 - a status probe never raises
                entry = {"ok": False, "error": str(exc)}
            status[shard.shard_id] = entry
        if self._cache is not None:
            # The coordinator itself is part of the serving picture when it
            # absorbs reads; consumers iterating per-shard entries can key
            # on "cache" to tell this row apart (it still reports ok=True).
            status["coordinator-cache"] = {"ok": True, "cache": self._cache.stats()}
        return status

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding the router's own counters and histograms."""
        return self._metrics

    def metrics_snapshot(self) -> dict:
        """One merged snapshot: the router's registry plus every shard's.

        Shards that cannot answer (dead, or builds without the metrics
        plane) are skipped -- a metrics probe never raises.  Histograms
        merge exactly because every registry shares the fixed bucket
        bounds.
        """
        snapshots = [self._metrics.snapshot()]
        for shard in self._shards.values():
            try:
                local = getattr(shard.server, "metrics_snapshot", None)
                if local is not None:
                    snapshots.append(local())
                    continue
                remote = getattr(shard.server, "metrics", None)
                if callable(remote):  # a proxy's metrics control op
                    snapshot = remote().get("metrics")
                    if snapshot:
                        snapshots.append(snapshot)
            except Exception:  # noqa: BLE001 - a metrics probe never raises
                continue
        return merge_snapshots(*snapshots)

    def collect_trace(self, trace_id: bytes) -> list[dict]:
        """Every span the fleet recorded under ``trace_id``, shard-tagged.

        Fans the ``trace`` control operation out to shards that support it
        (older builds simply contribute nothing) and annotates each span
        with the shard it came from; per-shard failures are suppressed --
        trace assembly is diagnostics, not serving.
        """
        spans: list[dict] = []
        for shard in self._shards.values():
            collector = getattr(shard.server, "collect_trace", None)
            if collector is None:
                continue
            try:
                shard_spans = collector(trace_id)
            except Exception:  # noqa: BLE001 - a trace probe never raises
                continue
            for entry in shard_spans:
                tagged = dict(entry)
                annotations = dict(tagged.get("annotations") or {})
                annotations.setdefault("shard_id", shard.shard_id)
                tagged["annotations"] = annotations
                spans.append(tagged)
        return spans

    def close(self) -> None:
        """Close owned backends.

        Idempotent: several sessions may share one router (the coordinator
        cache deployment), and each closing session closes its server.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._shards.values():
            if shard.owned:
                shard.server.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The provider's request surface: session management
    # ------------------------------------------------------------------ #

    def register_evaluator(self, name: str, evaluator: ServerEvaluator) -> None:
        """Deploy the keyless evaluator on every shard."""
        self._gather(
            f"register-evaluator({name!r})",
            self._all_shards(lambda server: server.register_evaluator(name, evaluator)),
            policy=FAIL_FAST,
        )
        self._evaluators[name] = evaluator

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Union of the shards' relations, first-seen order preserved."""
        gathered = self._gather(
            "relation-names",
            self._all_shards(lambda server: tuple(server.relation_names)),
            policy=FAIL_FAST,
        )
        names: list[str] = []
        for shard_names in gathered.values:
            for name in shard_names:
                if name not in names:
                    names.append(name)
        return tuple(names)

    def stored_relation(self, name: str) -> EncryptedRelation:
        """The logical ciphertext relation, reassembled from every shard.

        Each tuple id appears exactly once, however many physical copies
        the fleet holds (replicas, or transient migration duplicates).
        Reassembly must be complete: a dead shard is tolerated only when
        surviving replicas still cover its data (read failover); otherwise
        the call fails fast regardless of the read policy.
        """
        calls = []
        for shard in self._shards.values():
            # A remote shard's fetch is a socket call, so the copies
            # travel in parallel; an in-process shard is called inline.
            split = getattr(shard.server, "stored_relation_call", None)
            if split is not None:
                calls.append((shard.shard_id, split(name)))
            else:
                calls.append((shard.shard_id, partial(shard.server.stored_relation, name)))
        gathered = self._gather(
            f"stored-relation({name!r})",
            calls,
            policy=FAIL_FAST,  # reassembling data must be complete
            read=True,
        )
        tuples: list[EncryptedTuple] = []
        seen: set[bytes] = set()
        for piece in gathered.values:
            for encrypted_tuple in piece.encrypted_tuples:
                if encrypted_tuple.tuple_id in seen:
                    continue
                seen.add(encrypted_tuple.tuple_id)
                tuples.append(encrypted_tuple)
        return EncryptedRelation(
            schema=gathered.values[0].schema, encrypted_tuples=tuple(tuples)
        )

    def tuple_count(self, name: str) -> int:
        """Logical tuple count: distinct tuple ids across the fleet.

        Physical copies count once, so the number always matches what a
        query can return -- replication (R copies per tuple) and crash
        duplicates never inflate it.  :meth:`per_shard_tuple_counts` still
        reports the raw physical counts (cheap metadata reads) for
        placement introspection.  Each shard answers with its *id list*
        (the ``LIST_TUPLE_IDS`` op) rather than its stored ciphertexts,
        so the wire cost is ``O(ids)`` instead of ``O(data * R)``.
        """
        return len(self._distinct_tuple_ids(name))

    def list_tuple_ids(self, name: str) -> tuple[bytes, ...]:
        """Distinct public tuple ids across the fleet (sorted, each once)."""
        return tuple(sorted(self._distinct_tuple_ids(name)))

    def _distinct_tuple_ids(self, name: str, raw: bytes | None = None) -> set[bytes]:
        """Scatter ``LIST_TUPLE_IDS`` (``raw``, or a fresh envelope); the union."""
        envelope = raw or Message(
            kind=MessageKind.LIST_TUPLE_IDS, relation_name=name
        ).to_bytes()
        gathered = self._gather_envelopes(
            f"list-tuple-ids({name!r})",
            {shard_id: envelope for shard_id in self._shards},
            expect=MessageKind.TUPLE_IDS,
            policy=FAIL_FAST,
            read=True,
        )
        ids: set[bytes] = set()
        for response in gathered.values:
            ids.update(protocol.decode_tuple_ids(response.body))
        return ids

    def drop_relation(self, name: str) -> None:
        """Drop the relation on every shard (fail-fast: no half-dropped state)."""
        try:
            self._gather(
                f"drop-relation({name!r})",
                self._all_shards(lambda server: server.drop_relation(name)),
                policy=FAIL_FAST,
            )
        finally:
            self._invalidate_cache(name)
        self._evaluators.pop(name, None)
        self._schemas.pop(name, None)

    def _invalidate_cache(self, relation: str) -> None:
        """Bump the coordinator cache's generation for one relation."""
        if self._cache is not None:
            self._cache.invalidate(relation)

    def _flush_cache(self) -> None:
        """Conservative full flush: data may have moved between shards."""
        if self._cache is not None:
            self._cache.flush()

    # ------------------------------------------------------------------ #
    # The provider's request surface: wire level
    # ------------------------------------------------------------------ #

    def handle_message(self, raw: bytes) -> bytes:
        """Route one protocol envelope across the fleet.

        Mirrors the single-provider contract: failures inside a well-formed
        request come back as ``ERROR`` envelopes, not exceptions.
        """
        request = protocol.parse_message(raw)
        try:
            return self._route_envelope(request, raw)
        except (ServerError, StorageError, ProtocolError, DphError, ValueError) as exc:
            return self._respond(
                request, MessageKind.ERROR, str(exc).encode("utf-8")
            ).to_bytes()

    #: Envelope kinds that mutate a relation's data (or its index): each
    #: invalidates the coordinator cache's entries for that relation, even
    #: on failure -- a fail-fast write can still have landed on some
    #: replicas before failing, and one extra miss beats one stale hit.
    _WRITE_KINDS = frozenset(
        {
            MessageKind.INSERT_TUPLE,
            MessageKind.STORE_RELATION,
            MessageKind.DELETE_TUPLES_EXACT,
            MessageKind.INDEX_PUT,
            MessageKind.INDEX_DELTA,
        }
    )

    def _route_envelope(self, request: Message, raw: bytes) -> bytes:
        """Cache-aware routing: reads consult the coordinator cache, writes
        invalidate it; everything else goes straight to the fleet."""
        if self._cache is not None:
            kind = request.kind
            if kind in self._WRITE_KINDS:
                try:
                    return self._route_envelope_uncached(request, raw)
                finally:
                    self._cache.invalidate(request.relation_name)
            if kind in (MessageKind.QUERY, MessageKind.INDEX_LOOKUP):
                return self._cached_query(request, raw)
            if kind is MessageKind.BATCH_QUERY:
                return self._cached_batch(request, raw)
        return self._route_envelope_uncached(request, raw)

    def _cached_query(self, request: Message, raw: bytes) -> bytes:
        """Serve one QUERY or INDEX_LOOKUP from the cache, or scatter and fill.

        The token is the envelope body.  For a QUERY that is the encoded
        encrypted query, shared with the batch path, so a single-query fill
        serves later batch elements and vice versa; an indexed session
        re-asks a hot lookup with byte-identical labels, so its token
        repeats the same way.  Only *complete* answers are cached: a
        degraded read (some ring segment unanswered) is correct to serve
        once but must not be replayed after the shards recover.
        """
        name = request.relation_name
        token = (request.kind.value, request.body)
        merged = self._cache.lookup(name, token)
        if merged is None:
            generation = self._cache.generation(name)
            merged, complete = self._scatter_query(request, raw)
            if complete:
                self._cache.put(name, token, merged, generation)
        return self._respond(
            request, MessageKind.QUERY_RESULT, protocol.encode_evaluation_result(merged)
        ).to_bytes()

    def _cached_batch(self, request: Message, raw: bytes) -> bytes:
        """Element-wise batch caching: only the missing queries scatter."""
        name = request.relation_name
        queries = protocol.decode_query_batch(request.body)
        tokens = [("query", protocol.encode_encrypted_query(q)) for q in queries]
        results: list[EvaluationResult | None] = [
            self._cache.lookup(name, token) for token in tokens
        ]
        missing = [i for i, result in enumerate(results) if result is None]
        if missing:
            generation = self._cache.generation(name)
            sub_raw = self._respond(
                request,
                MessageKind.BATCH_QUERY,
                protocol.encode_query_batch([queries[i] for i in missing]),
            ).to_bytes()
            fetched, complete = self._scatter_batch(request, sub_raw)
            if len(fetched) != len(missing):
                raise ClusterError(
                    f"shards answered {len(fetched)} results "
                    f"for {len(missing)} queries"
                )
            for position, result in zip(missing, fetched):
                results[position] = result
                if complete:
                    self._cache.put(name, tokens[position], result, generation)
        return self._respond(
            request,
            MessageKind.BATCH_RESULT,
            protocol.encode_result_batch(results),
        ).to_bytes()

    def _route_envelope_uncached(self, request: Message, raw: bytes) -> bytes:
        kind = request.kind
        if kind is MessageKind.INSERT_TUPLE:
            encrypted_tuple, consumed = protocol.decode_encrypted_tuple(request.body)
            if consumed != len(request.body):
                raise ProtocolError("trailing bytes after encrypted tuple")
            targets = self.replica_shards(encrypted_tuple.tuple_id)
            self._stats.record_routed_insert()
            if len(targets) == 1:  # unreplicated fast path: no scatter hop
                shard_id = targets[0]
                try:
                    return self.shard(shard_id).handle_message(raw)
                except (ServerError, StorageError, ProtocolError, DphError, ValueError):
                    raise
                except Exception as exc:  # a dying backend must not escape the envelope contract
                    raise ClusterError(f"shard {shard_id!r} failed: {exc}") from exc
            # Replicated insert: every replica must apply it (fail-fast) or
            # the write as a whole fails -- a partial write is corruption.
            gathered = self._gather_envelopes(
                f"insert-tuple({request.relation_name!r})",
                {shard_id: raw for shard_id in targets},
                expect=MessageKind.ACK,
                policy=FAIL_FAST,
            )
            return gathered.values[0].to_bytes()
        if kind is MessageKind.STORE_RELATION:
            encrypted_relation = protocol.decode_encrypted_relation(request.body)
            self._scatter_store(request, encrypted_relation)
            return self._respond(
                request, MessageKind.ACK, protocol.encode_count(len(encrypted_relation))
            ).to_bytes()
        if kind in (MessageKind.QUERY, MessageKind.INDEX_LOOKUP):
            merged, _ = self._scatter_query(request, raw)
            return self._respond(
                request,
                MessageKind.QUERY_RESULT,
                protocol.encode_evaluation_result(merged),
            ).to_bytes()
        if kind is MessageKind.BATCH_QUERY:
            merged_batch, _ = self._scatter_batch(request, raw)
            return self._respond(
                request,
                MessageKind.BATCH_RESULT,
                protocol.encode_result_batch(merged_batch),
            ).to_bytes()
        if kind is MessageKind.LIST_TUPLE_IDS:
            ids = self._distinct_tuple_ids(request.relation_name, raw)
            return self._respond(
                request, MessageKind.TUPLE_IDS, protocol.encode_tuple_ids(sorted(ids))
            ).to_bytes()
        if kind is MessageKind.DELETE_TUPLES_EXACT:
            # Every shard gets the full id list: ring ownership is a
            # *placement* policy, not an invariant -- a deferred rebalance
            # or a crash mid-migration can leave a tuple (or its transient
            # duplicate) off its owner, and providers ignore ids they do
            # not hold.  The union of per-shard outcomes is the exact
            # logical id set (each physical copy reports the same id).
            gathered = self._gather_envelopes(
                f"delete-tuples-exact({request.relation_name!r})",
                {shard_id: raw for shard_id in self._shards},
                expect=MessageKind.TUPLE_IDS,
                policy=FAIL_FAST,
            )
            deleted: set[bytes] = set()
            for response in gathered.values:
                deleted.update(protocol.decode_tuple_ids(response.body))
            return self._respond(
                request,
                MessageKind.TUPLE_IDS,
                protocol.encode_tuple_ids(sorted(deleted)),
            ).to_bytes()
        if kind in (MessageKind.INDEX_PUT, MessageKind.INDEX_DELTA):
            # Index writes replicate fleet-wide: every shard holds the whole
            # index (it is compact soft state), so lookups stay correct under
            # any placement -- rebalances, crash duplicates, replica reads.
            self._stats.record_index_write()
            gathered = self._gather_envelopes(
                f"{kind.value}({request.relation_name!r})",
                {shard_id: raw for shard_id in self._shards},
                expect=MessageKind.ACK,
                policy=FAIL_FAST,
            )
            counts = [protocol.decode_count(response.body) for response in gathered.values]
            return self._respond(
                request, MessageKind.ACK, protocol.encode_count(max(counts))
            ).to_bytes()
        raise ClusterError(f"cannot route message kind {kind.value!r}")

    def _scatter_store(
        self, request: Message, encrypted_relation: EncryptedRelation
    ) -> None:
        self._schemas[request.relation_name] = encrypted_relation.schema
        groups = self._partition_tuples(encrypted_relation)
        envelopes = {}
        for shard_id, tuples in groups.items():
            shard_relation = EncryptedRelation(
                schema=encrypted_relation.schema, encrypted_tuples=tuple(tuples)
            )
            envelopes[shard_id] = self._respond(
                request,
                MessageKind.STORE_RELATION,
                protocol.encode_encrypted_relation(shard_relation),
            ).to_bytes()
        self._gather_envelopes(
            f"store-relation({request.relation_name!r})",
            envelopes,
            expect=MessageKind.ACK,
            policy=FAIL_FAST,
        )

    def _scatter_query(
        self, request: Message, raw: bytes
    ) -> tuple[EvaluationResult, bool]:
        """The merged result plus whether it is *complete* (not degraded).

        Failover reads are complete -- the survivors provably cover every
        ring segment -- so they stay cacheable; only a DEGRADED-policy
        answer that actually lost data reports False.  Serves ``QUERY``
        and ``INDEX_LOOKUP`` alike: both answer ``QUERY_RESULT``.
        """
        if request.kind is MessageKind.INDEX_LOOKUP:
            self._stats.record_index_lookup()
        gathered = self._gather_envelopes(
            f"{request.kind.value}({request.relation_name!r})",
            {shard_id: raw for shard_id in self._shards},
            expect=MessageKind.QUERY_RESULT,
            policy=self._policy,
            read=True,
        )
        results = [
            protocol.decode_query_result(response.body) for response in gathered.values
        ]
        return merge_evaluation_results(results), not gathered.degraded

    def _scatter_batch(
        self, request: Message, raw: bytes
    ) -> tuple[list[EvaluationResult], bool]:
        gathered = self._gather_envelopes(
            f"batch-query({request.relation_name!r})",
            {shard_id: raw for shard_id in self._shards},
            expect=MessageKind.BATCH_RESULT,
            policy=self._policy,
            read=True,
        )
        per_shard = [
            protocol.decode_result_batch(response.body) for response in gathered.values
        ]
        lengths = {len(results) for results in per_shard}
        if len(lengths) != 1:
            raise ClusterError(
                f"shards answered differing batch sizes: {sorted(lengths)}"
            )
        merged = [
            merge_evaluation_results([results[i] for results in per_shard])
            for i in range(lengths.pop())
        ]
        return merged, not gathered.degraded

    def _gather_envelopes(
        self,
        operation: str,
        envelopes: dict[str, bytes],
        *,
        expect: MessageKind,
        policy: str,
        read: bool = False,
    ) -> GatherResult:
        """Scatter per-shard envelopes and check every reply's kind.

        A remote shard's envelope becomes a socket call
        (:meth:`~repro.net.client.RemoteServerProxy.envelope_call`), so the
        executor sends them all before waiting on any; an in-process shard
        is called inline.
        """
        calls = [
            (shard_id, self._envelope_call(shard_id, envelope, expect))
            for shard_id, envelope in envelopes.items()
        ]
        return self._gather(operation, calls, policy=policy, read=read)

    def _envelope_call(self, shard_id: str, envelope: bytes, expect: MessageKind):
        """A socket call for a remote shard, a thunk for an in-process one."""
        server = self.shard(shard_id)

        def check(reply: bytes) -> Message:
            try:
                return protocol.check_reply(reply, expect)
            except ProtocolError as exc:
                raise ClusterError(f"shard {shard_id!r}: {exc}") from exc

        split = getattr(server, "envelope_call", None)
        if split is not None:
            return split(envelope, check)
        return lambda: check(server.handle_message(envelope))

    # ------------------------------------------------------------------ #
    # Elastic membership
    # ------------------------------------------------------------------ #

    def add_shard(
        self, backend: Any, shard_id: str | None = None, *, rebalance: bool = True
    ):
        """Grow the fleet by one shard and migrate its ring share onto it.

        The new shard is primed with every known relation (its evaluator and
        an empty partition) before it joins the ring, so scatter reads never
        observe a shard without the relation.  Requires every relation's
        evaluator to have been registered through this router.

        Returns the :class:`~repro.cluster.rebalance.RebalanceReport` (or
        None with ``rebalance=False``, leaving existing tuples in place
        until :meth:`rebalance` runs).
        """
        names = self.relation_names
        missing = [name for name in names if name not in self._evaluators]
        if missing:
            raise ClusterError(
                f"cannot prime a new shard: no evaluator registered through this "
                f"router for relation(s) {missing} (register_evaluator them first)"
            )
        shard = self._open_backend(backend, shard_id, len(self._shards))
        if shard.shard_id in self._shards:
            if shard.owned:
                shard.server.close()
            raise ClusterError(f"duplicate shard id {shard.shard_id!r}")
        try:
            for name in names:
                empty = EncryptedRelation(
                    schema=self._any_schema(name), encrypted_tuples=()
                )
                shard.server.register_evaluator(name, self._evaluators[name])
                protocol.request(
                    shard.server,
                    MessageKind.STORE_RELATION,
                    name,
                    protocol.encode_encrypted_relation(empty),
                    expect=MessageKind.ACK,
                )
        except BaseException as exc:
            if shard.owned:
                shard.server.close()
            if isinstance(exc, ProtocolError):
                raise ClusterError(f"shard {shard.shard_id!r}: {exc}") from exc
            raise
        self._shards[shard.shard_id] = shard
        self._ring.add_shard(shard.shard_id)
        # The ring changed: routed reads may now land on the (still empty)
        # newcomer, so no pre-join cache entry may survive.
        self._flush_cache()
        if not rebalance:
            return None
        return self.rebalance()

    def remove_shard(self, shard_id: str, *, drain: bool = True):
        """Shrink the fleet, draining the leaving shard's tuples first.

        With ``drain=True`` the leaving shard is taken off the ring and a
        replica-aware rebalance runs over the whole fleet (the leaving
        backend included as a copy source), so every tuple ends up on its R
        new ring successors -- the replication factor is restored, not just
        the leaving shard's data rehomed.  The relations are then dropped
        from the leaving shard before it is detached (and closed, when
        owned).  Returns the
        :class:`~repro.cluster.rebalance.RebalanceReport` of the drain.

        Removal below R shards is refused: the remaining fleet could not
        hold R distinct copies of anything.
        """
        from repro.cluster.rebalance import RebalanceReport
        from repro.cluster.rebalance import rebalance as run_rebalance

        if shard_id not in self._shards:
            raise ClusterError(f"no shard named {shard_id!r}")
        if len(self._shards) == 1:
            raise ClusterError("cannot remove the last shard")
        if len(self._shards) - 1 < self._replication:
            raise ClusterError(
                f"removing shard {shard_id!r} would leave "
                f"{len(self._shards) - 1} shard(s), fewer than the "
                f"replication factor {self._replication}"
            )
        leaving = self._shards[shard_id]
        self._ring.remove_shard(shard_id)
        report = RebalanceReport()
        try:
            if drain:
                report = run_rebalance(
                    {sid: shard.server for sid, shard in self._shards.items()},
                    self._ring,
                    self.relation_names,
                    replication=self._replication,
                )
                for name in tuple(leaving.server.relation_names):
                    leaving.server.drop_relation(name)
        except BaseException:
            # Put the shard back: its data was not (fully) drained.
            self._ring.add_shard(shard_id)
            self._flush_cache()
            raise
        del self._shards[shard_id]
        self._flush_cache()
        if leaving.owned:
            leaving.server.close()
        return report

    def rebalance(self):
        """Repair every tuple's placement to exactly its R ring successors."""
        from repro.cluster.rebalance import rebalance as run_rebalance

        try:
            return run_rebalance(
                {shard_id: shard.server for shard_id, shard in self._shards.items()},
                self._ring,
                self.relation_names,
                replication=self._replication,
            )
        finally:
            # Tuples moved between shards: even a partial move invalidates
            # any cached merge that predates it.
            self._flush_cache()

    def _any_schema(self, name: str):
        """The (public) schema of a stored relation.

        Served from the cache populated at store time; falls back to
        fetching one shard's copy for relations stored before this router
        existed (e.g. an attach-style session over persisted shards).
        """
        cached = self._schemas.get(name)
        if cached is not None:
            return cached
        first = next(iter(self._shards.values()))
        schema = first.server.stored_relation(name).schema
        self._schemas[name] = schema
        return schema

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _partition_tuples(
        self, encrypted_relation: EncryptedRelation
    ) -> dict[str, list[EncryptedTuple]]:
        """Per-shard slices: every tuple goes to each of its R successors."""
        groups: dict[str, list[EncryptedTuple]] = {
            shard_id: [] for shard_id in self._shards
        }
        for encrypted_tuple in encrypted_relation:
            for shard_id in self.replica_shards(encrypted_tuple.tuple_id):
                groups[shard_id].append(encrypted_tuple)
        return groups

    def _all_shards(
        self, operation: Callable[[Any], Any]
    ) -> list[tuple[str, Callable[[], Any]]]:
        return [
            (shard.shard_id, (lambda sv: lambda: operation(sv))(shard.server))
            for shard in self._shards.values()
        ]

    def _gather(
        self,
        operation: str,
        calls: Sequence[tuple[str, Callable[[], Any]]],
        *,
        policy: str,
        read: bool = False,
    ) -> GatherResult:
        """Scatter ``calls`` and resolve failures: failover first, then policy.

        A full-fleet *read* that loses shards first tries replica failover:
        when every ring segment still has a live successor
        (:meth:`ConsistentHashRing.covers`) the surviving answers are
        complete after deduplication, so the read succeeds un-degraded and
        only ``stats.failover_reads`` records that anything happened.  Only
        when the failures exceed what the replicas absorb does the
        partial-failure ``policy`` decide between raising and degrading.
        """
        from repro.obs import current_trace

        if read:
            self._stats.record_scatter_read()
        trace = current_trace()
        scatter_started_wall = time.time()
        scatter_started = time.monotonic()
        outcomes = self._executor.scatter(calls)
        scatter_elapsed = time.monotonic() - scatter_started
        self._record_outcomes(
            trace, operation, scatter_started_wall, scatter_elapsed, outcomes
        )
        failures = [o for o in outcomes if not o.ok]
        if (
            failures
            and read
            and self._replication > 1
            and len(calls) == len(self._shards)  # coverage math needs the full fleet
        ):
            live = [o.shard_id for o in outcomes if o.ok]
            if self._ring.covers(live, self._replication):
                self._stats.record_failover_read([o.shard_id for o in failures])
                return GatherResult(
                    values=tuple(o.value for o in outcomes if o.ok),
                    outcomes=tuple(outcomes),
                )
        gathered = resolve_outcomes(operation, outcomes, policy=policy)
        if gathered.degraded:
            self._stats.record_degraded_read(gathered.missing_shard_ids)
        return gathered

    def _record_outcomes(
        self,
        trace,
        operation: str,
        started_wall: float,
        elapsed_s: float,
        outcomes,
    ) -> None:
        """Per-shard latency histograms plus, when traced, the scatter spans.

        Every outcome -- success, failure, timeout -- feeds its shard's
        ``cluster_shard_seconds`` histogram (the executor timed all of
        them), so shard tail latency is visible without tracing; under a
        trace the router additionally records one ``router.scatter`` span
        and a ``shard.request`` child span per outcome.
        """
        for outcome in outcomes:
            self._metrics.histogram(
                "cluster_shard_seconds", shard_id=outcome.shard_id
            ).observe(outcome.elapsed_s)
        if trace is None:
            return
        failed = [o.shard_id for o in outcomes if not o.ok]
        trace.record(
            "router.scatter",
            started_wall,
            elapsed_s,
            operation=operation,
            # One scatter path; the annotation stays for trace readers.
            transport="select",
            shards=len(outcomes),
            failed_shard_ids=failed,
        )
        for outcome in outcomes:
            annotations = {"shard_id": outcome.shard_id}
            if outcome.ok:
                annotations["outcome"] = "ok"
            else:
                annotations["outcome"] = "error"
                annotations["error"] = str(outcome.error)
            trace.record(
                "shard.request",
                outcome.started_s or started_wall,
                outcome.elapsed_s,
                **annotations,
            )

    @staticmethod
    def _respond(request: Message, kind: MessageKind, body: bytes) -> Message:
        return Message(kind=kind, relation_name=request.relation_name, body=body)
