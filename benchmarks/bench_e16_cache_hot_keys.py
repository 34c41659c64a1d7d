"""E16: the hot-key read cache tier under skewed (zipfian) traffic.

New-workload claim (no paper counterpart): skewed read traffic -- the
million-user shape, where a handful of hot keys carry most of the load --
re-sends byte-identical encrypted query tokens over and over, and the
deterministic token encoding makes those repeats cacheable without ever
touching plaintext.  Two deployments against real ``repro serve``
subprocesses:

* **single node, client cache** -- each session keeps a private
  ``(relation, token)`` result cache; repeats skip the provider entirely.
* **3-shard fleet, coordinator cache** -- every session rides ONE
  cache-enabled :class:`ShardRouter`, so a key made hot by any session is
  a hit for all of them and one fill absorbs the whole fleet's scatter.

Each cell drives the same seeded zipfian point-select burst (exponent
``ZIPF_EXPONENT`` > 1.1, the hot-key regime) through 1, 8 and 64
concurrent sessions, cache off vs on.  A warm-up burst runs first in
every cell -- cache-off pays it too -- so the measured round compares
steady states, not cold-start fills.

The correctness bar: cache-on answers are identical to cache-off for
every query in every cell; every cache-on cell reports a non-zero hit
ratio; and the coordinator cache at 8 concurrent sessions on the 3-shard
fleet sustains >= 3x the cache-off read op/s.
"""

from __future__ import annotations

import threading
import time

from conftest import run_once

from repro.analysis.reporting import ExperimentTable
from repro.api import EncryptedDatabase
from repro.bench.runner import ProviderFleet
from repro.cluster import ShardRouter
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational import Selection
from repro.workloads.distributions import ZipfDistribution

SEED = 16
SCHEME = "swp"
TABLE_SIZE = 64
QUERIES = 192
ZIPF_EXPONENT = 1.3
SESSION_COUNTS = (1, 8, 64)
FLEET_SHARDS = 3
HEADLINE_SESSIONS = 8
HEADLINE_SPEEDUP = 3.0

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(TABLE_SIZE)]


def _hot_statements() -> list:
    """The seeded zipfian point-select burst every cell replays."""
    distribution = ZipfDistribution(range(TABLE_SIZE), exponent=ZIPF_EXPONENT)
    indices = distribution.sample_many(DeterministicRng(SEED), QUERIES)
    return [Selection.equals("name", f"emp{index}") for index in indices]


def _burst(sessions: list, statements: list) -> tuple[float, list]:
    """Drive the burst round-robin across concurrent session threads.

    Returns (wall seconds, per-statement sorted plaintext rows) so callers
    can both rate the cell and diff cache-on against cache-off.
    """
    results: list = [None] * len(statements)
    start_line = threading.Barrier(len(sessions) + 1)

    def worker(session, offset: int) -> None:
        start_line.wait()
        for i in range(offset, len(statements), len(sessions)):
            outcome = session.select(statements[i], table="Emp")
            results[i] = sorted(tuple(t.values()) for t in outcome.relation)

    threads = [
        threading.Thread(target=worker, args=(session, offset))
        for offset, session in enumerate(sessions)
    ]
    for thread in threads:
        thread.start()
    start_line.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - begin
    assert all(row is not None for row in results), "a session thread died"
    return elapsed, results


def _seed_relation(url: str, secret_key) -> None:
    db = EncryptedDatabase.connect(
        url, secret_key, scheme=SCHEME, rng=DeterministicRng(SEED)
    )
    try:
        db.create_table(EMP_DECL, rows=ROWS)
    finally:
        db.close()


def _open_sessions(tier: str, url: str, count: int, cache: bool, secret_key):
    """Open ``count`` sessions for a cell; returns (sessions, close, stats).

    ``coordinator`` opens ONE shared cache-enabled router and hangs every
    session off it -- the deployment shape the coordinator tier exists
    for.  ``client`` gives each session its own connection and (when on)
    its own private cache.
    """
    if tier == "coordinator":
        router = ShardRouter.connect(url, cache=True if cache else None)
        sessions = [
            EncryptedDatabase.open(
                secret_key,
                server=router,
                scheme=SCHEME,
                rng=DeterministicRng(SEED + i),
            )
            for i in range(count)
        ]

        def stats() -> dict:
            return router.cache.stats() if router.cache is not None else {}

        def close() -> None:
            for session in sessions:
                session.close()
            router.close()

    else:
        sessions = [
            EncryptedDatabase.connect(
                url,
                secret_key,
                scheme=SCHEME,
                rng=DeterministicRng(SEED + i),
                cache=True if cache else None,
            )
            for i in range(count)
        ]

        def stats() -> dict:
            if sessions[0].cache is None:
                return {}
            hits = sum(s.cache.stats()["hits"] for s in sessions)
            misses = sum(s.cache.stats()["misses"] for s in sessions)
            total = hits + misses
            return {
                "hits": hits,
                "misses": misses,
                "hit_ratio": hits / total if total else 0.0,
            }

        def close() -> None:
            for session in sessions:
                session.close()

    for session in sessions:
        session.attach_table(EMP_DECL)
    return sessions, close, stats


def run_e16_cache_hot_keys():
    secret_key = SecretKey.generate(rng=DeterministicRng(SEED))
    statements = _hot_statements()
    table = ExperimentTable(
        title=(
            f"E16: hot-key read cache ({QUERIES} zipfian point selects, "
            f"exponent {ZIPF_EXPONENT}, table {TABLE_SIZE}, "
            f"steady state after one warm-up burst)"
        ),
        columns=["topology", "sessions", "cache", "elapsed ms", "ops/s",
                 "hit ratio", "speedup"],
    )
    metrics: dict[str, float] = {}
    with ProviderFleet.spawn(1) as single, ProviderFleet.spawn(FLEET_SHARDS) as fleet:
        topologies = (
            ("single node", "single", "client",
             f"tcp://{single.addresses[0]}"),
            (f"{FLEET_SHARDS}-shard fleet", "fleet", "coordinator",
             "cluster://" + ",".join(fleet.addresses)),
        )
        for label, key, tier, url in topologies:
            _seed_relation(url, secret_key)
            for count in SESSION_COUNTS:
                observed: dict[bool, list] = {}
                ops: dict[bool, float] = {}
                for cache in (False, True):
                    sessions, close, stats = _open_sessions(
                        tier, url, count, cache, secret_key
                    )
                    try:
                        _burst(sessions, statements)  # warm-up (both modes)
                        elapsed, observed[cache] = _burst(sessions, statements)
                        hit_ratio = stats().get("hit_ratio", 0.0)
                    finally:
                        close()
                    ops[cache] = QUERIES / elapsed
                    mode = "on" if cache else "off"
                    speedup = ops[True] / ops[False] if cache else 1.0
                    table.add_row(
                        f"{label} ({tier} cache)", count, mode,
                        elapsed * 1000.0, ops[cache], hit_ratio, speedup,
                    )
                    metrics[f"{key}_{count}s_{mode}_ops_per_s"] = round(
                        ops[cache], 1
                    )
                    if cache:
                        metrics[f"{key}_{count}s_hit_ratio"] = round(hit_ratio, 3)
                        metrics[f"{key}_{count}s_speedup"] = round(speedup, 2)
                        # Stale answers are worse than slow ones: the cached
                        # run must be indistinguishable from the uncached one.
                        assert observed[True] == observed[False], (
                            f"cache-on diverged from cache-off: {label}, "
                            f"{count} sessions"
                        )
                        assert hit_ratio > 0.0, (label, count)
    return table, metrics


def test_e16_cache_hot_keys(benchmark, record_table):
    table, metrics = run_once(benchmark, run_e16_cache_hot_keys)
    record_table(
        "e16_cache_hot_keys",
        table,
        metrics=metrics,
        params={
            "table_size": TABLE_SIZE,
            "queries": QUERIES,
            "zipf_exponent": ZIPF_EXPONENT,
            "session_counts": list(SESSION_COUNTS),
            "fleet_shards": FLEET_SHARDS,
            "scheme": SCHEME,
            "seed": SEED,
            "benchmark_host_cores": 1,
        },
    )
    # The acceptance bar: the shared coordinator cache turns a skewed read
    # burst from N scatter round trips into ~N in-memory hits, and at 8
    # concurrent sessions on the 3-shard fleet that is worth >= 3x op/s.
    headline = metrics[f"fleet_{HEADLINE_SESSIONS}s_speedup"]
    assert headline >= HEADLINE_SPEEDUP, metrics
    # The client tier must also pay for itself on repeats.
    assert metrics[f"single_{HEADLINE_SESSIONS}s_speedup"] > 1.0, metrics
