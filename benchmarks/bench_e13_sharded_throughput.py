"""E13: aggregate throughput of the sharded multi-provider deployment.

New-workload claim (no paper counterpart): with :mod:`repro.cluster` the
encrypted relation spreads across N provider *processes*, so the linear
scan behind every exact select -- the price of the paper's security
guarantee -- runs on N cores instead of one.  Each shard holds ``~1/N`` of
the ciphertexts; a scatter-gathered select costs each shard a ``1/N``-sized
scan, all in parallel, so aggregate select throughput grows near-linearly
with the shard count *when each provider has a core to itself*.

Providers are spawned as real ``repro serve`` subprocesses on ephemeral
ports (separate processes, separate GILs -- in-process shard *threads*
cannot parallelize a Python scan), and every configuration, including the
1-shard baseline, is driven through ``cluster://`` so the comparison
isolates the shard count from the router/transport overhead.

Two scaling figures are reported, both from measured data:

* **wall-clock scaling** -- aggregate queries/s of the fleet vs the 1-shard
  baseline on *this* machine.  Near-linear on a multicore host (each
  provider process scans in parallel); necessarily ~1x on a single-core
  host, where every provider timeshares the same core and the total scan
  work per query is unchanged.  The assertion threshold therefore scales
  with the cores actually available to this run.
* **capacity scaling** -- the factor by which the fleet's select capacity
  grows when each provider runs on its own core (the deployment the
  subsystem exists for): the 1-shard scan size divided by the *largest*
  per-shard scan size, measured from the real ring placement of the
  ciphertexts.  With the ring's <=15% imbalance bound this is >= ~3.5x at
  4 shards, and it is asserted >= 2.5x unconditionally.

Inserts route to exactly one shard each (no fan-out); they are measured
pre-encrypted as ``INSERT_TUPLE`` envelopes sent straight to the router
(:func:`repro.outsourcing.protocol.request`) so the number reflects
the serving layer, not the client-side encryption in this single benchmark
process.  Insert throughput is round-trip-bound on loopback, so it is
reported but not expected to scale linearly here.

The correctness bar: every configuration answers every query with exactly
one true match, every shard of every fleet actually stores and serves a
slice of the relation, and the scaling assertions above hold.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

from conftest import run_once

from repro.analysis.reporting import ExperimentTable
from repro.api import EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import protocol
from repro.outsourcing.protocol import MessageKind

TABLE_SIZE = 1200
NUM_QUERIES = 32
NUM_CLIENTS = 4
NUM_INSERTS = 64
SHARD_COUNTS = (1, 2, 4)
SCHEME = "swp"
SEED = 13

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
STARTUP_TIMEOUT_S = 30

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


#: Wall-clock scaling we can honestly demand at 4 shards given the cores
#: this run actually has: near-linear needs a core per provider; a lone
#: core can only bound the router's overhead (total scan work is unchanged).
def _wallclock_bar(cores: int) -> float:
    if cores >= 4:
        return 2.5
    if cores >= 2:
        return 1.5
    return 0.66


def _rows() -> list[tuple]:
    return [(f"emp{i}", f"D{i % 7}", 1000 + i) for i in range(TABLE_SIZE)]


def _statements() -> list[str]:
    step = TABLE_SIZE // NUM_QUERIES
    return [
        f"SELECT * FROM Emp WHERE name = 'emp{i * step}'" for i in range(NUM_QUERIES)
    ]


def _spawn_providers(count: int) -> tuple[list[subprocess.Popen], str]:
    """Start ``count`` provider subprocesses; returns (procs, cluster URL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    procs, hosts = [], []
    for _ in range(count):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        procs.append(proc)
    try:
        for proc in procs:
            banner = proc.stdout.readline()
            match = re.search(r"tcp://([\d.]+):(\d+)", banner)
            if not match:
                raise RuntimeError(f"provider did not start: {banner!r}")
            hosts.append(f"{match.group(1)}:{match.group(2)}")
    except BaseException:
        _stop_providers(procs)
        raise
    return procs, "cluster://" + ",".join(hosts)


def _stop_providers(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate(timeout=10)


def _concurrent_selects(url: str, secret_key, statements) -> tuple[float, list[int]]:
    """NUM_CLIENTS sessions, each scatter-gathering its slice of the selects."""
    slices = [statements[i::NUM_CLIENTS] for i in range(NUM_CLIENTS)]
    results: list[list[int] | None] = [None] * NUM_CLIENTS
    errors: list[Exception] = []

    def worker(index: int) -> None:
        try:
            with EncryptedDatabase.connect(url, secret_key, scheme=SCHEME) as session:
                session.attach_table(EMP_DECL)
                results[index] = [len(session.select(s).relation) for s in slices[index]]
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(NUM_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    sizes = [0] * len(statements)
    for client, slice_sizes in enumerate(results):
        assert slice_sizes is not None
        for offset, size in enumerate(slice_sizes):
            sizes[client + offset * NUM_CLIENTS] = size
    return elapsed, sizes


def _concurrent_inserts(router, encrypted_tuples) -> float:
    """Pre-encrypted tuples appended through the router by NUM_CLIENTS threads."""
    slices = [encrypted_tuples[i::NUM_CLIENTS] for i in range(NUM_CLIENTS)]
    errors: list[Exception] = []

    def worker(index: int) -> None:
        try:
            for encrypted_tuple in slices[index]:
                protocol.request(
                    router,
                    MessageKind.INSERT_TUPLE,
                    "Emp",
                    protocol.encode_encrypted_tuple(encrypted_tuple),
                    expect=MessageKind.ACK,
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(NUM_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return elapsed


def run_e13_sharded_throughput():
    """Drive the same workload through 1-, 2- and 4-shard fleets."""
    secret_key = SecretKey.generate(rng=DeterministicRng(SEED))
    statements = _statements()
    rows = _rows()
    configs = []

    for shard_count in SHARD_COUNTS:
        procs, url = _spawn_providers(shard_count)
        try:
            with EncryptedDatabase.connect(
                url, secret_key, scheme=SCHEME, rng=DeterministicRng(SEED)
            ) as db:
                db.create_table(EMP_DECL, rows=rows)

                select_s, sizes = _concurrent_selects(url, secret_key, statements)

                # Fresh ciphertexts for the insert phase, encrypted outside
                # the timed region (same plaintexts for every shard count).
                handle = db.table("Emp")
                extra = [
                    handle.scheme.encrypt_tuple(
                        db._make_tuple(
                            handle.schema,
                            {"name": f"new{i}", "dept": "NEW", "salary": i},
                        )
                    )
                    for i in range(NUM_INSERTS)
                ]
                insert_s = _concurrent_inserts(db.server, extra)
                stored = db.count("Emp")
                per_shard = db.server.per_shard_tuple_counts("Emp")
                db.drop_table("Emp")
        finally:
            _stop_providers(procs)
        configs.append(
            {
                "shards": shard_count,
                "select_s": select_s,
                "select_qps": NUM_QUERIES / select_s,
                "insert_s": insert_s,
                "insert_rps": NUM_INSERTS / insert_s,
                "hits": sizes,
                "stored": stored,
                "per_shard_counts": sorted(per_shard.values()),
                # Largest per-query scan any provider performs: the fleet's
                # service demand when each provider has its own core.
                "max_shard_scan": max(per_shard.values()),
            }
        )

    table = ExperimentTable(
        title=(
            f"E13: {NUM_QUERIES} exact selects ({NUM_CLIENTS} concurrent clients) "
            f"+ {NUM_INSERTS} inserts over {TABLE_SIZE} tuples ({SCHEME}), "
            "provider subprocesses behind cluster://"
        ),
        columns=[
            "shards", "select ms", "select q/s", "wall-clock x",
            "max shard scan", "capacity x", "insert rows/s", "hits",
        ],
    )
    baseline_qps = configs[0]["select_qps"]
    baseline_scan = configs[0]["max_shard_scan"]
    for config in configs:
        table.add_row(
            config["shards"],
            config["select_s"] * 1000.0,
            config["select_qps"],
            config["select_qps"] / baseline_qps,
            config["max_shard_scan"],
            baseline_scan / config["max_shard_scan"],
            config["insert_rps"],
            sum(config["hits"]),
        )
    return table, configs


def test_e13_sharded_throughput(benchmark, record_table):
    table, configs = run_once(benchmark, run_e13_sharded_throughput)
    by_shards = {config["shards"]: config for config in configs}
    cores = _available_cores()
    wallclock_4x = by_shards[4]["select_qps"] / by_shards[1]["select_qps"]
    capacity_4x = by_shards[1]["max_shard_scan"] / by_shards[4]["max_shard_scan"]
    record_table(
        "e13_sharded_throughput",
        table,
        metrics={
            "select_qps": {str(c["shards"]): round(c["select_qps"], 2) for c in configs},
            "insert_rps": {str(c["shards"]): round(c["insert_rps"], 2) for c in configs},
            "per_shard_counts": {
                str(c["shards"]): c["per_shard_counts"] for c in configs
            },
            "select_wallclock_scaling_4_shards": round(wallclock_4x, 3),
            "select_capacity_scaling_4_shards": round(capacity_4x, 3),
            "cpu_cores": cores,
        },
        params={
            "table_size": TABLE_SIZE,
            "num_queries": NUM_QUERIES,
            "num_clients": NUM_CLIENTS,
            "num_inserts": NUM_INSERTS,
            "shard_counts": list(SHARD_COUNTS),
            "scheme": SCHEME,
            "seed": SEED,
        },
    )

    for config in configs:
        # Every configuration answered every query with exactly its one match.
        assert config["hits"] == [1] * NUM_QUERIES, config["shards"]
        assert config["stored"] == TABLE_SIZE + NUM_INSERTS
        # The ring actually spread the data: every shard stores and serves
        # a slice (no shard may sit empty behind the scatter).
        assert all(count > 0 for count in config["per_shard_counts"]), config

    # The acceptance bar of the cluster subsystem: a 4-shard fleet has
    # >= 2.5x the select capacity of one provider -- each provider's
    # per-query scan shrank to ~1/4, measured from the real placement.
    assert capacity_4x >= 2.5, f"4-shard capacity scaling only {capacity_4x:.2f}x"

    # And the wall-clock throughput on *this* machine must back it up to
    # the extent the machine can: near-linear with a core per provider,
    # bounded router overhead when every provider shares one core.
    bar = _wallclock_bar(cores)
    assert wallclock_4x >= bar, (
        f"4-shard wall-clock scaling {wallclock_4x:.2f}x under the "
        f"{bar}x bar for {cores} core(s)"
    )
