"""Matrix execution: warmup/repeat discipline over real deployments.

The runner turns each :class:`~repro.bench.config.CellConfig` into a live
deployment -- an in-process session, a ``repro serve`` provider subprocess,
or a whole ephemeral-port fleet behind ``cluster://`` (the e13/e15 harness
pattern, promoted from benchmark-local code to the library) -- seeds it
with a deterministic relation, then measures throughput with warmup rounds
discarded and every repeat recorded as its own sample.  Alongside the
wall-clock samples each cell captures a *delta* of the process-wide
metrics plane (PR 7), so p50/p95/p99 latency summaries are first-class
result fields scoped to that cell's own operations.

``REPRO_BENCH_SLOWDOWN_S`` injects a per-operation sleep into the timed
loop.  It exists for the CI gate smoke: a second run with the knob set
must trip ``repro bench gate`` against the clean baseline.
"""

from __future__ import annotations

import gc
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.bench.config import CellConfig, MatrixConfig
from repro.bench.store import ResultStore
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.obs.metrics import (
    aggregate_snapshot,
    histogram_summaries,
    merge_snapshots,
    snapshot_delta,
)

#: Fault-injection knob: seconds slept per operation inside the timed loop.
SLOWDOWN_ENV = "REPRO_BENCH_SLOWDOWN_S"

TABLE_DECL = "Bench(name:string[14], grp:string[5], val:int[6])"
TABLE_NAME = "Bench"
STARTUP_TIMEOUT_S = 30

_SRC = str(pathlib.Path(__file__).resolve().parent.parent.parent)


class BenchError(RuntimeError):
    """A benchmark deployment or measurement that went wrong."""


def injected_slowdown_s() -> float:
    """The per-operation sleep requested via :data:`SLOWDOWN_ENV` (>= 0)."""
    raw = os.environ.get(SLOWDOWN_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError as exc:
        raise BenchError(f"{SLOWDOWN_ENV}={raw!r} is not a number") from exc
    if value < 0:
        raise BenchError(f"{SLOWDOWN_ENV} must be non-negative, got {value}")
    return value


class ProviderFleet:
    """``count`` real ``repro serve`` subprocesses on ephemeral ports."""

    def __init__(self, procs: list[subprocess.Popen], addresses: list[str]) -> None:
        self.procs = procs
        self.addresses = addresses

    @classmethod
    def spawn(cls, count: int) -> "ProviderFleet":
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        # The providers being measured must not inherit the fault knob.
        env.pop(SLOWDOWN_ENV, None)
        procs: list[subprocess.Popen] = []
        addresses: list[str] = []
        for _ in range(count):
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                    env=env,
                )
            )
        try:
            for proc in procs:
                banner = _read_banner(proc)
                match = re.search(r"tcp://([\d.]+):(\d+)", banner)
                if not match:
                    raise BenchError(f"provider did not start: {banner!r}")
                addresses.append(f"{match.group(1)}:{match.group(2)}")
        except BaseException:
            cls(procs, addresses).stop()
            raise
        return cls(procs, addresses)

    def url(self, cell: CellConfig) -> str:
        if cell.transport == "cluster":
            return "cluster://" + ",".join(self.addresses)
        return f"tcp://{self.addresses[0]}"

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate(timeout=10)

    def __enter__(self) -> "ProviderFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _read_banner(proc: subprocess.Popen) -> str:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    banner = ""
    while time.monotonic() < deadline:
        banner = proc.stdout.readline()
        if banner or proc.poll() is not None:
            break
    return banner


def _rows(count: int) -> list[tuple]:
    return [(f"emp{i}", f"G{i % 7}", 1000 + i) for i in range(count)]


def _statements(cell: CellConfig, seed: int = 0) -> list[str]:
    """The cell's read statements: an even sweep, or a zipfian hot-key draw.

    The zipfian variant samples row indices from
    :class:`~repro.workloads.distributions.ZipfDistribution` under a
    seeded rng, so every repeat (and every revision) replays the same
    skewed key sequence.
    """
    if cell.workload == "zipfian":
        from repro.workloads.distributions import ZipfDistribution

        distribution = ZipfDistribution(
            range(cell.table_size), exponent=cell.zipf_exponent
        )
        rng = DeterministicRng(seed)
        indices = distribution.sample_many(rng, cell.operations)
    else:
        step = max(1, cell.table_size // cell.operations)
        indices = [(i * step) % cell.table_size for i in range(cell.operations)]
    return [
        f"SELECT * FROM {TABLE_NAME} WHERE name = 'emp{index}'"
        for index in indices
    ]


def run_cell(
    cell: CellConfig,
    *,
    warmup: int,
    repeats: int,
    seed: int,
    log=None,
) -> dict:
    """Deploy, seed, warm up and measure one cell; returns its payload."""
    return _measure_cell(cell, warmup=warmup, repeats=repeats, seed=seed, log=log)[0]


def _measure_cell(
    cell: CellConfig, *, warmup: int, repeats: int, seed: int, log=None
) -> tuple[dict, dict]:
    """:func:`run_cell`'s payload plus the metrics delta of its repeats."""
    from repro.api import EncryptedDatabase

    cell.validate()
    slowdown = injected_slowdown_s()
    secret_key = SecretKey.generate(rng=DeterministicRng(seed))
    # "client"/"both" add the per-session cache; "coordinator"/"both" add
    # the shared router cache (cluster transports only, enforced by
    # validate): every session then rides ONE cache-enabled ShardRouter
    # instead of a private router each, which is the deployment shape the
    # coordinator tier exists for.
    session_cache = True if cell.cache in ("client", "both") else None
    router = None
    fleet: ProviderFleet | None = None
    sessions: list = []
    try:
        if cell.uses_subprocess_fleet:
            fleet = ProviderFleet.spawn(
                cell.shards if cell.transport == "cluster" else 1
            )
            url = fleet.url(cell)
            if cell.cache in ("coordinator", "both"):
                from repro.cluster.router import ShardRouter

                router = ShardRouter.connect(url, cache=True)
                for _ in range(cell.in_flight):
                    sessions.append(
                        EncryptedDatabase.open(
                            secret_key,
                            server=router,
                            scheme=cell.scheme,
                            rng=DeterministicRng(seed),
                            cache=session_cache,
                        )
                    )
                seeder = sessions[0]
            else:
                seeder = EncryptedDatabase.connect(
                    url,
                    secret_key,
                    scheme=cell.scheme,
                    rng=DeterministicRng(seed),
                    cache=session_cache,
                )
                sessions.append(seeder)
                for _ in range(1, cell.in_flight):
                    extra = EncryptedDatabase.connect(
                        url,
                        secret_key,
                        scheme=cell.scheme,
                        rng=DeterministicRng(seed),
                        cache=session_cache,
                    )
                    sessions.append(extra)
        else:
            seeder = EncryptedDatabase.open(
                secret_key,
                scheme=cell.scheme,
                rng=DeterministicRng(seed),
                cache=session_cache,
            )
            sessions.append(seeder)
        seeder.create_table(TABLE_DECL, rows=_rows(cell.table_size))
        for session in sessions[1:]:
            session.attach_table(TABLE_DECL)

        fresh_names = iter(f"new{i}" for i in range(10_000_000))
        for _ in range(warmup):
            _one_round(cell, sessions, fresh_names, seed, slowdown=0.0)

        # Registries of earlier, unreachable sessions must not die inside
        # the window: their counts would vanish from the second snapshot.
        gc.collect()
        before = aggregate_snapshot()
        seconds: list[float] = []
        for repeat in range(repeats):
            elapsed = _one_round(cell, sessions, fresh_names, seed, slowdown=slowdown)
            seconds.append(elapsed)
            if log is not None:
                log(
                    f"    repeat {repeat + 1}/{repeats}: "
                    f"{cell.operations / elapsed:.1f} ops/s"
                )
        delta = snapshot_delta(before, aggregate_snapshot())
        cache_stats = {}
        if sessions and sessions[0].cache is not None:
            cache_stats["client"] = sessions[0].cache.stats()
        if router is not None and router.cache is not None:
            cache_stats["coordinator"] = router.cache.stats()
    finally:
        for session in sessions:
            try:
                session.close()
            except Exception:  # noqa: BLE001 - teardown must not mask results
                pass
        if router is not None:
            try:
                router.close()
            except Exception:  # noqa: BLE001 - teardown must not mask results
                pass
        if fleet is not None:
            fleet.stop()

    ops_per_s = [cell.operations / s for s in seconds]
    return {
        "config_id": cell.config_id,
        "params": cell.as_dict(),
        "ops_per_repeat": cell.operations,
        "samples": {
            "seconds": [round(s, 6) for s in seconds],
            "ops_per_s": [round(v, 3) for v in ops_per_s],
        },
        "mean_seconds": round(statistics.fmean(seconds), 6),
        "mean_ops_per_s": round(statistics.fmean(ops_per_s), 3),
        "stddev_ops_per_s": round(statistics.pstdev(ops_per_s), 3),
        "latency": histogram_summaries(delta),
        "slowdown_injected_s": slowdown,
        "cache": cache_stats,
    }, delta


def _one_round(
    cell: CellConfig, sessions: list, fresh_names, seed: int = 0, *, slowdown: float
) -> float:
    """One timed pass over the cell's operations; returns elapsed seconds."""
    if cell.benchmark == "exact_select":
        statements = _statements(cell, seed)
        work = [
            (session, statements[index :: len(sessions)])
            for index, session in enumerate(sessions)
        ]

        def execute(session, statement) -> None:
            outcome = session.select(statement)
            if len(outcome.relation) != 1:
                raise BenchError(
                    f"{cell.config_id}: {statement!r} answered "
                    f"{len(outcome.relation)} tuple(s), expected exactly 1"
                )
    else:  # insert
        rows = [
            {"name": next(fresh_names), "grp": "NEW", "val": i}
            for i in range(cell.operations)
        ]
        work = [
            (session, rows[index :: len(sessions)])
            for index, session in enumerate(sessions)
        ]

        def execute(session, row) -> None:
            session.insert(TABLE_NAME, row)

    errors: list[BaseException] = []

    def worker(session, items) -> None:
        try:
            for item in items:
                execute(session, item)
                if slowdown:
                    time.sleep(slowdown)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    if len(sessions) == 1:
        start = time.perf_counter()
        worker(sessions[0], work[0][1])
        elapsed = time.perf_counter() - start
    else:
        threads = [
            threading.Thread(target=worker, args=(session, items))
            for session, items in work
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - start
    if errors:
        raise BenchError(f"{cell.config_id}: worker failed: {errors[0]}") from errors[0]
    if elapsed <= 0:
        elapsed = 1e-9
    return elapsed


def run_matrix(
    config: MatrixConfig,
    *,
    store: ResultStore | None = None,
    rev: str | None = None,
    log=None,
) -> dict:
    """Run every cell of an experiment; persist via ``store`` when given."""
    cells = []
    deltas = []
    for index, cell in enumerate(config.cells):
        if log is not None:
            log(f"[{index + 1}/{len(config.cells)}] {cell.config_id}")
        payload, delta = _measure_cell(
            cell,
            warmup=config.warmup,
            repeats=config.repeats,
            seed=config.seed,
            log=log,
        )
        cells.append(payload)
        deltas.append(delta)
    payload = {
        "kind": "bench-matrix",
        "experiment": config.experiment,
        "params": {
            "warmup": config.warmup,
            "repeats": config.repeats,
            "seed": config.seed,
        },
        "gates": {
            "max_regression_pct": config.gates.max_regression_pct,
            "max_p99_s": dict(config.gates.max_p99_s),
        },
        "cells": cells,
        # Merged per-cell deltas, each taken while its sessions were alive.
        "runtime_metrics": merge_snapshots(*deltas),
    }
    if store is not None:
        payload["result_path"] = str(
            store.write(config.result_name, payload, rev=rev)
        )
    return payload
