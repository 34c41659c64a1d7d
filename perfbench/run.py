"""The repository benchmark: closed-loop workloads against real providers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan-select --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One workload run deploys its providers (``repro serve`` subprocesses), seeds
the relation several times to time set-up, warms up, measures a closed loop
for ``--seconds``, checks every answer against a plaintext reference model
and prints its metrics; the last line of stdout is one JSON object.  With
``--trace 1`` the first half of the window runs untraced and the second half
with every layer wrapped (see ``layers.py``), and the metrics are the
per-layer ones.  ``--workload all`` runs every workload UNTRACED_REPEATS
times untraced plus once traced, each in its own process, and prints the
medians and the traced layer breakdown.  NOTES.md says why each workload
exists.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers  # noqa: E402
from perfbench.deploy import Provider, peak_rss_mb, steal_frac, steal_ticks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ROW_WIDTH_BYTES,
    SPECS,
    TABLE,
    TABLE_DECL,
    OpStream,
    ReferenceModel,
    as_rows,
    execute,
    initial_values,
)

SETUP_REPEATS = 5
#: Untraced runs per workload with ``--workload all``.
UNTRACED_REPEATS = 3
WARMUP_S = 2.0
#: A timed window in which the hypervisor stole more than this share of the
#: host's CPU time is flagged as measured on a noisy host.
STEAL_FLAG_FRAC = 0.01
#: Give up on a client after this many failures in a row (a dead provider).
MAX_CONSECUTIVE_FAILURES = 20

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
)
#: Reported by the command but not gated: scan-select has no writes, and
#: error_frac is 0 whenever the program is correct.
REPORTED_ONLY = (("write_p50_ms", "ms"), ("write_p95_ms", "ms"), ("error_frac", "ratio"))


# --------------------------------------------------------------------------- #
# Deployments
# --------------------------------------------------------------------------- #


class TcpDeployment:
    """One provider over ``tcp://``: in memory and scanning, or on a
    ``--data-dir`` with the session's encrypted index."""

    def __init__(self, work: pathlib.Path, *, durable: bool, traced: bool):
        self.work = work
        self.data_dir = work / "data" if durable else None
        self.provider = Provider(
            work / "provider.log", self.data_dir, work / "layers" if traced else None
        ).start()
        self.providers = [self.provider]

    @property
    def url(self) -> str:
        index = "?index=1" if self.data_dir is not None else ""
        return f"tcp://{self.provider.address}{index}"

    def open_seeded(self, key, rows) -> list:
        from repro.api import EncryptedDatabase

        session = EncryptedDatabase.connect(self.url, key)
        session.create_table(TABLE_DECL, rows=rows)
        return [session]

    def discard(self, sessions) -> None:
        sessions[0].drop_table(TABLE)
        sessions[0].close()

    def shard_proxies(self, sessions) -> list:
        return [sessions[0].server]

    def failover_reads(self) -> int:
        return 0

    def ciphertext_bytes(self, sessions) -> int:
        if self.data_dir is not None:
            return sum(p.stat().st_size for p in self.data_dir.iterdir() if p.is_file())
        return _encoded_bytes(self.shard_proxies(sessions))

    def restart(self) -> None:
        """SIGKILL the provider and start a fresh one on the same data dir."""
        self.provider.kill()
        self.provider = Provider(self.work / "restart.log", self.data_dir).start()
        self.providers = [self.provider]


class ClusterDeployment:
    """Two in-memory providers behind one shared replicated, cached router."""

    def __init__(self, work: pathlib.Path, *, clients: int, traced: bool):
        self.clients = clients
        self.providers = []
        try:
            for n in range(2):
                self.providers.append(Provider(
                    work / f"provider{n}.log", None,
                    work / f"layers{n}" if traced else None,
                ).start())
        except BaseException:
            self.stop()
            raise
        addresses = ",".join(p.address for p in self.providers)
        self.url = f"cluster://{addresses}?replicas=2&async=1&cache=1"
        self.router = None

    def open_seeded(self, key, rows) -> list:
        from repro.api import EncryptedDatabase
        from repro.cluster.router import ShardRouter

        self.router = ShardRouter.connect(self.url)
        sessions = [
            EncryptedDatabase.open(key, server=self.router, index=True)
            for _ in range(self.clients)
        ]
        sessions[0].create_table(TABLE_DECL, rows=rows)
        for session in sessions[1:]:
            session.attach_table(TABLE_DECL)
        return sessions

    def discard(self, sessions) -> None:
        sessions[0].drop_table(TABLE)
        self.router.close()

    def shard_proxies(self, sessions) -> list:
        return [self.router.shard(shard_id) for shard_id in self.router.shard_ids]

    def failover_reads(self) -> int:
        return self.router.stats.failover_reads

    def ciphertext_bytes(self, sessions) -> int:
        return _encoded_bytes(self.shard_proxies(sessions))

    def stop(self) -> None:
        for provider in self.providers:
            provider.stop()


def _encoded_bytes(proxies) -> int:
    """Serialized ciphertext the providers hold (the on-disk format)."""
    from repro.outsourcing import protocol

    return sum(
        len(protocol.encode_encrypted_relation(proxy.stored_relation(TABLE)))
        for proxy in proxies
    )


def _dispatch_wait_s(proxies) -> float:
    """Summed ``server_dispatch_queue_seconds`` over the providers so far."""
    total = 0.0
    for proxy in proxies:
        for entry in proxy.metrics()["metrics"].get("histograms", ()):
            if entry["name"] == "server_dispatch_queue_seconds":
                total += entry["sum"]
    return total


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #


class Window:
    """What the clients did during one timed stretch.

    ``reads`` and ``writes`` hold the latency in ms of every successful op;
    ``steal_ticks`` is the hypervisor steal on the host during the window.
    """

    def __init__(self) -> None:
        self.reads: list[tuple[float, float]] = []
        self.writes: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: collections.Counter = collections.Counter()
        self.elapsed_s = 0.0
        self.steal_ticks = 0
        self._lock = threading.Lock()

    @property
    def completed(self) -> int:
        return len(self.reads) + len(self.writes)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.elapsed_s

    @property
    def steal_frac(self) -> float:
        return steal_frac(self.steal_ticks, self.elapsed_s)

    def merge(self, reads, writes, attempted, failed, errors) -> None:
        with self._lock:
            self.reads += reads
            self.writes += writes
            self.attempted += attempted
            self.failed += failed
            self.errors.update(errors)


def run_loop(sessions, streams, model, seconds: float) -> Window:
    """Each client sends its next op when the previous one returned."""
    window = Window()
    steal_before = steal_ticks()
    started = time.perf_counter()
    deadline = started + seconds
    finished = []

    def client(session, stream) -> None:
        reads, writes, errors = [], [], collections.Counter()
        attempted = failed = consecutive = 0
        now = time.perf_counter()
        while now < deadline and consecutive < MAX_CONSECUTIVE_FAILURES:
            op = next(stream)
            attempted += 1
            try:
                ok = execute(session, op, model)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                ok = False
                errors[f"{op[0]}: {type(exc).__name__}: {exc}"[:200]] += 1
            else:
                if not ok:
                    errors[f"{op[0]}: wrong answer"] += 1
            end = time.perf_counter()
            if ok:
                consecutive = 0
                (reads if op[0] == "select" else writes).append(1000.0 * (end - now))
            else:
                consecutive += 1
                failed += 1
            now = end
        finished.append(now)
        window.merge(reads, writes, attempted, failed, errors)

    if len(sessions) == 1:
        client(sessions[0], streams[0])
    else:
        threads = [
            threading.Thread(target=client, args=pair, daemon=True)
            for pair in zip(sessions, streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
    window.elapsed_s = max(finished) - started
    window.steal_ticks = steal_ticks() - steal_before
    return window


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


# --------------------------------------------------------------------------- #
# One workload run
# --------------------------------------------------------------------------- #


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: pathlib.Path) -> dict:
    from repro.crypto.keys import SecretKey
    from repro.crypto.rng import DeterministicRng

    spec = SPECS[name]
    key = SecretKey.generate(rng=DeterministicRng(seed))
    values = initial_values(spec, seed)
    rows = as_rows(values)
    if name == "cluster-zipf":
        deployment = ClusterDeployment(work, clients=spec.clients, traced=trace)
    else:
        deployment = TcpDeployment(work, durable=name == "durable-mixed", traced=trace)
    sessions = []
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            sessions = deployment.open_seeded(key, rows)
            setups.append(time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                deployment.discard(sessions)
        model = ReferenceModel(values)
        streams = [OpStream(spec, seed, client) for client in range(spec.clients)]
        windows = [run_loop(sessions, streams, model, WARMUP_S)]
        layer_metrics = None
        if trace:
            untraced = run_loop(sessions, streams, model, seconds / 2)
            measured, layer_metrics = traced_window(
                deployment, sessions, streams, model, seconds / 2, untraced
            )
            windows += [untraced, measured]
        else:
            measured = run_loop(sessions, streams, model, seconds)
            windows.append(measured)
        # Before ciphertext_bytes(), which pulls every stored relation over.
        rss = peak_rss_mb() + sum(p.peak_rss_mb() for p in deployment.providers)
        live_rows = model.live_count()
        space = deployment.ciphertext_bytes(sessions) / (live_rows * ROW_WIDTH_BYTES)
        durability = None
        if isinstance(deployment, TcpDeployment) and deployment.data_dir is not None:
            for session in sessions:
                session.close()
            sessions = []
            durability = check_durability(deployment, key, model)
    finally:
        for session in sessions[:1]:
            session.close()  # closes the shared router too
        for provider in deployment.providers:
            provider.stop()

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    errors = collections.Counter()
    for w in windows:
        errors.update(w.errors)
    if durability is not None:
        failed += durability["lost"] + durability["resurrected"]
    reads, writes = measured.reads, measured.writes
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (measured.ops_per_s, "1/s", measured.completed),
        "read_p50_ms": (percentile(reads, 0.50), "ms", len(reads)),
        "read_p95_ms": (percentile(reads, 0.95), "ms", len(reads)),
        "space_amp": (space, "ratio", live_rows),
        "peak_rss_mb": (rss, "MiB", 1 + len(deployment.providers)),
        "error_frac": (failed / max(attempted, 1), "ratio", attempted),
    }
    if writes:
        metrics["write_p50_ms"] = (percentile(writes, 0.50), "ms", len(writes))
        metrics["write_p95_ms"] = (percentile(writes, 0.95), "ms", len(writes))
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": dict(errors.most_common(5)),
        "durability": durability,
        "steal": {"ticks": measured.steal_ticks, "frac": measured.steal_frac},
        "metrics": metrics,
        "layers": layer_metrics,
    }


def traced_window(deployment, sessions, streams, model, seconds, untraced: Window):
    """Run one window with every layer wrapped; returns it and its metrics."""
    proxies = deployment.shard_proxies(sessions)
    provider_before = [p.dump_layers() for p in deployment.providers]
    dispatch_before = _dispatch_wait_s(proxies)
    failover_before = deployment.failover_reads()
    tracer = layers.LayerTracer()
    layers.install_client(tracer, type(sessions[0].table(TABLE).scheme))
    try:
        window = run_loop(sessions, streams, model, seconds)
    finally:
        tracer.restore()
    provider = layers.merge(*(
        layers.delta(before, p.dump_layers())
        for before, p in zip(provider_before, deployment.providers)
    ))
    metrics = layers.breakdown(
        tracer.snapshot(),
        provider,
        ops=window.completed,
        writes=len(window.writes),
        dispatch_wait_s=_dispatch_wait_s(proxies) - dispatch_before,
        failover_reads=deployment.failover_reads() - failover_before,
        traced_ops_per_s=window.ops_per_s,
        untraced_ops_per_s=untraced.ops_per_s,
    )
    return window, metrics


def check_durability(deployment: TcpDeployment, key, model) -> dict:
    """Crash the provider, restart it on its data dir, compare with the model."""
    from repro.api import EncryptedDatabase

    deployment.restart()
    with EncryptedDatabase.connect(deployment.url, key) as session:
        session.attach_table(TABLE_DECL)
        stored = collections.Counter(
            (t["name"], t["grp"], t["val"]) for t in session.retrieve_all(TABLE)
        )
    expected = collections.Counter(model.committed_rows())
    return {
        "rows": sum(expected.values()),
        "lost": sum((expected - stored).values()),
        "resurrected": sum((stored - expected).values()),
    }


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #


def tail_note(metric: str, count: int) -> str:
    """Flags a p95 with fewer than 10 samples beyond it."""
    if metric.endswith("p95_ms") and count - math.ceil(0.95 * count) < 10:
        return "  [fewer than 10 samples beyond p95]"
    return ""


def steal_note(result: dict) -> str:
    """The host's hypervisor steal during the timed window, flagged when
    above STEAL_FLAG_FRAC: such a run measured the host as much as the code."""
    steal = result["steal"]
    flag = f"  [NOISY HOST: above {STEAL_FLAG_FRAC:.0%}]" if steal["frac"] > STEAL_FLAG_FRAC else ""
    return f"host steal {steal['ticks']} ticks, {100 * steal['frac']:.2f}% of CPU time{flag}"


def print_run(result: dict) -> None:
    name = result["workload"]
    if result["trace"]:
        print(f"{name:14s} (traced run: the figures below are of its traced half)")
    for metric, (value, unit, count) in result["metrics"].items():
        print(f"{name:14s} {metric:16s} {value:12.4f} {unit:6s} (n={count})"
              f"{tail_note(metric, count)}")
    print(f"{name:14s} {steal_note(result)}")
    if result["durability"] is not None:
        d = result["durability"]
        print(f"{name:14s} durability: {d['rows']} rows expected after SIGKILL + "
              f"restart, {d['lost']} lost, {d['resurrected']} resurrected")
    for error, count in result["errors"].items():
        print(f"{name:14s} error x{count}: {error}")
    if result["layers"] is not None:
        print_breakdown(name, result["layers"])


def print_breakdown(name: str, metrics: dict) -> None:
    busy = metrics["api.busy_ms_per_op"]
    print(f"{name:14s} layer breakdown of api.busy_ms_per_op = {busy:.4f} ms")
    total = 0.0
    for metric in layers.BREAKDOWN_LAYERS:
        value = metrics[metric]
        total += value
        share = value / busy if busy else 0.0
        print(f"{name:14s}   {metric:32s} {value:10.4f} ms {100 * share:6.1f}%")
    print(f"{name:14s}   {'sum':32s} {total:10.4f} ms")
    for metric, value in metrics.items():
        if metric not in layers.BREAKDOWN_LAYERS:
            print(f"{name:14s} {metric:36s} {value:12.4f}")


def json_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name][0], "unit": unit}
            for name, unit in END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def layer_unit(name: str) -> str:
    if "_ms_" in name:
        return "ms"
    if "bytes" in name:
        return "B"
    if name.endswith(("_frac", "_ratio", "_amp")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload: repeated untraced runs, one traced run, one report."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPECS:
        runs = [
            run_subprocess(name, args.seed + n, args.seconds, trace=False)
            for n in range(UNTRACED_REPEATS)
        ]
        traced = run_subprocess(name, args.seed + UNTRACED_REPEATS, args.seconds, trace=True)
        print(f"== {name}: median of {len(runs)} untraced runs of {args.seconds}s")
        for metric in dict(END_TO_END + REPORTED_ONLY):
            values = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
            if not values:
                print(f"{name:14s} {metric:16s} {'-':>12s}        (no such operations)")
                continue
            unit = values[0][1]
            median = statistics.median(v[0] for v in values)
            counts = "+".join(str(v[2]) for v in values)
            print(f"{name:14s} {metric:16s} {median:12.4f} {unit:6s} (n={counts})"
                  f"{tail_note(metric, min(v[2] for v in values))}")
            summary["metrics"][f"{name}.{metric}"] = {"value": median, "unit": unit}
        untraced = statistics.median(r["metrics"]["ops_per_s"][0] for r in runs)
        traced_ops = traced["metrics"]["ops_per_s"][0]
        print(f"== {name}: traced run (seed {args.seed + UNTRACED_REPEATS})")
        print_breakdown(name, traced["layers"])
        print(f"{name:14s} trace_overhead_frac vs untraced median "
              f"{(untraced - traced_ops) / untraced:12.4f} "
              f"(traced {traced_ops:.2f} ops/s, untraced median {untraced:.2f})")
        for result in runs + [traced]:
            print(f"{name:14s} seed {result['seed']} {steal_note(result)}")
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["correct"] &= result["correct"]
            for error, count in result["errors"].items():
                print(f"{name:14s} seed {result['seed']} error x{count}: {error}")
    print(json.dumps(summary))
    return 0


def run_subprocess(name: str, seed: int, seconds: float, *, trace: bool) -> dict:
    work = make_work_dir()
    detail = work / "detail.json"
    try:
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--detail-out", str(detail)],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        return json.loads(detail.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def make_work_dir() -> pathlib.Path:
    work = ROOT / "perfbench" / ".work" / f"{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its providers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = make_work_dir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.detail_out:
        pathlib.Path(args.detail_out).write_text(json.dumps(result))
    print_run(result)
    print(json_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
