"""Provider processes: ``repro serve`` subprocesses, plain or traced.

A plain provider is ``python -m repro.cli serve``.  A traced provider is the
same entry point started through ``perfbench/provider.py``, which wraps the
provider-side layers first; on ``SIGUSR1`` it writes its layer totals to
``<trace_out>.<n>``, so the client can take the totals at the edges of the
timed window.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTUP_TIMEOUT_S = 60
STOP_TIMEOUT_S = 20


class ProviderError(RuntimeError):
    """A provider that did not start, answer or stop as expected."""


class Provider:
    """One provider subprocess listening on an ephemeral port."""

    def __init__(self, log: pathlib.Path, data_dir: pathlib.Path | None = None,
                 trace_out: pathlib.Path | None = None) -> None:
        self.log = log
        self.data_dir = data_dir
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.address = ""
        self._dumps = 0

    def start(self) -> "Provider":
        args = ["serve", "--port", "0", "--max-audit-events", "1000"]
        if self.data_dir is not None:
            args += ["--data-dir", str(self.data_dir)]
        if self.trace_out is not None:
            command = [sys.executable, str(ROOT / "perfbench" / "provider.py"),
                       str(self.trace_out), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self._dumps = 0
        # Output goes to a file: an unread pipe could fill and stall it.
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
            )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            match = re.search(r"tcp://([\d.]+):(\d+)", self.log.read_text())
            if match:
                self.address = f"{match.group(1)}:{match.group(2)}"
                return self
            time.sleep(0.02)
        self.kill()
        raise ProviderError(f"provider did not start: {self.log.read_text()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def dump_layers(self) -> dict:
        """Ask a traced provider for its layer totals so far."""
        path = pathlib.Path(f"{self.trace_out}.{self._dumps}")
        self._dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ProviderError("traced provider wrote no layer totals")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def kill(self) -> None:
        """SIGKILL, as a crash would, and reap."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        """SIGTERM and wait for a clean exit (SIGKILL if it hangs)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait(timeout=STOP_TIMEOUT_S)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ProviderError(f"no VmHWM for process {pid}")


def steal_ticks() -> int:
    """Host CPU time stolen by the hypervisor so far, over all CPUs, in
    clock ticks (the ``steal`` column of the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8])


def steal_frac(ticks: int, elapsed_s: float) -> float:
    """Stolen ticks as a share of the CPU time all CPUs had in ``elapsed_s``."""
    return ticks / (os.sysconf("SC_CLK_TCK") * os.cpu_count() * elapsed_s)
