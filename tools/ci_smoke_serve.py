"""CI smoke test of the standalone provider.

Starts ``repro serve`` as a real subprocess, runs one remote query through
``EncryptedDatabase.connect("tcp://...")``, sends a raw hello offering a
protocol version the provider does not speak (it must be refused cleanly,
closing only that connection), runs a full CRUD round trip on the same
provider, then shuts the provider down with SIGTERM and checks it exits
cleanly.  Every wait is bounded so a hung
provider fails the CI step instead of wedging it (the workflow additionally
wraps the whole script in ``timeout``).

Usage::

    PYTHONPATH=src python tools/ci_smoke_serve.py
"""

from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import tempfile

STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 15


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as data_dir:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--data-dir", data_dir, "--max-audit-events", "100",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"tcp://([\d.]+):(\d+)", banner)
            if not match:
                print(f"FAIL: no listening banner, got {banner!r}")
                return 1
            url = f"tcp://{match.group(1)}:{match.group(2)}"
            print(f"provider up at {url}")

            from repro.api import EncryptedDatabase

            with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
                db.create_table(
                    "Smoke(name:string[10], value:int[4])",
                    rows=[("a", 1), ("b", 2), ("c", 1)],
                )
                outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
                if len(outcome.relation) != 2:
                    print(f"FAIL: expected 2 rows, got {len(outcome.relation)}")
                    return 1
                print("remote query answered correctly")

            if not refuses_other_version(match.group(1), int(match.group(2))):
                return 1
            if not crud_round_trip(url):
                return 1

            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"FAIL: provider exited {proc.returncode}\n{output}")
                return 1
            if "stopped" not in output:
                print(f"FAIL: no graceful-shutdown banner\n{output}")
                return 1
            print(f"provider shut down cleanly: {output.strip().splitlines()[-1]}")
            return 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def refuses_other_version(host: str, port: int) -> bool:
    """A hello offering only an unsupported version gets ok=false, then EOF."""
    from repro.net import CHANNEL_CONTROL, recv_frame, send_frame
    from repro.outsourcing.protocol import PROTOCOL_VERSION

    offered = PROTOCOL_VERSION - 1
    with socket.create_connection((host, port), timeout=STARTUP_TIMEOUT_S) as sock:
        hello = json.dumps({"op": "hello", "versions": [offered]}).encode()
        send_frame(sock, hello, channel=CHANNEL_CONTROL, correlation=1)
        frame = recv_frame(sock)
        if frame is None:
            print("FAIL: provider hung up without answering the hello")
            return False
        response = json.loads(frame.payload)
        if response.get("ok") or response.get("versions") != [PROTOCOL_VERSION]:
            print(f"FAIL: hello offering v{offered} was not refused: {response}")
            return False
        if recv_frame(sock) is not None:
            print("FAIL: the refused connection stayed open")
            return False
    print(f"hello offering v{offered} refused and its connection closed")
    return True


def crud_round_trip(url: str) -> bool:
    """Create, insert, select, update, delete and drop on one provider."""
    from repro.api import EncryptedDatabase

    with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
        db.create_table("Crud(name:string[10], value:int[4])", rows=[("a", 1), ("b", 2)])
        db.insert("Crud", ("c", 3))
        updated = db.update("SELECT * FROM Crud WHERE name = 'b'", {"value": 9})
        deleted = db.delete("SELECT * FROM Crud WHERE name = 'a'")
        rows = sorted(tuple(t.values()) for t in db.retrieve_all("Crud"))
        db.drop_table("Crud")
    if (updated, deleted, rows) != (1, 1, [("b", 9), ("c", 3)]):
        print(f"FAIL: CRUD round trip got {(updated, deleted, rows)}")
        return False
    print("CRUD round trip after the refused hello answered correctly")
    return True


if __name__ == "__main__":
    sys.exit(main())
