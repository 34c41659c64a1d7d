"""Traced provider launcher: ``repro serve`` with its layers wrapped.

Usage::

    PYTHONPATH=src python perfbench/provider.py TRACE_OUT serve --port 0 ...

Wraps the provider-side layer calls (see :func:`perfbench.layers.install_provider`),
then runs the ``repro.cli`` entry point with the remaining arguments.  Each
``SIGUSR1`` writes the layer totals so far to ``TRACE_OUT.<n>`` (n = 0, 1,
...); the totals at exit go to ``TRACE_OUT``.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.layers import LayerTracer, install_provider  # noqa: E402


def _write(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)  # the reader never sees a partial file


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    # Load every module that holds a codec reference before wrapping.
    import repro.cli  # noqa: F401
    import repro.net.evaluators  # noqa: F401
    import repro.net.server  # noqa: F401

    tracer = LayerTracer()
    install_provider(tracer)
    dumps = itertools.count()
    signal.signal(
        signal.SIGUSR1,
        lambda signum, frame: _write(f"{trace_out}.{next(dumps)}", tracer.snapshot()),
    )
    code = repro.cli.main(cli_args)
    _write(trace_out, tracer.snapshot())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
