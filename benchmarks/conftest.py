"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment table (E1-E10, see
``repro.experiments.registry``) and

* records the wall-clock of the full experiment through ``pytest-benchmark``;
* asserts the qualitative *shape* of the result (who wins, by roughly what
  factor) so a regression in the library shows up as a benchmark failure;
* writes the rendered table to ``benchmarks/results/<experiment>.txt`` so the
  rows can be compared against ``EXPERIMENTS.md`` even when pytest captures
  stdout;
* writes a machine-readable twin through the per-revision result store
  (``benchmarks/results/<git-rev>/<experiment>.json`` plus a latest copy at
  the legacy path; table + optional headline metrics/params + git revision,
  see ``_results.py``) so the performance trajectory accumulates across
  commits and is trackable by ``repro bench report`` / ``gate``.
"""

from __future__ import annotations

import pathlib

import pytest

from _results import write_result_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Return a callable that persists a rendered experiment table.

    ``metrics`` and ``params`` are optional headline numbers and experiment
    parameters folded into the JSON twin of the table.  The fixture
    snapshots the process-wide metrics plane at setup and records only the
    *delta* at record time, so one benchmark's ``runtime_metrics`` reflects
    its own operations -- not the histograms of every benchmark the pytest
    session ran before it.
    """
    from repro.obs.metrics import aggregate_snapshot, snapshot_delta

    baseline = aggregate_snapshot()

    def _record(name: str, table, metrics: dict | None = None,
                params: dict | None = None) -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        rendered = table.render()
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
        write_result_json(
            name,
            title=table.title,
            columns=list(table.columns),
            rows=[list(row) for row in table.rows],
            metrics=metrics,
            params=params,
            runtime_metrics=snapshot_delta(baseline, aggregate_snapshot()),
        )
        print()
        print(rendered)
        return rendered

    return _record


def run_once(benchmark, func, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, kwargs=kwargs, iterations=1, rounds=1, warmup_rounds=0)
