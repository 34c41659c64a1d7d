"""E11: BATCH_QUERY throughput vs sequential QUERY round trips, per scheme.

New-workload claim (no paper counterpart): the protocol-v2 ``BATCH_QUERY``
message answers N exact selects in one round trip, so the per-message costs
-- envelope encode/parse, relation lookup, response framing -- are paid once
instead of N times, while the server performs the same ciphertext evaluation
work either way (and Eve's audit log records the same N queries).

The benchmark drives both paths through the byte-level wire interface
(``handle_message``), measuring whole frames in and out, for every scheme in
the registry.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis.reporting import ExperimentTable
from repro.api import EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import protocol
from repro.outsourcing.protocol import Message, MessageKind
from repro.schemes.registry import available_schemes
from repro.workloads import EmployeeWorkload

TABLE_SIZE = 400
NUM_QUERIES = 40
SEED = 11


def _wire_sequential(db, name, encrypted_queries):
    """N QUERY frames, one round trip each; returns (elapsed_s, result_sizes)."""
    sizes = []
    start = time.perf_counter()
    for encrypted_query in encrypted_queries:
        frame = Message(
            kind=MessageKind.QUERY,
            relation_name=name,
            body=protocol.encode_encrypted_query(encrypted_query),
        ).to_bytes()
        response = protocol.parse_message(db.server.handle_message(frame))
        result, _ = protocol.decode_evaluation_result(response.body)
        sizes.append(len(result.matching))
    return time.perf_counter() - start, sizes


def _wire_batched(db, name, encrypted_queries):
    """One BATCH_QUERY frame; returns (elapsed_s, result_sizes)."""
    start = time.perf_counter()
    frame = Message(
        kind=MessageKind.BATCH_QUERY,
        relation_name=name,
        body=protocol.encode_query_batch(encrypted_queries),
    ).to_bytes()
    response = protocol.parse_message(db.server.handle_message(frame))
    results = protocol.decode_result_batch(response.body)
    return time.perf_counter() - start, [len(r.matching) for r in results]


def run_e11_batch_queries():
    """Time both paths for every registered scheme."""
    workload = EmployeeWorkload.generate(TABLE_SIZE, seed=SEED)
    queries = [
        workload.name_query(i * (TABLE_SIZE // NUM_QUERIES)) for i in range(NUM_QUERIES)
    ]
    table = ExperimentTable(
        title=f"E11: {NUM_QUERIES} exact selects over {TABLE_SIZE} tuples, "
              "sequential QUERY vs one BATCH_QUERY",
        columns=["scheme", "sequential ms", "batch ms", "speedup",
                 "queries/s (batch)", "hits"],
    )
    rows = []
    for scheme_name in available_schemes():
        rng = DeterministicRng(SEED)
        db = EncryptedDatabase.open(SecretKey.generate(rng=rng), scheme=scheme_name, rng=rng)
        db.create_table(workload.schema, rows=[tuple(t.as_dict().values()) for t in workload.relation])
        name = workload.schema.name
        handle = db.table(name)
        encrypted_queries = [handle.scheme.encrypt_query(q) for q in queries]

        sequential_s, sequential_sizes = _wire_sequential(db, name, encrypted_queries)
        batch_s, batch_sizes = _wire_batched(db, name, encrypted_queries)
        assert batch_sizes == sequential_sizes, scheme_name

        rows.append((scheme_name, sequential_s, batch_s, sum(batch_sizes)))
        table.add_row(
            scheme_name,
            sequential_s * 1000.0,
            batch_s * 1000.0,
            sequential_s / batch_s if batch_s else float("inf"),
            NUM_QUERIES / batch_s if batch_s else float("inf"),
            sum(batch_sizes),
        )
    return table, rows


def test_e11_batch_queries(benchmark, record_table):
    table, rows = run_once(benchmark, run_e11_batch_queries)
    record_table("e11_batch_queries", table)

    assert {row[0] for row in rows} == set(available_schemes())
    for scheme_name, sequential_s, batch_s, hits in rows:
        # Every query found its target tuple.
        assert hits >= NUM_QUERIES, scheme_name
        # Batching must never cost materially more than the sequential path
        # (the evaluation work is identical; only framing overhead differs).
        assert batch_s <= sequential_s * 1.5 + 0.005, scheme_name
