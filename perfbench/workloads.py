"""Seeded operation streams, the plaintext reference model, and the op executor.

Every workload draws its operations from ``random.Random`` seeded with the
run's ``--seed``, the workload name and the client index, so one seed always
replays the same operations.  The generators track the state they intend the
relation to have (which keys are live and with what value); the shared
:class:`ReferenceModel` tracks what a select may legitimately answer, including
reads that race a concurrent write by another client.

The generators are the benchmark's own rather than ``repro.workloads``: a
change to the program must not change the inputs it is measured on.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
from dataclasses import dataclass

TABLE = "Bench"
#: 14 + 5 + 6 = 25 bytes of declared plaintext per row (the space_amp base).
TABLE_DECL = f"{TABLE}(name:string[14], grp:string[5], val:int[6])"
ROW_WIDTH_BYTES = 25
GROUPS = ("alpha", "beta", "gamma", "delta", "omega")
VAL_RANGE = 10**6


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes and traffic mix of one workload (see NOTES.md for the why)."""

    name: str
    rows: int
    clients: int
    read_frac: float
    zipf_exponent: float | None = None


SPECS = {
    "scan-select": WorkloadSpec("scan-select", rows=1_000, clients=1, read_frac=1.0),
    "durable-mixed": WorkloadSpec("durable-mixed", rows=2_000, clients=1, read_frac=0.7),
    "cluster-zipf": WorkloadSpec(
        "cluster-zipf", rows=5_000, clients=2, read_frac=0.95, zipf_exponent=1.1
    ),
}


def key_name(index: int) -> str:
    return f"k{index:07d}"


def select_sql(index: int) -> str:
    return f"SELECT * FROM {TABLE} WHERE name = '{key_name(index)}'"


def _random_value(rng: random.Random) -> tuple[str, int]:
    return (rng.choice(GROUPS), rng.randrange(VAL_RANGE))


def _changed_value(rng: random.Random, old: tuple[str, int]) -> tuple[str, int]:
    """A value whose ``val`` differs from ``old``: an update is always visible."""
    return (rng.choice(GROUPS), (old[1] + 1 + rng.randrange(VAL_RANGE - 1)) % VAL_RANGE)


def initial_values(spec: WorkloadSpec, seed: int) -> dict[int, tuple[str, int]]:
    """The seeded relation: key index -> (grp, val)."""
    rng = random.Random(f"{seed}/{spec.name}/rows")
    return {index: _random_value(rng) for index in range(spec.rows)}


def as_rows(values: dict[int, tuple[str, int]]) -> list[tuple]:
    return [(key_name(index), grp, val) for index, (grp, val) in values.items()]


class IndexedSet:
    """A set with O(1) add, remove and uniform choice."""

    def __init__(self, items=()) -> None:
        self._items: list[int] = []
        self._positions: dict[int, int] = {}
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._positions

    def add(self, item: int) -> None:
        if item not in self._positions:
            self._positions[item] = len(self._items)
            self._items.append(item)

    def remove(self, item: int) -> None:
        position = self._positions.pop(item)
        last = self._items.pop()
        if position < len(self._items):
            self._items[position] = last
            self._positions[last] = position

    def choice(self, rng: random.Random) -> int:
        return self._items[rng.randrange(len(self._items))]


class ZipfSampler:
    """Zipf(exponent) over ``count`` keys; rank r is drawn with p ~ 1/r^s.

    Which key holds which rank is a seeded permutation, so the hot set is
    spread over both owners in ``cluster-zipf``.
    """

    def __init__(self, count: int, exponent: float, rng: random.Random) -> None:
        self._cdf = list(itertools.accumulate(1.0 / (r**exponent) for r in range(1, count + 1)))
        self._keys = list(range(count))
        rng.shuffle(self._keys)

    def sample(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random() * self._cdf[-1])
        return self._keys[min(rank, len(self._keys) - 1)]


class OpStream:
    """One client's deterministic operation stream.

    Ops are tuples: ``("select", key)``, ``("insert", key, value)``,
    ``("update", key, value)``, ``("delete", key)``.  The stream keeps the
    state it intends for the keys it writes, so every write it emits is valid
    (an update or delete always targets a live key, an insert an absent one).
    """

    def __init__(self, spec: WorkloadSpec, seed: int, client: int) -> None:
        self.spec = spec
        self.client = client
        self._rng = random.Random(f"{seed}/{spec.name}/ops/{client}")
        values = initial_values(spec, seed)
        # Keys this client may write: in cluster-zipf each key has one owner.
        owned = [k for k in values if k % spec.clients == client]
        self._values = {k: values[k] for k in owned}
        self._live_all = IndexedSet(values)  # uniform reads over live keys
        self._writable = IndexedSet()  # live keys this client may update/delete
        self._dead = IndexedSet()  # owned keys this client deleted
        self._next_fresh = spec.rows + client
        self._zipf = None
        if spec.zipf_exponent is not None:
            # Shared by both clients (same permutation), seeded by the run.
            self._zipf = ZipfSampler(
                spec.rows, spec.zipf_exponent, random.Random(f"{seed}/{spec.name}/zipf")
            )
            self._writable = IndexedSet(owned)

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        rng = self._rng
        if rng.random() < self.spec.read_frac:
            if self._zipf is not None:
                return ("select", self._zipf.sample(rng))
            return ("select", self._live_all.choice(rng))
        # Writes split evenly.  In durable-mixed only rows this run inserted
        # are writable, so the relation stays near its seeded size.
        kind = ("insert", "update", "delete")[rng.randrange(3)]
        if kind != "insert" and not self._writable:
            kind = "insert"
        if kind == "insert":
            if self._dead:
                key = self._dead.choice(rng)
                self._dead.remove(key)
            else:
                key = self._next_fresh
                self._next_fresh += self.spec.clients
            value = _random_value(rng)
            self._values[key] = value
            self._writable.add(key)
            self._live_all.add(key)
            return ("insert", key, value)
        key = self._writable.choice(rng)
        if kind == "update":
            value = _changed_value(rng, self._values[key])
            self._values[key] = value
            return ("update", key, value)
        self._writable.remove(key)
        self._live_all.remove(key)
        del self._values[key]
        if key < self.spec.rows:
            self._dead.add(key)
        return ("delete", key)


class ReferenceModel:
    """What each key held over time, for checking answers against plaintext.

    A write appends the key's new value (``None`` = absent) before it is sent
    and marks it committed once acknowledged.  A select records the committed
    position when it starts; when it ends, every value from there to the
    latest (possibly still pending) one is one the key held during the read.
    With no racing write that window is a single value and the answer must be
    exactly it.  A read that races the owner's write may see the value from
    before or after it -- and, because an update is insert-then-delete, both
    for the instant between the two.
    """

    def __init__(self, values: dict[int, tuple[str, int]]) -> None:
        self._lock = threading.Lock()
        self._history: dict[int, list] = {k: [v] for k, v in values.items()}
        self._committed: dict[int, int] = dict.fromkeys(values, 0)

    def write_begin(self, key: int, value) -> None:
        with self._lock:
            self._history.setdefault(key, [None]).append(value)
            self._committed.setdefault(key, 0)

    def write_end(self, key: int) -> None:
        with self._lock:
            self._committed[key] = len(self._history[key]) - 1

    def read_begin(self, key: int) -> int:
        with self._lock:
            return self._committed.get(key, 0)

    def read_ok(self, key: int, start: int, rows: list[tuple[str, int]]) -> bool:
        with self._lock:
            window = self._history.get(key, [None])[start:]
        if len(window) == 1:
            return rows == ([] if window[0] is None else [window[0]])
        if not rows:
            return None in window
        allowed = {value for value in window if value is not None}
        return len(set(rows)) == len(rows) and set(rows) <= allowed

    def committed_rows(self) -> list[tuple]:
        """Every live row as ``(name, grp, val)``, from acknowledged writes."""
        with self._lock:
            return [
                (key_name(key), *history[self._committed[key]])
                for key, history in self._history.items()
                if history[self._committed[key]] is not None
            ]

    def live_count(self) -> int:
        return len(self.committed_rows())


def execute(session, op: tuple, model: ReferenceModel) -> bool:
    """Run one op through the session; True when the answer or ack is right.

    Exceptions propagate: the caller counts them as failed operations.
    """
    kind, key = op[0], op[1]
    if kind == "select":
        start = model.read_begin(key)
        outcome = session.select(select_sql(key))
        rows = [(t["grp"], t["val"]) for t in outcome.relation]
        return model.read_ok(key, start, rows)
    if kind == "insert":
        grp, val = op[2]
        model.write_begin(key, op[2])
        try:
            session.insert(TABLE, {"name": key_name(key), "grp": grp, "val": val})
        finally:
            model.write_end(key)
        return True
    if kind == "update":
        grp, val = op[2]
        model.write_begin(key, op[2])
        try:
            changed = session.update(select_sql(key), {"grp": grp, "val": val})
        finally:
            model.write_end(key)
        return changed == 1
    model.write_begin(key, None)
    try:
        deleted = session.delete(select_sql(key))
    finally:
        model.write_end(key)
    return deleted == 1
