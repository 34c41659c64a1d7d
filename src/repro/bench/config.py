"""Declarative experiment matrix configs.

An experiment is a JSON document naming a matrix of benchmark cells plus
the measurement discipline and regression gates applied to all of them
(FuzzBench-style: the *what* of an experiment lives in config, the *how*
in the runner)::

    {
      "experiment": "quick",
      "warmup": 1,
      "repeats": 3,
      "seed": 8,
      "matrix": [
        {"benchmark": "exact_select", "scheme": "swp",
         "transport": ["in-process", "tcp"], "table_size": 96,
         "operations": 12},
        {"benchmark": "exact_select", "transport": "cluster",
         "shards": 2, "in_flight": 2, "table_size": 96, "operations": 12}
      ],
      "gates": {
        "max_regression_pct": 20,
        "max_p99_s": {"session_op_seconds": 5.0}
      }
    }

Every axis of a matrix entry may be a scalar or a list; lists expand to
the Cartesian product, so one entry declares a whole sweep.  Each expanded
cell gets a stable ``config_id`` -- the join key under which the store,
report and gates track its trajectory across revisions.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field

#: Workload kinds the runner knows how to drive.
BENCHMARKS = ("exact_select", "insert")

#: Transport axis values (cluster uses ``shards`` providers).
TRANSPORTS = ("in-process", "tcp", "cluster")

#: Key-popularity axis for read workloads: ``uniform`` cycles evenly over
#: the table, ``zipfian`` skews towards hot keys (the million-user regime
#: the cache tier targets), shaped by ``zipf_exponent``.
WORKLOADS = ("uniform", "zipfian")

#: Cache-tier axis: which hot-key result caches (see :mod:`repro.cache`)
#: the deployment runs with.  ``coordinator`` and ``both`` need a cluster
#: transport (the coordinator cache lives in the shard router).
CACHE_MODES = ("off", "client", "coordinator", "both")

#: Default Zipf skew; only recorded in the config_id when it matters
#: (zipfian cells), so pre-existing ids stay stable.
DEFAULT_ZIPF_EXPONENT = 1.1


class ConfigError(ValueError):
    """A matrix config that cannot be run."""


@dataclass(frozen=True)
class CellConfig:
    """One fully expanded point of the experiment matrix."""

    benchmark: str
    scheme: str = "swp"
    transport: str = "in-process"
    shards: int = 1
    in_flight: int = 1
    table_size: int = 100
    operations: int = 10
    workload: str = "uniform"
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    cache: str = "off"

    @property
    def config_id(self) -> str:
        """Stable identity of this cell across revisions (the join key).

        The workload and cache axes only appear for non-default values,
        so every pre-existing cell keeps the id its history was recorded
        under.
        """
        suffix = ""
        if self.workload != "uniform":
            suffix += f":w{self.workload}:z{self.zipf_exponent:g}"
        if self.cache != "off":
            suffix += f":c{self.cache}"
        return (
            f"{self.benchmark}:{self.scheme}:{self.transport}"
            f":s{self.shards}:d{self.in_flight}"
            f":n{self.table_size}:q{self.operations}{suffix}"
        )

    @property
    def uses_subprocess_fleet(self) -> bool:
        return self.transport != "in-process"

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "transport": self.transport,
            "shards": self.shards,
            "in_flight": self.in_flight,
            "table_size": self.table_size,
            "operations": self.operations,
            "workload": self.workload,
            "zipf_exponent": self.zipf_exponent,
            "cache": self.cache,
        }

    def validate(self) -> None:
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(
                f"unknown benchmark {self.benchmark!r}; pick one of {BENCHMARKS}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigError(
                f"unknown transport {self.transport!r}; pick one of {TRANSPORTS}"
            )
        for knob in ("shards", "in_flight", "table_size", "operations"):
            value = getattr(self, knob)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{knob} must be a positive integer, got {value!r}")
        if self.transport == "cluster":
            if self.shards < 1:
                raise ConfigError("the cluster transport needs shards >= 1")
        elif self.shards != 1:
            raise ConfigError(
                f"transport {self.transport!r} runs one provider; shards must be 1"
            )
        if self.transport == "in-process" and self.in_flight != 1:
            raise ConfigError(
                "in-process sessions are single-threaded; in_flight must be 1 "
                "(use a tcp or cluster transport for concurrent clients)"
            )
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; pick one of {WORKLOADS}"
            )
        if (
            not isinstance(self.zipf_exponent, (int, float))
            or isinstance(self.zipf_exponent, bool)
            or self.zipf_exponent <= 0
        ):
            raise ConfigError(
                f"zipf_exponent must be a positive number, got {self.zipf_exponent!r}"
            )
        if self.cache not in CACHE_MODES:
            raise ConfigError(
                f"unknown cache mode {self.cache!r}; pick one of {CACHE_MODES}"
            )
        if self.cache in ("coordinator", "both") and self.transport != "cluster":
            raise ConfigError(
                f"cache mode {self.cache!r} needs a cluster transport "
                "(the coordinator cache lives in the shard router)"
            )
        if self.benchmark != "exact_select" and self.workload != "uniform":
            raise ConfigError(
                f"the workload axis shapes read key popularity; "
                f"benchmark {self.benchmark!r} only supports 'uniform'"
            )


@dataclass(frozen=True)
class GateSpec:
    """Declarative thresholds evaluated by :mod:`repro.bench.gates`.

    ``max_regression_pct`` bounds the throughput drop of every cell against
    the baseline revision; ``max_p99_s`` maps latency-histogram metric
    names to absolute p99 ceilings checked on the candidate alone.
    """

    max_regression_pct: float | None = None
    max_p99_s: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "GateSpec":
        if not isinstance(raw, dict):
            raise ConfigError(f"gates must be an object, got {type(raw).__name__}")
        unknown = set(raw) - {"max_regression_pct", "max_p99_s"}
        if unknown:
            raise ConfigError(f"unknown gate key(s): {sorted(unknown)}")
        regression = raw.get("max_regression_pct")
        if regression is not None:
            if not isinstance(regression, (int, float)) or regression <= 0:
                raise ConfigError(
                    f"max_regression_pct must be a positive number, got {regression!r}"
                )
        ceilings = raw.get("max_p99_s", {})
        if not isinstance(ceilings, dict):
            raise ConfigError("max_p99_s must map metric names to ceilings")
        for metric, ceiling in ceilings.items():
            if not isinstance(ceiling, (int, float)) or ceiling <= 0:
                raise ConfigError(
                    f"max_p99_s[{metric!r}] must be a positive number, got {ceiling!r}"
                )
        return cls(
            max_regression_pct=float(regression) if regression is not None else None,
            max_p99_s={str(k): float(v) for k, v in ceilings.items()},
        )


@dataclass(frozen=True)
class MatrixConfig:
    """A named experiment: expanded cells + discipline + gates."""

    experiment: str
    cells: tuple[CellConfig, ...]
    warmup: int = 1
    repeats: int = 3
    seed: int = 0
    gates: GateSpec = field(default_factory=GateSpec)

    @property
    def result_name(self) -> str:
        """The store entry this experiment writes (``bench_<experiment>``)."""
        return f"bench_{self.experiment}"

    @classmethod
    def from_dict(cls, raw: dict) -> "MatrixConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        unknown = set(raw) - {"experiment", "warmup", "repeats", "seed", "matrix", "gates"}
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        experiment = raw.get("experiment")
        if not isinstance(experiment, str) or not experiment.strip():
            raise ConfigError("experiment must be a non-empty string")
        warmup = raw.get("warmup", 1)
        repeats = raw.get("repeats", 3)
        seed = raw.get("seed", 0)
        if not isinstance(warmup, int) or isinstance(warmup, bool) or warmup < 0:
            raise ConfigError(f"warmup must be a non-negative integer, got {warmup!r}")
        if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
            raise ConfigError(f"repeats must be a positive integer, got {repeats!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        matrix = raw.get("matrix")
        if not isinstance(matrix, list) or not matrix:
            raise ConfigError("matrix must be a non-empty list of entries")
        cells: list[CellConfig] = []
        seen: set[str] = set()
        for position, entry in enumerate(matrix):
            for cell in expand_matrix_entry(entry, position=position):
                cell.validate()
                if cell.config_id in seen:
                    raise ConfigError(
                        f"matrix expands to duplicate cell {cell.config_id}"
                    )
                seen.add(cell.config_id)
                cells.append(cell)
        gates = GateSpec.from_dict(raw.get("gates", {}))
        return cls(
            experiment=experiment.strip(),
            cells=tuple(cells),
            warmup=warmup,
            repeats=repeats,
            seed=seed,
            gates=gates,
        )

    @classmethod
    def load(cls, path: pathlib.Path | str) -> "MatrixConfig":
        """Parse and validate a JSON matrix config file."""
        path = pathlib.Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


_AXES = ("benchmark", "scheme", "transport", "shards", "in_flight",
         "table_size", "operations", "workload", "zipf_exponent", "cache")


def expand_matrix_entry(entry: dict, *, position: int = 0) -> list[CellConfig]:
    """Expand one matrix entry (scalar-or-list axes) to concrete cells."""
    if not isinstance(entry, dict):
        raise ConfigError(
            f"matrix[{position}] must be an object, got {type(entry).__name__}"
        )
    unknown = set(entry) - set(_AXES)
    if unknown:
        raise ConfigError(f"matrix[{position}] has unknown axis/axes: {sorted(unknown)}")
    if "benchmark" not in entry:
        raise ConfigError(f"matrix[{position}] needs a benchmark")
    choices: list[list] = []
    for axis in _AXES:
        if axis not in entry:
            choices.append([None])
            continue
        value = entry[axis]
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        if not values:
            raise ConfigError(f"matrix[{position}].{axis} expands to nothing")
        choices.append(values)
    cells = []
    for combination in itertools.product(*choices):
        kwargs = {
            axis: value
            for axis, value in zip(_AXES, combination)
            if value is not None
        }
        cells.append(CellConfig(**kwargs))
    return cells
