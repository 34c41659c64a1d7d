"""Matrix config parsing, expansion and validation."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    CellConfig,
    ConfigError,
    GateSpec,
    MatrixConfig,
    expand_matrix_entry,
)


def _minimal(**overrides) -> dict:
    raw = {
        "experiment": "t",
        "matrix": [{"benchmark": "exact_select"}],
    }
    raw.update(overrides)
    return raw


class TestExpansion:
    def test_scalar_axes_expand_to_one_cell(self):
        cells = expand_matrix_entry({"benchmark": "exact_select", "scheme": "swp"})
        assert len(cells) == 1
        assert cells[0].scheme == "swp"
        assert cells[0].transport == "in-process"

    def test_list_axes_expand_to_the_cartesian_product(self):
        cells = expand_matrix_entry(
            {
                "benchmark": "exact_select",
                "transport": ["tcp", "cluster"],
                "in_flight": [1, 4],
            }
        )
        assert len(cells) == 4
        assert {(c.transport, c.in_flight) for c in cells} == {
            ("tcp", 1), ("tcp", 4), ("cluster", 1), ("cluster", 4),
        }

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            expand_matrix_entry({"benchmark": "exact_select", "threads": 3})

    def test_benchmark_is_required(self):
        with pytest.raises(ConfigError, match="needs a benchmark"):
            expand_matrix_entry({"scheme": "swp"})

    def test_empty_list_axis_rejected(self):
        with pytest.raises(ConfigError, match="expands to nothing"):
            expand_matrix_entry({"benchmark": "insert", "transport": []})


class TestCellValidation:
    def test_config_id_is_stable_and_distinct(self):
        one = CellConfig(benchmark="exact_select", transport="tcp")
        same = CellConfig(benchmark="exact_select", transport="tcp")
        other = CellConfig(benchmark="exact_select", transport="tcp", in_flight=2)
        assert one.config_id == same.config_id
        assert one.config_id != other.config_id

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            CellConfig(benchmark="sort").validate()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError, match="unknown transport"):
            CellConfig(benchmark="insert", transport="udp").validate()

    def test_non_cluster_transport_refuses_shards(self):
        with pytest.raises(ConfigError, match="shards must be 1"):
            CellConfig(benchmark="insert", transport="tcp", shards=2).validate()

    def test_in_process_refuses_concurrent_clients(self):
        with pytest.raises(ConfigError, match="in_flight must be 1"):
            CellConfig(benchmark="insert", in_flight=2).validate()

    def test_cluster_allows_shards_and_depth(self):
        CellConfig(
            benchmark="exact_select", transport="cluster",
            shards=3, in_flight=4,
        ).validate()

    def test_positive_integer_knobs(self):
        with pytest.raises(ConfigError, match="table_size"):
            CellConfig(benchmark="insert", table_size=0).validate()
        with pytest.raises(ConfigError, match="operations"):
            CellConfig(benchmark="insert", operations=-1).validate()

    def test_workload_axis_validated(self):
        CellConfig(benchmark="exact_select", workload="zipfian").validate()
        with pytest.raises(ConfigError, match="unknown workload"):
            CellConfig(benchmark="exact_select", workload="zipf").validate()
        with pytest.raises(ConfigError, match="zipf_exponent"):
            CellConfig(
                benchmark="exact_select", workload="zipfian", zipf_exponent=0
            ).validate()
        with pytest.raises(ConfigError, match="only supports 'uniform'"):
            CellConfig(benchmark="insert", workload="zipfian").validate()

    def test_cache_axis_validated(self):
        CellConfig(benchmark="exact_select", cache="client").validate()
        CellConfig(
            benchmark="exact_select", transport="cluster", shards=2,
            in_flight=2, cache="coordinator",
        ).validate()
        with pytest.raises(ConfigError, match="unknown cache mode"):
            CellConfig(benchmark="exact_select", cache="on").validate()
        with pytest.raises(ConfigError, match="needs a cluster transport"):
            CellConfig(benchmark="exact_select", cache="coordinator").validate()
        with pytest.raises(ConfigError, match="needs a cluster transport"):
            CellConfig(
                benchmark="exact_select", transport="tcp", cache="both"
            ).validate()

    def test_default_workload_and_cache_keep_legacy_config_ids(self):
        # The new axes must not rename pre-existing cells: their history
        # in the result store is keyed on config_id.
        cell = CellConfig(benchmark="exact_select", transport="tcp")
        assert cell.config_id == "exact_select:swp:tcp:s1:d1:n100:q10"
        zipf = CellConfig(
            benchmark="exact_select", workload="zipfian", zipf_exponent=1.3,
            cache="client",
        )
        assert zipf.config_id.endswith(":wzipfian:z1.3:cclient")


class TestMatrixConfig:
    def test_full_document_parses(self):
        config = MatrixConfig.from_dict(
            {
                "experiment": "quick",
                "warmup": 2,
                "repeats": 5,
                "seed": 7,
                "matrix": [
                    {"benchmark": "exact_select", "transport": ["in-process", "tcp"]},
                    {"benchmark": "insert", "transport": "tcp"},
                ],
                "gates": {
                    "max_regression_pct": 20,
                    "max_p99_s": {"session_op_seconds": 5.0},
                },
            }
        )
        assert config.experiment == "quick"
        assert config.result_name == "bench_quick"
        assert len(config.cells) == 3
        assert config.warmup == 2 and config.repeats == 5 and config.seed == 7
        assert config.gates.max_regression_pct == 20.0
        assert config.gates.max_p99_s == {"session_op_seconds": 5.0}

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ConfigError, match="duplicate cell"):
            MatrixConfig.from_dict(
                _minimal(matrix=[
                    {"benchmark": "exact_select"},
                    {"benchmark": "exact_select"},
                ])
            )

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            MatrixConfig.from_dict(_minimal(reps=3))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            MatrixConfig.from_dict(_minimal(matrix=[]))

    def test_experiment_name_required(self):
        with pytest.raises(ConfigError, match="experiment"):
            MatrixConfig.from_dict({"matrix": [{"benchmark": "insert"}]})

    def test_discipline_knobs_validated(self):
        with pytest.raises(ConfigError, match="repeats"):
            MatrixConfig.from_dict(_minimal(repeats=0))
        with pytest.raises(ConfigError, match="warmup"):
            MatrixConfig.from_dict(_minimal(warmup=-1))
        with pytest.raises(ConfigError, match="seed"):
            MatrixConfig.from_dict(_minimal(seed="x"))

    def test_gate_validation(self):
        with pytest.raises(ConfigError, match="max_regression_pct"):
            GateSpec.from_dict({"max_regression_pct": -5})
        with pytest.raises(ConfigError, match="max_p99_s"):
            GateSpec.from_dict({"max_p99_s": {"m": 0}})
        with pytest.raises(ConfigError, match="unknown gate"):
            GateSpec.from_dict({"max_p50_s": {}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_minimal()), encoding="utf-8")
        assert MatrixConfig.load(path).experiment == "t"

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            MatrixConfig.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            MatrixConfig.load(tmp_path / "nope.json")

    def test_checked_in_quick_tier_config_is_valid(self):
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "configs" / "quick.json"
        )
        config = MatrixConfig.load(path)
        assert config.experiment == "quick"
        assert config.gates.max_regression_pct == 20.0
        transports = {cell.transport for cell in config.cells}
        assert {"in-process", "tcp", "cluster"} <= transports
