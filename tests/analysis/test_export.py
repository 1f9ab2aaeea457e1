"""Tests for experiment record export/import."""

import pytest

from repro.analysis.experiments import ComparisonRecord, compare_mappers
from repro.analysis.export import (
    export_records_csv,
    export_records_json,
    load_records_csv,
    load_records_json,
)
from repro.benchgen.qasmbench import ghz_circuit
from repro.hardware.topologies import grid_topology


GRID = grid_topology(3, 3)


@pytest.fixture
def records():
    return compare_mappers([ghz_circuit(6)], GRID, mapper_names=["qlosure", "lightsabre"])


class TestCsvRoundTrip:
    def test_roundtrip_preserves_fields(self, records, tmp_path):
        path = export_records_csv(records, tmp_path / "records.csv")
        loaded = load_records_csv(path)
        assert len(loaded) == len(records)
        for original, recovered in zip(records, loaded):
            assert recovered.circuit_name == original.circuit_name
            assert recovered.mapper_name == original.mapper_name
            assert recovered.swaps == original.swaps
            assert recovered.routed_depth == original.routed_depth
            assert recovered.optimal_depth == original.optimal_depth
            assert recovered.cost_evaluations == original.cost_evaluations

    def test_csv_has_header(self, records, tmp_path):
        path = export_records_csv(records, tmp_path / "records.csv")
        first_line = path.read_text().splitlines()[0]
        assert first_line.startswith("circuit,backend,mapper")

    def test_optimal_depth_roundtrip(self, tmp_path):
        record = ComparisonRecord(
            circuit_name="c", backend_name="b", mapper_name="m", num_qubits=3,
            qops=5, two_qubit_gates=2, initial_depth=4, optimal_depth=7,
            swaps=1, routed_depth=9, runtime_seconds=0.1,
        )
        loaded = load_records_csv(export_records_csv([record], tmp_path / "one.csv"))
        assert loaded[0].optimal_depth == 7


class TestJsonRoundTrip:
    def test_roundtrip(self, records, tmp_path):
        path = export_records_json(records, tmp_path / "records.json")
        loaded = load_records_json(path)
        assert [
            (r.circuit_name, r.mapper_name, r.swaps, r.cost_evaluations) for r in loaded
        ] == [(r.circuit_name, r.mapper_name, r.swaps, r.cost_evaluations) for r in records]

    def test_json_is_a_list_of_objects(self, records, tmp_path):
        import json

        path = export_records_json(records, tmp_path / "records.json")
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert all("mapper" in row for row in payload)

    def test_depth_factor_recomputable_after_load(self, records, tmp_path):
        loaded = load_records_json(export_records_json(records, tmp_path / "r.json"))
        for record in loaded:
            assert record.depth_factor > 0
