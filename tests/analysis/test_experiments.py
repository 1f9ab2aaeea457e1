"""Tests for the comparison experiment drivers."""

import pytest

from repro.analysis.experiments import (
    DEFAULT_COMPARISON_ROUTERS,
    ComparisonRecord,
    compare_mappers,
    depth_factor_table,
    mapping_time_table,
    qasmbench_table,
    queko_series,
    swap_ratio_table,
)
from repro.api import UnknownRouterError
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.topologies import grid_topology


GRID = grid_topology(4, 4)


def _record(mapper, circuit="c", swaps=10, depth=50, optimal=None, initial=20, runtime=1.0):
    return ComparisonRecord(
        circuit_name=circuit,
        backend_name="grid",
        mapper_name=mapper,
        num_qubits=8,
        qops=100,
        two_qubit_gates=60,
        initial_depth=initial,
        optimal_depth=optimal,
        swaps=swaps,
        routed_depth=depth,
        runtime_seconds=runtime,
    )


class TestRunners:
    def test_run_single_mapper(self):
        (record,) = compare_mappers([ghz_circuit(8)], GRID, mapper_names=["qlosure"])
        assert record.mapper_name == "qlosure"
        assert record.qops == 8
        assert record.routed_depth >= record.initial_depth

    def test_run_baseline_engine(self):
        (record,) = compare_mappers([qft_circuit(6)], GRID, mapper_names=["lightsabre"])
        assert record.swaps >= 0
        assert record.runtime_seconds > 0

    def test_rejects_unknown_router_name(self):
        with pytest.raises(UnknownRouterError):
            compare_mappers([ghz_circuit(4)], GRID, mapper_names=["not-a-router"])

    def test_default_set_is_the_paper_comparison(self):
        assert set(DEFAULT_COMPARISON_ROUTERS) == {
            "lightsabre", "qmap", "cirq", "tket", "qlosure",
        }
        # Records are circuit-major, routers in the given order (table row order).
        records = compare_mappers([ghz_circuit(5), qft_circuit(5)], GRID)
        assert [(r.circuit_name, r.mapper_name) for r in records] == [
            (circuit, router)
            for circuit in ("ghz_n5", "qft_n5")
            for router in DEFAULT_COMPARISON_ROUTERS
        ]

    def test_compare_mappers_on_mixed_inputs(self):
        queko = generate_queko_circuit(grid_topology(3, 3), depth=6, seed=1)
        records = compare_mappers(
            [ghz_circuit(6), queko], GRID, mapper_names=["qlosure", "lightsabre"]
        )
        assert len(records) == 4
        queko_records = [r for r in records if r.optimal_depth is not None]
        assert len(queko_records) == 2
        assert all(r.optimal_depth == 6 for r in queko_records)

    def test_compare_mappers_subset_selection(self):
        records = compare_mappers([ghz_circuit(5)], GRID, mapper_names=["qlosure"])
        assert {r.mapper_name for r in records} == {"qlosure"}


class TestRecord:
    def test_depth_factor_prefers_optimal_depth(self):
        assert _record("m", optimal=10, depth=50).depth_factor == 5.0
        assert _record("m", optimal=None, depth=40, initial=20).depth_factor == 2.0

    def test_depth_overhead(self):
        assert _record("m", depth=50, initial=20).depth_overhead == 30

    def test_as_dict_round_numbers(self):
        data = _record("m").as_dict()
        assert data["mapper"] == "m"
        assert isinstance(data["depth_factor"], float)


class TestAggregations:
    def test_depth_factor_table_groups_by_size(self):
        records = [
            _record("qlosure", circuit="a", optimal=100, depth=500),
            _record("qlosure", circuit="b", optimal=600, depth=1800),
            _record("sabre", circuit="a", optimal=100, depth=700),
            _record("sabre", circuit="b", optimal=600, depth=3000),
        ]
        table = depth_factor_table(records, split_depth=500)
        assert table["qlosure"]["medium"] == 5.0
        assert table["qlosure"]["large"] == 3.0
        assert table["sabre"]["medium"] == 7.0
        assert table["sabre"]["large"] == 5.0

    def test_swap_ratio_table_relative_to_qlosure(self):
        records = [
            _record("qlosure", circuit="a", swaps=10, optimal=100),
            _record("sabre", circuit="a", swaps=15, optimal=100),
            _record("cirq", circuit="a", swaps=30, optimal=100),
        ]
        table = swap_ratio_table(records)
        assert table["sabre"]["medium"] == 1.5
        assert table["cirq"]["medium"] == 3.0
        assert "qlosure" not in table

    def test_mapping_time_table(self):
        records = [
            _record("qlosure", circuit="a", runtime=2.0, optimal=100),
            _record("qlosure", circuit="b", runtime=4.0, optimal=100),
        ]
        assert mapping_time_table(records)["qlosure"]["medium"] == 3.0

    def test_qasmbench_table_improvements(self):
        records = [
            _record("qlosure", circuit="qft_n10", swaps=80, depth=100),
            _record("sabre", circuit="qft_n10", swaps=100, depth=120),
        ]
        table = qasmbench_table(records)
        assert table["rows"]["qft_n10"]["sabre"]["swaps"] == 100
        assert table["improvement"]["sabre"]["swaps"] == pytest.approx(20.0)
        assert table["improvement"]["sabre"]["depth"] == pytest.approx(100 * 20 / 120, rel=1e-3)

    def test_queko_series_sorted_by_depth(self):
        records = [
            _record("qlosure", circuit="a", optimal=10, swaps=5, depth=30),
            _record("qlosure", circuit="b", optimal=20, swaps=9, depth=70),
            _record("qlosure", circuit="c", optimal=10, swaps=7, depth=34),
        ]
        series = queko_series(records)
        assert list(series["qlosure"].keys()) == [10, 20]
        assert series["qlosure"][10]["swaps"] == 6.0
        assert series["qlosure"][10]["depth"] == 32.0
