"""Tests for the ablation study, scaling measurement, reporting and scale config."""

import pytest

from repro.analysis.ablation import ABLATION_VARIANTS, ablation_study
from repro.analysis.config import BenchScale, bench_scale
from repro.analysis.experiments import ComparisonRecord
from repro.analysis.report import format_table, render_nested_table, render_records
from repro.analysis.scaling import _linear_fit, mapping_time_scaling
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.topologies import grid_topology


GRID = grid_topology(3, 3)
DEVICE = grid_topology(4, 4)


class TestAblation:
    def test_all_variants_run(self):
        circuits = [generate_queko_circuit(GRID, depth=6, seed=s) for s in range(2)]
        result = ablation_study(circuits, DEVICE)
        assert set(result.per_variant) == set(ABLATION_VARIANTS)
        for variant in ABLATION_VARIANTS:
            assert result.per_variant[variant]["swaps"] >= 0
            assert result.per_variant[variant]["depth"] > 0

    def test_baseline_improvement_is_zero(self):
        circuits = [generate_queko_circuit(GRID, depth=5, seed=1)]
        result = ablation_study(circuits, DEVICE, variants=("distance-only", "dependency-weighted"))
        assert result.improvement("distance-only", "swaps") == 0.0
        assert result.improvement("distance-only", "depth") == 0.0

    def test_per_circuit_results_recorded(self):
        circuits = [generate_queko_circuit(GRID, depth=5, seed=2)]
        result = ablation_study(circuits, DEVICE, variants=("distance-only",))
        assert len(result.per_circuit) == 1

    def test_unknown_variant_rejected(self):
        circuits = [generate_queko_circuit(GRID, depth=4, seed=0)]
        with pytest.raises(KeyError):
            ablation_study(circuits, DEVICE, variants=("not-a-variant",))


class TestScaling:
    def test_linear_fit_on_known_points(self):
        slope, intercept, r_squared = _linear_fit([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])
        assert (slope, intercept, r_squared) == pytest.approx((2.0, 1.0, 1.0))
        # Least squares through (0,0), (1,2), (2,1), (3,3): sxy = 4, sxx = 5,
        # residual sum of squares 1.8 against a total of 5.
        slope, intercept, r_squared = _linear_fit([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0])
        assert (slope, intercept, r_squared) == pytest.approx((0.8, 0.3, 0.64))

    def test_scaling_points_and_fit(self):
        # Route times are host timings, so only the fit's arithmetic is checked.
        result = mapping_time_scaling(DEVICE, GRID, depths=[4, 8, 12], seed=1)
        assert len(result.points) == 3
        qops = [p.qops for p in result.points]
        assert qops == sorted(qops)
        fit = _linear_fit([float(q) for q in qops], [p.seconds for p in result.points])
        assert (result.slope, result.intercept, result.r_squared) == fit
        data = result.as_dict()
        assert data["mapper"] == "qlosure"
        assert len(data["points"]) == 3

    def test_scaling_with_baseline_mapper(self):
        result = mapping_time_scaling(DEVICE, GRID, depths=[4, 8], router="lightsabre", seed=2)
        assert result.mapper_name == "lightsabre"


class TestBenchScale:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_SEEDS", raising=False)
        scale = bench_scale()
        assert scale.scale == 1.0 and scale.seeds == 2

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        monkeypatch.setenv("REPRO_BENCH_SEEDS", "4")
        scale = bench_scale()
        assert scale.scale == 2.5 and scale.seeds == 4

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0")
        with pytest.raises(ValueError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
        monkeypatch.setenv("REPRO_BENCH_SEEDS", "0")
        with pytest.raises(ValueError):
            bench_scale()

    def test_queko_depth_ladder_scales(self):
        assert BenchScale(1.0, 2).queko_depths((20, 40)) == [20, 40]
        assert BenchScale(0.5, 2).queko_depths((20, 40)) == [10, 20]


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 40]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_records(self):
        record = ComparisonRecord(
            circuit_name="c", backend_name="b", mapper_name="m", num_qubits=4,
            qops=10, two_qubit_gates=5, initial_depth=3, optimal_depth=None,
            swaps=2, routed_depth=6, runtime_seconds=0.5,
        )
        text = render_records([record])
        assert "c" in text and "m" in text and "0.500" in text

    def test_render_nested_table(self):
        text = render_nested_table({"qlosure": {"medium": 5.7, "large": 5.4}})
        assert "qlosure" in text and "5.7" in text and "large" in text
