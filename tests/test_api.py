"""Tests of the top-level public API surface."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_top_level_is_the_api_surface(self):
        assert set(repro.__all__) == {
            "api", "BatchResult", "CompileError", "CompileRequest", "CompileResult",
            "compile_many", "register_router", "__version__",
        }

    def test_quickstart_snippet(self):
        """The package docstring quickstart must keep working."""
        from repro.api import CompileRequest, compile
        from repro.benchgen.qasmbench import ghz_circuit

        result = compile(CompileRequest(circuit=ghz_circuit(20), backend="sherbrooke",
                                        router="qlosure", validation="full"))
        assert result.router == "qlosure"
        assert result.routed_depth >= ghz_circuit(20).depth()

    def test_analysis_helpers_importable(self):
        from repro.analysis import compare_mappers, depth_factor_table  # noqa: F401
        from repro.analysis import ablation_study, mapping_time_scaling  # noqa: F401

    def test_compile_pipeline_exported(self):
        """The README `repro.api` quickstart must keep working."""
        request = repro.CompileRequest(
            generate="ghz:8", backend="ankaa3", router="sabre", validation="full"
        )
        result = repro.api.compile(request)
        assert result.router == "sabre"
        batch = repro.compile_many([request.with_seed(s) for s in range(2)])
        assert len(batch) == 2
        assert "sabre" in batch.per_router()

    def test_registry_exported(self):
        assert "qlosure" in repro.api.router_names()
        assert repro.api.resolve_router("pytket").name == "tket"
