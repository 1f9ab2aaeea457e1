"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "--generate", "ghz:8"])
        assert args.backend == "sherbrooke"
        assert args.mapper == "qlosure"


class TestCommands:
    def test_backends_listing(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert "sherbrooke" in output and "ankaa3" in output

    def test_backends_lists_canonical_routers_with_aliases(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert "registered routers:" in output
        assert "tket-like, pytket" in output
        assert "qmap-like" in output
        # canonical names appear once, aliases never as standalone rows
        router_rows = [
            line for line in output.splitlines() if line.strip().startswith("qmap")
        ]
        assert len(router_rows) == 1

    def test_info_on_generated_circuit(self, capsys):
        assert main(["info", "--generate", "qft:8"]) == 0
        output = capsys.readouterr().out
        assert "qubits     : 8" in output
        assert "macro-gates" in output

    def test_map_generated_circuit(self, capsys):
        assert main(["map", "--generate", "ghz:10", "--backend", "ankaa3", "--verify"]) == 0
        output = capsys.readouterr().out
        assert "swaps added" in output

    def test_map_with_baseline(self, capsys):
        assert main(["map", "--generate", "ghz:8", "--backend", "ankaa3", "--mapper", "lightsabre"]) == 0
        assert "lightsabre" in capsys.readouterr().out

    def test_map_qasm_file_and_output(self, tmp_path, capsys):
        source = tmp_path / "bell.qasm"
        source.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        )
        routed = tmp_path / "routed.qasm"
        code = main(
            ["map", "--qasm", str(source), "--backend", "ankaa3", "--output", str(routed)]
        )
        assert code == 0
        assert routed.exists()
        assert "cx" in routed.read_text()

    def test_compare_command(self, capsys):
        assert main(["compare", "--generate", "ghz:6", "--backend", "ankaa3"]) == 0
        output = capsys.readouterr().out
        assert "qlosure" in output and "lightsabre" in output

    def test_info_with_drawing(self, capsys):
        assert main(["info", "--generate", "ghz:4", "--draw"]) == 0
        output = capsys.readouterr().out
        assert "q0" in output and "X" in output

    def test_missing_circuit_source_errors(self, capsys):
        assert main(["info"]) == 2
        err = capsys.readouterr().err
        # the message must name the CLI flags, not Python kwargs
        assert "--qasm" in err and "--generate" in err

    def test_compare_prints_alias_note(self, capsys):
        assert main(["compare", "--generate", "ghz:6", "--backend", "ankaa3"]) == 0
        output = capsys.readouterr().out
        assert "aliases" in output and "pytket" in output

    def test_map_accepts_router_alias(self, capsys):
        assert main(
            ["map", "--generate", "ghz:8", "--backend", "ankaa3", "--mapper", "pytket"]
        ) == 0
        assert "tket" in capsys.readouterr().out

    def test_bidirectional_passes_route_with_the_chosen_mapper(self, capsys):
        code = main(
            ["map", "--generate", "qft:10", "--mapper", "sabre",
             "--bidirectional-passes", "1", "--verify", "--no-cache"]
        )
        assert code == 0
        assert "sabre" in capsys.readouterr().out


class TestErrorHandling:
    def test_unknown_router_exits_2_with_one_line_message(self, capsys):
        code = main(["map", "--generate", "ghz:8", "--mapper", "does-not-exist"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown router" in err
        assert len(err.strip().splitlines()) == 1  # one-line message, no traceback

    def test_unreadable_qasm_exits_2(self, capsys, tmp_path):
        code = main(["map", "--qasm", str(tmp_path / "missing.qasm")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read QASM file" in err

    def test_invalid_qasm_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2];\nnot-a-gate q[0];\n")
        code = main(["map", "--qasm", str(bad)])
        assert code == 2
        assert "invalid QASM" in capsys.readouterr().err

    def test_undeclared_gate_argument_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2];\ngate g x,y { cx x,z; }\ng q[0],q[1];\n")
        code = main(["map", "--qasm", str(bad), "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid QASM" in err and "'z'" in err and "line 3" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_backend_exits_2(self, capsys):
        code = main(["map", "--generate", "ghz:8", "--backend", "nope"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_unknown_generator_family_exits_2(self, capsys):
        code = main(["map", "--generate", "nosuchfamily:8"])
        assert code == 2
        assert "cannot generate" in capsys.readouterr().err

    def test_negative_bidirectional_passes_exits_2(self, capsys):
        code = main(["map", "--generate", "ghz:8", "--bidirectional-passes", "-1"])
        assert code == 2
        assert "placement_options" in capsys.readouterr().err


class TestFailureContract:
    """Exit-code contract: 2 = user error (one line), 1 = compile failure
    (structured :class:`CompileError` summary, never a raw traceback)."""

    def test_bench_zero_timeout_exits_2_with_one_line_message(self, capsys):
        code = main(["bench", "--quick", "--timeout", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--timeout" in err
        assert len(err.strip().splitlines()) == 1

    def test_bench_negative_retries_exits_2_with_one_line_message(self, capsys):
        code = main(["bench", "--quick", "--retries", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--retries" in err
        assert len(err.strip().splitlines()) == 1

    def test_self_loop_gate_exits_1_with_structured_summary(self, capsys, tmp_path):
        # Routing a two-qubit gate with repeated operands used to escape as a
        # raw ValueError traceback; it must surface as a structured summary.
        qasm = tmp_path / "selfloop.qasm"
        qasm.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[0];\n'
        )
        code = main(["map", "--qasm", str(qasm), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro-map: compile failed:" in captured.err
        assert "ValueError" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_with_injected_fault_exits_1_and_lists_failures(
        self, capsys, tmp_path, faults
    ):
        faults.inject(0, "exception")
        code = main(["bench", "--quick", "--output", str(tmp_path / "bench.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "request(s) failed" in captured.err
        assert "InjectedFault" in captured.err

    def test_bench_retry_absorbs_transient_fault(self, capsys, tmp_path, faults):
        faults.inject(0, "exception", attempt=0)
        code = main(
            ["bench", "--quick", "--output", str(tmp_path / "bench.json"), "--retries", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "FAILED" not in captured.out


@pytest.fixture(scope="module")
def quick_bench_record(tmp_path_factory):
    """One ``bench --quick`` trajectory record, the baseline for ``--compare``."""
    path = tmp_path_factory.mktemp("bench") / "baseline.json"
    assert main(["bench", "--quick", "--output", str(path)]) == 0
    return path


class TestBenchCompare:
    def test_compare_against_own_record_exits_0(self, quick_bench_record, tmp_path, capsys):
        code = main(
            ["bench", "--quick", "--output", str(tmp_path / "run.json"),
             "--compare", str(quick_bench_record)]
        )
        assert code == 0
        assert "quality identical to" in capsys.readouterr().out

    def test_swaps_drift_exits_1_and_names_the_router(
        self, quick_bench_record, tmp_path, capsys
    ):
        baseline = json.loads(quick_bench_record.read_text())
        baseline["routers"]["cirq"]["mean_swaps"] += 1
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(baseline))
        code = main(
            ["bench", "--quick", "--output", str(tmp_path / "run.json"),
             "--compare", str(edited)]
        )
        err = capsys.readouterr().err
        assert code == 1
        drift = [line for line in err.splitlines() if "mean_swaps changed" in line]
        assert len(drift) == 1 and "cirq" in drift[0]

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--quick", "--output", str(tmp_path / "run.json"),
             "--compare", str(tmp_path / "missing.json")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read baseline" in err
        assert not (tmp_path / "run.json").exists()


class TestCacheFlags:
    MAP_ARGS = ["map", "--generate", "ghz:8", "--backend", "ankaa3", "--mapper", "greedy"]

    def test_map_with_cache_dir_misses_then_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        assert "cache        : miss" in capsys.readouterr().out
        assert main(self.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        assert "cache        : hit" in capsys.readouterr().out

    def test_cached_map_output_is_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = self.MAP_ARGS + ["--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if not line.startswith(("mapping time", "cache"))
        ]
        assert strip(warm) == strip(cold)

    def test_no_cache_bypasses(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(self.MAP_ARGS + ["--no-cache"]) == 0
        assert "cache        :" not in capsys.readouterr().out

    def test_no_cache_with_cache_dir_exits_2(self, tmp_path, capsys):
        code = main(self.MAP_ARGS + ["--no-cache", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bench_rejects_no_cache_with_cache_dir_too(self, tmp_path, capsys):
        code = main(
            ["bench", "--quick", "--no-cache", "--cache-dir", str(tmp_path),
             "--output", str(tmp_path / "B.json")]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cache_dir_isolation(self, tmp_path, capsys):
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(self.MAP_ARGS + ["--cache-dir", first]) == 0
        capsys.readouterr()
        # a different directory is a different store: no cross-talk
        assert main(self.MAP_ARGS + ["--cache-dir", second]) == 0
        assert "cache        : miss" in capsys.readouterr().out


class TestCacheCommand:
    def test_cache_info_without_dir_reports_disabled(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_cache_info_counts_entries(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(TestCacheFlags.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "disk entries : 1" in out
        assert cache_dir in out

    def test_cache_clear_removes_entries(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(TestCacheFlags.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed      : 1 entries" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "disk entries : 0" in capsys.readouterr().out

    def test_cache_clear_without_dir_is_a_noop(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "clear"]) == 0
        assert "nothing to clear" in capsys.readouterr().out

    def test_cache_respects_env_dir(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path / "env-cache")
        assert main(TestCacheFlags.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["cache", "info"]) == 0
        assert "disk entries : 1" in capsys.readouterr().out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestCacheBoundFlags:
    MAP_ARGS = TestCacheFlags.MAP_ARGS

    @pytest.mark.parametrize(
        "flag", [["--cache-max-bytes", "100"], ["--cache-max-entries", "1"],
                 ["--cache-readonly"]]
    )
    def test_bounds_without_cache_dir_exit_2(self, flag, capsys):
        assert main(self.MAP_ARGS + flag) == 2
        assert "require --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cache-max-bytes", "--cache-max-entries"])
    def test_non_positive_bounds_exit_2(self, tmp_path, flag, capsys):
        code = main(self.MAP_ARGS + ["--cache-dir", str(tmp_path), flag, "0"])
        assert code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--cache-max-bytes", "100"], ["--cache-max-entries", "1"],
                 ["--cache-readonly"]]
    )
    def test_serve_bounds_without_cache_dir_exit_2(self, flag, capsys):
        # rejected before the service is built, so no port is bound
        assert main(["serve"] + flag) == 2
        assert "require --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cache-max-bytes", "--cache-max-entries"])
    def test_serve_non_positive_bounds_exit_2(self, tmp_path, flag, capsys):
        assert main(["serve", "--cache-dir", str(tmp_path), flag, "0"]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_bounded_map_evicts_and_info_reports_it(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        for seed in range(3):
            args = self.MAP_ARGS + [
                "--seed", str(seed), "--cache-dir", cache_dir,
                "--cache-max-entries", "1",
            ]
            assert main(args) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "disk entries : 1" in out
        assert "evictions    : 2" in out

    def test_readonly_map_serves_hits_but_never_writes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        args = self.MAP_ARGS + ["--cache-dir", cache_dir, "--cache-readonly"]
        assert main(args) == 0
        assert "cache        : hit" in capsys.readouterr().out
        # a different request through a readonly handle recomputes, no store
        miss_args = self.MAP_ARGS + [
            "--seed", "7", "--cache-dir", cache_dir, "--cache-readonly"
        ]
        assert main(miss_args) == 0
        assert "cache        : miss" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "disk entries : 1" in capsys.readouterr().out

    def test_cache_info_renders_bounds_shards_and_ages(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "max entries  : unbounded" in out
        assert "max bytes    : unbounded" in out
        assert "evictions    : 0 (0 bytes reclaimed)" in out
        assert "shards       : 1 populated" in out
        assert "entry ages   : <=1m 1" in out


class TestVersionFlag:
    def test_version_flag_prints_single_source_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-map {__version__}"

    def test_package_and_setup_agree(self):
        # repro.__version__, repro._version and /healthz all read one file.
        from repro import __version__
        from repro._version import __version__ as source

        assert __version__ == source


class TestVerboseDigest:
    """Regression: the traceback digest is debugging detail -- it must only
    appear in compile-failure output under ``-v/--verbose``."""

    QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[0];\n'

    def test_default_failure_output_has_no_digest(self, capsys, tmp_path):
        qasm = tmp_path / "selfloop.qasm"
        qasm.write_text(self.QASM)
        assert main(["map", "--qasm", str(qasm), "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "repro-map: compile failed:" in err
        assert "traceback" not in err

    def test_verbose_failure_output_includes_digest(self, capsys, tmp_path):
        qasm = tmp_path / "selfloop.qasm"
        qasm.write_text(self.QASM)
        assert main(["-v", "map", "--qasm", str(qasm), "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "repro-map: compile failed:" in err
        assert "traceback " in err


class TestCacheInfoAges:
    def test_cache_info_reports_entry_ages(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(TestCacheFlags.MAP_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "disk bytes   :" in out
        assert "oldest entry :" in out
        assert "newest entry :" in out

    def test_empty_cache_info_shows_placeholder_ages(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "disk entries : 0" in out
        assert "oldest entry : -" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8653
        assert args.workers == 1
        assert args.queue_size == 64
        assert args.cache_dir is None
        assert args.timeout is None
        assert args.retries == 0

    def test_serve_rejects_bad_worker_count(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_rejects_bad_queue_size(self, capsys):
        assert main(["serve", "--queue-size", "0"]) == 2
        assert "--queue-size" in capsys.readouterr().err

    def test_serve_rejects_zero_timeout(self, capsys):
        assert main(["serve", "--timeout", "0"]) == 2
        assert "--timeout" in capsys.readouterr().err

    def test_serve_rejects_negative_retries(self, capsys):
        assert main(["serve", "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err
