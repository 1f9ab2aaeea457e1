"""Command-line interface: ``repro-map`` / ``python -m repro``.

Sub-commands:

* ``map``       route a QASM file (or a generated benchmark circuit) onto a
  backend with a chosen mapper and print the quality metrics,
* ``compare``   run Qlosure and the baselines on one circuit and print a
  comparison table,
* ``backends``  list the built-in hardware back-ends and registered routers,
* ``info``      print circuit statistics (qubits, gates, depth, lifted
  macro-gates) without routing,
* ``bench``     run the routing perf smoke and write ``BENCH_routing.json``
  (the machine-readable perf trajectory; also ``make bench``),
* ``cache``     inspect (``cache info``) or empty (``cache clear``) the
  content-addressed compile cache,
* ``serve``     run the long-running async compile service (JSON over HTTP:
  ``/v1/compile``, ``/v1/batch``, ``/v1/jobs/<id>``, ``/healthz``,
  ``/metrics``, ``/admin/drain`` -- see :mod:`repro.serve`).

``map`` consults the compile cache by default (in-memory; ``--cache-dir
DIR`` adds a persistent on-disk tier shared across runs, ``--no-cache``
recomputes everything); ``bench`` consults it only when ``--cache-dir`` is
given, so default benchmark runs always measure real work.  Every mapping
goes through
:func:`repro.api.compile`; user errors (unknown router or backend,
unreadable or invalid QASM) exit with code 2 and a one-line message, and any
failure escaping the pipeline (an unroutable circuit/backend pair, a crashed
pass) exits with code 1 and a structured one-line
:class:`~repro.api.result.CompileError` summary -- never a raw traceback.
``bench`` exits 1 when any request in the batch failed, so a partially
failed run can never masquerade as a healthy perf trajectory, and with
``--compare BASELINE`` also when any router's mean swaps or depth differ
from the baseline record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.api import (
    CompileCache,
    CompileError,
    CompileRequest,
    UnknownRouterError,
    compile as api_compile,
    load_circuit,
    resolve_backend,
    router_names,
    router_specs,
)
from repro.api.cache import CACHE_DIR_ENV
from repro._version import __version__

from repro.circuit.validation import RoutingValidationError
from repro.hardware.backends import available_backends, backend_by_name
from repro.qasm.writer import write_qasm_file


def _check_circuit_source(args: argparse.Namespace) -> None:
    if (args.qasm is None) == (args.generate is None):
        raise CompileError("provide exactly one of --qasm FILE or --generate family:qubits")


def _load_circuit(args: argparse.Namespace):
    _check_circuit_source(args)
    return load_circuit(qasm=args.qasm, generate=args.generate)


def _add_circuit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qasm", type=Path, help="input OpenQASM 2.0 file")
    parser.add_argument(
        "--generate",
        help="generate a benchmark circuit instead, e.g. 'qft:24' or 'ghz:16'",
    )


def _check_cache_bounds(args: argparse.Namespace) -> None:
    """Validate the disk-tier bound/readonly flags (they need ``--cache-dir``)."""
    bounded = (
        getattr(args, "cache_max_bytes", None) is not None
        or getattr(args, "cache_max_entries", None) is not None
        or getattr(args, "cache_readonly", False)
    )
    if bounded and args.cache_dir is None:
        raise CompileError(
            "--cache-max-bytes/--cache-max-entries/--cache-readonly require --cache-dir"
        )
    for name in ("cache_max_bytes", "cache_max_entries"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise CompileError(f"{flag} must be a positive integer, got {value}")


def _make_cache(args: argparse.Namespace) -> CompileCache | bool:
    """The cache selected by ``--cache/--no-cache/--cache-dir`` and bounds.

    Returns ``False`` (caching disabled), a disk-backed :class:`CompileCache`
    for an explicit ``--cache-dir`` (optionally bounded or read-only), or
    ``True`` (the process default cache, in-memory unless ``REPRO_CACHE_DIR``
    is set).  ``bench`` uses only the disk-backed cache.
    """
    if not args.cache:
        if args.cache_dir is not None:
            raise CompileError("--no-cache and --cache-dir are mutually exclusive")
        _check_cache_bounds(args)  # bounds without --cache-dir: same error
        return False
    _check_cache_bounds(args)
    if args.cache_dir is not None:
        return CompileCache(
            directory=args.cache_dir,
            max_bytes=getattr(args, "cache_max_bytes", None),
            max_entries=getattr(args, "cache_max_entries", None),
            readonly=getattr(args, "cache_readonly", False),
        )
    return True


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="consult the content-addressed compile cache (default: on, in-memory)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        help="persist cache entries in this directory (shared across runs)",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="bound the disk tier to N bytes (LRU eviction; requires --cache-dir)",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="bound the disk tier to N entries (LRU eviction; requires --cache-dir)",
    )
    parser.add_argument(
        "--cache-readonly", action="store_true",
        help="open the cache directory read-only (serve hits, never write or evict)",
    )


def _check_run_options(args: argparse.Namespace, command: str) -> None:
    """Validate ``--workers``, ``--timeout`` and ``--retries`` (``bench`` and ``serve``)."""
    if args.workers < 1:
        raise CompileError(f"repro-map {command}: --workers must be at least 1")
    if args.timeout is not None and not args.timeout > 0:
        raise CompileError(
            f"repro-map {command}: --timeout must be a positive number of seconds"
        )
    if args.retries < 0:
        raise CompileError(f"repro-map {command}: --retries must be non-negative")


@contextmanager
def _tracing(args: argparse.Namespace, command: str):
    """Record the block under a tracer and write it to ``--trace-out``, when given."""
    if args.trace_out is None:
        yield
        return
    from repro.obs import Tracer, use_tracer, write_trace

    tracer = Tracer()
    with use_tracer(tracer):
        yield
    count = write_trace(
        args.trace_out,
        tracer,
        meta={
            "tool": f"repro-map {command}",
            "version": __version__,
            "trace_id": tracer.trace_id,
        },
    )
    print(f"trace        : {args.trace_out} ({count} spans)")


def _command_map(args: argparse.Namespace) -> int:
    _check_circuit_source(args)
    placement = "identity"
    placement_options: dict = {}
    if args.bidirectional_passes:
        placement = "bidirectional"
        placement_options = {"passes": args.bidirectional_passes}
    request = CompileRequest(
        qasm=args.qasm,
        generate=args.generate,
        backend=args.backend,
        router=args.mapper,
        seed=args.seed,
        placement=placement,
        placement_options=placement_options,
        validation="full" if args.verify else "none",
    )
    cache = _make_cache(args)
    with _tracing(args, "map"):
        result = api_compile(request, cache=cache)
        metrics = result.metrics
        print(
            f"circuit      : {metrics['circuit']} "
            f"({metrics['num_qubits']} qubits, {metrics['num_gates']} gates)"
        )
        print(f"backend      : {metrics['backend']}")
        print(f"mapper       : {result.router}")
        print(f"swaps added  : {metrics['swaps']}")
        print(f"depth        : {metrics['initial_depth']} -> {metrics['routed_depth']}")
        print(f"mapping time : {result.route_seconds:.3f} s (pipeline {result.total_seconds:.3f} s)")
        if isinstance(cache, CompileCache):
            hit = cache.stats["memory_hits"] + cache.stats["disk_hits"] > 0
            print(f"cache        : {'hit' if hit else 'miss'} ({cache.directory})")
        if args.output:
            write_qasm_file(result.routed_circuit, args.output)
            print(f"routed QASM  : {args.output}")
    return 0


def _render_router_registry() -> str:
    lines = []
    for spec in router_specs():
        aliases = ", ".join(spec.aliases) if spec.aliases else "-"
        lines.append(f"{spec.name:12s} aliases: {aliases:28s} {spec.description}")
    return "\n".join(lines)


def _command_compare(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import compare_mappers
    from repro.analysis.report import render_records

    circuit = _load_circuit(args)
    backend = resolve_backend(args.backend)
    records = compare_mappers([circuit], backend)
    print(render_records(records))
    aliases = {
        spec.name: spec.aliases
        for spec in router_specs()
        if spec.name in {record.mapper_name for record in records} and spec.aliases
    }
    if aliases:
        rendered = "; ".join(
            f"{name} (aliases: {', '.join(names)})" for name, names in aliases.items()
        )
        print(f"\nrouters are canonical registry names -- {rendered}")
    return 0


def _command_backends(_: argparse.Namespace) -> int:
    for name in available_backends():
        backend = backend_by_name(name)
        print(
            f"{name:14s} {backend.num_qubits:4d} qubits, {backend.num_edges():4d} couplings, "
            f"max degree {backend.max_degree()}"
        )
    print("\nregistered routers:")
    print(_render_router_registry())
    return 0


def _command_info(args: argparse.Namespace) -> int:
    from repro.affine.lifter import lift_circuit, lifting_report

    circuit = _load_circuit(args)
    program = lift_circuit(circuit)
    report = lifting_report(program)
    counts = circuit.count_ops()
    print(f"circuit    : {circuit.name}")
    print(f"qubits     : {circuit.num_qubits}")
    print(f"gates      : {len(circuit)} (2-qubit: {sum(1 for g in circuit if g.is_two_qubit)})")
    print(f"depth      : {circuit.depth()}")
    print(f"gate mix   : {dict(counts)}")
    print(f"macro-gates: {report['num_statements']} (compression {report['compression_ratio']:.2f}x)")
    if args.draw:
        from repro.circuit.drawing import draw_circuit

        print()
        print(draw_circuit(circuit))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.analysis.perf_trajectory import (
        quality_regressions,
        render_trajectory,
        run_perf_smoke,
    )

    if args.rounds < 1:
        raise CompileError("repro-map bench: --rounds must be at least 1")
    _check_run_options(args, "bench")
    cache = _make_cache(args)
    baseline = None
    if args.compare is not None:
        try:
            baseline = json.loads(args.compare.read_text())
        except (OSError, ValueError) as exc:
            raise CompileError(
                f"repro-map bench: --compare: cannot read baseline {args.compare}: {exc}"
            ) from exc
    with _tracing(args, "bench"):
        record = run_perf_smoke(
            rounds=args.rounds,
            workers=args.workers,
            quick=args.quick,
            cache=cache if isinstance(cache, CompileCache) else None,
            timeout=args.timeout,
            retries=args.retries,
        )
        args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(render_trajectory(record))
        print(f"\nwrote {args.output}")
    failures = record.get("failures", [])
    if failures:
        # A partially-failed run must never look like a healthy trajectory.
        print(f"\nrepro-map bench: {len(failures)} request(s) failed:", file=sys.stderr)
        for failure in failures:
            print(
                f"  request {failure['index']}: {failure['error']} in "
                f"{failure['phase']} pass: {failure['message']}",
                file=sys.stderr,
            )
        return 1
    if baseline is not None:
        problems = quality_regressions(record, baseline)
        if problems:
            print(f"\nquality drift vs {args.compare}:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"quality identical to {args.compare} (swaps/depth unchanged)")
    return 0


def _cache_for_inspection(args: argparse.Namespace) -> CompileCache:
    """A cache handle on the directory named by ``--cache-dir``/``REPRO_CACHE_DIR``."""
    directory = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    return CompileCache(directory=directory)


def _format_age(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = float(seconds)
    if seconds < 120:
        return f"{seconds:.1f} s"
    if seconds < 7200:
        return f"{seconds / 60:.1f} min"
    if seconds < 172800:
        return f"{seconds / 3600:.1f} h"
    return f"{seconds / 86400:.1f} d"


def _format_bound(value) -> str:
    return "unbounded" if value is None else str(value)


def _command_cache_info(args: argparse.Namespace) -> int:
    info = _cache_for_inspection(args).info()
    print(f"schema       : {info['schema']}")
    if info["disk_dir"] is None:
        print("disk tier    : disabled (pass --cache-dir or set "
              f"{CACHE_DIR_ENV} to enable)")
        return 0
    print(f"disk dir     : {info['disk_dir']}")
    print(f"disk entries : {info['disk_entries']}")
    print(f"disk bytes   : {info['disk_bytes']}")
    print(f"max entries  : {_format_bound(info['max_entries'])}")
    print(f"max bytes    : {_format_bound(info['max_bytes'])}")
    print(f"evictions    : {info['disk_evictions']} "
          f"({info['disk_evicted_bytes']} bytes reclaimed)")
    rate = info["hit_rate"]
    print(f"hit rate     : {'-' if rate is None else f'{rate:.2%}'} (this handle)")
    print(f"oldest entry : {_format_age(info['disk_oldest_age_seconds'])}")
    print(f"newest entry : {_format_age(info['disk_newest_age_seconds'])}")
    shards = info["disk_shards"]
    print(f"shards       : {len(shards)} populated")
    for shard in sorted(shards):
        bucket = shards[shard]
        print(f"  {shard:16s}: {bucket['entries']} entries, {bucket['bytes']} bytes")
    histogram = info["disk_age_histogram"]
    rendered = "  ".join(f"{label} {count}" for label, count in histogram.items())
    print(f"entry ages   : {rendered}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeConfig, serve_forever

    _check_run_options(args, "serve")
    if args.queue_size < 1:
        raise CompileError("repro-map serve: --queue-size must be at least 1")
    _check_cache_bounds(args)
    if args.log_json:
        from repro.obs import setup_logging

        setup_logging(verbose=getattr(args, "verbose", False), structured=True)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_entries=args.cache_max_entries,
        cache_readonly=args.cache_readonly,
        timeout=args.timeout,
        retries=args.retries,
        trace_out=str(args.trace_out) if args.trace_out is not None else None,
    )

    def _announce(port: int) -> None:
        print(f"repro-serve {__version__} listening on http://{config.host}:{port}", flush=True)
        print("endpoints    : POST /v1/compile  POST /v1/batch  GET /v1/jobs/<id>", flush=True)
        print("               GET /healthz  GET /metrics  POST /admin/drain", flush=True)

    return serve_forever(config, ready=_announce)


def _command_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import TraceFileError, read_trace, summarize

    try:
        _, spans, counters = read_trace(args.file)
    except TraceFileError as exc:
        raise CompileError(str(exc)) from exc
    print(summarize(spans, counters))
    return 0


def _command_trace_chrome(args: argparse.Namespace) -> int:
    from repro.obs import TraceFileError, read_trace, write_chrome_trace

    try:
        _, spans, counters = read_trace(args.file)
    except TraceFileError as exc:
        raise CompileError(str(exc)) from exc
    output = args.output or args.file.with_suffix(".chrome.json")
    events = write_chrome_trace(output, spans, counters)
    print(f"wrote {output} ({events} events; load in Perfetto or chrome://tracing)")
    return 0


def _command_cache_clear(args: argparse.Namespace) -> int:
    cache = _cache_for_inspection(args)
    if cache.directory is None:
        print("disk tier    : disabled; nothing to clear")
        return 0
    removed = cache.clear()
    print(f"removed      : {removed['disk_entries']} entries from {cache.directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Qlosure: dependence-driven quantum circuit mapping (CGO 2026 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-map {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="include debugging detail (e.g. traceback digests) in failure output",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    map_parser = subparsers.add_parser("map", help="route a circuit onto a backend")
    _add_circuit_arguments(map_parser)
    map_parser.add_argument("--backend", default="sherbrooke", help="target backend name")
    map_parser.add_argument(
        "--mapper",
        default="qlosure",
        help=f"mapping algorithm (canonical name or alias); one of: "
        f"{', '.join(router_names())}",
    )
    map_parser.add_argument("--seed", type=int, default=0, help="routing RNG seed")
    map_parser.add_argument(
        "--bidirectional-passes", type=int, default=0,
        help="forward/backward initial-layout passes of the chosen mapper "
        "(0: identity layout)",
    )
    map_parser.add_argument("--verify", action="store_true", help="validate the routed circuit")
    map_parser.add_argument("--output", type=Path, help="write the routed circuit as QASM")
    map_parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="record per-pass spans and kernel counters as a JSONL trace file",
    )
    _add_cache_arguments(map_parser)
    map_parser.set_defaults(func=_command_map)

    compare_parser = subparsers.add_parser("compare", help="compare all mappers on one circuit")
    _add_circuit_arguments(compare_parser)
    compare_parser.add_argument("--backend", default="sherbrooke")
    compare_parser.set_defaults(func=_command_compare)

    backends_parser = subparsers.add_parser(
        "backends", help="list built-in backends and registered routers"
    )
    backends_parser.set_defaults(func=_command_backends)

    info_parser = subparsers.add_parser("info", help="print circuit statistics")
    _add_circuit_arguments(info_parser)
    info_parser.add_argument("--draw", action="store_true", help="print an ASCII drawing")
    info_parser.set_defaults(func=_command_info)

    bench_parser = subparsers.add_parser(
        "bench", help="run the routing perf smoke and write BENCH_routing.json"
    )
    bench_parser.add_argument(
        "--output", type=Path, default=Path("BENCH_routing.json"),
        help="where to write the JSON trajectory record",
    )
    bench_parser.add_argument(
        "--rounds", type=int, default=1, help="repetitions of the fixed workload"
    )
    bench_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the batch driver (1 = serial)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="reduced fixture for CI smoke runs (not comparable to full runs)",
    )
    bench_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock bound per attempt (requires worker isolation)",
    )
    bench_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed request, run back to back (no backoff)",
    )
    bench_parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="record the whole benchmark batch as a JSONL trace file",
    )
    bench_parser.add_argument(
        "--compare", type=Path, default=None, metavar="BASELINE",
        help="exit 1 when per-router mean swaps/depth differ from this earlier "
        "record (the determinism gate for performance-only changes)",
    )
    _add_cache_arguments(bench_parser)
    bench_parser.set_defaults(func=_command_bench)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the content-addressed compile cache"
    )
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_info_parser = cache_subparsers.add_parser(
        "info", help="print cache schema, location and entry counts"
    )
    cache_info_parser.add_argument(
        "--cache-dir", type=Path, help="cache directory to inspect"
    )
    cache_info_parser.set_defaults(func=_command_cache_info)
    cache_clear_parser = cache_subparsers.add_parser(
        "clear", help="remove every persisted cache entry"
    )
    cache_clear_parser.add_argument(
        "--cache-dir", type=Path, help="cache directory to clear"
    )
    cache_clear_parser.set_defaults(func=_command_cache_clear)

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-running async compile service (JSON over HTTP)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8653, help="TCP port (0 binds an ephemeral port)"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="compile processes: forked at the first miss, they live as long as the server",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded request queue capacity (full queue answers 429 + Retry-After)",
    )
    serve_parser.add_argument(
        "--cache-dir", type=Path,
        help="persistent disk tier for the shared warm compile cache",
    )
    serve_parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="bound the disk tier to N bytes (LRU eviction; requires --cache-dir)",
    )
    serve_parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="bound the disk tier to N entries (LRU eviction; requires --cache-dir)",
    )
    serve_parser.add_argument(
        "--cache-readonly", action="store_true",
        help="mount the cache directory read-only (fleet mode: serve hits from a "
        "shared warm store, never write or evict)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock bound per attempt (a compile process past it is "
        "killed and replaced)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed request, run back to back (no backoff)",
    )
    serve_parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="append one JSONL trace fragment per served job to FILE",
    )
    serve_parser.add_argument(
        "--log-json", action="store_true",
        help="emit JSON-lines log records (for log shippers)",
    )
    serve_parser.set_defaults(func=_command_serve)

    trace_parser = subparsers.add_parser(
        "trace", help="summarize or convert a --trace-out JSONL trace file"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize_parser = trace_subparsers.add_parser(
        "summarize", help="print the per-phase / per-router breakdown of a trace"
    )
    trace_summarize_parser.add_argument(
        "file", type=Path, help="JSONL trace file written by --trace-out"
    )
    trace_summarize_parser.set_defaults(func=_command_trace_summarize)
    trace_chrome_parser = trace_subparsers.add_parser(
        "chrome",
        help="convert a trace to Chrome trace-event JSON (Perfetto-loadable)",
    )
    trace_chrome_parser.add_argument(
        "file", type=Path, help="JSONL trace file written by --trace-out"
    )
    trace_chrome_parser.add_argument(
        "--output", type=Path, default=None,
        help="output path (default: <file>.chrome.json)",
    )
    trace_chrome_parser.set_defaults(func=_command_trace_chrome)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Exit codes: 0 success; 2 user error (unknown router/backend, bad
    arguments, unreadable or invalid QASM -- one-line message); 1 execution
    failure (validation failure, or any exception escaping the pipeline --
    printed as a structured :class:`CompileError` summary naming the failing
    pass, never a raw traceback).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs import setup_logging

    setup_logging(verbose=bool(getattr(args, "verbose", False)))
    try:
        return args.func(args)
    except (CompileError, UnknownRouterError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro-map: error: {message}", file=sys.stderr)
        return 2
    except RoutingValidationError as exc:
        print(f"repro-map: validation failed: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, SystemExit):
        raise
    except BrokenPipeError:
        # The stdout consumer went away (`repro-map trace summarize | head`).
        # Detach from the dead pipe so the interpreter's exit flush cannot
        # raise again, and exit quietly -- this is not a compile failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception as exc:
        # The CLI boundary: an unroutable circuit/backend pair (or any other
        # pipeline failure) surfaces as a structured one-line failure record,
        # not a traceback dump.  The traceback digest is debugging detail and
        # only appears under -v/--verbose.
        failure = CompileError.from_exception(exc)
        verbose = bool(getattr(args, "verbose", False))
        print(
            f"repro-map: compile failed: {failure.describe(verbose=verbose)}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
