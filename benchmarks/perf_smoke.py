#!/usr/bin/env python
"""Routing perf smoke: ``repro-map bench`` writing the repo's ``BENCH_routing.json``.

Usage: ``python benchmarks/perf_smoke.py [bench flags]``, e.g. ``--quick``,
``--workers N`` or ``--compare BENCH_routing.json``; see
``python -m repro bench --help``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", "--output", str(REPO_ROOT / "BENCH_routing.json"), *sys.argv[1:]]))
