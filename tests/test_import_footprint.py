"""The runtime needs only the Python standard library.

Every ``repro-map`` invocation, server, batch worker and benchmark
interpreter pays for what ``import`` loads.  This spawns a fresh interpreter
over ``src/``, imports the public packages, and fails on any top-level module
that is neither ``repro``, nor in the standard library, nor already loaded by
a bare interpreter in the same environment (``site`` hooks, for instance).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = "repro.cli, repro.api, repro.serve, repro.obs, repro.analysis, repro.benchgen"


def loaded_top_level_modules(statement: str) -> set[str]:
    script = f"{statement}\nimport sys\nprint(*sorted({{m.partition('.')[0] for m in sys.modules}}))"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(completed.stdout.split())


def test_public_packages_load_no_third_party_module():
    bare = loaded_top_level_modules("pass")
    loaded = loaded_top_level_modules(f"import {PACKAGES}")
    # multiprocessing registers the running script a second time as __mp_main__.
    third_party = loaded - bare - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}
    assert not third_party, f"importing {PACKAGES} loads {sorted(third_party)}"
