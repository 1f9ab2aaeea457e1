"""The runtime needs only the Python standard library.

Every ``repro-map`` invocation, server, batch worker and benchmark
interpreter pays for what ``import`` loads.  This spawns a fresh interpreter
over ``src/``, imports the public packages, and fails on any top-level module
that is neither ``repro``, nor in the standard library, nor already loaded by
a bare interpreter in the same environment (``site`` hooks, for instance).
A Qlosure compile must not load the affine lifting (only ``repro-map info``
reads it) or anything under ``tests/`` (the polyhedral oracle of Eq. 1), and
no source file under ``src/`` or ``examples/`` may import from ``tests/``.
``sqlite3`` loads only with a disk cache: neither the import nor a compile
through the default, memory-only cache may load it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGES = "repro.cli, repro.api, repro.serve, repro.obs, repro.analysis, repro.benchgen"


def loaded_modules(statement: str) -> set[str]:
    script = f"{statement}\nimport sys\nprint(*sorted(sys.modules))"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(completed.stdout.split())


def loaded_top_level_modules(statement: str) -> set[str]:
    return {module.partition(".")[0] for module in loaded_modules(statement)}


def test_public_packages_load_no_third_party_module():
    bare = loaded_top_level_modules("pass")
    loaded = loaded_top_level_modules(f"import {PACKAGES}")
    # multiprocessing registers the running script a second time as __mp_main__.
    third_party = loaded - bare - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}
    assert not third_party, f"importing {PACKAGES} loads {sorted(third_party)}"


def test_qlosure_compile_loads_no_affine_or_test_module():
    loaded = loaded_modules(
        f"import {PACKAGES}\n"
        "from repro.api import CompileRequest, compile\n"
        "compile(CompileRequest(generate='ghz:6', backend='sherbrooke', router='qlosure'), cache=False)"
    )
    assert "repro.core.router" in loaded
    unwanted = sorted(
        module
        for module in loaded
        if module.partition(".")[0] == "tests" or module.startswith("repro.affine")
    )
    assert not unwanted, f"a qlosure compile loads {unwanted}"


def test_sqlite3_loads_only_with_a_disk_cache():
    compile_once = (  # through the default cache, memory-only without REPRO_CACHE_DIR
        "import os\nos.environ.pop('REPRO_CACHE_DIR', None)\n"
        "from repro.api import CompileRequest, compile\n"
        "compile(CompileRequest(generate='ghz:6', backend='sherbrooke', router='sabre'))"
    )
    for statement in (f"import {PACKAGES}", f"import {PACKAGES}\n{compile_once}"):
        loaded = loaded_modules(statement)
        assert "repro.api.cache" in loaded
        assert not {"sqlite3", "_sqlite3"} & loaded, f"{statement!r} loads sqlite3"
    # Building the handle imports sqlite3 and touches no file.
    with_disk = loaded_modules(
        "from repro.api import CompileCache\nCompileCache(directory='never-created')"
    )
    assert "sqlite3" in with_disk  # the check can see the module


def imported_names(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_src_and_examples_import_nothing_from_tests():
    sources = sorted([*SRC.rglob("*.py"), *(REPO / "examples").glob("*.py")])
    assert any(path.name == "dependence_analysis_tour.py" for path in sources)
    offending = [
        f"{path.relative_to(REPO)}: {name}"
        for path in sources
        for name in imported_names(path)
        if name.partition(".")[0] == "tests"
    ]
    assert not offending, f"runtime or example code imports the test tree: {offending}"
