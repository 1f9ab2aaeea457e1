"""Experiment drivers that regenerate the paper's tables and figures.

Every driver routes through :mod:`repro.api` (``compile`` /
``compile_many``), so the paper's numbers come from the same pipeline and
the same route-pass stopwatch as the CLI and ``repro-map bench``.  Each
evaluation artifact of the paper has a driver here:

* :mod:`repro.analysis.experiments` -- the comparison runner over registered
  router names plus the aggregations behind Tables II-VI and Figures 6-7,
* :mod:`repro.analysis.scaling` -- mapping-time-vs-QOPs data (Figure 5),
* :mod:`repro.analysis.ablation` -- the cost-function ablation (Figure 8),
* :mod:`repro.analysis.sensitivity` -- the window-constant and decay sweeps,
* :mod:`repro.analysis.report` -- plain-text table rendering,
* :mod:`repro.analysis.config` -- benchmark scale control via environment
  variables (`REPRO_BENCH_SCALE`, `REPRO_BENCH_SEEDS`).
"""

from repro.analysis.config import BenchScale, bench_scale
from repro.analysis.experiments import (
    ComparisonRecord,
    compare_mappers,
    depth_factor_table,
    swap_ratio_table,
    mapping_time_table,
    qasmbench_table,
    queko_series,
)
from repro.analysis.scaling import mapping_time_scaling
from repro.analysis.ablation import ablation_study
from repro.analysis.sensitivity import window_constant_sweep, decay_increment_sweep
from repro.analysis.export import (
    export_records_csv,
    export_records_json,
    load_records_csv,
    load_records_json,
)
from repro.analysis.report import format_table, render_records

__all__ = [
    "BenchScale",
    "bench_scale",
    "ComparisonRecord",
    "compare_mappers",
    "depth_factor_table",
    "swap_ratio_table",
    "mapping_time_table",
    "qasmbench_table",
    "queko_series",
    "mapping_time_scaling",
    "ablation_study",
    "window_constant_sweep",
    "decay_increment_sweep",
    "export_records_csv",
    "export_records_json",
    "load_records_csv",
    "load_records_json",
    "format_table",
    "render_records",
]
