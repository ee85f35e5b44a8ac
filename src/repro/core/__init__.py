"""The paper's contribution: functional performance models and
FPM-based data partitioning.

Public surface:

* :class:`repro.core.speed_function.SpeedFunction` — piecewise-linear speed
  vs problem size, built empirically;
* :class:`repro.core.fpm.FunctionalPerformanceModel` — a named speed
  function with provenance metadata;
* :class:`repro.core.cpm.ConstantPerformanceModel` — the traditional
  constant-speed baseline;
* :class:`repro.core.solver.Solver` / :class:`repro.core.solver.SolverOptions`
  — the unified partitioning entry point every layer above core goes
  through;
* :func:`repro.core.partition.partition_fpm` /
  :func:`repro.core.partition.partition_cpm` /
  :func:`repro.core.partition.partition_homogeneous` — the three data
  partitioning algorithms compared in Section VI (``partition_fpm`` is
  the vectorized cluster-scale solver, ``partition_fpm_many`` the
  multi-target variant; their bit-identical per-model reference oracle
  is a test fixture in ``tests/oracles/partition.py``, which a change to
  the solver's kernels must update too);
* :func:`repro.core.integer.round_partition` — integer block allocation;
* :func:`repro.core.geometry.column_based_partition` — the
  communication-minimising 2D matrix arrangement (Clarke et al. [17]);
* :mod:`repro.core.comm_volume` — communication-volume accounting;
* :mod:`repro.core.serialization` — JSON persistence of models.
"""

from repro.core.cpm import ConstantPerformanceModel
from repro.core.diagnostics import diagnose_partition
from repro.core.dynamic import run_dynamic_balancing
from repro.core.fitting import best_fit
from repro.core.fpm import FunctionalPerformanceModel
from repro.core.geometry import ColumnPartition, Rectangle, column_based_partition
from repro.core.hierarchical import (
    aggregate_speed_function,
    hierarchical_partition,
)
from repro.core.integer import refine_integer_partition, round_partition
from repro.core.partition import (
    balance_report,
    geometric_partition,
    partition_cpm,
    partition_fpm,
    partition_fpm_many,
    partition_homogeneous,
)
from repro.core.scheduling import simulate_work_stealing
from repro.core.solver import SolveResult, Solver, SolverOptions
from repro.core.speed_function import SpeedFunction, SpeedSample
from repro.core.surface import SpeedSurface, area_slice, build_surface

__all__ = [
    "ConstantPerformanceModel",
    "diagnose_partition",
    "run_dynamic_balancing",
    "best_fit",
    "FunctionalPerformanceModel",
    "ColumnPartition",
    "Rectangle",
    "column_based_partition",
    "aggregate_speed_function",
    "hierarchical_partition",
    "refine_integer_partition",
    "round_partition",
    "balance_report",
    "geometric_partition",
    "partition_cpm",
    "partition_fpm",
    "partition_fpm_many",
    "partition_homogeneous",
    "simulate_work_stealing",
    "Solver",
    "SolverOptions",
    "SolveResult",
    "SpeedFunction",
    "SpeedSample",
    "SpeedSurface",
    "area_slice",
    "build_surface",
]
