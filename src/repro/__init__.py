"""repro — FPM-based data partitioning on hybrid multicore/multi-GPU systems.

A faithful, fully self-contained reproduction of

    Z. Zhong, V. Rychkov, A. Lastovetsky,
    "Data Partitioning on Heterogeneous Multicore and Multi-GPU Systems
    Using Functional Performance Models of Data-Parallel Applications",
    IEEE Cluster 2012.

Layers (bottom to top):

* :mod:`repro.platform` — the simulated hybrid node (calibrated analytic
  device models standing in for the paper's real hardware);
* :mod:`repro.kernels` — CPU and GPU GEMM kernels, including the paper's
  three GPU versions with out-of-core tiling and DMA overlap;
* :mod:`repro.measurement` — binding, synchronisation, statistically
  reliable timing, and FPM construction;
* :mod:`repro.core` — functional performance models and the FPM / CPM /
  homogeneous partitioning algorithms plus the column-based 2D geometry;
* :mod:`repro.runtime` — the simulated message-passing runtime;
* :mod:`repro.app` — the heterogeneous parallel matrix multiplication;
* :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    from repro import HybridMatMul, PartitioningStrategy, ig_icl_node

    app = HybridMatMul(ig_icl_node())
    app.build_models(max_blocks=3600.0)
    plan, result = app.run(60, PartitioningStrategy.FPM)
    print(plan.unit_allocations, result.total_time)
"""

from repro.app.matmul import (
    ComputeUnit,
    HybridMatMul,
    MatMulPlan,
    PartitioningStrategy,
)
from repro.core.cpm import ConstantPerformanceModel
from repro.core.fpm import FunctionalPerformanceModel
from repro.core.geometry import column_based_partition
from repro.core.partition import (
    partition_cpm,
    partition_fpm,
    partition_homogeneous,
)
from repro.core.solver import SolveResult, Solver, SolverOptions
from repro.core.speed_function import SpeedFunction, SpeedSample
from repro.measurement.benchmark import HybridBenchmark
from repro.measurement.fpm_builder import FpmBuilder, SizeGrid
from repro.platform.presets import cpu_only_node, ig_icl_node

__version__ = "1.17.0"

__all__ = [
    "ComputeUnit",
    "HybridMatMul",
    "MatMulPlan",
    "PartitioningStrategy",
    "ConstantPerformanceModel",
    "FunctionalPerformanceModel",
    "column_based_partition",
    "partition_cpm",
    "partition_fpm",
    "partition_homogeneous",
    "Solver",
    "SolverOptions",
    "SolveResult",
    "SpeedFunction",
    "SpeedSample",
    "HybridBenchmark",
    "FpmBuilder",
    "SizeGrid",
    "cpu_only_node",
    "ig_icl_node",
    "__version__",
]
