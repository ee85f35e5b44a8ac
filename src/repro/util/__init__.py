"""Shared utilities: statistics, units, validation, RNG, tables, timelines.

These modules are deliberately dependency-light and are used by every other
subsystem of :mod:`repro`.  Importing them loads numpy only; SciPy's
``scipy.special`` is imported on the first Student-t critical value.
"""

from repro.util.rng import RngStream, derive_seed
from repro.util.stats import (
    RunningStats,
    confidence_interval,
    relative_precision,
    student_t_critical,
)
from repro.util.units import (
    BYTES_PER_SP_ELEMENT,
    blocks_to_elements,
    blocks_to_bytes,
    gemm_kernel_flops,
    gflops,
    matmul_total_flops,
)
from repro.util.validation import (
    check_in,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "RngStream",
    "derive_seed",
    "RunningStats",
    "confidence_interval",
    "relative_precision",
    "student_t_critical",
    "BYTES_PER_SP_ELEMENT",
    "blocks_to_elements",
    "blocks_to_bytes",
    "gemm_kernel_flops",
    "gflops",
    "matmul_total_flops",
    "check_in",
    "check_nonnegative",
    "check_positive",
    "check_probability",
]
