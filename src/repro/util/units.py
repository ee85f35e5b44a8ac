"""Unit conversions for the matrix-multiplication workload.

The paper measures *problem size* as matrix **area in square blocks** of
``b x b`` elements (blocking factor ``b = 640`` in all experiments).  One run
of the computational kernel on a processor holding an area of ``x`` blocks
performs one rank-``b`` update ``C_i += A_(b) x B_(b)`` where ``C_i`` has
``x * b^2`` elements, i.e. ``2 * x * b^3`` floating-point operations.

Speeds are reported in GFlops (1e9 flops / second), single precision
(4 bytes/element), matching the paper's figures.
"""

from __future__ import annotations

from repro.util.validation import (
    check_nonnegative,
    check_nonnegative_values,
    check_positive,
)

#: Bytes per single-precision (float32) matrix element.
BYTES_PER_SP_ELEMENT = 4

#: The paper's blocking factor (elements per block side).
DEFAULT_BLOCKING_FACTOR = 640


def blocks_to_elements(area_blocks, block_size: int = DEFAULT_BLOCKING_FACTOR):
    """Number of matrix elements in an area of ``area_blocks`` b x b blocks.

    ``area_blocks`` is a number or a NumPy array, converted element-wise
    by the same arithmetic; negative or non-finite areas raise ValueError.
    """
    check_nonnegative_values("area_blocks", area_blocks)
    check_positive("block_size", block_size)
    return area_blocks * block_size * block_size


def blocks_to_bytes(area_blocks, block_size: int = DEFAULT_BLOCKING_FACTOR):
    """Single-precision storage, in bytes, of an area of ``area_blocks`` blocks."""
    return blocks_to_elements(area_blocks, block_size) * BYTES_PER_SP_ELEMENT


def gemm_kernel_flops(area_blocks, block_size: int = DEFAULT_BLOCKING_FACTOR):
    """Flops of ONE kernel run ``C_i += A_(b) x B_(b)`` on area ``area_blocks``.

    The submatrix ``C_i`` holds ``area_blocks * b^2`` elements; the rank-``b``
    update performs ``2 b`` flops per element of ``C_i``.
    """
    return 2.0 * blocks_to_elements(area_blocks, block_size) * block_size


def matmul_total_flops(n_blocks: int, block_size: int = DEFAULT_BLOCKING_FACTOR) -> float:
    """Total flops of the full ``n x n``-block square matrix multiplication.

    The matrices are ``(n*b) x (n*b)`` elements, hence ``2 (n b)^3`` flops.
    Equivalently: ``n`` iterations of the main loop, each a kernel run over
    the full ``n^2``-block area.
    """
    check_nonnegative("n_blocks", n_blocks)
    side = n_blocks * block_size
    return 2.0 * side * side * side


def gflops(flops: float, seconds: float) -> float:
    """Speed in GFlops given a flop count and an execution time."""
    check_nonnegative("flops", flops)
    check_positive("seconds", seconds)
    return flops / seconds / 1e9


def seconds_for(flops: float, speed_gflops: float) -> float:
    """Execution time for ``flops`` at a sustained speed of ``speed_gflops``."""
    check_nonnegative("flops", flops)
    check_positive("speed_gflops", speed_gflops)
    return flops / (speed_gflops * 1e9)


def mib(num_bytes: float) -> float:
    """Bytes -> mebibytes (MiB)."""
    return num_bytes / (1024.0 * 1024.0)
