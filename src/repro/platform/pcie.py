"""PCI Express link model for host <-> device transfers.

Two transfer classes, matching how the GPU kernels move data:

* **contiguous** — pivot column/row pieces, staged through pinned buffers;
  a fixed effective bandwidth plus per-call latency.
* **pitched** — 2D rectangles of the ``C`` submatrix, copied row-by-row out
  of the (much larger) host matrix.  While the walked submatrix fits the
  pinned staging area (sized like device memory) these run at pinned speed;
  past it the runtime falls back to pageable copies, whose bandwidth is much
  lower and decays mildly with footprint.  This cliff is what produces the
  sharp performance drop past the device-memory limit in the paper's Fig. 3
  and the GPU/socket speed-ratio decline (9x -> ~4x) around Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.spec import GpuSpec
from repro.util.validation import check_positive


@dataclass(frozen=True)
class PcieLink:
    """Transfer-time model of one GPU's PCIe connection."""

    gpu: GpuSpec
    staging_blocks: float

    def __post_init__(self) -> None:
        check_positive("staging_blocks", self.staging_blocks)

    def contiguous_time(self, nbytes):
        """Seconds to move ``nbytes`` of contiguous (pinned) data one way.

        Takes a number or an array of sizes, validated (>= 0) by the
        caller; a zero-byte copy is free.
        """
        nb = np.asarray(nbytes, dtype=np.float64)
        times = self.gpu.pcie_latency_s + nb / (self.gpu.pcie_contig_gbs * 1e9)
        return np.where(nb == 0.0, 0.0, times)

    def pitched_bandwidth_gbs(self, footprint_blocks):
        """Effective GB/s of pitched C-rectangle copies, per footprint.

        ``footprint_blocks`` (a number or an array) is the area of the full
        host submatrix being walked during the kernel run (not the size of
        one transfer call).  Within the staging area: pinned speed.  Past
        it: pageable fallback with a mild footprint-dependent decay.
        """
        fp = np.asarray(footprint_blocks, dtype=np.float64)
        # footprints within staging take the pinned branch below; clamping
        # them keeps the unused pageable branch free of a division by zero
        ratio = np.maximum(fp, self.staging_blocks) / self.staging_blocks
        pageable = self.gpu.pcie_pageable_gbs / ratio**self.gpu.pageable_decay_power
        return np.where(
            fp <= self.staging_blocks, self.gpu.pcie_pitched_pinned_gbs, pageable
        )

    def pitched_time(self, nbytes, footprint_blocks):
        """Seconds to move ``nbytes`` of a pitched rectangle one way.

        ``nbytes`` may be an array of rectangles of one kernel run, all
        priced at the bandwidth of the run's ``footprint_blocks``.
        """
        nb = np.asarray(nbytes, dtype=np.float64)
        bw = self.pitched_bandwidth_gbs(footprint_blocks)
        times = self.gpu.pcie_latency_s + nb / (bw * 1e9)
        return np.where(nb == 0.0, 0.0, times)

    def concurrent_copy_factor(self, kernel_active):
        """Bandwidth multiplier while a kernel occupies the memory controller.

        ``kernel_active`` is a bool or a boolean array.
        """
        return np.where(kernel_active, self.gpu.concurrent_copy_slowdown, 1.0)
