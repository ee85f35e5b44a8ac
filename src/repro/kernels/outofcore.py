"""Out-of-core tiling of the GPU kernel (paper Fig. 4a).

When a processor's ``C_i`` submatrix exceeds device memory, the kernel
splits the pivot column ``A_(b)``, the pivot row ``B_(b)`` and ``C_i`` into
rectangles that fit the device, and updates the rectangles one by one.  The
paper adds two refinements that this planner reproduces:

* the *last two rectangles* stay resident on the device between kernel runs
  and the update order is reversed every other run, saving two transfers in
  each direction per run;
* rectangle dimensions are kept multiples of 32 elements, because CUBLAS
  GEMM pays a significant penalty on misaligned shapes (Barrachina et al.).

The planner works in element space on the near-square block rectangle that
the partitioner assigned to the processor, and splits along the longer side
into near-equal strips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.util.validation import check_nonnegative, check_positive, check_positive_int


@dataclass(frozen=True)
class Tile:
    """One rectangle of ``C_i`` in the out-of-core schedule.

    ``upload_needed`` / ``download_needed`` are False for the rectangles
    that stay resident across kernel runs.
    """

    rows: int
    cols: int
    alignment: int
    upload_needed: bool = True
    download_needed: bool = True

    def __post_init__(self) -> None:
        check_positive_int("rows", self.rows)
        check_positive_int("cols", self.cols)
        check_positive_int("alignment", self.alignment)

    @property
    def elements(self) -> int:
        return self.rows * self.cols

    @property
    def aligned(self) -> bool:
        """True when both dimensions are multiples of the alignment unit."""
        return self.rows % self.alignment == 0 and self.cols % self.alignment == 0

    def area_blocks(self, block_size: int) -> float:
        """Tile area expressed in b x b blocks."""
        return self.elements / (block_size * block_size)


@dataclass(frozen=True)
class TilingPlan:
    """The complete per-run tiling of one processor's ``C_i``."""

    rows: int
    cols: int
    block_size: int
    tiles: tuple[Tile, ...]
    kept_resident: int

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def area_blocks(self) -> float:
        return self.rows * self.cols / (self.block_size * self.block_size)

    @cached_property
    def tile_area_blocks(self) -> np.ndarray:
        """Each tile's area in b x b blocks, in schedule order."""
        elements = np.array([t.elements for t in self.tiles], dtype=np.float64)
        return elements / (self.block_size * self.block_size)

    @cached_property
    def aligned_mask(self) -> np.ndarray:
        """Which tiles have alignment-friendly dimensions."""
        return np.array([t.aligned for t in self.tiles])

    @cached_property
    def upload_mask(self) -> np.ndarray:
        """Which tiles' rectangles are sent to the device each run."""
        return np.array([t.upload_needed for t in self.tiles])

    @cached_property
    def download_mask(self) -> np.ndarray:
        """Which tiles' rectangles are fetched back each run."""
        return np.array([t.download_needed for t in self.tiles])

    @property
    def uploads(self) -> tuple[Tile, ...]:
        """Tiles whose rectangle must be sent to the device each run."""
        return tuple(t for t in self.tiles if t.upload_needed)

    @property
    def downloads(self) -> tuple[Tile, ...]:
        """Tiles whose rectangle must be fetched back each run."""
        return tuple(t for t in self.tiles if t.download_needed)

    @property
    def transferred_blocks_each_way(self) -> float:
        """Blocks of C crossing PCIe per run, one way (paper's saving applied)."""
        return sum(t.area_blocks(self.block_size) for t in self.uploads)

    def validate_coverage(self) -> None:
        """Raise ValueError unless the tiles exactly cover the rectangle."""
        covered = sum(t.elements for t in self.tiles)
        if covered != self.rows * self.cols:
            raise ValueError(
                f"tiles cover {covered} elements but the rectangle has "
                f"{self.rows * self.cols}"
            )


def _split_lengths(total: int, parts: int, alignment: int) -> list[int]:
    """Split ``total`` into ``parts`` positive lengths, alignment-friendly.

    All lengths except possibly the last are multiples of ``alignment``; the
    lengths sum exactly to ``total`` and differ as little as the alignment
    constraint allows.
    """
    if parts > total:
        raise ValueError(f"cannot split length {total} into {parts} parts")
    base = total // parts
    aligned_base = (base // alignment) * alignment
    if aligned_base == 0:
        # Too small for aligned strips; fall back to an even integer split.
        lengths = [base] * parts
        for i in range(total - base * parts):
            lengths[i] += 1
        return lengths
    lengths = [aligned_base] * parts
    remainder = total - aligned_base * parts
    # Hand the remainder out in alignment-sized increments, then give any
    # final sliver to the last strip (the only possibly-misaligned one).
    i = 0
    while remainder >= alignment:
        lengths[i % parts] += alignment
        remainder -= alignment
        i += 1
    lengths[-1] += remainder
    return lengths


@lru_cache(maxsize=1024)
def plan_tiling(
    rows: int,
    cols: int,
    tile_capacity_blocks: float,
    block_size: int,
    alignment: int = 32,
    keep_resident: int = 2,
) -> TilingPlan:
    """Plan the out-of-core tiling of a ``rows x cols``-element rectangle.

    ``tile_capacity_blocks`` is the largest per-tile C area the device
    buffers allow (see
    :meth:`repro.platform.memory.GpuMemoryModel.out_of_core_tile_blocks`).
    ``keep_resident`` rectangles are marked as needing no transfers, but
    only when more tiles than that exist — otherwise everything is resident
    and the plan degenerates to the in-core case.

    Plans are deterministic and immutable, so results are memoised — the
    execution simulator and the measurement sweeps re-plan the same
    geometry for every repetition/iteration.
    """
    check_positive_int("rows", rows)
    check_positive_int("cols", cols)
    check_positive("tile_capacity_blocks", tile_capacity_blocks)
    check_positive_int("block_size", block_size)
    check_positive_int("alignment", alignment)
    check_nonnegative("keep_resident", keep_resident)

    area_blocks = rows * cols / (block_size * block_size)
    num_tiles = max(1, math.ceil(area_blocks / tile_capacity_blocks))
    long_dim = max(rows, cols)

    while True:
        if num_tiles > long_dim:
            raise ValueError(
                f"rectangle {rows}x{cols} cannot be split into {num_tiles} "
                f"strips of capacity {tile_capacity_blocks} blocks"
            )
        lengths = _split_lengths(long_dim, num_tiles, alignment)
        split_rows = rows >= cols
        tiles = []
        for j, length in enumerate(lengths):
            t_rows, t_cols = (length, cols) if split_rows else (rows, length)
            # With keep_resident = 0 (version 1 semantics) every tile is
            # transferred, even a single one.  Otherwise the first
            # min(keep_resident, k - 1) tiles stay on device — and a lone
            # tile that fits entirely is simply resident.
            if keep_resident == 0:
                resident = False
            elif num_tiles == 1:
                resident = True
            else:
                resident = j < min(keep_resident, num_tiles - 1)
            tiles.append(
                Tile(
                    rows=t_rows,
                    cols=t_cols,
                    alignment=alignment,
                    upload_needed=not resident,
                    download_needed=not resident,
                )
            )
        worst = max(t.area_blocks(block_size) for t in tiles)
        if worst <= tile_capacity_blocks * (1.0 + 1e-9) or num_tiles == long_dim:
            plan = TilingPlan(
                rows=rows,
                cols=cols,
                block_size=block_size,
                tiles=tuple(tiles),
                kept_resident=sum(1 for t in tiles if not t.upload_needed),
            )
            plan.validate_coverage()
            return plan
        num_tiles += 1


@dataclass(frozen=True)
class RunTransferLog:
    """Transfers of one kernel run in the cross-run residency simulation."""

    uploads: tuple[int, ...]  # tile indices sent to the device this run
    downloads: tuple[int, ...]  # tile indices evicted back to the host
    resident_after: tuple[int, ...]  # tiles on the device at run end


def simulate_consecutive_runs(plan: TilingPlan, runs: int) -> list[RunTransferLog]:
    """Replay the paper's residency policy across application iterations.

    Version 2/3 keep the last ``kept_resident`` rectangles on the device
    between kernel runs and reverse the update order every other run, so
    the tiles processed *first* in a run are exactly the ones left behind
    by the previous run — they need no upload, and (being re-updated
    before anything reads them on the host) their eviction is skipped too.

    Returns one :class:`RunTransferLog` per run.  Steady-state runs must
    transfer exactly ``plan.uploads`` worth of tiles — the quantity the
    timing model charges — which the tests assert.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    keep = plan.kept_resident
    order = list(range(plan.num_tiles))
    device: list[int] = []  # tiles resident at the run boundary
    logs: list[RunTransferLog] = []
    if keep == 0:
        capacity = 0  # version-1 semantics: nothing ever stays resident
    elif plan.num_tiles == 1:
        capacity = 1  # the single tile is simply resident
    else:
        capacity = keep
    for run in range(runs):
        # reverse the order every other run so the run starts with the
        # tiles the previous run left resident
        current = order if run % 2 == 0 else list(reversed(order))
        if capacity == 0:
            # version-1 semantics: nothing stays resident
            logs.append(
                RunTransferLog(
                    uploads=tuple(current),
                    downloads=tuple(current),
                    resident_after=(),
                )
            )
            continue
        uploads: list[int] = []
        downloads: list[int] = []
        resident = list(device)
        for tile in current:
            if tile not in resident:
                # make room: evict the resident tile updated longest ago
                while len(resident) >= capacity:
                    evicted = resident.pop(0)
                    downloads.append(evicted)
                uploads.append(tile)
                resident.append(tile)
            else:
                # freshen its position: it was just updated
                resident.remove(tile)
                resident.append(tile)
        device = resident[-capacity:]
        logs.append(
            RunTransferLog(
                uploads=tuple(uploads),
                downloads=tuple(downloads),
                resident_after=tuple(device),
            )
        )
    return logs


def near_square_shape(area_blocks: float, block_size: int) -> tuple[int, int]:
    """Element dimensions of a near-square rectangle with the given block area.

    The partitioning arranges submatrices "as square as possible" (paper
    Section IV); kernels modelling a processor's area therefore assume a
    square-ish shape.  Rows are the rounded square-root side; columns make
    the area exact to the nearest element.
    """
    check_positive("area_blocks", area_blocks)
    elements = area_blocks * block_size * block_size
    side = max(1, round(math.sqrt(elements)))
    other = max(1, round(elements / side))
    return side, other
