"""Extension: hierarchical FPM partitioning across a heterogeneous cluster.

The paper's companion work (reference [6]) partitions between nodes of a
heterogeneous cluster using whole-node performance models.  This experiment
builds a three-node cluster from the library's device models —

* node A: the paper's full hybrid node (2 GPUs + 22 cores),
* node B: the CPU-only variant (24 cores),
* node C: a single socket with the Tesla C870 (a "small" hybrid node) —

derives each node's aggregate speed function, partitions a large workload
hierarchically, and checks the central property: the two-level solution
matches flat FPM partitioning over the union of all 12 compute units while
needing only 3 node models at the top level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hierarchical import hierarchical_partition
from repro.core.integer import makespan
from repro.core.solver import Solver
from repro.core.integer import round_partition
from repro.app.matmul import HybridMatMul
from repro.experiments.common import ExperimentConfig
from repro.platform.presets import cpu_only_node, ig_icl_node, tesla_c870
from repro.platform.spec import GpuAttachment, NodeSpec
from repro.experiments.registry import register_experiment
from repro.util.tables import render_table

MATRIX_SIZE = 100  # blocks; 10000 blocks across the cluster


def _small_hybrid_node() -> NodeSpec:
    base = ig_icl_node()
    return NodeSpec(
        name="small-hybrid",
        socket=base.socket,
        num_sockets=1,
        gpus=(GpuAttachment(gpu=tesla_c870(), socket_index=0),),
        block_size=base.block_size,
    )


@dataclass(frozen=True)
class ClusterResult:
    node_names: tuple[str, ...]
    node_allocations: tuple[int, ...]
    hierarchical_makespan: float
    flat_makespan: float
    agreement_l1: float  # fraction of total where the two solutions differ

    @property
    def hierarchy_overhead(self) -> float:
        """Hierarchical makespan relative to the flat optimum (>= ~1)."""
        return self.hierarchical_makespan / self.flat_makespan


def _node_models(config: ExperimentConfig, node: NodeSpec, max_blocks: float):
    app = HybridMatMul(
        node,
        seed=config.seed,
        noise_sigma=config.noise_sigma,
        gpu_version=config.gpu_version,
    )
    app.build_models(
        max_blocks=max_blocks,
        cpu_points=6 if config.fast else 10,
        gpu_points=8 if config.fast else 12,
        adaptive=False,
    )
    units = app.compute_units()
    return app.models_for(units)


def run(
    config: ExperimentConfig = ExperimentConfig(), n: int = MATRIX_SIZE
) -> ClusterResult:
    """Partition n^2 blocks across the three-node cluster, both ways."""
    total = n * n
    nodes = [
        ("hybrid-A", ig_icl_node()),
        ("cpu-B", cpu_only_node()),
        ("small-C", _small_hybrid_node()),
    ]
    per_node_models = [
        _node_models(config, node, float(total)) for _, node in nodes
    ]

    hier = hierarchical_partition(per_node_models, total)

    flat_models = [m for models in per_node_models for m in models]
    flat = Solver().solve(flat_models, float(total))
    flat_int = round_partition(flat_models, list(flat.allocations), total)

    l1 = sum(abs(a - b) for a, b in zip(hier.flat, flat_int)) / total
    return ClusterResult(
        node_names=tuple(name for name, _ in nodes),
        node_allocations=hier.node_allocations,
        hierarchical_makespan=makespan(flat_models, hier.flat),
        flat_makespan=makespan(flat_models, flat_int),
        agreement_l1=l1,
    )


@register_experiment("hierarchical_cluster", run=run, kind="ablation", paper_refs=())
def format_result(result: ClusterResult) -> str:
    rows = [
        [name, alloc]
        for name, alloc in zip(result.node_names, result.node_allocations)
    ]
    table = render_table(
        ["node", "blocks"],
        rows,
        title="Hierarchical FPM partitioning over a 3-node cluster",
    )
    return table + (
        f"\nhierarchical vs flat makespan: "
        f"{result.hierarchical_makespan:.3f} vs {result.flat_makespan:.3f} "
        f"(overhead {100 * (result.hierarchy_overhead - 1):.2f}%), "
        f"allocation L1 distance {100 * result.agreement_l1:.2f}%"
    )
