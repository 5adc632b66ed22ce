"""Hardware description of the simulated cluster (paper Section 6).

The paper's experiments ran on the Selene supercomputer: DGX A100 nodes with
8x NVIDIA 80GB A100 GPUs connected by NVLink/NVSwitch inside a node and
8x 200 Gbps HDR InfiniBand HCAs between nodes.  These dataclasses capture the
quantities the performance model needs; see ``repro.perf_model`` for how
they are used and ``DESIGN.md`` for the calibration policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .units import GIB


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator.

    ``peak_flops`` is the theoretical peak for the training precision
    (312 TFLOP/s for A100 fp16 tensor cores, the number the paper uses to
    define MFU/HFU).  ``gemm_efficiency`` is the fraction of peak a large,
    well-shaped GEMM achieves in practice; it is the single calibrated knob
    of the performance model (fit to the paper's Table 4 22B baseline row).
    """

    name: str = "A100-80GB"
    memory_bytes: int = 80 * GIB
    peak_flops: float = 312e12
    hbm_bandwidth: float = 2.0e12  # bytes/s (A100 80GB: ~2.0 TB/s)
    #: Asymptotic fraction of peak for very large GEMMs; the achieved
    #: efficiency of a GEMM of F FLOPs is
    #: ``gemm_efficiency * F / (F + gemm_half_sat_flops)`` — small GEMMs
    #: (e.g. per-head attention batches) run far below peak, huge MLP
    #: GEMMs near it.
    gemm_efficiency: float = 0.70
    gemm_half_sat_flops: float = 2.0e10
    kernel_launch_overhead: float = 4.5e-6  # seconds per kernel

    def __post_init__(self) -> None:
        if not (0 < self.gemm_efficiency <= 1):
            raise ConfigError("gemm_efficiency must be in (0, 1]")
        if self.peak_flops <= 0 or self.hbm_bandwidth <= 0:
            raise ConfigError("peak_flops and hbm_bandwidth must be positive")

    def gemm_throughput(self, flops: float) -> float:
        """Sustained FLOP/s for one GEMM of ``flops`` total work."""
        eff = self.gemm_efficiency * flops / (flops + self.gemm_half_sat_flops)
        return self.peak_flops * max(eff, 1e-6)


@dataclass(frozen=True)
class LinkSpec:
    """A communication link characterized by an alpha-beta model.

    ``latency`` (alpha) is the per-message startup cost in seconds;
    ``bandwidth`` (beta^-1) is the per-direction achievable bandwidth in
    bytes/s available to one GPU.
    """

    name: str
    bandwidth: float
    latency: float


#: NVLink3/NVSwitch inside a DGX A100: 600 GB/s total per GPU; ~300 GB/s
#: achievable collective bus bandwidth per GPU for large messages.
NVLINK = LinkSpec(name="NVLink3/NVSwitch", bandwidth=300e9, latency=7e-6)

#: 8x HDR InfiniBand per node = 8 x 200 Gbps = 200 GB/s per node,
#: i.e. 25 GB/s per GPU when all 8 GPUs communicate.
INFINIBAND = LinkSpec(name="8xHDR InfiniBand", bandwidth=25e9, latency=12e-6)


@dataclass(frozen=True)
class NodeSpec:
    """One server: ``gpus_per_node`` GPUs joined by ``intra_node_link``."""

    gpu: GPUSpec = field(default_factory=GPUSpec)
    gpus_per_node: int = 8
    intra_node_link: LinkSpec = NVLINK

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ConfigError("gpus_per_node must be >= 1")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of nodes joined by ``inter_node_link``.

    Ranks are laid out node-major: global rank ``r`` lives on node
    ``r // gpus_per_node``.  This matches how Megatron-LM maps tensor
    parallel groups (t=8) onto single DGX nodes so that tensor-parallel
    collectives stay on NVLink.
    """

    node: NodeSpec = field(default_factory=NodeSpec)
    num_nodes: int = 1
    inter_node_link: LinkSpec = INFINIBAND

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.node.gpus_per_node

    @property
    def gpu(self) -> GPUSpec:
        return self.node.gpu

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.node.gpus_per_node

    def link_between(self, rank_a: int, rank_b: int) -> LinkSpec:
        """The link used by a point-to-point transfer between two ranks."""
        self._check_rank(rank_a)
        self._check_rank(rank_b)
        if self.node_of(rank_a) == self.node_of(rank_b):
            return self.node.intra_node_link
        return self.inter_node_link

    def group_link(self, ranks: "list[int] | tuple[int, ...]") -> LinkSpec:
        """The bottleneck link of a collective over ``ranks``.

        A ring collective is limited by its slowest hop, so a group that
        spans nodes runs at inter-node bandwidth.
        """
        if len(ranks) < 1:
            raise ConfigError("group must contain at least one rank")
        nodes = {self.node_of(r) for r in ranks}
        if len(nodes) > 1:
            return self.inter_node_link
        return self.node.intra_node_link

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.world_size):
            raise ConfigError(f"rank {rank} out of range for world size {self.world_size}")


#: An H100-SXM-like accelerator for what-if analysis (990 TFLOP/s dense
#: bf16, ~3.35 TB/s HBM3, NVLink4 at ~450 GB/s effective per GPU).  Not a
#: paper configuration — used by examples/what_if_h100.py to show the cost
#: model generalizes beyond the calibrated A100.
H100 = GPUSpec(name="H100-80GB", memory_bytes=80 * GIB, peak_flops=990e12,
               hbm_bandwidth=3.35e12, gemm_efficiency=0.70,
               gemm_half_sat_flops=6.0e10)

NVLINK4 = LinkSpec(name="NVLink4/NVSwitch", bandwidth=450e9, latency=6e-6)


def h100_cluster(num_gpus: int) -> ClusterSpec:
    """An H100 DGX cluster with at least ``num_gpus`` GPUs."""
    if num_gpus < 1:
        raise ConfigError("num_gpus must be >= 1")
    node = NodeSpec(gpu=H100, intra_node_link=NVLINK4)
    return ClusterSpec(node=node, num_nodes=-(-num_gpus // node.gpus_per_node),
                       inter_node_link=LinkSpec("NDR InfiniBand", 50e9, 10e-6))


def selene_like(num_gpus: int) -> ClusterSpec:
    """A Selene-like cluster with at least ``num_gpus`` A100s (8 per node)."""
    if num_gpus < 1:
        raise ConfigError("num_gpus must be >= 1")
    node = NodeSpec()
    num_nodes = -(-num_gpus // node.gpus_per_node)
    return ClusterSpec(node=node, num_nodes=num_nodes)
