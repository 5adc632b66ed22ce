"""repro: reproduction of "Reducing Activation Recomputation in Large
Transformer Models" (Korthikanti et al., MLSys 2023).

The package provides, on a simulated multi-GPU substrate:

* ``repro.tensor`` — tape autodiff with activation-memory / FLOP tracking
  and a ``checkpoint`` recompute primitive;
* ``repro.comm`` — simulated NCCL-style collectives with a ring cost model;
* ``repro.layers`` — a serial reference transformer (the gold standard);
* ``repro.parallel`` — tensor parallelism, sequence parallelism and
  selective activation recomputation (the paper's contribution);
* ``repro.memory_model`` / ``repro.flops_model`` — the paper's closed-form
  Equations 1-9 and Table 2;
* ``repro.perf_model`` / ``repro.pipeline_sim`` — roofline timing and
  pipeline-schedule simulation reproducing Tables 4-5 and Figures 8-9;
* ``repro.planner`` — choose the cheapest recompute policy that fits a
  memory budget.

See ``DESIGN.md`` for the full inventory and ``EXPERIMENTS.md`` for
paper-vs-measured results.
"""

from .config import (
    PAPER_CONFIG_NAMES,
    PAPER_CONFIGS,
    ExperimentConfig,
    ModelConfig,
    ParallelConfig,
    TrainingConfig,
)
from .errors import (
    AutogradError,
    CheckpointCorruptError,
    CollectiveTimeout,
    CommError,
    CompilerError,
    ConfigError,
    CorruptionDetected,
    PlanningError,
    RankFailure,
    ReproError,
    ScheduleError,
    ShapeError,
)
from .hardware import ClusterSpec, GPUSpec, LinkSpec, NodeSpec, selene_like

__version__ = "1.0.0"

__all__ = [
    "PAPER_CONFIGS", "PAPER_CONFIG_NAMES", "ExperimentConfig", "ModelConfig",
    "ParallelConfig", "TrainingConfig", "ClusterSpec",
    "GPUSpec", "LinkSpec", "NodeSpec", "selene_like",
    "ReproError", "AutogradError", "CheckpointCorruptError",
    "CollectiveTimeout", "CommError", "CompilerError", "ConfigError",
    "CorruptionDetected",
    "PlanningError", "RankFailure", "ScheduleError", "ShapeError",
    "__version__",
]
