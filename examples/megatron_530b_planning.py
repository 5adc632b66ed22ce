"""Planning a 530B (MT-NLG-style) training run on 80 GB GPUs.

The scenario the paper's Section 5 discusses: given a model-parallel
configuration, how much activation memory does each strategy need, which
is the cheapest that fits, and what iteration time / MFU should we expect?

Run:  python examples/megatron_530b_planning.py
"""

from repro.config import PAPER_CONFIGS
from repro.layers.transformer import Recompute
from repro.memory_model import stage_memory, weight_and_optimizer_bytes
from repro.perf_model import iteration_time
from repro.planner import plan
from repro.planner.planner import fits
from repro.units import GIB, fmt_bytes


def main() -> None:
    cfg = PAPER_CONFIGS["530B"]
    model, par, train = cfg.model, cfg.parallel, cfg.training
    print(f"Model: {model.name}  (a={model.a}, h={model.h}, L={model.L}, "
          f"s={model.s}, v={model.v})")
    print(f"Parallelism: t={par.t}, p={par.p}, m={par.m} "
          f"({cfg.num_gpus} GPUs); microbatch b={train.b}")
    print(f"5as/h = {5 * model.a * model.s / model.h:.0f}  "
          "(>34: the attention core dominates -> selective recompute pays)")

    static = weight_and_optimizer_bytes(cfg)
    print(f"\nWeights + optimizer state per GPU: {fmt_bytes(static)}")

    print("\nFirst-pipeline-stage peak activation memory per strategy "
          "(the planner's fit rule keeps a 4 GiB reserve):")
    for label, sp, rc in [
        ("tensor parallel only (baseline)", False, Recompute.NONE),
        ("  + sequence parallelism", True, Recompute.NONE),
        ("  + selective recompute", True, Recompute.SELECTIVE),
        ("full recomputation", False, Recompute.FULL),
    ]:
        mem = stage_memory(cfg, 0, rc, sp)
        total = mem.total + static
        verdict = "fits" if fits(total, 80 * GIB) else "DOES NOT FIT"
        print(f"  {label:34s} {fmt_bytes(mem.total):>11s} activations "
              f"({fmt_bytes(mem.layers)} layers), "
              f"{fmt_bytes(total):>11s} total -> {verdict} in 80 GB")

    print("\nPlanner (cheapest strategy that fits):")
    for budget_gb in (80, 60, 54, 45):
        try:
            option = plan(cfg, device_memory_bytes=budget_gb * GIB,
                          full_layer_step=3)
            print(f"  {budget_gb:3d} GB -> {option.description} "
                  f"(+{option.overhead_fraction:.1%} per-layer time)")
        except Exception as err:
            print(f"  {budget_gb:3d} GB -> {err}")

    print("\nPredicted end-to-end iteration (event-driven pipeline sim):")
    for label, sp, rc in [
        ("full recompute (no SP)", False, Recompute.FULL),
        ("present work (SP + selective)", True, Recompute.SELECTIVE),
    ]:
        r = iteration_time(cfg, sequence_parallel=sp, recompute=rc)
        print(f"  {label:30s} {r.iteration_time:6.2f} s/iter, "
              f"MFU {r.mfu:.1%}, HFU {r.hfu:.1%}, "
              f"bubble {r.bubble_fraction:.1%}")
    print("  (paper: 49.05 s -> 37.83 s, MFU 56.0%, HFU 57.0%)")

    r8 = iteration_time(cfg, data_parallel=8)
    print(f"\nScaled to 8-way data parallelism (2240 GPUs): "
          f"{r8.iteration_time:.2f} s/iter, MFU {r8.mfu:.1%} "
          "(paper: 39.15 s, 54.2%)")


if __name__ == "__main__":
    main()
