"""One entry point per paper table/figure.

Each ``*_data`` function computes the numbers; each ``*_report`` renders
them the way the paper presents them.  The CLI (``python -m repro``)
and the tests both call these, so the printed rows/series are identical
everywhere.

Paper reference values are embedded (``PAPER_*``) so reports can show
paper-vs-measured side by side.  EXPERIMENTS.md is written by hand from
these reports; no code generates it or compares it against them.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .config import PAPER_CONFIG_NAMES, PAPER_CONFIGS
from .flops_model import (
    attention_memory_factor,
    hardware_to_model_ratio,
    selective_recompute_flops_overhead,
)
from .layers.transformer import Recompute
from .memory_model import (
    figure1_budget,
    memory_fraction_of_tp_baseline,
    pipeline_memory_profile,
    table2,
)
from .perf_model import (
    figure8,
    iteration_time,
    table4,
    table5_row,
)
from .pipeline_sim import figure10
from .pipeline_sim.microbatch_recompute import (
    baseline_and_plan_times,
    plan_microbatch_recompute,
)
from .reporting import ascii_bars, format_table, ms, pct, seconds, stacked_ascii_bars
from .units import GIB, fmt_bytes

# ---------------------------------------------------------------------------
# Paper-reported values (for side-by-side comparison in reports/tests)
# ---------------------------------------------------------------------------

PAPER_TABLE4 = {
    "Baseline no recompute": (7.7, 11.9, 19.6, None),
    "Sequence Parallelism": (7.2, 11.8, 19.0, -0.03),
    "Baseline with recompute": (7.7, 19.5, 27.2, 0.39),
    "Selective Recompute": (7.7, 13.2, 20.9, 0.07),
    "Selective + Sequence": (7.2, 13.1, 20.3, 0.04),
}

PAPER_TABLE5 = {
    "22B": (1.42, 1.10, 0.290, 0.415, 0.437),
    "175B": (18.13, 13.75, 0.318, 0.514, 0.528),
    "530B": (49.05, 37.83, 0.297, 0.560, 0.570),
    "1T": (94.42, 71.49, 0.321, 0.563, 0.570),
}

PAPER_APPENDIX_C = {"175B": (0.514, 0.523), "530B": (0.560, 0.564)}

#: Section 6.3's data-parallel point: 530B on 8-way DP (2240 GPUs),
#: (iteration seconds, MFU).
PAPER_530B_DP8 = (39.15, 0.542)


# ---------------------------------------------------------------------------
# Figure 1 — memory per GPU vs the 80 GB line
# ---------------------------------------------------------------------------

def figure1_data() -> Dict[str, Dict[str, float]]:
    out = {}
    for name in PAPER_CONFIG_NAMES:
        budget = figure1_budget(PAPER_CONFIGS[name])
        reduced = figure1_budget(PAPER_CONFIGS[name], recompute=Recompute.SELECTIVE,
                                 sequence_parallel=True)
        out[name] = {
            "weights_optimizer_gib": budget.weights_and_optimizer_bytes / GIB,
            "activations_baseline_gib": budget.activation_bytes / GIB,
            "activations_present_gib": reduced.activation_bytes / GIB,
            "total_baseline_gib": budget.total_bytes / GIB,
            "total_present_gib": reduced.total_bytes / GIB,
            "fits_baseline": budget.fits,
            "fits_present": reduced.fits,
        }
    return out


def figure1_report() -> str:
    data = figure1_data()
    rows = [
        (name,
         f"{d['weights_optimizer_gib']:.1f}",
         f"{d['activations_baseline_gib']:.1f}",
         f"{d['total_baseline_gib']:.1f}",
         "no" if not d["fits_baseline"] else "yes",
         f"{d['activations_present_gib']:.1f}",
         f"{d['total_present_gib']:.1f}",
         "yes" if d["fits_present"] else "no")
        for name, d in data.items()
    ]
    return format_table(
        ["model", "weights+opt GiB", "act (baseline) GiB", "total GiB", "fits 80GB",
         "act (present) GiB", "total GiB", "fits 80GB"],
        rows,
        title=("Figure 1: per-GPU memory; baseline = tensor-parallel no-recompute "
               "(Eq. 2), present = SP + selective recompute"),
    )


# ---------------------------------------------------------------------------
# Table 2 — per-layer activation memory formulas
# ---------------------------------------------------------------------------

def table2_data(model_name: str = "22B") -> List[dict]:
    cfg = PAPER_CONFIGS[model_name]
    rows = table2(cfg.model, cfg.training.micro_batch_size,
                  cfg.parallel.tensor_parallel, extended=True)
    return [{"technique": r.technique, "bytes_per_layer": r.bytes_per_layer,
             "formula": r.formula} for r in rows]


def table2_report(model_name: str = "22B") -> str:
    rows = table2_data(model_name)
    return format_table(
        ["configuration", "bytes/layer", "", "formula"],
        [(r["technique"], f"{r['bytes_per_layer']:,.0f}",
          fmt_bytes(r["bytes_per_layer"]), r["formula"]) for r in rows],
        title=f"Table 2: activation memory per transformer layer ({model_name})",
    )


# ---------------------------------------------------------------------------
# Figure 7 — % of tensor-parallel baseline memory
# ---------------------------------------------------------------------------

FIGURE7_TECHNIQUES = (
    ("sequence parallelism", True, Recompute.NONE),
    ("selective recompute", False, Recompute.SELECTIVE),
    ("seq-par + selective recompute", True, Recompute.SELECTIVE),
    ("full recompute", False, Recompute.FULL),
)


def figure7_data() -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for name in PAPER_CONFIG_NAMES:
        cfg = PAPER_CONFIGS[name]
        out[name] = {
            label: memory_fraction_of_tp_baseline(
                cfg.model, cfg.training.micro_batch_size,
                cfg.parallel.tensor_parallel, sp, rc)
            for label, sp, rc in FIGURE7_TECHNIQUES
        }
    return out


def figure7_report() -> str:
    data = figure7_data()
    parts = ["Figure 7: required memory as % of the tensor-parallel baseline (Eq. 2)"]
    for name, fractions in data.items():
        parts.append(ascii_bars(
            list(fractions.keys()), list(fractions.values()),
            fmt=lambda v: pct(v), title=f"-- {name}", max_value=1.0,
        ))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Table 4 — per-layer times, 22B
# ---------------------------------------------------------------------------

def table4_data() -> List[dict]:
    cfg = PAPER_CONFIGS["22B"]
    rows = table4(cfg.model, cfg.training.micro_batch_size,
                  cfg.parallel.tensor_parallel)
    base = rows[0].times
    out = []
    for r in rows:
        pf, pb, pc, pov = PAPER_TABLE4[r.experiment]
        out.append({
            "experiment": r.experiment,
            "forward_s": r.times.forward,
            "backward_s": r.times.backward_total,
            "combined_s": r.times.combined,
            "overhead_vs_baseline": r.times.overhead_vs(base),
            "paper_forward_ms": pf,
            "paper_backward_ms": pb,
            "paper_combined_ms": pc,
            "paper_overhead": pov,
        })
    return out


def table4_report() -> str:
    rows = table4_data()
    table_rows = []
    for r in rows:
        table_rows.append((
            r["experiment"],
            ms(r["forward_s"]), str(r["paper_forward_ms"]),
            ms(r["backward_s"]), str(r["paper_backward_ms"]),
            ms(r["combined_s"]), str(r["paper_combined_ms"]),
            ("-" if r["experiment"] == "Baseline no recompute"
             else pct(r["overhead_vs_baseline"], 0)),
            "-" if r["paper_overhead"] is None else pct(r["paper_overhead"], 0),
        ))
    return format_table(
        ["experiment", "fwd ms", "paper", "bwd ms", "paper", "combined ms",
         "paper", "overhead", "paper"],
        table_rows,
        title="Table 4: single transformer layer of the 22B model (b=4, t=8)",
    )


# ---------------------------------------------------------------------------
# Figure 8 — per-layer breakdown for all models
# ---------------------------------------------------------------------------

def figure8_data() -> Dict[str, Dict[str, Tuple[float, float, float]]]:
    out: Dict[str, Dict[str, Tuple[float, float, float]]] = {}
    for name in PAPER_CONFIG_NAMES:
        cfg = PAPER_CONFIGS[name]
        schemes = figure8(cfg.model, cfg.training.micro_batch_size,
                          cfg.parallel.tensor_parallel)
        out[name] = {
            label: (t.forward, t.backward, t.recompute)
            for label, t in schemes.items()
        }
    return out


def figure8_report() -> str:
    data = figure8_data()
    parts = ["Figure 8: per-layer forward/backward/recompute time (ms)"]
    for name, schemes in data.items():
        labels = list(schemes.keys())
        fwd = [1e3 * v[0] for v in schemes.values()]
        bwd = [1e3 * v[1] for v in schemes.values()]
        rec = [1e3 * v[2] for v in schemes.values()]
        parts.append(stacked_ascii_bars(
            labels,
            [("forward", "F", fwd), ("backward", "B", bwd), ("recompute", "R", rec)],
            title=f"-- {name}",
        ))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Table 5 — end-to-end iteration time
# ---------------------------------------------------------------------------

def table5_data() -> List[dict]:
    rows = []
    for name in PAPER_CONFIG_NAMES:
        row = table5_row(PAPER_CONFIGS[name])
        pf, pp_, pti, pmfu, phfu = PAPER_TABLE5[name]
        rows.append({
            "model": name,
            "full_recompute_s": row.full_recompute_time,
            "present_work_s": row.present_work_time,
            "throughput_increase": row.throughput_increase,
            "mfu": row.mfu,
            "hfu": row.hfu,
            "paper": dict(full=pf, present=pp_, increase=pti, mfu=pmfu, hfu=phfu),
        })
    return rows


def table5_report() -> str:
    rows = table5_data()
    table_rows = [
        (r["model"],
         seconds(r["full_recompute_s"]), str(r["paper"]["full"]),
         seconds(r["present_work_s"]), str(r["paper"]["present"]),
         pct(r["throughput_increase"]), pct(r["paper"]["increase"]),
         pct(r["mfu"]), pct(r["paper"]["mfu"]),
         pct(r["hfu"]), pct(r["paper"]["hfu"]))
        for r in rows
    ]
    text = format_table(
        ["model", "full rec. s", "paper", "present s", "paper", "speedup",
         "paper", "MFU", "paper", "HFU", "paper"],
        table_rows,
        title="Table 5: end-to-end iteration time",
    )
    dp = iteration_time(PAPER_CONFIGS["530B"], data_parallel=8)
    return text + (
        f"\n\nSection 6.3 DP extension — 530B x 8-way data parallel "
        f"(2240 GPUs): iteration {dp.iteration_time:.2f} s "
        f"(paper {PAPER_530B_DP8[0]} s), MFU {pct(dp.mfu)} "
        f"(paper {pct(PAPER_530B_DP8[1])})"
    )


# ---------------------------------------------------------------------------
# Table 6 (extension) — context-layout comm volumes (repro.longctx)
# ---------------------------------------------------------------------------

#: Table 6 prices the layouts at one sequence per microbatch (the ``b``
#: its title prints)
TABLE6_MICROBATCH = 1


def table6_data(model_name: str = "22B", context_parallel: int = 8,
                seq_length: Optional[int] = None) -> List[dict]:
    """Per-layer comm volume and priced exposed seconds of the context
    layouts — all-gather SP vs Ulysses vs ring — at equal (s, b, h, p).

    The byte columns are the closed forms that the tracer reproduces
    exactly (``tests/test_longctx.py``); the chosen row is
    :func:`repro.planner.choose_context_layout`'s pick.  ``seq_length``
    overrides the paper config's sequence (at the paper's 2048 the
    baseline's fewer launches still win; the long-context layouts take
    over as the all-gather volume grows).
    """
    from .longctx import layout_volumes
    from .planner import choose_context_layout

    model = PAPER_CONFIGS[model_name].model
    if seq_length is not None:
        model = dataclasses.replace(model, seq_length=seq_length,
                                    name=f"{model.name}@s={seq_length}")
    choice = choose_context_layout(model, TABLE6_MICROBATCH, context_parallel)
    return [{
        "layout": key,
        "bytes_per_layer": volume.bytes_per_layer,
        "calls_per_layer": volume.calls_per_layer,
        "scaling": volume.scaling,
        "exposed_seconds_per_layer": choice.seconds_per_layer[key],
        "excluded": choice.excluded.get(key),
        "chosen": key == choice.layout,
    } for key, volume in layout_volumes(
        model, TABLE6_MICROBATCH, context_parallel).items()]


def table6_report(model_name: str = "22B", context_parallel: int = 8,
                  seq_length: Optional[int] = None) -> str:
    rows = table6_data(model_name, context_parallel, seq_length=seq_length)
    shown_seq = seq_length or PAPER_CONFIGS[model_name].model.seq_length
    table_rows = [
        (r["layout"],
         fmt_bytes(r["bytes_per_layer"]),
         str(r["calls_per_layer"]),
         r["scaling"],
         seconds(r["exposed_seconds_per_layer"]),
         "chosen" if r["chosen"] else (r["excluded"] or ""))
        for r in rows
    ]
    return format_table(
        ["layout", "bytes/layer", "calls", "scaling", "exposed s", ""],
        table_rows,
        title=(f"Table 6 (extension): context-layout comm volume, "
               f"{model_name} at s={shown_seq}, p={context_parallel}, "
               f"b={TABLE6_MICROBATCH}"),
    )


# ---------------------------------------------------------------------------
# Figure 9 — per-pipeline-rank memory (530B)
# ---------------------------------------------------------------------------

def figure9_data():
    return pipeline_memory_profile(PAPER_CONFIGS["530B"], sequence_parallel=True)


def figure9_report() -> str:
    profile = figure9_data()
    rows = [
        (stage, f"{profile.unoptimized_bytes[stage]/GIB:.2f}",
         f"{profile.optimized_bytes[stage]/GIB:.2f}",
         f"{profile.savings(stage)/GIB:.2f}")
        for stage in profile.stages
    ]
    text = format_table(
        ["pipeline rank", "unoptimized GiB", "optimized GiB", "saving GiB"],
        rows,
        title=("Figure 9: activation memory per pipeline rank (530B); "
               "optimized = output-tensor deallocation (Appendix B)"),
    )
    text += (f"\nfirst-stage saving: {fmt_bytes(profile.savings(0))} "
             "(paper: sbhp elements = 2.73 GB)")
    return text


# ---------------------------------------------------------------------------
# Section 5 claims
# ---------------------------------------------------------------------------

def section5_data() -> List[dict]:
    out = []
    for name, paper_factor, paper_saving, paper_overhead in (
        ("175B", 80, 0.70, 0.027), ("530B", 64, 0.65, 0.016),
    ):
        model = PAPER_CONFIGS[name].model
        factor = attention_memory_factor(model)
        out.append({
            "model": name,
            "attention_memory_factor": factor,
            "paper_factor": paper_factor,
            "memory_saved_fraction": factor / (34 + factor),
            "paper_memory_saved": paper_saving,
            "flops_overhead": selective_recompute_flops_overhead(model),
            "paper_flops_overhead": paper_overhead,
            "hardware_to_model_ratio": hardware_to_model_ratio(model),
        })
    return out


def section5_report() -> str:
    rows = []
    for r in section5_data():
        rows.append((r["model"], f"{r['attention_memory_factor']:.0f}",
                     str(r["paper_factor"]),
                     pct(r["memory_saved_fraction"], 0),
                     pct(r["paper_memory_saved"], 0),
                     pct(r["flops_overhead"]),
                     pct(r["paper_flops_overhead"]),
                     f"{r['hardware_to_model_ratio']:.4f}"))
    return format_table(
        ["model", "5as/h", "paper", "memory saved", "paper", "FLOPs overhead",
         "paper", "hw/model ratio"],
        rows,
        title="Section 5 claims: selective recomputation on GPT-3 / MT-NLG",
    )


# ---------------------------------------------------------------------------
# Appendix C — microbatch-level recomputation
# ---------------------------------------------------------------------------

def appendix_c_data() -> List[dict]:
    out = []
    for name in ("175B", "530B"):
        cfg = PAPER_CONFIGS[name]
        plan = plan_microbatch_recompute(cfg)
        base, improved = baseline_and_plan_times(cfg, plan)
        paper_base, paper_new = PAPER_APPENDIX_C[name]
        out.append({
            "model": name,
            "mfu_base": base.mfu,
            "mfu_microbatch": improved.mfu,
            "paper_base": paper_base,
            "paper_microbatch": paper_new,
            "stages_without_recompute": sum(
                1 for s in plan.stages if not s.needs_recompute),
            "num_stages": len(plan.stages),
            "mean_full_fraction": plan.mean_full_fraction,
        })
    return out


def appendix_c_report() -> str:
    rows = [
        (d["model"], pct(d["mfu_base"]), pct(d["paper_base"]),
         pct(d["mfu_microbatch"]), pct(d["paper_microbatch"]),
         f"{d['stages_without_recompute']}/{d['num_stages']}",
         pct(d["mean_full_fraction"], 0))
        for d in appendix_c_data()
    ]
    return format_table(
        ["model", "MFU (selective)", "paper", "MFU (+microbatch)", "paper",
         "stages w/o recompute", "mean full fraction"],
        rows,
        title="Appendix C: microbatch-level activation recomputation",
    )


# ---------------------------------------------------------------------------
# The menu: ``repro table N`` / ``figure N`` / ``section5`` / ``appendix-c``
# and, in this order, the sections of ``repro report``
# ---------------------------------------------------------------------------

class PaperItem(NamedTuple):
    """One reproducible table, figure, section or appendix."""

    kind: str
    number: object
    data: Callable
    report: Callable
    #: ``--json`` key the data goes under
    json_key: str
    #: ``repro report`` heading after "<Kind> <number> — "; ``None``
    #: leaves the item out of the report
    title: Optional[str]
    #: CLI flags echoed in the ``--json`` document -> the keyword both
    #: functions take them as
    args: Mapping[str, str] = MappingProxyType({})
    #: constants echoed in the ``--json`` document
    json_extra: Mapping[str, object] = MappingProxyType({})


PAPER_MENU = (
    PaperItem("figure", 1, figure1_data, figure1_report, "series",
              "per-GPU memory vs the 80 GB A100"),
    PaperItem("table", 2, table2_data, table2_report, "rows",
              "activation memory per transformer layer",
              {"model": "model_name"}),
    PaperItem("figure", 7, figure7_data, figure7_report, "series",
              "% of the tensor-parallel baseline"),
    PaperItem("section", 5, section5_data, section5_report, "rows",
              "selective recomputation claims"),
    PaperItem("table", 4, table4_data, table4_report, "rows",
              "per-layer times (22B)", json_extra={"model": "22B"}),
    PaperItem("figure", 8, figure8_data, figure8_report, "series",
              "per-layer breakdown (all models)"),
    PaperItem("table", 5, table5_data, table5_report, "rows",
              "end-to-end iteration time"),
    PaperItem("table", 6, table6_data, table6_report, "rows", None,
              {"model": "model_name", "context_parallel": "context_parallel",
               "seq_length": "seq_length"}),
    PaperItem("figure", 9, figure9_data, figure9_report, "profile",
              "per-pipeline-rank memory (530B)"),
    PaperItem("appendix", "C", appendix_c_data, appendix_c_report, "rows",
              "microbatch-level recomputation"),
    PaperItem("figure", 10, figure10, figure10, "timeline",
              "microbatch-level schedule"),
)
