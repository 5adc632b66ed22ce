"""Unified tracing + metrics for the simulated training stack.

Three pieces, all keyed on **simulated time** so traces are exactly
reproducible:

* :mod:`~repro.observability.tracer` — span tracer with a deterministic
  clock, installed process-wide via :func:`trace_scope`; every hook in
  the tensor/comm/training/resilience layers is a no-op ``is None``
  check when tracing is off;
* :mod:`~repro.observability.metrics` — labelled counters, gauges and
  histograms with Prometheus-text and canonical-JSON export;
* :mod:`~repro.observability.perfetto` — the merged Chrome/Perfetto
  trace exporter (one pid per subsystem, one tid per rank, counter
  tracks for activation bytes, the Figure-10 schedule rows) plus the
  schema validator; the one module that builds trace events;
* :mod:`~repro.observability.memprof` — the activation ledger: a
  per-tensor memory-timeline profiler with bitwise-exact peak
  attribution (by module path and Eq-term category), roofline-priced
  save-vs-recompute frontiers and allocator fragmentation analysis.  Entry point:
  ``python -m repro memprofile``.

The serving fleet adds a request-level telemetry layer:

* :mod:`~repro.observability.request_trace` — per-request causal span
  graphs (queue-wait / dispatch / prefill / decode / preempt / migrate /
  recover / shed) on the router clock, with an exact zero-gap
  zero-overlap partition invariant and TTFT/TPOT reconciliation against
  the :class:`~repro.fleet.FleetReport` ledger;
* :mod:`~repro.observability.monitor` — the always-on
  :class:`FlightRecorder` ring buffer (postmortem dumps on faults and
  watchdog trips) and the :class:`SLOMonitor` (multi-window burn rates,
  per-replica health scores, crash/straggler/dispatch-loss detections
  gated at exact precision/recall = 1.0 against the injected plan).

Two offline consumers sit on top:

* :mod:`~repro.observability.analysis` — critical-path time attribution,
  MFU/HFU reconciliation against :mod:`repro.perf_model`, and per-term
  memory drift against :mod:`repro.memory_model`;
* :mod:`~repro.observability.regress` — the ``repro bench`` regression
  gate: canonical ``BENCH_<preset>.json`` documents held byte-identical
  to committed baselines, plus three claim floors.

Entry point: ``python -m repro trace --config tiny`` writes both
artifacts for a small instrumented run; ``python -m repro bench``
runs the regression presets.  See ``docs/observability.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "analysis": ("attribute", "from_tracer", "layer_term_drift",
                 "load_trace", "memory_term_drift",
                 "schedule_critical_path", "utilization_crosscheck"),
    "memprof": ("MemoryLedger", "MemProfiler", "check_peak_attribution",
                "flamegraph", "frontier", "frontier_by_category",
                "ledger_document", "paged_kv_fragmentation",
                "peak_attribution", "profile_layer",
                "selective_recompute_dominates"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "monitor": ("Detection", "FlightRecorder", "SLOMonitor"),
    "perfetto": ("counter_events", "export_trace", "merged_trace",
                 "schedule_events", "tracer_events",
                 "validate_trace_events", "validate_trace_file"),
    "regress": ("compare", "run_preset", "write_bench"),
    "request_trace": ("RequestTracker", "partition_error",
                      "reconcile_quantiles", "trace_latencies",
                      "verify_partition"),
    "serialize": ("dump_json", "dumps_json", "to_jsonable"),
    "tracer": ("Tracer", "active_tracer", "span_or_null", "trace_scope"),
})

__all__ = [
    "Counter", "Detection", "FlightRecorder", "Gauge", "Histogram",
    "MemProfiler", "MemoryLedger", "MetricsRegistry", "RequestTracker",
    "SLOMonitor", "Tracer", "active_tracer", "attribute",
    "check_peak_attribution", "compare",
    "counter_events", "dump_json", "dumps_json", "export_trace",
    "flamegraph", "from_tracer", "frontier", "frontier_by_category",
    "layer_term_drift", "ledger_document", "load_trace",
    "memory_term_drift", "merged_trace",
    "paged_kv_fragmentation", "partition_error", "peak_attribution",
    "profile_layer", "reconcile_quantiles", "run_preset",
    "schedule_critical_path", "schedule_events",
    "selective_recompute_dominates",
    "span_or_null", "to_jsonable", "trace_latencies", "trace_scope",
    "tracer_events", "utilization_crosscheck", "validate_trace_events",
    "validate_trace_file", "verify_partition", "write_bench",
]
