"""The unified tracing + metrics layer (``repro.observability``).

Three contracts under test:

1. **Determinism** — the tracer's clock only advances through the
   deterministic cost models, so two identical runs produce identical
   event streams and byte-identical exported artifacts;
2. **Schema** — the merged Perfetto/Chrome JSON honours the contract
   :func:`~repro.observability.perfetto.validate_trace_events` encodes
   (``ph/ts/dur/pid/tid``, non-negative durations, monotone ``ts`` per
   track, named pids), for both the tracer export and the Figure-10
   schedule rows of :func:`~repro.observability.schedule_events`;
3. **Off by default** — with no tracer installed every hook is inert:
   no spans, no metrics, identical numerics.
"""

import json

import numpy as np
import pytest

from repro.comm import all_gather, all_reduce
from repro.config import ModelConfig
from repro.layers.transformer import Recompute
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    active_tracer,
    dumps_json,
    export_trace,
    merged_trace,
    schedule_events,
    span_or_null,
    to_jsonable,
    trace_scope,
    tracer_events,
    validate_trace_events,
    validate_trace_file,
)
from repro.observability.perfetto import SUBSYSTEM_PIDS
from repro.parallel.transformer import ParallelGPTModel
from repro.pipeline_sim import TimelineCosts, schedule_table
from repro.tensor import FP32, MemoryTracker, seed
from repro.training.data import UniformTokens
from repro.training.optimizer import Adam
from repro.training.trainer import PipelinedGPT, Trainer

TINY = ModelConfig(num_layers=2, hidden_size=16, num_heads=2,
                   seq_length=16, vocab_size=32, name="obs-tiny")


def _traced_run(steps=2):
    """One instrumented pipelined run; returns (tracer, registry)."""
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    model = ParallelGPTModel(TINY, tensor_parallel=2, attention_dropout=0.0,
                             hidden_dropout=0.0, recompute=Recompute.FULL)
    pipe = PipelinedGPT(model, pipeline_parallel=2)
    optimizer = Adam(model.parameters(), lr=1e-3)
    trackers = [MemoryTracker() for _ in range(2)]
    for stage, tracker in enumerate(trackers):
        tracer.watch_tracker(tracker, f"stage{stage}")
    seed(0)
    data = UniformTokens(TINY.vocab_size, TINY.seq_length, seed=1)
    with trace_scope(tracer):
        for _ in range(steps):
            ids, targets = data.batch(4)
            optimizer.zero_grad()
            pipe.train_step(ids, targets, num_microbatches=2,
                            trackers=trackers)
            optimizer.step()
    return tracer, registry


class TestTracerCore:
    def test_span_nesting_and_clock(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.advance(1.0)
            with tracer.span("inner", subsystem="compute", rank=3):
                tracer.advance(0.5)
        inner, outer = tracer.spans
        assert (inner.name, inner.subsystem, inner.rank) == ("inner", "compute", 3)
        assert inner.ts == pytest.approx(1.0) and inner.dur == pytest.approx(0.5)
        assert outer.ts == 0.0 and outer.dur == pytest.approx(1.5)
        assert tracer.clock_s == pytest.approx(1.5)

    def test_clock_never_goes_backward(self):
        tracer = Tracer()
        tracer.advance(-5.0)
        assert tracer.clock_s == 0.0

    def test_rank_scope_attributes_events(self):
        tracer = Tracer()
        with tracer.rank_scope(2):
            tracer.instant("marker")
        assert tracer.instants[0].rank == 2
        assert tracer.current_rank == 0  # restored

    def test_finish_closes_dangling_spans(self):
        tracer = Tracer()
        tracer.begin_span("left-open")
        tracer.advance(0.25)
        tracer.finish()
        assert tracer.spans[0].dur == pytest.approx(0.25)

    def test_span_or_null_shares_a_null_context(self):
        assert span_or_null(None, "x") is span_or_null(None, "y")

    def test_collectives_priced_on_simulated_clock(self):
        tracer = Tracer()
        shards = [np.zeros((64, 64)) for _ in range(4)]
        with trace_scope(tracer):
            all_reduce(shards)
        (span,) = tracer.spans
        assert span.subsystem == "comm" and span.name == "all_reduce"
        assert span.dur > 0 and tracer.clock_s == pytest.approx(span.dur)
        # FP16 accounting width: 2 bytes/element regardless of float64 sim
        assert span.args["bytes"] == 64 * 64 * 2

    def test_all_gather_counts_full_output_bytes(self):
        tracer = Tracer()
        shards = [np.zeros((8, 8)) for _ in range(4)]
        with trace_scope(tracer):
            all_gather(shards)
        assert tracer.spans[0].args["bytes"] == 8 * 8 * 2 * 4

    def test_single_shard_collective_is_free(self):
        tracer = Tracer()
        with trace_scope(tracer):
            all_reduce([np.zeros((16,))])
        assert tracer.clock_s == 0.0

    def test_trace_scope_installs_and_restores(self):
        assert active_tracer() is None
        tracer = Tracer()
        with trace_scope(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_no_tracer_means_no_spans_anywhere(self):
        before = active_tracer()
        all_reduce([np.ones((4,)) for _ in range(2)])
        assert active_tracer() is before is None


class TestInstrumentedRun:
    def test_subsystems_and_recompute_spans(self):
        tracer, _ = _traced_run()
        subsystems = {s.subsystem for s in tracer.spans}
        assert {"train", "compute", "comm"} <= subsystems
        names = [s.name for s in tracer.spans]
        assert any(n.startswith("recompute[") for n in names)
        assert any(n.startswith("forward mb") for n in names)
        assert any(n.startswith("backward mb") for n in names)

    def test_identical_runs_identical_streams(self):
        t1, r1 = _traced_run()
        t2, r2 = _traced_run()
        assert t1.spans == t2.spans
        assert t1.clock_s == t2.clock_s
        assert r1.to_prometheus() == r2.to_prometheus()
        assert r1.to_json() == r2.to_json()

    def test_tracing_does_not_perturb_numerics(self):
        def run(traced):
            model = ParallelGPTModel(TINY, tensor_parallel=2,
                                     attention_dropout=0.0, hidden_dropout=0.0)
            trainer = Trainer(model, Adam(model.parameters(), lr=1e-2))
            seed(3)
            ids, targets = UniformTokens(TINY.vocab_size, TINY.seq_length,
                                         seed=4).batch(4)
            if traced:
                with trace_scope(Tracer()):
                    return trainer.train_step(ids, targets)
            return trainer.train_step(ids, targets)

        assert run(traced=False) == run(traced=True)

    def test_metrics_cover_collectives_and_flops(self):
        _, registry = _traced_run()
        snap = registry.snapshot()["metrics"]
        assert snap["repro_collectives_total"]["type"] == "counter"
        assert sum(snap["repro_collectives_total"]["values"].values()) > 0
        assert snap["repro_flops_total"]["type"] == "counter"
        assert snap["repro_sim_clock_seconds"]["type"] == "gauge"
        assert snap["repro_train_steps_total"]["values"][""] == 2
        assert "repro_activation_peak_bytes" in snap


class TestWatermarkEvents:
    def test_timeline_records_peak_crossings(self):
        mt = MemoryTracker()
        buf_a, buf_b = np.zeros((10,)), np.zeros((20,))
        mt.save(0, buf_a, FP32)
        mt.save(0, buf_b, FP32)
        mt.release(0, buf_a)
        mt.save(0, buf_a, FP32)  # live returns to peak; no new peak
        events = mt.watermark_events()
        assert [e.peak_bytes for e in events] == [40, 120]
        assert all(e.rank == 0 for e in events)
        assert events[-1].live_bytes == 120

    def test_monotone_sequence_clock_by_default(self):
        mt = MemoryTracker()
        mt.save(0, np.zeros((5,)), FP32)
        mt.save(1, np.zeros((50,)), FP32)
        times = [e.t for e in mt.watermark_events()]
        assert times == sorted(times)

    def test_rank_filter(self):
        mt = MemoryTracker()
        mt.save(0, np.zeros((5,)), FP32)
        mt.save(1, np.zeros((6,)), FP32)
        assert len(mt.watermark_events(rank=0)) == 1
        assert len(mt.watermark_events()) == 2

    def test_tracer_clock_drives_watermark_times(self):
        tracer = Tracer()
        mt = MemoryTracker()
        tracer.watch_tracker(mt, "stage0")
        tracer.advance(2.5)
        mt.save(0, np.zeros((4,)), FP32)
        assert mt.watermark_events()[0].t == pytest.approx(2.5)


class TestMetricsRegistry:
    def test_counter_labels_and_total(self):
        c = Counter("hits")
        c.inc(op="all_reduce")
        c.inc(2.0, op="all_gather")
        assert c.value(op="all_reduce") == 1.0
        assert c.total() == 3.0

    def test_gauge_sets(self):
        g = Gauge("level")
        g.set(4.0)
        g.set(2.5)
        assert g.value() == 2.5

    def test_histogram_cumulative_buckets(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 5.0):
            h.observe(v)
        snap = h.snapshot()[""]
        assert snap["count"] == 4
        assert snap["buckets"] == {"0.001": 1, "0.01": 2, "0.1": 3}
        assert snap["sum"] == pytest.approx(5.0555)

    def test_histogram_quantiles_interpolated(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 0.06):
            h.observe(v)
        # p50 target = 2 observations -> upper edge of the 0.01 bucket
        assert h.quantile(0.5) == pytest.approx(0.01)
        # p99 interpolates inside the last bucket that reaches the target
        assert 0.01 < h.quantile(0.99) <= 0.1
        snap = h.snapshot()[""]
        assert set(snap["quantiles"]) == {"0.5", "0.95", "0.99"}
        assert snap["quantiles"]["0.5"] == pytest.approx(h.quantile(0.5))

    def test_histogram_quantile_clamps_to_highest_bucket(self):
        h = Histogram("lat", buckets=(0.001, 0.01))
        h.observe(100.0)  # above every finite bound
        assert h.quantile(0.99) == pytest.approx(0.01)
        assert Histogram("empty").quantile(0.5) == 0.0

    def test_histogram_quantiles_in_prometheus_text(self):
        registry = MetricsRegistry()
        registry.histogram("repro_lat_seconds").observe(0.005, op="x")
        text = registry.to_prometheus()
        for q in ("0.5", "0.95", "0.99"):
            assert f'repro_lat_seconds{{op="x",quantile="{q}"}}' in text

    def test_registry_get_or_create_and_type_guard(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "an example").inc(3, op="b")
        registry.counter("repro_x_total").inc(1, op="a")
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_x_total an example" in lines
        assert "# TYPE repro_x_total counter" in lines
        # samples render in sorted label order
        assert lines.index('repro_x_total{op="a"} 1') < \
            lines.index('repro_x_total{op="b"} 3')
        assert text.endswith("\n")

    def test_resilience_report_single_serialization_path(self):
        from repro.resilience.report import FaultRecord, ResilienceReport
        report = ResilienceReport(useful_flops=3.0, wasted_flops=1.0)
        report.faults.append(FaultRecord(step=1, kind="rank_crash", rank=0,
                                         error="RankFailure"))
        registry = MetricsRegistry()
        registry.observe_resilience(report)
        doc = report.to_json()
        assert doc["goodput"] == pytest.approx(0.75)
        # scalar fields become gauges, computed once in to_json()
        assert registry.gauge("repro_resilience_goodput").value() == \
            pytest.approx(0.75)
        snap = registry.snapshot()
        assert snap["resilience"] == doc
        json.loads(dumps_json(doc))  # canonical path stays JSON-clean

    def test_to_jsonable_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestPerfettoSchema:
    def test_tracer_export_validates(self):
        tracer, _ = _traced_run()
        # raw tracer_events are in completion order; the merged document
        # sorts them into per-track monotone order, which is what the
        # schema contract (and Perfetto) requires
        events = merged_trace(tracer)["traceEvents"]
        validate_trace_events(events)
        phases = {e["ph"] for e in events}
        assert {"X", "C", "M"} <= phases
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert SUBSYSTEM_PIDS["compute"] in pids
        assert SUBSYSTEM_PIDS["comm"] in pids
        assert SUBSYSTEM_PIDS["memory"] in pids

    def test_pipeline_sim_chrome_trace_validates_when_rehomed(self):
        """The Figure-10 schedule lands under the ``pipeline`` pid with a
        named row per pipeline rank."""
        schedule = schedule_table(4, 8)
        events = schedule_events(schedule, TimelineCosts())
        validate_trace_events(events)
        assert all(e["pid"] == SUBSYSTEM_PIDS["pipeline"] for e in events)
        assert sorted(e["args"]["name"] for e in events
                      if e["name"] == "thread_name") == [
            f"pipeline rank {rank}" for rank in range(4)]

    def test_merged_trace_sorted_monotone_per_track(self):
        tracer, _ = _traced_run()
        schedule = schedule_table(2, 2)
        extra = schedule_events(schedule, TimelineCosts())
        doc = merged_trace(tracer, extra_events=extra)
        validate_trace_events(doc["traceEvents"])
        last = {}
        for e in doc["traceEvents"]:
            if e.get("ph") != "X":
                continue
            track = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(track, 0.0)
            last[track] = e["ts"]

    def test_validator_catches_violations(self):
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "x"}}]
        ok = {"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 0}
        validate_trace_events(meta + [ok])
        with pytest.raises(ValueError, match="negative dur"):
            validate_trace_events(meta + [dict(ok, dur=-1.0)])
        with pytest.raises(ValueError, match="missing 'dur'"):
            bad = dict(ok)
            del bad["dur"]
            validate_trace_events(meta + [bad])
        with pytest.raises(ValueError, match="non-monotone"):
            validate_trace_events(
                meta + [dict(ok, ts=5.0), dict(ok, ts=1.0)])
        with pytest.raises(ValueError, match="process_name"):
            validate_trace_events([ok])

    def test_validator_rejects_unknown_phase(self):
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "x"}}]
        bad = {"name": "a", "ph": "Z", "ts": 0.0, "dur": 1.0,
               "pid": 1, "tid": 0}
        with pytest.raises(ValueError, match="unknown phase"):
            validate_trace_events(meta + [bad])

    @pytest.mark.parametrize("field,value", [
        ("pid", -1), ("tid", -3), ("pid", "one"), ("tid", 1.5),
        ("pid", True),
    ])
    def test_validator_rejects_bad_pid_tid(self, field, value):
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "x"}}]
        ok = {"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0,
              "pid": 1, "tid": 0}
        with pytest.raises(ValueError, match=f"bad {field}"):
            validate_trace_events(meta + [dict(ok, **{field: value})])

    def test_validator_rejects_non_monotone_instants(self):
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "x"}}]
        inst = {"name": "a", "ph": "i", "ts": 5.0, "pid": 1, "tid": 0,
                "s": "t"}
        with pytest.raises(ValueError, match="non-monotone"):
            validate_trace_events(meta + [inst, dict(inst, ts=1.0)])

    def test_export_byte_identical_across_runs(self, tmp_path):
        paths = []
        for i in (1, 2):
            tracer, _ = _traced_run()
            path = tmp_path / f"trace{i}.json"
            export_trace(tracer, str(path))
            validate_trace_file(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTraceCLI:
    def _run(self, tmp_path, name, capsys):
        from repro.cli import main
        out_dir = tmp_path / name
        assert main(["trace", "--config", "tiny",
                     "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        return out_dir

    def test_artifacts_written_validated_and_merged(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, "run", capsys)
        trace_path = out_dir / "trace.json"
        assert validate_trace_file(str(trace_path)) > 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        pids = {e["pid"] for e in events if e.get("ph") != "M"}
        # the acceptance bar: compute spans + collectives + memory
        # counters, plus the rehomed pipeline schedule and resilience
        for source in ("compute", "comm", "memory", "pipeline", "resilience"):
            assert SUBSYSTEM_PIDS[source] in pids, source
        assert any(e.get("ph") == "C" for e in events)
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_collectives_total counter" in prom
        assert "repro_resilience_goodput" in prom
        snapshot = json.loads((out_dir / "metrics.json").read_text())
        assert snapshot["resilience"]["goodput"] == pytest.approx(
            snapshot["metrics"]["repro_resilience_goodput"]["values"][""])

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path, "a", capsys)
        b = self._run(tmp_path, "b", capsys)
        for artifact in ("trace.json", "metrics.prom", "metrics.json"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()


class TestJsonFlags:
    @pytest.mark.parametrize("argv,key", [
        (["table", "2", "--json"], "rows"),
        (["table", "4", "--json"], "rows"),
        (["table", "5", "--json"], "rows"),
        (["memory-report", "--model", "22B", "--json"], "activations"),
        (["flops-report", "--model", "22B", "--json"], "rows"),
        (["plan", "--model", "530B", "--json"], "option"),
        (["simulate-pipeline", "--model", "22B", "--json"], "result"),
        (["figure", "1", "--json"], "series"),
        (["figure", "7", "--json"], "series"),
        (["figure", "8", "--json"], "series"),
        (["figure", "9", "--json"], "profile"),
        (["figure", "10", "--json"], "timeline"),
        (["section5", "--json"], "rows"),
        (["appendix-c", "--json"], "rows"),
    ])
    def test_json_output_parses(self, argv, key, capsys):
        from repro.cli import main
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert key in doc

    def test_json_is_canonical(self, capsys):
        from repro.cli import main
        main(["table", "2", "--json"])
        first = capsys.readouterr().out
        main(["table", "2", "--json"])
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert first == dumps_json(doc)


class TestFlowEvents:
    META = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "x"}}]

    @staticmethod
    def _x(ts, **args):
        return {"name": "a", "ph": "X", "ts": ts, "dur": 1.0, "pid": 1,
                "tid": 0, "args": args}

    def test_matched_flow_pair_validates(self):
        validate_trace_events(self.META + [
            self._x(0.0, flow_out=3), self._x(1.0, flow_in=3)])

    def test_dangling_flow_out_rejected(self):
        with pytest.raises(ValueError, match="dangling flow ids"):
            validate_trace_events(self.META + [self._x(0.0, flow_out=3)])

    def test_dangling_flow_in_rejected(self):
        with pytest.raises(ValueError, match=r"dangling flow ids.*\[7\]"):
            validate_trace_events(self.META + [
                self._x(0.0, flow_out=3), self._x(1.0, flow_in=3),
                self._x(2.0, flow_in=7)])

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "3"])
    def test_flow_ids_must_be_nonneg_ints(self, bad):
        with pytest.raises(ValueError, match="bad flow_out id"):
            validate_trace_events(self.META + [self._x(0.0, flow_out=bad)])

    def test_request_and_monitor_phase_tags_accepted(self):
        events = list(self.META)
        events.append(self._x(0.0, phase="request"))
        events.append(self._x(1.0, phase="monitor"))
        validate_trace_events(events)

    def test_fleet_trace_flows_validate_end_to_end(self):
        """A real chaos-fleet run with the tracker attached emits
        matched flow pairs across the router and replica tracks."""
        from repro.fleet import build_fleet
        from repro.observability import RequestTracker
        from repro.resilience import FaultKind, FaultPlan, FaultSpec
        from repro.serving import generate_requests

        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                          seq_length=24, vocab_size=16, name="flow-fleet")
        tracer = Tracer()
        tracker = RequestTracker(tracer=tracer)
        fleet = build_fleet(cfg, 3, block_size=2, num_blocks=10, max_batch=3,
                            seed=3, tracer=tracer, request_tracker=tracker,
                            plan=FaultPlan([
                                FaultSpec(step=4, kind=FaultKind.REPLICA_CRASH,
                                          rank=1),
                                FaultSpec(step=1,
                                          kind=FaultKind.DISPATCH_LOSS),
                            ]))
        specs = generate_requests(cfg, num_requests=6, seed=3,
                                  arrival_rate=5000.0, prompt_lengths=(1, 3),
                                  new_tokens=(2, 8))
        fleet.run(specs)
        events = merged_trace(tracer)["traceEvents"]
        validate_trace_events(events)
        outs = [e["args"]["flow_out"] for e in events
                if e.get("ph") == "X" and "flow_out" in e.get("args", {})]
        ins = {e["args"]["flow_in"] for e in events
               if e.get("ph") == "X" and "flow_in" in e.get("args", {})}
        assert outs and set(outs) == ins
        # request track present alongside the replica tracks
        assert SUBSYSTEM_PIDS["request"] in {e["pid"] for e in events
                                             if e.get("ph") == "X"}
