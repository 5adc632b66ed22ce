"""Per-request distributed tracing (:mod:`repro.observability.request_trace`):
mark-at-close semantics, the exact partition invariant, span-graph latency
reconstruction, and the canonical JSON export."""

import pytest

from repro.observability import (
    RequestTracker,
    Tracer,
    partition_error,
    trace_latencies,
    verify_partition,
)
from repro.observability.request_trace import OUTCOMES, REQUEST_PHASES


def _tracked(tracer=None):
    tracker = RequestTracker(tracer=tracer)
    tracker.begin("r0", 0, 1.0)
    return tracker


class TestTrackerLifecycle:
    def test_mark_closes_interval_from_previous_mark(self):
        tracker = _tracked()
        span = tracker.mark("r0", "queue_wait", 1.5)
        assert (span.ts, span.end, span.dur) == (1.0, 1.5, 0.5)
        nxt = tracker.mark("r0", "prefill", 1.5)
        assert nxt.ts == span.end and nxt.dur == 0.0

    def test_spans_partition_by_construction(self):
        tracker = _tracked()
        for phase, t in (("queue_wait", 1.25), ("prefill", 1.25),
                         ("decode", 2.0), ("preempt", 2.5), ("decode", 3.0)):
            tracker.mark("r0", phase, t)
        tracker.finish("r0", 3.0, "completed")
        assert partition_error(tracker.trace("r0")) == (0.0, 0.0)
        result = verify_partition(tracker)
        assert result["exact"] and result["open_requests"] == 0

    def test_unknown_phase_rejected(self):
        tracker = _tracked()
        with pytest.raises(ValueError, match="unknown request phase"):
            tracker.mark("r0", "napping", 2.0)

    def test_backward_mark_rejected(self):
        tracker = _tracked()
        tracker.mark("r0", "queue_wait", 2.0)
        with pytest.raises(ValueError, match="moves backward"):
            tracker.mark("r0", "decode", 1.5)

    def test_duplicate_begin_rejected(self):
        tracker = _tracked()
        with pytest.raises(ValueError, match="already tracked"):
            tracker.begin("r0", 1, 0.0)

    def test_finish_must_meet_last_mark(self):
        tracker = _tracked()
        tracker.mark("r0", "decode", 2.0)
        with pytest.raises(ValueError, match="does not meet its last mark"):
            tracker.finish("r0", 2.5, "completed")
        tracker.finish("r0", 2.0, "completed")
        with pytest.raises(ValueError, match="already finished"):
            tracker.finish("r0", 2.0, "completed")

    def test_finish_outcome_vocabulary(self):
        tracker = _tracked()
        tracker.mark("r0", "shed", 1.0)
        with pytest.raises(ValueError, match="unknown outcome"):
            tracker.finish("r0", 1.0, "vanished")
        assert set(OUTCOMES) == {"completed", "shed"}

    def test_open_request_fails_the_aggregate_check(self):
        tracker = _tracked()
        tracker.mark("r0", "queue_wait", 2.0)
        assert not verify_partition(tracker)["exact"]
        assert verify_partition(tracker)["open_requests"] == 1


class TestLatencyReconstruction:
    def test_ttft_and_tpot_from_span_graph(self):
        tracker = _tracked()
        tracker.mark("r0", "queue_wait", 1.5)
        tracker.mark("r0", "prefill", 1.5, replica=0)
        tracker.mark("r0", "decode", 2.0, replica=0, tokens=1)
        tracker.mark("r0", "decode", 2.6, replica=0, tokens=3)
        tracker.finish("r0", 2.6, "completed")
        ttft, tpot = trace_latencies(tracker.trace("r0"))
        assert ttft == 2.0 - 1.0            # first token-bearing span end
        assert tpot == (2.6 - 2.0) / 2      # rest spread over tokens-1

    def test_tokenless_trace_has_no_ttft(self):
        tracker = _tracked()
        tracker.mark("r0", "shed", 1.0)
        tracker.finish("r0", 1.0, "shed")
        with pytest.raises(ValueError, match="no token-bearing span"):
            trace_latencies(tracker.trace("r0"))

    def test_preempt_spans_do_not_advance_first_token(self):
        """A resident-but-preempted round carries the token count too,
        but TTFT keys off the *first* span with tokens >= 1."""
        tracker = _tracked()
        tracker.mark("r0", "prefill", 1.0)
        tracker.mark("r0", "decode", 2.0, tokens=1)
        tracker.mark("r0", "preempt", 3.0, tokens=1)
        tracker.mark("r0", "decode", 4.0, tokens=2)
        tracker.finish("r0", 4.0, "completed")
        ttft, _ = trace_latencies(tracker.trace("r0"))
        assert ttft == 1.0


class TestExport:
    def test_to_json_byte_identical_and_index_ordered(self):
        def build():
            tracker = RequestTracker()
            tracker.begin("zz", 1, 0.5)
            tracker.begin("aa", 0, 0.0)
            for rid, t in (("aa", 1.0), ("zz", 1.5)):
                tracker.mark(rid, "queue_wait", t)
                tracker.mark(rid, "prefill", t)
                tracker.mark(rid, "decode", t + 1.0, tokens=2)
                tracker.finish(rid, t + 1.0, "completed")
            return tracker

        a, b = build().to_json(), build().to_json()
        assert a == b
        ids = [t.request_id for t in build().traces()]
        assert ids == ["aa", "zz"]          # arrival-index order

    def test_marks_emit_request_subsystem_spans(self):
        tracer = Tracer()
        tracker = _tracked(tracer=tracer)
        tracker.mark("r0", "queue_wait", 2.0)
        tracker.mark("r0", "prefill", 2.0, replica=1, flow_in=7)
        assert [s.subsystem for s in tracer.spans] == ["request", "request"]
        prefill = tracer.spans[-1]
        assert prefill.name == "request.prefill"
        assert prefill.args["phase"] == "request"
        assert prefill.args["replica"] == 1
        assert prefill.args["flow_in"] == 7

    def test_phase_vocabulary_is_closed(self):
        assert set(REQUEST_PHASES) == {
            "queue_wait", "dispatch_lost", "prefill", "decode", "preempt",
            "recover", "migrate", "shed"}


class TestSchedulerIntegration:
    """The standalone continuous-batching scheduler drives the tracker
    directly (no router): partition still exact, graphs deterministic."""

    def _run(self):
        from repro.config import ModelConfig
        from repro.layers import GPTModel
        from repro.serving import (
            ContinuousBatchingScheduler,
            DecodeEngine,
            PagedKVCache,
            ServingPerfModel,
            generate_requests,
        )

        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                          seq_length=24, vocab_size=16, name="rt-serve")
        tracker = RequestTracker()
        scheduler = ContinuousBatchingScheduler(
            DecodeEngine(GPTModel(cfg, seed=3),
                         PagedKVCache(cfg, block_size=2, num_blocks=12)),
            ServingPerfModel(cfg), max_batch=3, seed=3,
            request_tracker=tracker)
        specs = generate_requests(cfg, num_requests=6, seed=3,
                                  arrival_rate=5000.0, prompt_lengths=(1, 3),
                                  new_tokens=(2, 8))
        report = scheduler.run(specs)
        return tracker, report

    def test_partition_exact_and_all_completed(self):
        tracker, report = self._run()
        result = verify_partition(tracker)
        assert result["exact"]
        assert result["requests"] == report.num_requests
        for trace in tracker.traces():
            assert trace.outcome == "completed"

    def test_export_byte_identical_across_runs(self):
        (a, _), (b, _) = self._run(), self._run()
        assert a.to_json() == b.to_json()
