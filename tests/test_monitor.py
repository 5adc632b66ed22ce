"""Flight recorder and SLO monitor (:mod:`repro.observability.monitor`):
ring-buffer semantics, postmortem byte-determinism, detection logic over
the heartbeat/dispatch telemetry stream, burn rates and health scores."""

import math
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.observability import Detection, FlightRecorder, SLOMonitor, Tracer
from repro.observability.monitor import (
    BURN_THRESHOLD,
    CRASH,
    DISPATCH_LOSS,
    ERROR_BUDGET,
    HEALTH_WINDOW,
    LONG_WINDOW,
    SHORT_WINDOW,
    SLOW,
    STRAGGLER_THRESHOLD,
)
from repro.resilience import Watchdog


class TestFlightRecorder:
    def test_ring_rolls_off_old_events(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("tick", float(i), step=i)
        events = rec.events()
        assert [e["step"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [2, 3, 4]
        assert rec.recorded == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_postmortem_snapshots_ring_and_counts_drops(self):
        rec = FlightRecorder(capacity=2)
        for i in range(4):
            rec.record("tick", float(i))
        doc = rec.postmortem("crash", 4.0, replica=1)
        assert doc["trigger"] == "crash"
        assert doc["context"] == {"replica": 1}
        assert doc["recorded"] == 4 and doc["dropped"] == 2
        assert len(doc["events"]) == 2
        assert rec.postmortems == [doc]

    def test_dumps_byte_identical(self):
        def build():
            rec = FlightRecorder(capacity=4)
            rec.record("dispatch", 0.5, request="r0", replica=2)
            rec.postmortem("loss", 1.0, request="r0")
            return rec.dumps()
        assert build() == build()


def _monitor(**kw):
    kw.setdefault("slo_ttft_s", 1.0)
    kw.setdefault("slo_tpot_s", 0.1)
    return SLOMonitor(**kw)


class TestDetections:
    def test_crash_is_an_alive_to_silent_transition(self):
        mon = _monitor()
        mon.start_run([0, 1, 2])
        mon.end_round(0, [0, 1, 2])
        assert mon.detections == []
        mon.end_round(1, [0, 2])
        assert mon.detections == [Detection(1, CRASH, 1)]
        # still silent next round: no duplicate detection
        mon.end_round(2, [0, 2])
        assert len(mon.detections) == 1

    def test_restart_rearms_the_crash_detector(self):
        mon = _monitor()
        mon.start_run([0, 1])
        mon.end_round(0, [0])
        mon.end_round(1, [0, 1])        # replica 1 restarted
        mon.end_round(2, [0])           # ... and crashed again
        assert mon.detections == [Detection(0, CRASH, 1),
                                  Detection(2, CRASH, 1)]

    def test_heartbeat_covers_crash_in_restart_round(self):
        """A replica that restarts and crashes again inside one round
        never appears in `live`; the mid-round heartbeat supplies the
        alive half of the transition."""
        mon = _monitor()
        mon.start_run([0, 1])
        mon.end_round(0, [0])           # crash detected at round 0
        mon.heartbeat(1)                # restart announcement, round 1
        mon.end_round(1, [0])           # crashed again before round end
        assert mon.detections == [Detection(0, CRASH, 1),
                                  Detection(1, CRASH, 1)]

    def test_straggler_latches_once_per_life(self):
        mon = _monitor()
        mon.start_run([0, 1])
        mon.observe_decode(1, 3, expected_s=0.01, observed_s=0.06)
        mon.observe_decode(1, 4, expected_s=0.01, observed_s=0.06)
        assert mon.detections == [Detection(3, SLOW, 1)]
        # a detected crash resets the latch for the replica's next life
        mon.end_round(5, [0])
        mon.end_round(6, [0, 1])
        mon.observe_decode(1, 7, expected_s=0.01, observed_s=0.06)
        assert mon.detections[-1] == Detection(7, SLOW, 1)

    def test_watchdog_and_monitor_share_one_straggler_rule(self):
        """The watchdog's per-collective alarm and the monitor's
        decode-round check flag the same ratio: exactly
        STRAGGLER_THRESHOLD x the expected time is not a straggler, the
        next float above it is."""
        for replica, expected in enumerate((1e-5, 0.01, 2.0)):
            at = STRAGGLER_THRESHOLD * expected
            above = math.nextafter(at, math.inf)
            assert not Watchdog().is_straggling(expected, at)
            assert Watchdog().is_straggling(expected, above)
            mon = _monitor()
            mon.observe_decode(replica, 0, expected_s=expected, observed_s=at)
            assert mon.detections == []
            mon.observe_decode(replica, 1, expected_s=expected,
                               observed_s=above)
            assert mon.detections == [Detection(1, SLOW, replica)]

    def test_fast_decode_never_flags(self):
        mon = _monitor()
        mon.start_run([0])
        mon.observe_decode(0, 0, expected_s=0.01, observed_s=0.02)
        assert mon.detections == []

    def test_lost_dispatch_flushes_at_issue_round(self):
        mon = _monitor()
        mon.start_run([0])
        mon.dispatch_issued("r1", 4)
        mon.dispatch_issued("r0", 4)
        mon.dispatch_delivered("r0")    # acked (admitted or nacked)
        mon.end_round(4, [0])
        assert mon.detections == [Detection(4, DISPATCH_LOSS, -1)]
        mon.end_round(5, [0])           # flushed: no re-detection
        assert len(mon.detections) == 1

    def test_detections_land_in_recorder_and_tracer(self):
        rec = FlightRecorder()
        tracer = Tracer()
        mon = _monitor(recorder=rec, tracer=tracer)
        mon.start_run([0, 1])
        mon.end_round(2, [0])
        (event,) = rec.events()
        assert event["kind"] == "monitor_detection"
        assert (event["fault"], event["replica"], event["round"]) == (CRASH, 1, 2)
        (instant,) = tracer.instants
        assert instant.name == f"monitor.{CRASH}"
        assert instant.subsystem == "monitor"


class TestBurnRatesAndHealth:
    def test_burn_rate_is_violation_share_over_budget(self):
        mon = SLOMonitor(slo_ttft_s=1.0)
        head = LONG_WINDOW - SHORT_WINDOW
        for _ in range(head):
            mon.observe_ttft(2.0)               # misses the 1 s SLO
        for i in range(SHORT_WINDOW):
            mon.observe_ttft(2.0 if i % 2 else 0.5)
        bad_short = SHORT_WINDOW // 2
        assert mon.ttft_burn() == \
            ((head + bad_short) / LONG_WINDOW) / ERROR_BUDGET
        assert mon.ttft_burn(SHORT_WINDOW) == \
            (bad_short / SHORT_WINDOW) / ERROR_BUDGET

    def test_alert_needs_both_windows_burning(self):
        mon = SLOMonitor(slo_ttft_s=1.0)
        for _ in range(LONG_WINDOW - SHORT_WINDOW):
            mon.observe_ttft(2.0)
        for _ in range(SHORT_WINDOW):
            mon.observe_ttft(0.5)
        assert mon.ttft_burn() >= BURN_THRESHOLD
        assert not mon.ttft_burn_alert()        # short window recovered
        mon.observe_ttft(2.0)
        assert mon.ttft_burn(SHORT_WINDOW) >= BURN_THRESHOLD
        assert mon.ttft_burn_alert()

    def test_one_outlier_does_not_alert(self):
        mon = SLOMonitor(slo_ttft_s=1.0)
        for _ in range(LONG_WINDOW):
            mon.observe_ttft(0.5)
        mon.observe_ttft(2.0)
        assert mon.ttft_burn(SHORT_WINDOW) >= BURN_THRESHOLD
        assert mon.ttft_burn() < BURN_THRESHOLD
        assert not mon.ttft_burn_alert()

    def test_no_slo_means_no_burn(self):
        mon = SLOMonitor()
        mon.observe_ttft(100.0)
        mon.observe_tpot(100.0)
        assert mon.ttft_burn() == 0.0 and mon.tpot_burn() == 0.0

    @pytest.mark.parametrize("field", ["slo_ttft_s", "slo_tpot_s"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_bad_slo_threshold_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite"):
            SLOMonitor(**{field: value})

    def test_health_score_is_p50_over_fleet_median(self):
        mon = _monitor()
        for _ in range(4):
            mon.observe_decode(0, 0, expected_s=1.0, observed_s=0.010)
            mon.observe_decode(1, 0, expected_s=1.0, observed_s=0.010)
            mon.observe_decode(2, 0, expected_s=1.0, observed_s=0.030)
        assert mon.health_score(0) == pytest.approx(1.0, rel=1e-6)
        assert mon.health_score(2) > 1.5
        assert mon.health_score(99) == 1.0      # no samples: neutral

    def test_health_score_sees_only_the_last_window_of_rounds(self):
        """A replica slow only before its last HEALTH_WINDOW decode rounds
        scores 1.0; over its lifetime it would still read slow."""
        mon = _monitor()
        for round_idx in range(3 * HEALTH_WINDOW):
            late = round_idx >= 2 * HEALTH_WINDOW
            for replica, observed in ((0, 0.010), (1, 0.010),
                                      (2, 0.010 if late else 0.030)):
                mon.observe_decode(replica, round_idx, expected_s=1.0,
                                   observed_s=observed)
        assert mon.health_score(2) == pytest.approx(1.0, rel=1e-6)
        for round_idx in range(HEALTH_WINDOW):
            mon.observe_decode(0, round_idx, expected_s=1.0,
                               observed_s=0.030)
        assert mon.health_score(0) > 1.5

    def test_snapshot_is_jsonable(self):
        from repro.observability import dumps_json
        mon = _monitor()
        mon.start_run([0, 1])
        mon.observe_decode(0, 0, expected_s=1.0, observed_s=0.01)
        mon.end_round(0, [0])
        doc = mon.snapshot()
        assert doc["detections"] == [{"round": 0, "kind": CRASH,
                                      "replica": 1}]
        assert dumps_json(doc)  # round-trips through the canonical dumper


class TestScoreAgainst:
    @staticmethod
    def _report(*faults):
        return SimpleNamespace(faults=[
            SimpleNamespace(step=s, kind=k, rank=r) for s, k, r in faults])

    def test_exact_match_scores_one(self):
        mon = _monitor()
        mon.start_run([0, 1])
        mon.end_round(3, [0])
        score = mon.score_against(self._report((3, CRASH, 1)))
        assert score["precision"] == 1.0 and score["recall"] == 1.0
        assert score["missed"] == [] and score["spurious"] == []

    def test_missed_and_spurious_are_reported(self):
        mon = _monitor()
        mon.start_run([0, 1])
        mon.end_round(2, [0])           # spurious (nothing injected there)
        score = mon.score_against(self._report((5, SLOW, 0)))
        assert score["precision"] == 0.0 and score["recall"] == 0.0
        assert score["missed"] == [[5, SLOW, 0]]
        assert score["spurious"] == [[2, CRASH, 1]]

    def test_loss_matches_ignore_rank(self):
        mon = _monitor()
        mon.start_run([0])
        mon.dispatch_issued("r0", 2)
        mon.end_round(2, [0])
        # the plan records the spec's rank on the loss; not part of the key
        score = mon.score_against(self._report((2, DISPATCH_LOSS, 1)))
        assert score["precision"] == 1.0 and score["recall"] == 1.0

    def test_multiset_matching_needs_one_detection_per_fault(self):
        mon = _monitor()
        mon.start_run([0])
        mon.dispatch_issued("r0", 2)
        mon.end_round(2, [0])
        score = mon.score_against(self._report((2, DISPATCH_LOSS, -1),
                                               (2, DISPATCH_LOSS, -1)))
        assert score["recall"] == 0.5

    def test_non_fleet_faults_are_ignored(self):
        mon = _monitor()
        score = mon.score_against(self._report((0, "rank_crash", 0)))
        assert score["injected"] == 0 and score["recall"] == 1.0

    def test_empty_is_perfect(self):
        score = _monitor().score_against(self._report())
        assert score["precision"] == 1.0 and score["recall"] == 1.0
