"""Fleet telemetry overhead: the stack must cost nothing when it is off.

Every seam the request-telemetry layer added to the fleet hot path —
``FleetRouter._mark`` / ``_record`` / ``_postmortem`` / ``_end_round``,
``ContinuousBatchingScheduler._mark`` and the inline monitor feeds —
is a single ``is None`` check when no tracker / recorder / monitor is
attached.  This benchmark enforces the ISSUE's acceptance bound: a
chaos-fleet run with telemetry *disabled* must land within 5% of a
reference where the helper seams are stripped back to bare no-ops, and
it reports (without bounding) what the *enabled* stack costs.

Timing uses best-of-N wall-clock minima interleaved across arms, the
standard noise-robust estimator for a deterministic workload.
"""

import time

from repro.config import ModelConfig
from repro.fleet import build_fleet
from repro.fleet.router import FleetRouter
from repro.observability import FlightRecorder, RequestTracker, SLOMonitor
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.serving import generate_requests
from repro.serving.scheduler import ContinuousBatchingScheduler

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=24, vocab_size=16, name="bench-fleet-tel")
REPEATS = 5
DISABLED_OVERHEAD_BOUND = 0.05

PLAN = FaultPlan([
    FaultSpec(step=4, kind=FaultKind.REPLICA_CRASH, rank=1),
    FaultSpec(step=6, kind=FaultKind.SLOW_REPLICA, rank=2, slowdown=6.0),
    FaultSpec(step=1, kind=FaultKind.DISPATCH_LOSS),
])


def _specs():
    return generate_requests(CFG, num_requests=8, seed=3,
                             arrival_rate=5000.0, prompt_lengths=(1, 3),
                             new_tokens=(2, 8))


def _loop(telemetry=False):
    recorder = FlightRecorder(capacity=64) if telemetry else None
    tracker = RequestTracker() if telemetry else None
    monitor = SLOMonitor(slo_ttft_s=0.05, slo_tpot_s=0.005,
                         recorder=recorder) if telemetry else None
    fleet = build_fleet(CFG, 3, block_size=2, num_blocks=10, max_batch=3,
                        seed=3, plan=PLAN, monitor=monitor,
                        recorder=recorder, request_tracker=tracker)
    fleet.run(_specs())


def _best_of_interleaved(fns, repeats=REPEATS):
    """Best-of-N minima, arms interleaved so a host load spike hits all
    arms alike instead of biasing whichever ran during it."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _noop(self, *args, **kw):
    return None


def bench_disabled_overhead(benchmark, monkeypatch):
    """Seams present but telemetry off vs seams stripped: < 5% apart."""
    _loop()  # warm both code paths before timing

    def stripped():
        with _stripped_seams(monkeypatch):
            _loop()

    reference, disabled = _best_of_interleaved([stripped, _loop])
    overhead = disabled / reference - 1.0
    print(f"\nreference (no seams) {reference * 1e3:.1f} ms, "
          f"disabled telemetry {disabled * 1e3:.1f} ms, "
          f"overhead {overhead:+.2%} (bound {DISABLED_OVERHEAD_BOUND:.0%})")
    assert overhead < DISABLED_OVERHEAD_BOUND, (
        f"disabled-telemetry overhead {overhead:.2%} exceeds "
        f"{DISABLED_OVERHEAD_BOUND:.0%}: a telemetry seam is doing work "
        f"while the stack is off")
    benchmark.pedantic(_loop, rounds=1, iterations=1)


class _stripped_seams:
    """Context manager view of monkeypatch: strip the telemetry helper
    methods back to bare no-ops (the pre-telemetry router body)."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def __enter__(self):
        mp = self.monkeypatch
        for name in ("_mark", "_record", "_postmortem", "_end_round"):
            mp.setattr(FleetRouter, name, _noop)
        mp.setattr(ContinuousBatchingScheduler, "_mark", _noop)
        return self

    def __exit__(self, *exc):
        self.monkeypatch.undo()


def bench_enabled_cost(benchmark):
    """What the full stack (tracker + recorder + monitor) costs,
    reported for the record.  This is the only place the ratio is
    measured: BENCH_fleet_obs.json carries no wall-clock keys."""
    _loop()
    _loop(telemetry=True)
    disabled, enabled = _best_of_interleaved(
        [_loop, lambda: _loop(telemetry=True)])
    print(f"\ndisabled {disabled * 1e3:.1f} ms, "
          f"enabled {enabled * 1e3:.1f} ms "
          f"({enabled / disabled:.2f}x)")
    benchmark.pedantic(lambda: _loop(telemetry=True), rounds=1, iterations=1)
