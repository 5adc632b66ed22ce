"""Event-driven pipeline simulator: makespan, bubble, memory timeline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_walk
from repro.errors import ScheduleError
from repro.memory_model import in_flight_microbatches
from repro.pipeline_sim import (
    Op, OpKind, PipelineCosts, ScheduleTable, rank_of_group, schedule_table,
    simulate,
)


def uniform_costs(tf=1.0, tb=2.0, p2p=0.0, act=0.0, out=0.0, dealloc=True):
    return PipelineCosts(
        forward_time=lambda g: tf,
        backward_time=lambda g: tb,
        p2p_time=p2p,
        activation_bytes=lambda g: act,
        output_tensor_bytes=out,
        deallocate_output_tensor=dealloc,
    )


class TestMakespan:
    def test_single_stage_is_serial_sum(self):
        result = simulate(schedule_table(1, 5), uniform_costs())
        assert result.makespan == pytest.approx(5 * (1.0 + 2.0))
        assert result.bubble_fraction == pytest.approx(0.0)

    def test_1f1b_bubble_fraction(self):
        """Ideal 1F1B: makespan = (n + p - 1) * (tf + tb); the busiest-rank
        bubble is (p-1)/(n+p-1)."""
        p, n = 4, 8
        result = simulate(schedule_table(p, n), uniform_costs())
        assert result.makespan == pytest.approx((n + p - 1) * 3.0)
        assert result.bubble_fraction_of(0) == pytest.approx((p - 1) / (n + p - 1))

    def test_interleaving_shrinks_bubble(self):
        p, n = 4, 8
        plain = simulate(schedule_table(p, n), uniform_costs())
        inter = simulate(schedule_table(p, n, 2),
                         uniform_costs(tf=0.5, tb=1.0))
        # Same total work per rank, smaller makespan.
        assert inter.makespan < plain.makespan

    def test_interleaved_bubble_matches_theory(self):
        """Interleaved bubble time = (p-1)(tf+tb)/m."""
        p, n, m = 4, 16, 2
        inter = simulate(schedule_table(p, n, m),
                         uniform_costs(tf=1.0 / m, tb=2.0 / m))
        ideal = n * 3.0
        bubble_time = inter.makespan - ideal
        assert bubble_time == pytest.approx((p - 1) * 3.0 / m, rel=0.05)

    def test_p2p_adds_to_critical_path(self):
        p, n = 4, 4
        without = simulate(schedule_table(p, n), uniform_costs())
        with_p2p = simulate(schedule_table(p, n), uniform_costs(p2p=0.5))
        assert with_p2p.makespan > without.makespan

    def test_busy_time_is_total_work(self):
        p, n = 3, 6
        result = simulate(schedule_table(p, n), uniform_costs())
        for busy in result.busy_time:
            assert busy == pytest.approx(n * 3.0)

    @given(st.integers(1, 6), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_no_deadlock_and_lower_bound(self, p, n):
        result = simulate(schedule_table(p, n), uniform_costs())
        assert result.makespan >= n * 3.0  # cannot beat one rank's work

    def test_deadlock_detection(self):
        # B before its F on the only rank is an impossible program.
        bad = [[Op(OpKind.B, 0, 0), Op(OpKind.F, 0, 0)]]
        with pytest.raises(ScheduleError):
            simulate(ScheduleTable._of(bad, 1), uniform_costs())


def test_pricing_never_computes_the_issue_order():
    """The analytic path prices tables and reads only the makespan and
    busy times, so the peaks are built (and the held bytes asked for) on
    first read, and only `op_finish` may pay for the issue order."""
    table = schedule_table(4, 8, 2)
    asked = []
    result = simulate(table, PipelineCosts(
        forward_time=lambda g: 1.0, backward_time=lambda g: 2.0,
        activation_bytes=lambda g: asked.append(g) or 1.0))
    assert "_levels" in vars(table) and "issue_order" not in vars(table)
    assert "peak_activation_bytes" not in vars(result) and not asked
    assert result.peak_activation_bytes == [
        in_flight_microbatches(rank, 4, 8, 2) * 2 for rank in range(4)]
    assert asked == list(range(8)) and "issue_order" not in vars(table)
    result.op_finish
    assert "issue_order" in vars(table)


F, B = OpKind.F, OpKind.B


@pytest.mark.parametrize("schedule, num_groups, message", [
    # the same op twice would be priced twice and overwrite its finish time
    ([[Op(F, 0, 0), Op(F, 0, 0), Op(B, 0, 0)]], 1, "duplicate op F0g0"),
    # B0g1 waits for F0g1, which no rank issues
    ([[Op(F, 0, 0), Op(B, 0, 0)], [Op(B, 0, 1)]], 2, "deadlocked"),
    ([[Op(B, 0, 0), Op(F, 0, 0)]], 1, "deadlocked"),
], ids=["duplicate", "missing-forward", "backward-before-forward"])
def test_malformed_schedule_is_a_schedule_error(schedule, num_groups, message):
    with pytest.raises(ScheduleError, match=message):
        simulate(ScheduleTable._of(schedule, num_groups), uniform_costs())


class TestMemoryTimeline:
    def test_peak_matches_in_flight_formula(self):
        p, n, act = 4, 8, 100.0
        result = simulate(schedule_table(p, n), uniform_costs(act=act))
        for stage in range(p):
            expected = in_flight_microbatches(stage, p, n) * act
            assert result.peak_activation_bytes[stage] == pytest.approx(expected)

    def test_interleaved_peak_matches_formula(self):
        p, n, m, act = 4, 8, 2, 100.0
        result = simulate(schedule_table(p, n, m),
                          uniform_costs(act=act))
        for stage in range(p):
            chunks = in_flight_microbatches(stage, p, n, m) * m
            assert result.peak_activation_bytes[stage] == pytest.approx(chunks * act)

    def test_530b_peaks_match_figure9_profile(self):
        """The paper's own interleaved 530B schedule (p=35, v=3) lands on
        the closed-form per-rank activation peaks Figure 9 plots."""
        from repro.config import PAPER_CONFIGS
        from repro.layers.transformer import Recompute
        from repro.memory_model import per_layer_activation_bytes

        cfg = PAPER_CONFIGS["530B"]
        par, model, n = cfg.parallel, cfg.model, cfg.num_microbatches
        p, v = par.pipeline_parallel, par.interleave_stages
        per_layer = per_layer_activation_bytes(
            model, cfg.training.micro_batch_size, par.tensor_parallel, True,
            Recompute.SELECTIVE)
        result = simulate(schedule_table(p, n, v), uniform_costs(
            act=model.num_layers // (p * v) * per_layer))
        for stage in (0, 1, 17, 34):
            expected = (in_flight_microbatches(stage, p, n, v)
                        * (model.num_layers // p) * per_layer)
            assert result.peak_activation_bytes[stage] == pytest.approx(expected)

    def test_output_tensor_dealloc_saving(self):
        """Appendix B in simulation: the unoptimized run pins one output
        tensor per in-flight microbatch."""
        p, n = 4, 8
        base = simulate(schedule_table(p, n),
                        uniform_costs(act=100.0, out=7.0, dealloc=True))
        unopt = simulate(schedule_table(p, n),
                         uniform_costs(act=100.0, out=7.0, dealloc=False))
        for stage in range(p):
            r = min(n, p - stage)
            saving = (unopt.peak_activation_bytes[stage]
                      - base.peak_activation_bytes[stage])
            assert saving == pytest.approx(r * 7.0)

    def test_memory_returns_to_zero(self):
        # After all backwards the live bytes are zero; peak is positive.
        p, n = 3, 5
        result = simulate(schedule_table(p, n), uniform_costs(act=10.0))
        assert all(peak > 0 for peak in result.peak_activation_bytes)

    def test_first_stage_holds_most(self):
        p, n = 6, 12
        result = simulate(schedule_table(p, n), uniform_costs(act=1.0))
        peaks = result.peak_activation_bytes
        assert peaks == sorted(peaks, reverse=True)


# The per-op loop `simulate` ran before it was made cheap, kept verbatim
# over the verbatim walk (`helpers.reference_walk`): a call per dependency,
# a closure call per duration, `max` per comparison.  The fast path must do
# the same float operations in the same per-rank order, so everything below
# is compared with `==`.

def _reference_simulate(table, costs):
    ranks_ops = table.ops()
    p = len(ranks_ops)
    done = {}
    clock = [0.0] * p
    busy = [0.0] * p
    mem = [0.0] * p
    peak = [0.0] * p
    for i, op, key, dep in reference_walk(ranks_ops, table.num_groups, done):
        ready = clock[i]
        if dep is not None:
            same_rank_dep = rank_of_group(dep[2], p) == i
            transfer = 0.0 if same_rank_dep else costs.p2p_time
            ready = max(ready, done[dep] + transfer)
        duration = (
            costs.forward_time(op.group)
            if op.kind == OpKind.F
            else costs.backward_time(op.group)
        )
        finish = ready + duration
        done[key] = finish
        clock[i] = finish
        busy[i] += duration
        delta = costs.activation_bytes(op.group)
        if not costs.deallocate_output_tensor:
            delta += costs.output_tensor_bytes
        if op.kind == OpKind.F:
            mem[i] += delta
            peak[i] = max(peak[i], mem[i])
        else:
            mem[i] -= delta
    return max(clock), busy, peak, done


_seconds = st.floats(0.001, 10.0, allow_nan=False)
_nbytes = st.floats(0.0, 1e9, allow_nan=False)


@given(p=st.integers(1, 5), rounds=st.integers(1, 3), m=st.integers(1, 3),
       p2p=st.one_of(st.just(0.0), _seconds), out=_nbytes,
       dealloc=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_simulate_equals_the_previous_per_op_loop(p, rounds, m, p2p, out,
                                                  dealloc, data):
    groups = p * m
    per_group = st.lists(_seconds, min_size=groups, max_size=groups)
    fwd, bwd = data.draw(per_group), data.draw(per_group)
    act = data.draw(st.lists(_nbytes, min_size=groups, max_size=groups))
    costs = PipelineCosts(
        forward_time=fwd.__getitem__,
        backward_time=bwd.__getitem__, p2p_time=p2p,
        activation_bytes=act.__getitem__, output_tensor_bytes=out,
        deallocate_output_tensor=dealloc)
    schedule = schedule_table(p, p * rounds, m)
    result = simulate(schedule, costs)
    makespan, busy, peak, finish = _reference_simulate(schedule, costs)
    assert result.makespan == makespan
    assert result.busy_time == busy
    assert result.peak_activation_bytes == peak
    assert list(result.op_finish.items()) == list(finish.items())


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("table", [
    schedule_table(3, 6), schedule_table(2, 4, 2),
    ScheduleTable._of([[Op(F, 0, 0), Op(B, 0, 0)], []], 1),
    ScheduleTable._of([[], [Op(F, 0, 0), Op(B, 0, 0)]], 1),
], ids=["1f1b", "interleaved", "empty-last-rank", "empty-first-rank"])
def test_simulate_equals_the_previous_per_op_loop_bit_for_bit(table, zero):
    """Zero costs and empty ranks, compared by `float.hex` (`==` cannot
    tell -0.0 from 0.0): the per-op loop's sums started from 0.0."""
    costs = PipelineCosts(
        forward_time=lambda g: zero, backward_time=lambda g: zero,
        p2p_time=0.25, activation_bytes=lambda g: zero,
        output_tensor_bytes=zero, deallocate_output_tensor=False)
    result = simulate(table, costs)
    makespan, busy, peak, finish = _reference_simulate(table, costs)
    assert list(map(float.hex, [
        result.makespan, *result.busy_time, *result.peak_activation_bytes,
        *result.op_finish.values()])) == list(map(float.hex, [
            makespan, *busy, *peak, *finish.values()]))


@pytest.mark.parametrize("p, n, m", [(35, 280, 3), (64, 512, 1)],
                         ids=["530B", "1T"])
def test_simulate_equals_the_previous_per_op_loop_at_paper_scale(p, n, m):
    """The Table 5 schedules, priced from the table as `_iterations`
    does, with random per-group costs and a p2p send."""
    rng = random.Random(p * n * m)
    groups = p * m
    fwd = [rng.uniform(0.001, 10.0) for _ in range(groups)]
    bwd = [rng.uniform(0.001, 10.0) for _ in range(groups)]
    act = [rng.uniform(0.0, 1e9) for _ in range(groups)]
    costs = PipelineCosts(
        forward_time=fwd.__getitem__,
        backward_time=bwd.__getitem__, p2p_time=rng.uniform(0.001, 1.0),
        activation_bytes=act.__getitem__, output_tensor_bytes=3e7,
        deallocate_output_tensor=False)
    result = simulate(schedule_table(p, n, m), costs)
    makespan, busy, peak, finish = _reference_simulate(
        schedule_table(p, n, m), costs)
    assert result.makespan == makespan
    assert result.busy_time == busy
    assert result.peak_activation_bytes == peak
    assert list(result.op_finish.items()) == list(finish.items())
