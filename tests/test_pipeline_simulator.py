"""The pipeline pricing body: makespan, bubble, p2p, deadlock; and the
schedule's in-flight microbatches against Eq. 5's count."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_walk
from repro.errors import ScheduleError
from repro.memory_model import in_flight_microbatches
from repro.pipeline_sim import (
    Op, OpKind, ScheduleTable, rank_of_group, schedule_table,
)
from repro.pipeline_sim import schedule
from repro.pipeline_sim.schedule import level_plan
from repro.pipeline_sim.simulator import price


def uniform(plan, tf=1.0, tb=2.0, p2p=0.0):
    """``(makespan, busy_time)`` of ``plan`` with every group at ``tf`` /
    ``tb`` seconds."""
    groups = plan.num_groups
    return price(plan, [tf] * groups, [tb] * groups, p2p)[:2]


class TestMakespan:
    def test_single_stage_is_serial_sum(self):
        makespan, busy = uniform(level_plan(1, 5))
        assert makespan == pytest.approx(5 * (1.0 + 2.0))
        assert busy == [makespan]  # no bubble

    def test_1f1b_bubble_fraction(self):
        """Ideal 1F1B: makespan = (n + p - 1) * (tf + tb); the busiest-rank
        bubble is (p-1)/(n+p-1)."""
        p, n = 4, 8
        makespan, busy = uniform(level_plan(p, n))
        assert makespan == pytest.approx((n + p - 1) * 3.0)
        assert 1.0 - busy[0] / makespan == pytest.approx((p - 1) / (n + p - 1))

    def test_interleaving_shrinks_bubble(self):
        p, n = 4, 8
        plain, _ = uniform(level_plan(p, n))
        inter, _ = uniform(level_plan(p, n, 2), tf=0.5, tb=1.0)
        # Same total work per rank, smaller makespan.
        assert inter < plain

    def test_interleaved_bubble_matches_theory(self):
        """Interleaved bubble time = (p-1)(tf+tb)/m."""
        p, n, m = 4, 16, 2
        makespan, _ = uniform(level_plan(p, n, m), tf=1.0 / m, tb=2.0 / m)
        bubble_time = makespan - n * 3.0
        assert bubble_time == pytest.approx((p - 1) * 3.0 / m, rel=0.05)

    def test_p2p_adds_to_critical_path(self):
        without, _ = uniform(level_plan(4, 4))
        with_p2p, _ = uniform(level_plan(4, 4), p2p=0.5)
        assert with_p2p > without

    def test_busy_time_is_total_work(self):
        p, n = 3, 6
        _, busy = uniform(level_plan(p, n))
        assert busy == pytest.approx([n * 3.0] * p)

    @given(st.integers(1, 6), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_no_deadlock_and_lower_bound(self, p, n):
        makespan, _ = uniform(level_plan(p, n))
        assert makespan >= n * 3.0  # cannot beat one rank's work

    def test_deadlock_detection(self):
        # B before its F on the only rank is an impossible program.
        bad = ScheduleTable._of([[Op(OpKind.B, 0, 0), Op(OpKind.F, 0, 0)]], 1)
        with pytest.raises(ScheduleError):
            uniform(bad._levels[1])

    def test_one_time_per_group(self):
        with pytest.raises(ScheduleError, match="each of 2 group"):
            price(level_plan(2, 2), [1.0], [2.0, 2.0])


def test_pricing_never_computes_the_issue_order(monkeypatch):
    """The analytic path builds and prices a `level_plan`, and reads only
    the makespan and busy times: it never pays for the issue order."""
    built = []
    monkeypatch.setattr(schedule, "schedule_table", lambda *pnm: built.append(
        schedule_table(*pnm)) or built[-1])
    uniform(schedule.level_plan.__wrapped__(4, 8, 2))
    assert [("_levels" in vars(table), "issue_order" in vars(table))
            for table in built] == [(True, False)]


F, B = OpKind.F, OpKind.B


@pytest.mark.parametrize("ops, num_groups, message", [
    # the same op twice would be priced twice and overwrite its finish time
    ([[Op(F, 0, 0), Op(F, 0, 0), Op(B, 0, 0)]], 1, "duplicate op F0g0"),
    # B0g1 waits for F0g1, which no rank issues
    ([[Op(F, 0, 0), Op(B, 0, 0)], [Op(B, 0, 1)]], 2, "deadlocked"),
    ([[Op(B, 0, 0), Op(F, 0, 0)]], 1, "deadlocked"),
], ids=["duplicate", "missing-forward", "backward-before-forward"])
def test_malformed_schedule_is_a_schedule_error(ops, num_groups, message):
    with pytest.raises(ScheduleError, match=message):
        uniform(ScheduleTable._of(ops, num_groups)._levels[1])


def held_chunks(table):
    """Per rank, the chunks whose activations it holds after each op: +1
    at each forward, -1 at each backward, in the rank's order."""
    held = np.where(table.forward, 1, -1)
    starts = table.starts.tolist()
    return [np.cumsum(held[a:b]) for a, b in zip(starts, starts[1:])]


def in_flight_peaks(table):
    """Per rank, the most microbatches it holds at once; ``m`` chunks make
    a microbatch."""
    m = table.num_groups // (len(table.starts) - 1)
    return [running.max() / m for running in held_chunks(table)]


class TestMemoryTimeline:
    """The schedule's own in-flight count is the closed form every stage
    memory (Eq. 5, Figure 9, Appendix C) is built on."""

    def test_peak_matches_in_flight_formula(self):
        p, n = 4, 8
        assert in_flight_peaks(schedule_table(p, n)) == [
            in_flight_microbatches(stage, p, n) for stage in range(p)]

    def test_interleaved_peak_matches_formula(self):
        p, n, m = 4, 8, 2
        assert in_flight_peaks(schedule_table(p, n, m)) == [
            in_flight_microbatches(stage, p, n, m) for stage in range(p)]

    def test_530b_peaks_match_figure9_profile(self):
        """The paper's own interleaved 530B schedule (p=35, v=3) on the
        per-rank in-flight counts Figure 9 plots."""
        from repro.config import PAPER_CONFIGS

        cfg = PAPER_CONFIGS["530B"]
        p, m = cfg.parallel.pipeline_parallel, cfg.parallel.interleave_stages
        n = cfg.num_microbatches
        assert in_flight_peaks(schedule_table(p, n, m)) == [
            in_flight_microbatches(stage, p, n, m) for stage in range(p)]

    def test_memory_returns_to_zero(self):
        # After all backwards every rank holds nothing; each held some.
        for running in held_chunks(schedule_table(3, 5)):
            assert running[-1] == 0 and running.max() > 0

    def test_first_stage_holds_most(self):
        for pnm in [(6, 12, 1), (4, 8, 2)]:
            peaks = in_flight_peaks(schedule_table(*pnm))
            assert peaks == sorted(peaks, reverse=True)


@st.composite
def _pnm(draw):
    p, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    if p == 1:
        m = 1  # Megatron-LM rejects interleaving one stage
    n = p * draw(st.integers(1, 3)) if m > 1 else draw(st.integers(1, 12))
    return p, n, m


@given(_pnm())
@settings(max_examples=60, deadline=None)
def test_schedule_holds_eq5_in_flight_microbatches(pnm):
    """`TestMemoryTimeline`'s checks on generated ``(p, n, m)``."""
    p, n, m = pnm
    table = schedule_table(p, n, m)
    assert all(running[-1] == 0 for running in held_chunks(table))
    peaks = in_flight_peaks(table)
    assert peaks == [in_flight_microbatches(rank, p, n, m)
                     for rank in range(p)]
    assert peaks == sorted(peaks, reverse=True)


# The per-op loop the simulator ran before it was made cheap, kept verbatim
# over the verbatim walk (`helpers.reference_walk`): a call per dependency,
# an index per duration, `max` per comparison.  The level pricing must do
# the same float operations in the same per-rank order, so everything
# below is compared with `==`.

def _reference_simulate(table, forward, backward, p2p):
    ranks_ops = table.ops()
    p = len(ranks_ops)
    done = {}
    clock = [0.0] * p
    busy = [0.0] * p
    for i, op, key, dep in reference_walk(ranks_ops, table.num_groups, done):
        ready = clock[i]
        if dep is not None:
            same_rank_dep = rank_of_group(dep[2], p) == i
            transfer = 0.0 if same_rank_dep else p2p
            ready = max(ready, done[dep] + transfer)
        duration = (
            forward[op.group]
            if op.kind == OpKind.F
            else backward[op.group]
        )
        finish = ready + duration
        done[key] = finish
        clock[i] = finish
        busy[i] += duration
    return max(clock), busy


_seconds = st.floats(0.001, 10.0, allow_nan=False)


@given(pnm=_pnm(), p2p=st.one_of(st.just(0.0), _seconds), data=st.data())
@settings(max_examples=60, deadline=None)
def test_price_equals_the_previous_per_op_loop(pnm, p2p, data):
    table = schedule_table(*pnm)
    groups = table.num_groups
    per_group = st.lists(_seconds, min_size=groups, max_size=groups)
    fwd, bwd = data.draw(per_group), data.draw(per_group)
    makespan, busy, _ = price(table._levels[1], fwd, bwd, p2p)
    assert (makespan, busy) == _reference_simulate(table, fwd, bwd, p2p)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("table", [
    schedule_table(3, 6), schedule_table(2, 4, 2),
    ScheduleTable._of([[Op(F, 0, 0), Op(B, 0, 0)], []], 1),
    ScheduleTable._of([[], [Op(F, 0, 0), Op(B, 0, 0)]], 1),
], ids=["1f1b", "interleaved", "empty-last-rank", "empty-first-rank"])
def test_price_equals_the_previous_per_op_loop_bit_for_bit(table, zero):
    """Zero costs and empty ranks, compared by `float.hex` (`==` cannot
    tell -0.0 from 0.0): the per-op loop's sums started from 0.0."""
    zeros = [zero] * table.num_groups
    makespan, busy, _ = price(table._levels[1], zeros, zeros, 0.25)
    want_makespan, want_busy = _reference_simulate(table, zeros, zeros, 0.25)
    assert list(map(float.hex, [makespan, *busy])) == list(map(
        float.hex, [want_makespan, *want_busy]))


@pytest.mark.parametrize("p, n, m", [(35, 280, 3), (64, 512, 1)],
                         ids=["530B", "1T"])
def test_price_equals_the_previous_per_op_loop_at_paper_scale(p, n, m):
    """The Table 5 schedules, priced from the kept plan as `_iterations`
    does, with random per-group costs and a p2p send."""
    rng = random.Random(p * n * m)
    groups = p * m
    fwd = [rng.uniform(0.001, 10.0) for _ in range(groups)]
    bwd = [rng.uniform(0.001, 10.0) for _ in range(groups)]
    p2p = rng.uniform(0.001, 1.0)
    makespan, busy, _ = price(level_plan(p, n, m), fwd, bwd, p2p)
    assert (makespan, busy) == _reference_simulate(
        schedule_table(p, n, m), fwd, bwd, p2p)
