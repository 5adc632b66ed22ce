"""Pipeline schedules: validity, warmup/in-flight invariants (Appendix B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typing import List

from repro.errors import ScheduleError
from repro.pipeline_sim import (
    Op, OpKind, ScheduleTable, rank_of_group, schedule_table,
    validate_schedule,
)


def peak_in_flight(ops, kind_f=OpKind.F):
    """Max number of forwards without a matching backward at any point."""
    live = 0
    peak = 0
    for op in ops:
        if op.kind == kind_f:
            live += 1
            peak = max(peak, live)
        else:
            live -= 1
    return peak


class Test1F1B:
    @given(st.integers(1, 8), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_valid_for_any_p_n(self, p, n):
        validate_schedule(schedule_table(p, n), n)

    @given(st.integers(1, 8), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_peak_in_flight_is_min_n_p_minus_stage(self, p, n):
        """The memory model's in-flight count is exactly what the schedule
        holds (Section 4.2.3: stage 0 stores p microbatches)."""
        sched = schedule_table(p, n).ops()
        for stage, ops in enumerate(sched):
            assert peak_in_flight(ops) == min(n, p - stage)

    def test_last_stage_strictly_alternates(self):
        ops = schedule_table(4, 6).ops()[3]
        kinds = [op.kind for op in ops]
        assert kinds == [OpKind.F, OpKind.B] * 6

    def test_first_stage_warmup(self):
        ops = schedule_table(4, 8).ops()[0]
        assert [op.kind for op in ops[:3]] == [OpKind.F] * 3

    def test_rejects_bad_sizes(self):
        with pytest.raises(ScheduleError):
            schedule_table(0, 4)
        with pytest.raises(ScheduleError):
            schedule_table(4, 0)


class TestInterleaved:
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_valid_for_divisible_microbatches(self, p, rounds, m):
        n = p * rounds
        validate_schedule(schedule_table(p, n, m), n)

    def test_indivisible_microbatches_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_table(4, 6, 2)

    def test_one_stage_cannot_interleave(self):
        """Megatron-LM rejects virtual stages without a pipeline."""
        with pytest.raises(ScheduleError, match="needs pipeline_parallel > 1"):
            schedule_table(1, 4, 3)

    @given(st.integers(2, 6), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_first_stage_chunk_peak_matches_paper_factor(self, p, m):
        """Peak chunks in flight on rank 0 = pm + p - 1, giving the
        L(1 + (p-1)/(pm)) first-stage memory of Section 4.2.3."""
        n = 4 * p  # plenty of microbatches
        sched = schedule_table(p, n, m).ops()
        assert peak_in_flight(sched[0]) == p * m + p - 1

    def test_groups_cover_all_chunks(self):
        p, n, m = 3, 6, 2
        sched = schedule_table(p, n, m).ops()
        for rank, ops in enumerate(sched):
            groups = {op.group for op in ops}
            assert groups == {rank, rank + p}

    def test_rank_of_group(self):
        assert rank_of_group(0, 4) == 0
        assert rank_of_group(5, 4) == 1


# The hand-written builders `schedule_table` replaced, kept verbatim as the
# oracle: the table's `ops()` view must equal them op for op.

def _oracle_1f1b(pipeline_parallel: int, num_microbatches: int) -> List[List[Op]]:
    p, n = pipeline_parallel, num_microbatches
    if p < 1 or n < 1:
        raise ScheduleError("pipeline_parallel and num_microbatches must be >= 1")
    ranks: List[List[Op]] = []
    for i in range(p):
        warmup = min(n, p - i - 1)
        ops: List[Op] = [Op(OpKind.F, mb, i) for mb in range(warmup)]
        steady = n - warmup
        for j in range(steady):
            ops.append(Op(OpKind.F, warmup + j, i))
            ops.append(Op(OpKind.B, j, i))
        for j in range(steady, n):
            ops.append(Op(OpKind.B, j, i))
        ranks.append(ops)
    return ranks


def _oracle_virtual_order(pipeline_parallel: int, num_microbatches: int,
                          interleave_stages: int) -> List[tuple]:
    p, n, m = pipeline_parallel, num_microbatches, interleave_stages
    order = []
    for k in range(n * m):
        chunk = (k // p) % m
        mb = k % p + p * (k // (p * m))
        order.append((mb, chunk))
    return order


def _oracle_interleaved(pipeline_parallel: int, num_microbatches: int,
                        interleave_stages: int) -> List[List[Op]]:
    p, n, m = pipeline_parallel, num_microbatches, interleave_stages
    if m == 1:
        return _oracle_1f1b(p, n)
    if n % p != 0:
        raise ScheduleError(
            f"interleaved schedule needs num_microbatches ({n}) divisible "
            f"by pipeline_parallel ({p})"
        )
    fwd_order = _oracle_virtual_order(p, n, m)
    # Backward virtual order: same microbatch pattern, chunks reversed.
    bwd_order = [(mb, m - 1 - chunk) for mb, chunk in fwd_order]

    ranks: List[List[Op]] = []
    total = n * m
    for i in range(p):
        warmup = min(total, 2 * (p - i - 1) + (m - 1) * p)
        ops: List[Op] = []
        f_idx = b_idx = 0
        for _ in range(warmup):
            mb, chunk = fwd_order[f_idx]
            ops.append(Op(OpKind.F, mb, chunk * p + i))
            f_idx += 1
        while f_idx < total:
            mb, chunk = fwd_order[f_idx]
            ops.append(Op(OpKind.F, mb, chunk * p + i))
            f_idx += 1
            mb, chunk = bwd_order[b_idx]
            ops.append(Op(OpKind.B, mb, chunk * p + i))
            b_idx += 1
        while b_idx < total:
            mb, chunk = bwd_order[b_idx]
            ops.append(Op(OpKind.B, mb, chunk * p + i))
            b_idx += 1
        ranks.append(ops)
    return ranks


@given(p=st.integers(1, 8), rounds=st.integers(1, 4), m=st.integers(1, 4),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_table_view_equals_the_hand_written_builders(p, rounds, m, data):
    if p == 1 and m > 1:  # Megatron-LM rejects interleaving one stage
        with pytest.raises(ScheduleError, match="needs pipeline_parallel > 1"):
            schedule_table(p, p * rounds, m)
        return
    # without interleaving any n is valid, including n < p - 1, where
    # the warm-up is cut short
    n = p * rounds - (data.draw(st.integers(0, p - 1)) if m == 1 else 0)
    table = schedule_table(p, n, m)
    assert table.num_groups == p * m
    ops = table.ops()
    assert ops == _oracle_interleaved(p, n, m)
    assert all(type(op.kind) is OpKind and type(op.microbatch) is int
               and type(op.group) is int for rank in ops for op in rank)


F, B = OpKind.F, OpKind.B


class TestValidator:
    @staticmethod
    def check(ranks_ops, num_microbatches, match):
        table = ScheduleTable._of(ranks_ops, num_groups=len(ranks_ops))
        with pytest.raises(ScheduleError, match=match):
            validate_schedule(table, num_microbatches)

    def test_detects_backward_before_forward(self):
        self.check([[Op(B, 0, 0), Op(F, 0, 0)]], 1, "deadlocked")

    def test_detects_duplicates(self):
        self.check([[Op(F, 0, 0), Op(F, 0, 0), Op(B, 0, 0)]], 1,
                   "duplicate op F0g0")

    def test_detects_wrong_rank(self):
        self.check([[Op(F, 0, 1), Op(B, 0, 1)], []], 1,
                   "op F0g1 does not belong on rank 0")

    def test_detects_missing_ops(self):
        self.check([[Op(F, 0, 0), Op(B, 0, 0)]], 2, "2 ops, expected")

    def test_detects_a_microbatch_the_batch_does_not_have(self):
        """The right number of keys, but not the right keys: microbatch
        1 never runs and microbatch 5 does not exist."""
        self.check([[Op(F, 0, 0), Op(F, 5, 0), Op(B, 0, 0), Op(B, 5, 0)]], 2,
                   "op F5g0 does not belong on rank 0")
