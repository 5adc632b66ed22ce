"""The trace analysis engine and the ``repro bench`` regression gate.

Four contracts under test:

1. **Partition** — the attribution buckets partition each rank's wall
   time exactly (they are a sweep over ``[0, wall]``, so their sum is
   the wall by construction), live and offline paths agree, and the
   chaos preset lands its recovery stalls in the right bucket;
2. **Reconciliation** — MFU/HFU derived from traced GEMM FLOPs agree
   with :func:`repro.flops_model.utilization` to float
   precision, and per-term memory drift against Equations 1-4 is zero
   on the seed configurations;
3. **Determinism** — ``repro bench`` writes byte-identical
   ``BENCH_<preset>.json`` documents across runs at the same seed, and
   the committed baselines are a fresh run's bytes;
4. **Gate** — ``repro bench --check`` passes a document byte-identical
   to its baseline whose claim floors hold, and otherwise
   :func:`repro.observability.regress.compare` names each moved key and
   its owner.
"""

import copy
import json
import os

import pytest

from helpers import preset_doc
from repro.config import (
    ExperimentConfig,
    ModelConfig,
    ParallelConfig,
    TrainingConfig,
)
from repro.layers.transformer import Recompute
from repro.observability import (
    MetricsRegistry,
    Tracer,
    attribute,
    compare,
    export_trace,
    from_tracer,
    load_trace,
    memory_term_drift,
    run_preset,
    schedule_critical_path,
    trace_scope,
    utilization_crosscheck,
    write_bench,
)
from repro.observability.analysis import BUCKETS
from repro.observability.regress import (
    DEFAULT_BASELINE_DIR,
    PRESET_NAMES,
    PRESETS,
    TOLERANCES,
    bench_filename,
    check_against_baselines,
    flatten,
    load_bench,
    tolerance_for,
)
from repro.parallel.transformer import ParallelGPTModel
from repro.tensor import MemoryTracker, seed
from repro.training.data import UniformTokens
from repro.training.optimizer import Adam
from repro.training.trainer import PipelinedGPT

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = ModelConfig(num_layers=2, hidden_size=16, num_heads=2,
                   seq_length=16, vocab_size=32, name="analysis-tiny")

TINY_EXPERIMENT = ExperimentConfig(
    model=TINY,
    parallel=ParallelConfig(tensor_parallel=2, pipeline_parallel=2),
    training=TrainingConfig(micro_batch_size=2, global_batch_size=4),
)


def _traced_run(steps=2, recompute=Recompute.FULL):
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    model = ParallelGPTModel(TINY, tensor_parallel=2, attention_dropout=0.0,
                             hidden_dropout=0.0, recompute=recompute)
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
    return tracer


class TestAttribution:
    def test_buckets_partition_wall_time(self):
        data = from_tracer(_traced_run())
        att = attribute(data)
        assert att.wall > 0
        for rank_att in att.ranks:
            assert sum(rank_att.buckets.values()) == \
                pytest.approx(rank_att.wall, rel=1e-9)
        # well within the 1% acceptance bar; in practice float-exact
        assert att.coverage_error < 1e-9

    def test_all_buckets_present_and_non_negative(self):
        att = attribute(from_tracer(_traced_run()))
        for rank_att in att.ranks:
            assert set(rank_att.buckets) == set(BUCKETS)
            assert all(v >= 0 for v in rank_att.buckets.values())
        # FULL recompute must show up as its own bucket, and the
        # overlapped tensor-parallel all-reduces must be split out
        assert att.totals["recompute"] > 0
        assert att.totals["overlapped_comm"] > 0
        assert att.totals["exposed_comm"] > 0

    def test_offline_equals_live(self, tmp_path):
        tracer = _traced_run()
        live = attribute(from_tracer(tracer))
        path = tmp_path / "trace.json"
        export_trace(tracer, str(path))
        offline = attribute(load_trace(str(path)))
        assert offline.wall == pytest.approx(live.wall, rel=1e-9)
        for lr, orr in zip(live.ranks, offline.ranks):
            for bucket in BUCKETS:
                assert orr.buckets[bucket] == \
                    pytest.approx(lr.buckets[bucket], rel=1e-6, abs=1e-12)

    def test_chaos_preset_attributes_recovery_stalls(self):
        doc = preset_doc("chaos")
        assert doc["attribution"]["totals"]["recovery_stall"] > 0
        assert 0.0 < doc["resilience"]["goodput"] <= 1.0


class TestUtilizationCrosscheck:
    def test_traced_mfu_matches_perf_model(self):
        steps = 2
        data = from_tracer(_traced_run(steps=steps))
        xc = utilization_crosscheck(data, TINY_EXPERIMENT,
                                    num_iterations=steps,
                                    recompute=Recompute.FULL)
        # traced GEMM FLOPs match the strict Appendix A formulas exactly
        assert xc.traced_model_flops == pytest.approx(xc.model_flops, rel=1e-12)
        assert xc.traced_hardware_flops == pytest.approx(xc.hardware_flops,
                                                         rel=1e-12)
        assert xc.mfu == pytest.approx(xc.model_mfu, rel=1e-9)
        assert xc.hfu == pytest.approx(xc.model_hfu, rel=1e-9)
        assert xc.hfu > xc.mfu  # recompute burns extra hardware FLOPs


class TestMemoryDrift:
    @pytest.mark.parametrize("sp", [False, True])
    @pytest.mark.parametrize(
        "rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
    def test_zero_drift_on_seed_configs(self, sp, rc):
        drift = memory_term_drift(TINY, 2, 2, sp, rc)
        assert drift.unmapped == {}
        assert drift.total_drift == 0.0
        for term, value in drift.drift.items():
            assert value == 0.0, term
        # the comparison is real: both sides have non-zero terms
        assert sum(drift.measured.values()) > 0


class TestCriticalPath:
    def test_path_ends_at_makespan_and_respects_deps(self):
        data = from_tracer(_traced_run())
        cp = schedule_critical_path(data, num_groups=2)
        assert cp is not None
        last = cp.nodes[-1]
        pipe_spans = [s for s in data.spans if s.subsystem == "train"
                      and (s.name.startswith("forward mb")
                           or s.name.startswith("backward mb"))]
        assert last.ts + last.dur == pytest.approx(
            max(s.ts + s.dur for s in pipe_spans))
        # nodes are time-ordered and the chain is contiguous in time
        for a, b in zip(cp.nodes, cp.nodes[1:]):
            assert a.ts <= b.ts
        assert cp.busy <= cp.span + 1e-12
        assert cp.time_by_kind["backward"] > 0

    def test_backward_follows_forward_for_each_microbatch(self):
        data = from_tracer(_traced_run(steps=1))
        cp = schedule_critical_path(data, num_groups=2)
        first = cp.nodes[0]
        # a 1F1B chain starts with the first scheduled forward
        assert first.kind == "forward"


class TestBenchDeterminism:
    def test_bench_documents_byte_identical(self, tmp_path):
        a = preset_doc("tiny")
        b = run_preset("tiny")  # a second, fresh run
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        pa = write_bench(a, str(tmp_path / "a"))
        pb = write_bench(b, str(tmp_path / "b"))
        assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_bench_trace_hash_tracks_work_done(self):
        # the clock and spans are shape-driven, so the data seed does not
        # move the hash — but any change in the work performed must
        a = preset_doc("tiny")
        assert run_preset("tiny", seed_value=99)["trace_hash"] == \
            a["trace_hash"]
        assert run_preset("tiny", steps=3)["trace_hash"] != a["trace_hash"]

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_committed_baselines_match_fresh_run(self, preset, tmp_path):
        """The committed baseline is the fresh document, byte for byte
        (the failure message is what ``repro bench --check`` reports)."""
        baseline_dir = os.path.join(REPO_ROOT, DEFAULT_BASELINE_DIR)
        baseline_path = os.path.join(baseline_dir, bench_filename(preset))
        assert os.path.exists(baseline_path), (
            "run `python -m repro bench --output-dir benchmarks/baselines` "
            "and commit the baselines")
        doc = preset_doc(preset)
        with open(write_bench(doc, str(tmp_path)), "rb") as fresh, \
                open(baseline_path, "rb") as committed:
            assert fresh.read() == committed.read(), [
                str(r) for r in check_against_baselines(
                    {preset: doc}, baseline_dir).get(preset, [])]


class TestRegressionGate:
    def test_identical_documents_pass(self):
        doc = preset_doc("tiny")
        assert compare(doc, copy.deepcopy(doc)) == []

    def test_perturbed_metric_fails_with_name_and_delta(self):
        doc = preset_doc("tiny")
        bad = copy.deepcopy(doc)
        bad["utilization"]["mfu"] *= 1.10
        regressions = compare(doc, bad)
        assert len(regressions) == 1
        reg = regressions[0]
        assert reg.key == "utilization.mfu"
        assert "delta" in str(reg)

    def test_trace_hash_is_exact(self):
        doc = preset_doc("tiny")
        bad = copy.deepcopy(doc)
        bad["trace_hash"] = "0" * 64
        assert [r.key for r in compare(doc, bad)] == ["trace_hash"]

    def test_missing_metric_is_a_regression(self):
        doc = preset_doc("tiny")
        bad = copy.deepcopy(doc)
        del bad["counts"]["spans"]
        assert [r.key for r in compare(doc, bad)] == ["counts.spans"]

    def test_within_tolerance_change_passes(self):
        """Only a document equal in every value passes (re-parsed, its
        keys reordered); the 1 % move the old relative rows let
        through fails."""
        doc = preset_doc("tiny")

        def reordered(block):
            return {key: reordered(value) if isinstance(value, dict)
                    else value for key, value in reversed(block.items())}

        assert compare(doc, reordered(json.loads(json.dumps(doc)))) == []
        near = copy.deepcopy(doc)
        near["wall_time_s"] *= 1.01
        assert [r.key for r in compare(doc, near)] == ["wall_time_s"]

    def test_tolerance_longest_prefix_wins(self):
        exact = ("exact", 0)
        assert tolerance_for("trace_hash") == exact
        assert tolerance_for("memory.peak_bytes.stage0") == exact
        # keys the removed abs/rel rows covered are exact now
        assert tolerance_for("memory.drift.sp+full.checkpoint_input") == exact
        assert tolerance_for("utilization.mfu_delta") == exact
        assert tolerance_for("utilization.mfu") == exact
        assert tolerance_for("wall_time_s") == exact
        assert tolerance_for("something_else") == exact
        assert tolerance_for("longctx.overlap_reduction.ring") == \
            ("floor", 1.2)

    def test_tolerances_are_one_exact_default_and_the_claim_floors(self):
        assert TOLERANCES == {
            "": ("exact", 0),
            "serving.continuous_vs_static_speedup": ("floor", 1.5),
            "fleet.goodput": ("floor", 0.85),
            "longctx.overlap_reduction": ("floor", 1.2),
        }

    @pytest.mark.parametrize("key,owner", [
        ("wall_time_s", "_run_pipelined_preset"),
        ("utilization.mfu", "_run_pipelined_preset"),
        ("attribution.totals.forward", "_traced_training_blocks"),
    ])
    def test_one_percent_move_fails_the_gate(self, key, owner):
        """``--check`` is exact: a 1 % move of a time, of utilization or
        of an attribution bucket fails, naming the key and its owner."""
        baseline_dir = os.path.join(REPO_ROOT, DEFAULT_BASELINE_DIR)
        current = load_bench(os.path.join(baseline_dir,
                                          bench_filename("tiny")))
        *outer, leaf = key.split(".")
        block = current
        for part in outer:
            block = block[part]
        block[leaf] *= 1.01
        failures = check_against_baselines({"tiny": current}, baseline_dir)
        assert [str(r).split(":")[0] for r in failures["tiny"]] == [
            f"{key} [{owner}]"]

    @pytest.mark.parametrize("preset,key,moved", [
        ("tiny", "counts.spans", float),
        ("serve", "serving.policies_agree", int),
    ])
    def test_a_change_of_json_type_is_a_regression(self, preset, key, moved):
        """``3`` -> ``3.0`` and ``true`` -> ``1`` compare equal in Python
        but are different bytes: the key has moved."""
        baseline_dir = os.path.join(REPO_ROOT, DEFAULT_BASELINE_DIR)
        baseline = load_bench(os.path.join(baseline_dir,
                                           bench_filename(preset)))
        current = copy.deepcopy(baseline)
        section, leaf = key.split(".")
        current[section][leaf] = moved(current[section][leaf])
        assert current == baseline
        assert [r.key for r in compare(baseline, current)] == [key]
        assert [r.key for r in check_against_baselines(
            {preset: current}, baseline_dir)[preset]] == [key]

    def test_schema_mismatch_is_refused_not_diffed(self):
        doc = preset_doc("tiny")
        other = copy.deepcopy(doc)
        other["schema_version"] += 1
        other["wall_time_s"] *= 2
        del other["counts"]
        [regression] = compare(doc, other)
        assert (regression.key, regression.owner) == (
            "schema_version", "_base_doc")

    def test_bytes_that_differ_where_no_key_does_fail(self, tmp_path):
        """A baseline whose bytes are not the canonical text fails as one
        ``document`` regression, though every key is equal."""
        doc = preset_doc("tiny")
        (tmp_path / bench_filename("tiny")).write_text(json.dumps(doc))
        assert compare(load_bench(str(tmp_path / bench_filename("tiny"))),
                       doc) == []
        [regression] = check_against_baselines({"tiny": doc},
                                               str(tmp_path))["tiny"]
        assert (regression.key, regression.owner) == ("document",
                                                      "write_bench")

    def test_a_rebaselined_broken_claim_fails(self, tmp_path):
        """A floor is exact and at least its bound: committing a document
        that breaks the claim does not make it pass."""
        doc = load_bench(os.path.join(REPO_ROOT, DEFAULT_BASELINE_DIR,
                                      bench_filename("chaos_serve")))
        doc["fleet"]["goodput"] = 0.5
        write_bench(doc, str(tmp_path))
        [regression] = check_against_baselines({"chaos_serve": doc},
                                               str(tmp_path))["chaos_serve"]
        assert regression.key == "fleet.goodput"
        assert regression.tolerance == ("floor", 0.85)

    def test_preset_tolerance_rows_agree(self):
        """Each preset states its rows once; one prefix never carries two
        tolerances, so the merged table is every row's own."""
        for row in PRESETS.values():
            for prefix, tol in row.tolerances:
                assert TOLERANCES[prefix] == tol, prefix

    @pytest.mark.parametrize("preset,key,owner", [
        ("chaos", "resilience.goodput", "ResilienceReport"),
        ("serve", "serving.tokens_per_s", "ServeReport"),
        ("chaos_serve", "fleet.goodput", "FleetReport"),
        ("fleet_obs", "telemetry.detection_recall", "MonitorReport"),
        ("memprof", "fragmentation.max_fragmentation", "MemprofReport"),
        ("longctx", "longctx.ring.loss", "LongctxReport"),
        # a two-arm comparison and the shared blocks name their builder
        ("serve", "serving.continuous_vs_static_speedup",
         "_swap_vs_recompute_vs_static"),
        ("chaos_serve", "fleet.clean_goodput", "faulted_vs_clean"),
        ("chaos", "counts.spans", "_counts"),
        ("chaos", "attribution.totals.forward", "_traced_training_blocks"),
        ("longctx", "trace_hash", "trace_hash"),
    ])
    def test_perturbed_key_names_its_owner(self, preset, key, owner):
        baseline = load_bench(os.path.join(
            REPO_ROOT, DEFAULT_BASELINE_DIR, bench_filename(preset)))
        current = copy.deepcopy(baseline)
        *outer, leaf = key.split(".")
        block = current
        for part in outer:
            block = block[part]
        value = block[leaf]
        block[leaf] = value[::-1] if isinstance(value, str) else value / 2
        [regression] = compare(baseline, current)
        assert regression.key == key
        assert str(regression).startswith(f"{key} [{owner}]: ")

    def test_flatten_produces_dotted_scalars(self):
        flat = flatten({"a": {"b": {"c": 1}}, "d": 2.5})
        assert flat == {"a.b.c": 1, "d": 2.5}


class TestBenchCLI:
    def test_bench_check_passes_against_committed_baselines(
            self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(REPO_ROOT)
        assert main(["bench", "--preset", "tiny", "--output-dir",
                     str(tmp_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "bench gate OK" in out
        assert (tmp_path / "BENCH_tiny.json").exists()

    def test_bench_check_fails_on_perturbed_baseline(
            self, tmp_path, capsys):
        from repro.cli import main
        base_dir = tmp_path / "baselines"
        assert main(["bench", "--preset", "tiny",
                     "--output-dir", str(base_dir)]) == 0
        capsys.readouterr()
        doc = json.load(open(base_dir / "BENCH_tiny.json"))
        doc["memory"]["peak_bytes"]["stage0"] += 1
        json.dump(doc, open(base_dir / "BENCH_tiny.json", "w"))
        assert main(["bench", "--preset", "tiny",
                     "--output-dir", str(tmp_path / "out"),
                     "--baseline-dir", str(base_dir), "--check"]) == 2
        message = capsys.readouterr().err
        assert message.startswith("repro: error: bench regression gate FAILED")
        assert "memory.peak_bytes.stage0" in message

    def test_analyze_cli_offline(self, tmp_path, capsys):
        from repro.cli import main
        tracer = _traced_run()
        path = tmp_path / "trace.json"
        export_trace(tracer, str(path))
        assert main(["analyze", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["totals"]) == set(BUCKETS)
        assert doc["coverage_error"] < 1e-9
        wall = doc["wall_time_s"]
        for buckets in doc["per_rank"].values():
            assert sum(buckets.values()) == pytest.approx(wall, rel=1e-9)


class TestFleetAttribution:
    """Fleet-era spans land in the serving/fleet buckets and the
    request/monitor *view* tracks never double-count wall time."""

    @staticmethod
    def _fleet_tracer(with_views):
        from repro.fleet import build_fleet
        from repro.observability import RequestTracker, SLOMonitor, Tracer
        from repro.resilience import FaultKind, FaultPlan, FaultSpec
        from repro.serving import generate_requests

        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                          seq_length=24, vocab_size=16, name="att-fleet")
        tracer = Tracer()
        tracker = RequestTracker(tracer=tracer) if with_views else None
        monitor = SLOMonitor(slo_ttft_s=0.05, tracer=tracer) \
            if with_views else None
        fleet = build_fleet(cfg, 3, block_size=2, num_blocks=10, max_batch=3,
                            seed=3, tracer=tracer, request_tracker=tracker,
                            monitor=monitor,
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
        return tracer

    def test_serving_and_fleet_buckets_populated(self):
        att = attribute(from_tracer(self._fleet_tracer(with_views=False)))
        assert "serving" in BUCKETS and "fleet" in BUCKETS
        assert att.totals["serving"] > 0
        assert att.totals["fleet"] > 0

    def test_coverage_exact_under_chaos(self):
        att = attribute(from_tracer(self._fleet_tracer(with_views=False)))
        for rank_att in att.ranks:
            assert sum(rank_att.buckets.values()) == \
                pytest.approx(rank_att.wall, rel=1e-9)
        assert att.coverage_error < 1e-9

    def test_view_subsystems_never_change_attribution(self):
        """Request spans mirror replica time on their own tracks; the
        analyzer must exclude them or every second counts twice."""
        bare = attribute(from_tracer(self._fleet_tracer(with_views=False)))
        full = attribute(from_tracer(self._fleet_tracer(with_views=True)))
        assert full.wall == bare.wall
        assert full.totals == bare.totals

    def test_offline_load_also_excludes_view_tracks(self, tmp_path):
        tracer = self._fleet_tracer(with_views=True)
        live = attribute(from_tracer(tracer))
        path = tmp_path / "trace.json"
        export_trace(tracer, str(path))
        offline = attribute(load_trace(str(path)))
        assert offline.wall == pytest.approx(live.wall, rel=1e-9)
        assert set(offline.totals) == set(BUCKETS)
        for bucket in BUCKETS:
            assert offline.totals[bucket] == \
                pytest.approx(live.totals[bucket], rel=1e-6, abs=1e-12)

    def test_fleet_obs_preset_gates_are_exact(self):
        doc = preset_doc("fleet_obs")
        telemetry = doc["telemetry"]
        assert telemetry["detection_precision"] == 1.0
        assert telemetry["detection_recall"] == 1.0
        assert telemetry["partition_max_gap_s"] == 0.0
        assert telemetry["partition_max_overlap_s"] == 0.0
        assert telemetry["partition_exact"] is True
        assert telemetry["ttft_reconciled"] is True
        assert telemetry["tpot_reconciled"] is True
        assert telemetry["missed"] == [] and telemetry["spurious"] == []
