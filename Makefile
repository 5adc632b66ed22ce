# Convenience targets for the reproduction.
PY ?= python
# OpenBLAS here is built for 64 threads and oversubscribes a 2-vCPU box
# (one GEMM varies 40x); anything timed or gated runs single-threaded.
ONE_THREAD = OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
# Every command imports `repro` from this tree (tier-1's own invocation),
# also under `make -f <repo>/Makefile` from another directory.
ROOT := $(dir $(abspath $(lastword $(MAKEFILE_LIST))))
SRC_PATH = PYTHONPATH=$(ROOT)src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: test overhead bench-gate bench-wall-smoke wall-history loc smoke report examples all clean

test:
	$(ONE_THREAD) $(SRC_PATH) $(PY) -m pytest tests/

# Disabled-overhead proofs (benchmarks/test_disabled_overhead.py): the
# tracer, memprof and fleet-telemetry seams make exactly the stripped
# reference's Python calls plus a stated budget (cProfile) and cost < 5%
# wall when nothing is installed.  Outside tier-1; -s prints the counts,
# the timings and the reference's A/A spread.
overhead:
	$(ONE_THREAD) $(PY) -m pytest benchmarks/test_disabled_overhead.py -s

# Regression gate: re-run the trace presets, write BENCH_*.json into
# bench-gate-out/ (git-ignored), and require each to be byte-identical
# to benchmarks/baselines/ with its claim floors held
# (docs/observability.md).  Exits non-zero naming each moved key and
# its owner.
bench-gate:
	$(ONE_THREAD) $(SRC_PATH) $(PY) -m repro bench --output-dir bench-gate-out --check

# Wall-clock benchmark smoke run (bench/README.md): every workload once,
# three units each, output checks on, ~20 s.  Exit code is the result.
bench-wall-smoke:
	python3 bench/run.py --smoke

# One more row of benchmarks/wall_history.jsonl for the tree as it stands
# (ROADMAP item 1): the full wall-clock benchmark (~3 min), tier-1 timed
# twice under the pinned thread counts (the row keeps the faster) and
# `make loc`.  `make wall-history LABEL="PR 18"`; the last step
# prints the history (`python3 benchmarks/wall_history.py show setup_s`
# for another metric).  A tier-1 run that fails stops the target and
# prints its tail; no row is appended.
wall-history:
	python3 bench/run.py > /dev/null
	rm -f bench/out/tier1.txt
	for run in 1 2; do \
	  log=$$($(ONE_THREAD) $(SRC_PATH) $(PY) -m pytest -x tests/ 2>&1) \
	    || { echo "$$log" | tail -20; exit 1; }; \
	  echo "$$log" | tail -1 >> bench/out/tier1.txt; \
	done
	python3 benchmarks/wall_history.py append bench/out/results.json "$(LABEL)" bench/out/tier1.txt
	python3 benchmarks/wall_history.py show

# Code size and the duplication smells ROADMAP aim 2 tracks ("net
# lines removed is a tracked number"): Python lines per tree, lines of
# src/ mentioning `fused`, isinstance(..., ParallelGPTModel) sites,
# `self.parallel` arms in the decode engine, schedule deadlock checks
# (each its own "deadlocked" raise; the one left is the wavefront's) and
# statements of the 1F1B dependency rule in pipeline_sim/ (lines with
# `num_groups - 1`; its one home is `schedule._waits_for`, which the
# dependency index, `op_dependency` and so the issue order and the
# level order all read), TransformerLayer( constructions
# outside layers/ (each one a hand-built abstract probe), and the two
# re-derivations the analytic path had: layer_times( call sites in the
# planner (one abstract trace per call; more than one means a trace per
# ladder rung) and iteration_time( calls from the table code (one
# schedule build each; a pair that shares (p, n, m) should share it);
# and the step compiler's footprint (ROADMAP item 3): `recorder/cap is
# (not) None` arms in the drivers (each one a fork beside the eager
# step body) and lines of src/ mentioning `compiled`; and tape-op call
# sites (`F.*(`) inside a loop over the decode step's requests in the
# serving engine (each one costs a tape application per request per
# layer per step; attention is one F.decode_attention per layer); and
# the autograd-collective layer's footprint: `Function` subclasses in
# the two mapping modules (the six conjugate operators are rows of one
# table run by one `Boundary`, not a class each) and the comm-record
# sites in src/, `log_comm(` calls and cost rules' `comm(` builds (a
# collective's logged size is stated once, in
# `repro.comm.cost_model.logged_nbytes`; each extra site restates it);
# and the kernel rule of tensor/backend.py: calls of NumPy's Python
# reduction/split wrappers from kernel code (each costs 3-8 us before
# the ufunc it ends in) and paged-cache reads/writes inside a loop over
# the decode step's requests (the step reads the cache through one slot
# mapping, once per layer and rank); and `Op(` constructions in the
# schedule module (a schedule is built as arrays; the one `Op(` is the
# table's `ops()` view — a second is a hand-written builder loop); and
# the abstract-mode rule of tensor/backend.py: np.broadcast_shapes( calls
# in src/ (0: broadcasting is tuple arithmetic) and validating
# AbstractArray( constructions in src/, the doors where a shape enters
# from outside (7: tensor.abstract, bernoulli_mask, reshape's resolved
# target, the two layouts' `place`, layer norm's gamma and beta; 8 while
# backend.zeros had an abstract arm no caller took) — a derived shape
# goes through the trusted `shaped`; and the
# `rank_local = True` declarations in src/ (0: the flag is gone — a
# per-rank op hands one shard's kernel to tensor.map_shards, which owns
# the rank loop and the abstract projection, and tests/test_rank_local.py
# checks the mapper's contract; 22 while each op claimed rank-locality by
# flag), and the lines of tensor/functions.py (1 005 while each op wrote
# its own rank loop); and the shared-list rule of tensor/backend.py:
# per-rank abstract constructions in src/ (one AbstractArray / shaped per
# rank where one instance shared across ranks would do; 9 before the
# rule).  Two survive: backend.split, whose pieces are different tensors
# on one rank, and tensor.map_shards' declared result under a memory
# profiler or a capture, which key buffers by identity alone; and add_argument(
# calls in cli.py (a flag is one row of its _FLAGS table, and one loop
# builds every sub-command; 80 calls before the table); and the defaulted
# keyword options of ContinuousBatchingScheduler, FleetRouter and
# build_fleet, counted with inspect.signature (38 before the unused
# sampling options and router knobs were dropped); and the defaulted
# keyword options of the training recovery ladder (ResilientTrainer,
# FaultInjector, run_step_with_retries; 11 while the retry policy was an
# option of each); and the defaulted keyword options of every function and
# method (dataclass __init__s included) defined in the nine
# repro.observability modules (117 while the tracer, profiler, exporters
# and SLO monitor carried options no caller set); and the lines of the
# CLI plus the bench preset runner (1 859 while each of six scenarios
# was reduced once per door; a scenario now returns one report value
# whose to_json() both doors read); and the src/ modules building
# trace-event dicts, counted as files with a `"ph": "` literal (1:
# observability/perfetto.py is the one module that knows the
# Chrome/Perfetto event format; 3 while the pipeline schedule and the
# memory ledger's counter tracks each built their own events); and the
# is_abstract( lines of the three op modules (tensor/functions.py,
# fusion/ops.py, parallel/mappings.py; 5: Dropout.masks and the
# rank-reading loops of OffsetCausalMask and the ring softmax -- a
# per-shard kernel declares its abstract result as a shape to
# tensor.map_shards instead of branching on it; 27 while each kernel
# carried its own abstract arm); and the `.grad[0]` reads in
# tests/test_parallel_equivalence.py (hand-written comparisons against
# serial gradients; 33 before the one oracle, repro.testing.
# assert_parallel_equivalent, compared every parameter on every rank); and
# the `fctx.log_` / `listening(` lines of the five op modules (7: only the
# comm legs that emit in order with their collectives, Leg.__call__ and
# AllGatherMatmul -- every other op declares a cost rule the tape
# evaluates; 73 while each op body logged under its own listener check);
# and the defaulted keyword options of every function and method
# (dataclass __init__s included) of every repro module but __main__,
# counted with inspect.signature as the observability row is (815 before
# the options no caller passes became constants; a defaulted parameter
# earns its place with two non-test callers passing different values,
# docs/extending.md); and the bench gate's tolerance rows,
# len(regress.TOLERANCES) (4: the exact default and the three claim
# floors; 36 while 21 exact, 7 relative, 5 absolute and 3 floor rows
# judged the documents tier-1 already holds byte-identical); and the
# names the 19 repro packages re-export, the sum of their __all__s (265:
# a subpackage re-exports a name only while some caller reaches it
# through the package, held by tests/test_package_exports.py; 358 before
# 94 names with no such caller went and training's __all__ gained the one
# name it bound but omitted); and the abstract_layer( call sites in src/
# (3: the memory oracle's one forward, observability.analysis.
# forward_layer, which the tracker drift, the context-parallel drift and
# the memprof ledger all read, plus the allocator's layer trace and the
# layer-timing trace; 4 while memprof built and forwarded its own copy);
# and the process memos in src/, its @lru_cache sites (2: the layer / end
# trace records of perf_model/layer_timing.py and the schedule level
# plans of pipeline_sim/schedule.py; 6 while memory_model/activations.py
# kept four activation-term memos), so every new process-lifetime cache
# shows up in wall_history; and the repro modules a bench worker imports,
# what importing bench/workloads.py leaves in sys.modules (80: 79 and the
# repro._lazy hook; 95 while the observability, training, pipeline_sim,
# fusion and reporting facades imported every member eagerly and loaded
# 16 modules no workload runs, tests/test_package_exports.py's
# UNUSED_BY_BENCH); and the rules in src/ pricing a hidden transfer
# outside the one exposure function, perf_model.gpu.exposed_time, counted
# as the lines that state one: a zero for an `overlapped` record, a
# `max(0.0, comm - cover)` of its own, a ring's `(p - 2)` steady hops (1:
# Ring.exposed_seconds, a full fill hop per gather plus latency per steady
# hop, until the executed hop order of a streaming ring says what covers
# each hop; 3 while KernelCostModel priced an overlapped record at zero
# behind a knob and OverlapSegment stated its own max).  Not counted, on
# purpose: OverlapSegment.hidden_s's min and OverlapResult's
# overlapped_time_s max restate the rule beside exposed_s, kept as they
# are so BENCH_longctx keeps its bits (recompute + exposed_time need not
# round to the max); and the src/ lines restating a pipeline rank's
# activation memory outside memory_model/pipeline.py's stage_memory,
# which Figures 1 and 9, the planner, the fit sweep and Appendix C all
# read (0; 29 while Eq. 5's layers' worth, the interleave factor and the
# Section 4.3 extras each had their own function and callers).
loc:
	@printf '%-56s %6d\n' \
		'src/ python lines' "$$(find src -name '*.py' | xargs cat | wc -l)" \
		'tests/ python lines' "$$(find tests -name '*.py' | xargs cat | wc -l)" \
		'bench/ + benchmarks/ python lines' "$$(find bench benchmarks -name '*.py' | xargs cat | wc -l)" \
		'src/ lines mentioning fused' "$$(grep -rn --include='*.py' fused src | wc -l)" \
		'src/ isinstance(..., ParallelGPTModel)' "$$(grep -rnE --include='*.py' 'isinstance\(.*ParallelGPTModel' src | wc -l)" \
		'serving/engine.py self.parallel' "$$(grep -n 'self\.parallel\b' src/repro/serving/engine.py | wc -l)" \
		'src/ raise ScheduleError("... deadlocked")' "$$(grep -rn --include='*.py' 'deadlocked")' src | wc -l)" \
		'pipeline_sim/ statements of the 1F1B dependency rule' "$$(grep -rn --include='*.py' 'num_groups - 1' src/repro/pipeline_sim | wc -l)" \
		'src/ TransformerLayer( outside layers/' "$$(grep -rn --include='*.py' 'TransformerLayer(' src | grep -v 'src/repro/layers/' | wc -l)" \
		'planner/ layer_times( call sites' "$$(grep -rn --include='*.py' 'layer_times(' src/repro/planner | wc -l)" \
		'table code iteration_time( calls' "$$(grep -n 'iteration_time(' src/repro/perf_model/iteration.py src/repro/experiments.py | grep -vc 'def ')" \
		'driver capture arms' "$$(grep -rnE --include='*.py' '(recorder|cap) is (not )?None' src/repro/training src/repro/serving | wc -l)" \
		'src/ lines mentioning compiled' "$$(grep -rn --include='*.py' compiled src | wc -l)" \
		'serving/engine.py F.* calls inside the per-request loop' "$$(awk '/^ *for .*request_ids.*:$$/ { match($$0, /^ */); ind = RLENGTH; inloop = 1; next } inloop && NF { match($$0, /^ */); if (RLENGTH <= ind) inloop = 0; else if ($$0 ~ /F\.[a-z_]+\(/) n++ } END { print n + 0 }' src/repro/serving/engine.py)" \
		'Function subclasses in parallel/ + longctx/mappings.py' "$$(cat src/repro/parallel/mappings.py src/repro/longctx/mappings.py | grep -cE '^class .*\(Function\):')" \
		'src/ comm-record sites (log_comm( / comm()' "$$(grep -rnE --include='*.py' '\b(log_)?comm\(' src | grep -v 'def ' | grep -vc '_emit(\*\*comm(')" \
		'kernel np.(mean|sum|max|split)( call sites' "$$(cd src/repro && grep -rnE --include='*.py' 'np\.(mean|sum|max|split)\(' tensor fusion parallel layers serving comm | wc -l)" \
		'engine.py cache.(gather|write)( in the per-request loop' "$$(awk '/^ *for .*request_ids.*:$$/ { match($$0, /^ */); ind = RLENGTH; inloop = 1; next } inloop && NF { match($$0, /^ */); if (RLENGTH <= ind) inloop = 0; else if ($$0 ~ /cache\.(gather|write)\(/) n++ } END { print n + 0 }' src/repro/serving/engine.py)" \
		'pipeline_sim/schedule.py Op( constructions' "$$(grep -cE '\bOp\(' src/repro/pipeline_sim/schedule.py)" \
		'src/ np.broadcast_shapes( calls' "$$(grep -rn --include='*.py' 'np\.broadcast_shapes(' src | wc -l)" \
		'src/ validating AbstractArray( constructions (doors)' "$$(grep -rn --include='*.py' 'AbstractArray(' src | grep -v 'AbstractArray(shape=' | wc -l)" \
		'src/ rank_local Function declarations' "$$(grep -rn --include='*.py' 'rank_local = True' src | wc -l)" \
		'tensor/functions.py lines' "$$(wc -l < src/repro/tensor/functions.py)" \
		'src/ per-rank abstract constructions' "$$(grep -rnE --include='*.py' '(AbstractArray|shaped)\(.*for _ in' src | wc -l)" \
		'cli.py add_argument( calls' "$$(grep -c 'add_argument(' src/repro/cli.py)" \
		'serving/ + fleet/ constructor keyword options' "$$(PYTHONPATH=src $(PY) -c 'import inspect; from repro.serving import ContinuousBatchingScheduler as S; from repro.fleet import FleetRouter as R, build_fleet as B; print(sum(p.default is not p.empty for f in (S.__init__, R.__init__, B) for p in inspect.signature(f).parameters.values()))')" \
		'resilience/ + training retry keyword options' "$$(PYTHONPATH=src $(PY) -c 'import inspect; from repro.resilience import FaultInjector as I, ResilientTrainer as T; from repro.training import run_step_with_retries as r; print(sum(p.default is not p.empty for f in (T.__init__, I.__init__, r) for p in inspect.signature(f).parameters.values()))')" \
		'cli.py + regress.py lines' "$$(cat src/repro/cli.py src/repro/observability/regress.py | wc -l)" \
		'observability/ keyword options' "$$(PYTHONPATH=src $(PY) -c 'import importlib, inspect; mods = [importlib.import_module("repro.observability." + m) for m in "analysis memprof metrics monitor perfetto regress request_trace serialize tracer".split()]; fns = [f for m in mods for o in vars(m).values() if getattr(o, "__module__", None) == m.__name__ for f in ([o] if inspect.isfunction(o) else [getattr(v, "__func__", v) for v in vars(o).values()] if inspect.isclass(o) else [])]; print(sum(p.default is not p.empty for f in fns if inspect.isfunction(f) for p in inspect.signature(f).parameters.values()))')" \
		'src/ modules building trace-event dicts' "$$(grep -rl --include='*.py' '"ph": "' src | wc -l)" \
		'op modules is_abstract( lines' "$$(cat src/repro/tensor/functions.py src/repro/fusion/ops.py src/repro/parallel/mappings.py | grep -c 'is_abstract(')" \
		'test_parallel_equivalence.py .grad[0] reads' "$$(grep -o '\.grad\[0\]' tests/test_parallel_equivalence.py | wc -l)" \
		'op modules fctx.log_/listening( lines' "$$(cat src/repro/tensor/functions.py src/repro/fusion/ops.py src/repro/parallel/mappings.py src/repro/parallel/loss.py src/repro/longctx/mappings.py | grep -cE 'fctx\.log_|listening\(')" \
		'repro keyword options (every module but __main__)' "$$(PYTHONPATH=src $(PY) -c 'import importlib, inspect, pkgutil, repro; mods = [importlib.import_module(m.name) for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.name != "repro.__main__"]; fns = [f for m in mods for o in vars(m).values() if getattr(o, "__module__", None) == m.__name__ for f in ([o] if inspect.isfunction(o) else [getattr(v, "__func__", v) for v in vars(o).values()] if inspect.isclass(o) else [])]; print(sum(p.default is not p.empty for f in fns if inspect.isfunction(f) for p in inspect.signature(f).parameters.values()))')" \
		'bench gate tolerance rows' "$$(PYTHONPATH=src $(PY) -c 'from repro.observability import regress; print(len(regress.TOLERANCES))')" \
		'package re-exports (sum of __all__)' "$$(PYTHONPATH=src $(PY) -c 'import importlib, pkgutil, repro; print(len(repro.__all__) + sum(len(importlib.import_module(m.name).__all__) for m in pkgutil.iter_modules(repro.__path__, "repro.") if m.ispkg))')" \
		'src/ abstract_layer( call sites' "$$(grep -rn --include='*.py' 'abstract_layer(' src | grep -v 'def abstract_layer' | wc -l)" \
		'src/ process memos (lru_cache sites)' "$$(grep -rnE --include='*.py' '@(functools\.)?(lru_cache|cache)\b' src | wc -l)" \
		'src/ context-layout name branches outside longctx/layout.py' "$$(grep -rnE --include='*.py' '== "(ulysses|ring)"|not in \("ulysses"|LAYOUTS\.items' src | grep -v src/repro/longctx/layout.py | wc -l)" \
		'repro modules a bench worker imports' "$$(cd bench && $(SRC_PATH) $(PY) -c 'import sys, workloads; print(sum(m.split(".")[0] == "repro" for m in sys.modules))')" \
		'src/ rules pricing a hidden transfer outside the exposure function' "$$(grep -rnE --include='*.py' '\.overlapped and |max\(0\.0, .*comm.* - |\(p - 2\) \*' src | grep -vc 'max(0.0, comm_s - cover_s)')" \
		'src/ first-stage memory restatements outside memory_model/pipeline.py' "$$(grep -rnE --include='*.py' 'first_stage_layers_worth|interleave_memory_factor|input_output_extras_bytes|total_activation_bytes|layers_worth' src | grep -vc src/repro/memory_model/pipeline.py)"

# CI smoke run: the artifact-writing CLI invocation of each concrete-run
# command, plus the two invocations no tier-1 test makes (the recompute
# preemption policy, a long-context Table 6).  Each feature's tests run
# in `make test`; CI has already run `pytest tests/`.
smoke:
	$(SRC_PATH) $(PY) -m repro chaos --steps 6 --seed 11 --verify > /dev/null
	$(SRC_PATH) $(PY) -m repro trace --config tiny --output-dir trace-out
	$(SRC_PATH) $(PY) -m repro serve --trace-out serve-trace.json
	$(SRC_PATH) $(PY) -m repro serve --policy recompute > /dev/null
	$(SRC_PATH) $(PY) -m repro fleet --verify --trace-out fleet-trace.json > /dev/null
	$(SRC_PATH) $(PY) -m repro monitor --postmortem postmortem.json \
		--request-trace request-trace.json --trace-out monitor-trace.json
	$(SRC_PATH) $(PY) -m repro memprofile --config 22B --output-dir memprof-out
	$(SRC_PATH) $(PY) -m repro compile --trace-out compile-trace.json
	$(SRC_PATH) $(PY) -m repro longctx --layout ulysses --trace-out longctx-trace.json
	$(SRC_PATH) $(PY) -m repro table 6 --seq-length 65536 > /dev/null
	@echo "smoke artifacts written"

report:
	$(SRC_PATH) $(PY) -m repro report --output report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(SRC_PATH) $(PY) $$f > /dev/null || exit 1; done
	@echo "all examples ran"

all: test overhead report

clean:
	rm -rf .pytest_cache .hypothesis report.md trace-out serve-trace.json fleet-trace.json \
		postmortem.json request-trace.json monitor-trace.json memprof-out compile-trace.json \
		longctx-trace.json bench-gate-out BENCH_*.json
	find . -name __pycache__ -type d -exec rm -rf {} +
