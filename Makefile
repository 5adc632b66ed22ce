# Convenience targets for the reproduction.
PY ?= python
# OpenBLAS here is built for 64 threads and oversubscribes a 2-vCPU box
# (one GEMM varies 40x); anything timed or gated runs single-threaded.
ONE_THREAD = OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1

.PHONY: test bench bench-gate bench-wall-smoke wall-history loc smoke chaos trace serve fleet monitor memprofile compile longctx report examples all clean

test:
	$(ONE_THREAD) $(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Regression gate: re-run the trace presets, write BENCH_*.json, and
# diff against benchmarks/baselines/ with per-metric tolerances
# (docs/observability.md).  Exits non-zero naming any drifted metric.
bench-gate:
	$(ONE_THREAD) $(PY) -m repro bench --output-dir . --check

# Wall-clock benchmark smoke run (bench/README.md): every workload once,
# three units each, output checks on, ~20 s.  Exit code is the result.
bench-wall-smoke:
	python3 bench/run.py --smoke

# One more row of benchmarks/wall_history.jsonl for the tree as it stands
# (ROADMAP item 1): the full wall-clock benchmark (~3 min), tier-1 timed
# twice under the pinned thread counts (the row keeps the faster) and
# `make loc`.  `make wall-history LABEL="PR 18"`; the last step
# prints the history (`python3 benchmarks/wall_history.py show setup_s`
# for another metric).
wall-history:
	python3 bench/run.py > /dev/null
	for run in 1 2; do $(ONE_THREAD) $(PY) -m pytest -x tests/ | tail -1; done > bench/out/tier1.txt
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
# table run by one `Boundary`, not a class each) and `log_comm(` call
# sites in src/ (a collective's logged size is stated once, in
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
# from outside (8: tensor.abstract, zeros(abstract=True), bernoulli_mask,
# reshape's resolved target, the two layouts' `place`, layer norm's gamma
# and beta) — a derived shape goes through the trusted `shaped`; and the
# `rank_local = True` declarations in src/ (per-rank maps that
# tensor.apply runs once, on rank 0, over abstract inputs) — each one is
# covered by its strategy in the CASES table of tests/test_rank_local.py,
# whose oracle compares the projected run with the per-rank run and fails
# on a declaration without a strategy; and the shared-list rule of
# tensor/backend.py: per-rank abstract constructions in src/ (one
# AbstractArray / shaped per rank where one instance shared across ranks
# would do; 9 before the rule).  Two survive: backend.split, whose pieces
# are different tensors on one rank, and ScaleMaskSoftmaxDropout's
# forward, a rank-local class whose unprojected (ring or profiled) run is
# a per-rank map that tests/test_rank_local.py pins.
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
		'src/ log_comm( call sites' "$$(grep -rn --include='*.py' 'log_comm(' src | grep -vc 'def log_comm')" \
		'kernel np.(mean|sum|max|split)( call sites' "$$(cd src/repro && grep -rnE --include='*.py' 'np\.(mean|sum|max|split)\(' tensor fusion parallel layers serving comm | wc -l)" \
		'engine.py cache.(gather|write)( in the per-request loop' "$$(awk '/^ *for .*request_ids.*:$$/ { match($$0, /^ */); ind = RLENGTH; inloop = 1; next } inloop && NF { match($$0, /^ */); if (RLENGTH <= ind) inloop = 0; else if ($$0 ~ /cache\.(gather|write)\(/) n++ } END { print n + 0 }' src/repro/serving/engine.py)" \
		'pipeline_sim/schedule.py Op( constructions' "$$(grep -cE '\bOp\(' src/repro/pipeline_sim/schedule.py)" \
		'src/ np.broadcast_shapes( calls' "$$(grep -rn --include='*.py' 'np\.broadcast_shapes(' src | wc -l)" \
		'src/ validating AbstractArray( constructions (doors)' "$$(grep -rn --include='*.py' 'AbstractArray(' src | grep -v 'AbstractArray(shape=' | wc -l)" \
		'src/ rank_local Function declarations' "$$(grep -rn --include='*.py' 'rank_local = True' src | wc -l)" \
		'src/ per-rank abstract constructions' "$$(grep -rnE --include='*.py' '(AbstractArray|shaped)\(.*for _ in' src | wc -l)"

# CI smoke run: the artifact-writing CLI invocation of each per-feature
# target below, without the `pytest tests/test_<feature>.py` those
# targets start with (CI has already run `pytest tests/`).
smoke:
	$(PY) -m repro chaos --steps 6 --seed 11 --verify > /dev/null
	$(PY) -m repro trace --config tiny --output-dir trace-out
	$(PY) -m repro serve --trace-out serve-trace.json
	$(PY) -m repro fleet --verify --trace-out fleet-trace.json > /dev/null
	$(PY) -m repro monitor --postmortem postmortem.json \
		--request-trace request-trace.json --trace-out monitor-trace.json
	$(PY) -m repro memprofile --config 22B --output-dir memprof-out
	$(PY) -m repro compile --trace-out compile-trace.json
	$(PY) -m repro longctx --layout ulysses --trace-out longctx-trace.json
	@echo "smoke artifacts written"

# Fault-injection suite plus seeded chaos campaigns with end-to-end
# bitwise verification of recovery (see docs/resilience.md).
chaos:
	$(PY) -m pytest tests/test_resilience.py
	@for seed in 11 23 47; do \
		echo "== chaos seed $$seed"; \
		$(PY) -m repro chaos --steps 6 --seed $$seed --verify > /dev/null || exit 1; \
	done
	@echo "all chaos campaigns recovered bitwise-identical"

# Instrumented smoke run: merged Perfetto trace + Prometheus/JSON
# metrics, schema-validated and byte-deterministic (docs/observability.md).
trace:
	$(PY) -m repro trace --config tiny --output-dir trace-out
	$(PY) -c "import json; json.load(open('trace-out/trace.json')); json.load(open('trace-out/metrics.json'))"
	@echo "trace artifacts written to trace-out/"

# Continuous-batching serving smoke run on the paged KV cache, both
# preemption policies, with a validated Perfetto trace (docs/serving.md).
serve:
	$(PY) -m repro serve --trace-out serve-trace.json
	$(PY) -m repro serve --policy recompute > /dev/null
	@echo "serving runs completed; trace in serve-trace.json"

# Chaos-serving fleet: the default fault plan (replica crash + straggler
# + dispatch loss) with end-to-end token-identity verification against
# the fault-free run, plus a clean run and a seeded random campaign
# (docs/serving.md "Chaos serving", docs/resilience.md).
fleet:
	$(PY) -m pytest tests/test_fleet.py
	$(PY) -m repro fleet --verify --trace-out fleet-trace.json > /dev/null
	$(PY) -m repro fleet --fault-rate 0 > /dev/null
	$(PY) -m repro fleet --fault-rate 0.3 --verify > /dev/null
	@echo "fleet chaos campaigns: token streams identical to fault-free; trace in fleet-trace.json"

# Fleet request telemetry: the chaos fleet with request tracing, the
# flight recorder and the SLO monitor attached; detection precision/
# recall, the span partition and the ledger reconciliation are all
# exact (docs/observability.md "Request tracing & SLO monitoring").
monitor:
	$(PY) -m pytest tests/test_request_trace.py tests/test_monitor.py
	$(PY) -m repro monitor --postmortem postmortem.json \
		--request-trace request-trace.json --trace-out monitor-trace.json
	@echo "telemetry artifacts: postmortem.json request-trace.json monitor-trace.json"

# Activation-ledger memory profile: per-tensor timeline with bitwise
# peak attribution, save-vs-recompute frontier pricing and Perfetto
# memory counter tracks (docs/observability.md "Profiling memory").
memprofile:
	$(PY) -m pytest tests/test_memprof.py
	$(PY) -m repro memprofile --config 22B --output-dir memprof-out
	$(PY) -c "import json; json.load(open('memprof-out/memprof-ledger.json')); json.load(open('memprof-out/memprof-flamegraph.json'))"
	@echo "memory profile artifacts written to memprof-out/"

# Static-graph step compiler: the eager-vs-replay bitwise equivalence
# matrix of its driver (Trainer), then a compile run per layout
# printing plan stats with a validated Perfetto trace of a replayed
# step (docs/architecture.md "Static-graph step compiler").
compile:
	$(PY) -m pytest tests/test_compiler.py
	$(PY) -m repro compile --trace-out compile-trace.json
	$(PY) -m repro compile --tp 2 --sequence-parallel --recompute selective --microbatches 2 > /dev/null
	@echo "compiled plans replay bitwise-identical; trace in compile-trace.json"

# Long-context parallelism: serial-equivalence matrix for the Ulysses
# and ring layouts, then a traced run per layout reconciling comm bytes
# against the closed-form volumes, the overlapped-recompute attribution
# and the chooser, with a validated Perfetto trace (docs/long_context.md).
longctx:
	$(PY) -m pytest tests/test_longctx.py
	$(PY) -m repro longctx --layout ulysses --trace-out longctx-trace.json
	$(PY) -m repro longctx --layout ring --recompute selective > /dev/null
	$(PY) -m repro table 6 --seq-length 65536 > /dev/null
	@echo "context-parallel runs bitwise-identical to serial; trace in longctx-trace.json"

report:
	$(PY) -m repro report --output report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PY) $$f > /dev/null || exit 1; done
	@echo "all examples ran"

all: test bench report

clean:
	rm -rf .pytest_cache .hypothesis report.md trace-out serve-trace.json fleet-trace.json \
		postmortem.json request-trace.json monitor-trace.json memprof-out compile-trace.json \
		longctx-trace.json
	find . -name __pycache__ -type d -exec rm -rf {} +
