"""The CLI, pinned byte for byte.

Every row of ``ARGV_ROWS`` is one ``repro <command>`` invocation (or a
short chain of them) whose stdout and written artifacts ride the
simulated clock and seeded RNG streams, so they are byte-identical run
to run.  Their SHA-256 digests are committed in
``tests/golden/cli_sha256.json``; a refactor of the CLI or of the
scenario set-up code (``repro.scenarios``) must leave all of them
unchanged.  ``tests/golden/cli_parser.json`` pins the argparse spec of
every sub-command (everything but the help text), so the same refactor
cannot move a flag, default, choice or type either.
``python tests/test_cli_scenarios.py`` rewrites both goldens after an
*intentional* change.

The "two doors" tests state the other half of the contract: a CLI
command at a preset's seed and the ``repro bench`` preset are the same
run, so every key the preset reads off the run's report value is the
command's ``--json`` value at the same path.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from helpers import preset_doc
from repro import scenarios
from repro.cli import main
from repro.config import ModelConfig
from repro.errors import ConfigError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "cli_sha256.json")
PARSER_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "cli_parser.json")

TRACE_ARTIFACTS = ("out/trace.json", "out/metrics.prom", "out/metrics.json")
MEMPROF_ARTIFACTS = ("out/memprof-ledger.json", "out/memprof-flamegraph.json",
                     "out/memprof-trace.json")



def _text_and_json(*argvs):
    """A row per argv at its text output, and one more with ``--json``."""
    rows = []
    for argv in argvs:
        row_id = " ".join(argv).replace("--", "").replace(" ", "-")
        rows += [(row_id, list(argv), ()),
                 (row_id + "-json", list(argv) + ["--json"], ())]
    return tuple(rows)


TRACE_TINY = ["trace", "--config", "tiny", "--output-dir", "out"]

#: (id, argv -- or a list of argvs run in order --, artifacts written
#: relative to the working directory)
ARGV_ROWS = (
    ("chaos", ["chaos", "--json"], ()),
    ("serve", ["serve", "--json"], ()),
    ("fleet", ["fleet", "--json"], ()),
    ("fleet-verify", ["fleet", "--verify", "--json"], ()),
    ("monitor", ["monitor", "--json"], ()),
    ("compile", ["compile", "--json"], ()),
    ("compile-tp2-sp-selective",
     ["compile", "--tp", "2", "--sequence-parallel", "--recompute",
      "selective", "--microbatches", "2", "--json"], ()),
    ("longctx", ["longctx", "--json"], ()),
    ("longctx-ring-selective",
     ["longctx", "--layout", "ring", "--recompute", "selective", "--json"],
     ()),
    ("memprofile-tiny",
     ["memprofile", "--config", "tiny", "--output-dir", "out", "--json"],
     MEMPROF_ARTIFACTS),
    ("trace-tiny", TRACE_TINY, TRACE_ARTIFACTS),
) + _text_and_json(
    ["table", "2"], ["table", "4"], ["table", "5"], ["table", "6"],
    ["figure", "1"], ["figure", "7"], ["figure", "8"], ["figure", "9"],
    ["figure", "10"], ["memory-report"], ["flops-report"], ["plan"],
    ["simulate-pipeline"], ["simulate-pipeline", "--breakdown"],
    ["section5"], ["appendix-c"],
) + tuple((f"sweep-{kind}", ["sweep", kind], ())
          for kind in ("seq", "tp", "fit", "overhead")) + (
    ("report", ["report"], ()),
    ("chaos-text", ["chaos"], ()),
    ("chaos-verify-text", ["chaos", "--verify"], ()),
    ("serve-text", ["serve"], ()),
    ("serve-artifacts-text",
     ["serve", "--trace-out", "st.json", "--request-trace", "rt.json"],
     ("st.json", "rt.json")),
    ("fleet-text", ["fleet"], ()),
    ("fleet-verify-text", ["fleet", "--verify"], ()),
    ("monitor-text", ["monitor"], ()),
    ("monitor-artifacts-text",
     ["monitor", "--postmortem", "pm.json", "--request-trace", "rt.json",
      "--trace-out", "mt.json"], ("pm.json", "rt.json", "mt.json")),
    ("compile-text", ["compile"], ()),
    ("compile-trace-text", ["compile", "--trace-out", "ct.json"],
     ("ct.json",)),
    ("longctx-text", ["longctx"], ()),
    ("longctx-trace-text", ["longctx", "--trace-out", "lt.json"],
     ("lt.json",)),
    ("memprofile-tiny-text",
     ["memprofile", "--config", "tiny", "--output-dir", "out"],
     MEMPROF_ARTIFACTS),
    ("analyze-text", [TRACE_TINY, ["analyze", "out/trace.json"]], ()),
    ("analyze-json", [TRACE_TINY, ["analyze", "out/trace.json", "--json"]],
     ()),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(argv, artifacts, workdir) -> dict:
    """Run one CLI invocation inside ``workdir`` (artifact paths are
    relative, so stdout never embeds a temporary directory name)."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            for one in (argv if isinstance(argv[0], list) else [argv]):
                assert main(list(one)) == 0
        digests = {"stdout": _sha(stdout.getvalue().encode())}
        for name in artifacts:
            with open(name, "rb") as fh:
                digests[name] = _sha(fh.read())
    finally:
        os.chdir(previous)
    return digests


def _run_json(argv) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(list(argv)) == 0
    return json.loads(stdout.getvalue())


def parser_spec() -> dict:
    """Every sub-command's argparse spec, help strings left out: its
    actions in order (positionals included) and the ``fn`` it runs."""
    from repro.cli import build_parser
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: {
        "fn": parser.get_default("fn").__name__,
        "actions": [{
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "nargs": action.nargs,
            "metavar": action.metavar,
            "required": action.required,
            "action": type(action).__name__,
        } for action in parser._actions
            if not isinstance(action, argparse._HelpAction)],
    } for name, parser in subparsers.choices.items()}


def _dump(doc, path, **kw) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, **kw)
        fh.write("\n")


def test_parser_matches_golden():
    with open(PARSER_GOLDEN_PATH) as fh:
        assert parser_spec() == json.load(fh)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("row_id,argv,artifacts", ARGV_ROWS,
                         ids=[row[0] for row in ARGV_ROWS])
def test_cli_output_matches_golden(row_id, argv, artifacts, tmp_path, golden):
    assert _digests(argv, artifacts, str(tmp_path)) == golden[row_id]


def _at(doc, dotted: str):
    for part in dotted.split("."):
        doc = doc[part]
    return doc


#: preset -> the ``repro <command> --json`` document its report value is,
#: at the preset's seed (1234) and steps (2); the longctx preset's report
#: holds one run per layout.
DOORS = {
    "chaos": lambda: _run_json(["chaos", "--seed", "1234", "--steps", "2",
                                "--json"]),
    "serve": lambda: _run_json(["serve", "--seed", "1234", "--json"]),
    "chaos_serve": lambda: _run_json(["fleet", "--seed", "1234", "--json"]),
    "fleet_obs": lambda: _run_json(["monitor", "--seed", "1234", "--json"]),
    "memprof": lambda: _run_json([
        "memprofile", "--config", "small", "--tp", "2",
        "--sequence-parallel", "--seed", "1234", "--output-dir", "out",
        "--json"]),
    "longctx": lambda: {layout: _run_json(["longctx", "--layout", layout,
                                           "--seed", "1234", "--json"])
                        for layout in ("ulysses", "ring")},
}


class TestOneScenarioTwoDoors:
    @pytest.mark.parametrize("preset", DOORS)
    def test_every_picked_bench_key_is_the_command_json(
            self, preset, tmp_path, monkeypatch):
        """Every key a preset reads off its report value holds, in the
        BENCH document, exactly what the same path holds in the
        matching command's ``--json`` document."""
        from repro.observability.regress import PRESETS
        monkeypatch.chdir(tmp_path)
        door, bench = DOORS[preset](), preset_doc(preset)
        checked = 0
        for section, keys in PRESETS[preset].picks.items():
            for key in keys.split():
                path, _, name = key.partition(":")
                value = _at(door, path.lstrip("#"))
                name = name or path.lstrip("#").split(".")[-1]
                assert _at(bench, f"{section}.{name}") == (
                    len(value) if path.startswith("#") else value), key
                checked += 1
        assert checked >= 4


#: vocab 32: every token id and target must be an integer in [0, 32).
TOKENS_CFG = ModelConfig(num_layers=2, hidden_size=16, num_heads=2, seq_length=8,
                         vocab_size=32)


class TestInvalidConfigurations:
    """A ``ReproError`` is a usage error: one ``repro: error:`` line on
    stderr and exit code 2, never a traceback."""

    @pytest.mark.parametrize("argv,needle", [
        (["longctx", "--seq-length", "15"], "divisible"),
        (["serve", "--tp", "3"], "divisible"),
        (["memprofile", "--config", "tiny", "--tp", "3",
          "--output-dir", "out"], "divisible"),
        (["compile", "--steps", "0"], "steps must be >= 1"),
        (["chaos", "--steps", "0"], "steps must be >= 1, got 0"),
        (["chaos", "--steps", "-1"], "steps must be >= 1, got -1"),
        (["trace", "--steps", "0"], "steps must be >= 1, got 0"),
        (["trace", "--steps", "-1"], "steps must be >= 1, got -1"),
        (["compile", "--batch", "0"], "batch must be >= 1"),
        (["compile", "--microbatches", "0"], "microbatches must be >= 1"),
        (["fleet", "--replicas", "2"], "at least 3 replicas"),
        (["monitor", "--replicas", "2"], "at least 3 replicas"),
        (["table", "6", "--context-parallel", "0"],
         "context_parallel must be >= 1"),
        (["monitor", "--flight-capacity", "0"], "capacity must be >= 1"),
        (["analyze", "missing.json"], "No such file"),
        (["report", "--output", "no-such-dir/x.md"], "No such file"),
        (["compile", "--tp", "0"], "tp must be >= 1"),
        (["memprofile", "--microbatch", "0", "--output-dir", "out"],
         "microbatch_size must be >= 1"),
        (["plan", "--memory-gb", "0"], "device_memory_bytes must exceed"),
        (["plan", "--memory-gb", "-5"], "device_memory_bytes must exceed"),
        (["plan", "--memory-gb", "nan"], "device_memory_bytes must exceed"),
        (["fleet", "--fault-rate", "-1"], "fault_rate must be in [0, 1]"),
        (["fleet", "--slo-ttft-s", "-1"], "slo_ttft_s must be a finite"),
        (["fleet", "--slo-ttft-s", "0"], "slo_ttft_s must be a finite"),
        (["monitor", "--slo-tpot-s", "-1"], "slo_tpot_s must be a finite"),
        (["monitor", "--slo-ttft-s", "nan"], "slo_ttft_s must be a finite"),
        *(([command, "--seed", "-1"], "seed must be >= 0, got -1")
          for command in ("chaos", "trace", "serve", "fleet", "monitor",
                          "memprofile", "compile", "longctx", "bench")),
        (["sweep", "fit", "--memory-gb", "0"], "must be > 0, got 0 GiB"),
        (["sweep", "fit", "--memory-gb", "-3"], "must be > 0, got -3 GiB"),
        (["sweep", "fit", "--memory-gb", "nan"], "must be > 0, got nan GiB"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
    def test_error_is_reported_not_raised(self, argv, needle, capsys,
                                          tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert needle in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content,needle", [
        ("not json {", "Expecting value"),
        ("[]", "'traceEvents' list"),
        ('{"traceEvents": 5}', "'traceEvents' list"),
        ('{"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "dur": 1}]}',
         "missing 'ts'"),
    ], ids=["not-json", "json-list", "events-not-a-list", "span-without-ts"])
    def test_analyze_rejects_a_file_that_is_not_a_trace(
            self, content, needle, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(content)
        assert main(["analyze", "bad.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "repro: error: bad.json is not a Chrome trace: ")
        assert needle in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content,needle", [
        ("{oops", "Expecting property name"),
        ("[]", "expected an object, got list"),
    ], ids=["not-json", "json-list"])
    def test_bench_check_rejects_a_baseline_that_is_not_a_bench_document(
            self, content, needle, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "BENCH_chaos.json").write_text(content)
        assert main(["bench", "--preset", "chaos", "--baseline-dir", "base",
                     "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "repro: error: base/BENCH_chaos.json is not a BENCH document: ")
        assert needle in captured.err

    @pytest.mark.parametrize("output_dir,baseline_dir", [
        ("same", "same"), ("./same", "same/")])
    def test_bench_check_refuses_to_gate_baselines_against_themselves(
            self, output_dir, baseline_dir, capsys, tmp_path, monkeypatch):
        """The fresh documents would overwrite the baselines and then pass
        against themselves: a regressed baseline must not be gated OK."""
        (tmp_path / "same").mkdir()
        with open(os.path.join(REPO_ROOT, "benchmarks", "baselines",
                               "BENCH_chaos.json")) as fh:
            doc = json.load(fh)
        doc["resilience"]["goodput"] = 0.01
        baseline = tmp_path / "same" / "BENCH_chaos.json"
        baseline.write_text(json.dumps(doc))
        before = baseline.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--preset", "chaos", "--output-dir", output_dir,
                     "--baseline-dir", baseline_dir, "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "repro: error: --check needs an --output-dir other than")
        assert baseline.read_bytes() == before

    @pytest.mark.parametrize("door", ["Trainer", "PipelinedGPT"])
    @pytest.mark.parametrize("field,value", [
        ("ids", -1), ("targets", -1), ("ids", 32), ("ids", 7.9),
    ], ids=["negative id", "negative target", "id == vocab", "non-integral id"])
    def test_token_ids_are_integers_below_the_vocabulary(self, door, field, value):
        from repro.layers import GPTModel
        from repro.training import PipelinedGPT, Trainer
        model = GPTModel(TOKENS_CFG, seed=0)
        batch = {"ids": np.ones((8, 2)), "targets": np.ones((8, 2))}
        batch[field][3, 1] = value
        step = (Trainer(model).train_step if door == "Trainer"
                else lambda ids, tgt: PipelinedGPT(model, 2).train_step(ids, tgt, 2))
        with pytest.raises(ConfigError, match=r"integers in \[0, 32\)"):
            step(batch["ids"], batch["targets"])

    def test_a_bad_prompt_token_leaves_the_kv_cache_untouched(self):
        from repro.layers import GPTModel
        from repro.serving import DecodeEngine, PagedKVCache
        cache = PagedKVCache(TOKENS_CFG, block_size=2, num_blocks=8)
        engine = DecodeEngine(GPTModel(TOKENS_CFG, seed=0), cache)
        with pytest.raises(ConfigError, match=r"integers in \[0, 32\)"):
            engine.prefill("r", [1, 2, 3, 99])
        assert (cache.free_blocks, cache.requests()) == (8, [])
        assert engine.prefill("r", [1, 2, 3]).shape == (32,)

    def test_an_over_long_prompt_leaves_the_kv_cache_untouched(self):
        from repro.layers import GPTModel
        from repro.serving import (ContinuousBatchingScheduler, DecodeEngine,
                                   PagedKVCache, RequestSpec, ServingPerfModel)
        cfg = ModelConfig(num_layers=2, hidden_size=16, num_heads=2,
                          seq_length=4, vocab_size=32)
        cache = PagedKVCache(cfg, block_size=2, num_blocks=8)
        engine = DecodeEngine(GPTModel(cfg, seed=0), cache)
        for _ in range(2):  # a retry meets the same clean rejection
            with pytest.raises(ConfigError, match="5 prompt token.*at most 4"):
                engine.prefill("r", [1, 2, 3, 4, 5])
            assert (cache.free_blocks, cache.requests()) == (8, [])
        scheduler = ContinuousBatchingScheduler(engine, ServingPerfModel(cfg))
        with pytest.raises(ConfigError, match="5 prompt token.*at most 4"):
            scheduler.run([RequestSpec(index=0, request_id="s", arrival_s=0.0,
                                       prompt=np.arange(5), max_new_tokens=1)])
        assert (cache.free_blocks, cache.requests()) == (8, [])
        assert engine.prefill("r", [1, 2, 3, 4]).shape == (32,)

    @pytest.mark.parametrize("saved,loader", [
        ("weights", "load_weights"),
        ("training_state", "load_training_state"),
        ("weights", "load_training_state"),
    ], ids=["weights of a shorter model", "state of a shorter model",
            "weights-only archive as a training state"])
    def test_a_checkpoint_that_does_not_fit_changes_nothing(
            self, saved, loader, tmp_path):
        """Names and shapes are checked before any entry is written: a
        mismatched archive neither half-applies nor broadcasts."""
        from repro.layers import GPTModel
        from repro.training import Adam, Trainer, serialization
        shape = dict(num_layers=1, hidden_size=8, num_heads=2, vocab_size=8)
        source = GPTModel(ModelConfig(seq_length=1, **shape), seed=1)
        path = str(tmp_path / "ckpt.npz")
        if saved == "weights":
            serialization.save_weights(source, path)
        else:
            serialization.save_training_state(
                source, Adam(source.parameters()), path)
        model = GPTModel(ModelConfig(seq_length=4, **shape), seed=2)
        trainer = Trainer(model)
        trainer.train_step(np.ones((4, 2), dtype=np.int64),
                           np.ones((4, 2), dtype=np.int64))
        optimizer = trainer.optimizer

        def state():
            arrays = [s for p in model.parameters() for s in p.shards]
            for moments in (optimizer._m, optimizer._v):
                arrays += [m for key in sorted(moments) for m in moments[key]]
            return [np.array(a) for a in arrays], optimizer.step_count

        (before, step), num_moments = state(), len(optimizer._m)
        with pytest.raises(ConfigError, match="mismatch"):
            if loader == "load_weights":
                serialization.load_weights(model, path)
            else:
                serialization.load_training_state(model, optimizer, path)
        after, step_after = state()
        assert step_after == step and len(optimizer._m) == num_moments > 0
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_fixed_chaos_plan_names_its_replica_minimum(self):
        with pytest.raises(ConfigError, match="at least 3 replicas"):
            scenarios.fleet_fault_plan(0, 1.0, replicas=2)
        # random and clean plans run on any fleet size
        assert len(scenarios.fleet_fault_plan(0, 0.0, replicas=1)) == 0
        scenarios.fleet_fault_plan(0, 0.5, replicas=2)

    def test_two_replicas_run_under_a_random_plan(self, capsys):
        assert main(["fleet", "--replicas", "2", "--fault-rate", "0.3",
                     "--requests", "6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 6


class TestBenchCommand:
    def test_repeated_preset_runs_once_in_order(self, tmp_path, capsys):
        assert main(["bench", "--preset", "tiny", "--preset", "chaos",
                     "--preset", "tiny", "--output-dir", str(tmp_path)]) == 0
        written = [line.split()[1] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith("wrote ")]
        assert [os.path.basename(path) for path in written] == \
            ["BENCH_tiny.json", "BENCH_chaos.json"]

    def test_every_preset_is_one_registry_entry(self):
        from repro.observability import regress
        assert regress.PRESET_NAMES == tuple(regress.PRESETS)
        for row in regress.PRESETS.values():
            assert callable(row.run) and callable(row.headline)
        with pytest.raises(ValueError, match="unknown preset"):
            regress.run_preset("nope")


@pytest.mark.parametrize("command,scenario,skip", [
    ("chaos", scenarios.dp_chaos_segment, ()),
    ("trace", scenarios.pipelined_training, ()),
    ("serve", scenarios.serving_scheduler, ()),
    ("fleet", scenarios.chaos_fleet, ()),
    # monitor's --slo-ttft-s is the burn-rate budget, not the shed SLO
    ("monitor", scenarios.chaos_fleet, ("slo_ttft_s",)),
    ("monitor", scenarios.monitored_fleet, ()),
    ("memprofile", scenarios.profiled_layer, ()),
    ("compile", scenarios.compiled_eager_twins, ()),
    ("longctx", scenarios.context_parallel_step, ()),
])
def test_argparse_defaults_are_the_scenario_defaults(command, scenario, skip):
    """Two doors, one constant: a sub-command's defaults are read off
    its scenario's signature, so the command at its defaults is the
    bench preset's run."""
    from repro.cli import build_parser
    args = vars(build_parser().parse_args([command]))
    checked = 0
    for name, default in scenarios.defaults(scenario).items():
        flag = "seed" if name == "seed_value" else name
        if flag in args and name not in skip:
            assert args[flag] == getattr(default, "value", default), name
            checked += 1
    assert checked >= 3


def test_observability_import_stays_light():
    """``bench/`` workers import ``repro.observability.analysis``; the
    scenario module it now reaches must keep its subsystem imports
    lazy."""
    code = ("import sys, repro.observability, repro.scenarios; "
            "heavy = [m for m in ('repro.fleet', 'repro.serving', "
            "'repro.longctx', 'repro.compiler', 'repro.resilience') "
            "if m in sys.modules]; print(heavy)")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


if __name__ == "__main__":  # pragma: no cover - golden capture
    captured = {}
    for row_id, argv, artifacts in ARGV_ROWS:
        with tempfile.TemporaryDirectory() as workdir:
            captured[row_id] = _digests(argv, artifacts, workdir)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    _dump(captured, GOLDEN_PATH, sort_keys=True)
    _dump(parser_spec(), PARSER_GOLDEN_PATH)
    print(f"wrote {GOLDEN_PATH} and {PARSER_GOLDEN_PATH}")
