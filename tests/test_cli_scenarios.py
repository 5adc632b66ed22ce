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
command at its defaults and the ``repro bench`` preset of the same name
are the same run, so their numbers agree exactly.
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

import pytest

from helpers import preset_doc
from repro import scenarios
from repro.cli import main
from repro.errors import ConfigError

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
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


class TestOneScenarioTwoDoors:
    def test_fleet_command_is_the_chaos_serve_preset(self):
        report = _run_json(["fleet", "--json"])
        gated = preset_doc("chaos_serve")["fleet"]
        for key in ("useful_s", "wasted_s", "tokens_generated"):
            assert report[key] == gated[key], key

    def test_serve_command_is_the_serve_preset(self):
        report = _run_json(["serve", "--json"])
        gated = preset_doc("serve")["serving"]
        for key in ("tokens_per_s", "preemptions"):
            assert report[key] == gated[key], key

    def test_longctx_command_is_the_longctx_preset(self):
        gated = preset_doc("longctx")["longctx"]
        for layout in ("ulysses", "ring"):
            doc = _run_json(["longctx", "--layout", layout, "--seed", "1234",
                             "--json"])
            assert doc["loss"] == gated[layout]["loss"]
            assert doc["traced_comm_bytes"] == \
                gated[layout]["traced_comm_bytes"]


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
        for runner, summary in regress.PRESETS.values():
            assert callable(runner) and callable(summary)
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
