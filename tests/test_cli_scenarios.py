"""The concrete-run CLI commands, pinned byte for byte.

Every row of ``ARGV_ROWS`` is one ``repro <command>`` invocation whose
stdout and written artifacts ride the simulated clock and seeded RNG
streams, so they are byte-identical run to run.  Their SHA-256 digests
are committed in ``tests/golden/cli_sha256.json``; a refactor of the
scenario set-up code (``repro.scenarios``) must leave all of them
unchanged.  ``python tests/test_cli_scenarios.py`` rewrites the goldens
after an *intentional* output change.

The "two doors" tests state the other half of the contract: a CLI
command at its defaults and the ``repro bench`` preset of the same name
are the same run, so their numbers agree exactly.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from helpers import preset_doc
from repro.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "cli_sha256.json")

TRACE_ARTIFACTS = ("out/trace.json", "out/metrics.prom", "out/metrics.json")
MEMPROF_ARTIFACTS = ("out/memprof-ledger.json", "out/memprof-flamegraph.json",
                     "out/memprof-trace.json")

#: (id, argv, artifacts written relative to the working directory)
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
    ("trace-tiny", ["trace", "--config", "tiny", "--output-dir", "out"],
     TRACE_ARTIFACTS),
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
            assert main(list(argv)) == 0
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


if __name__ == "__main__":  # pragma: no cover - golden capture
    captured = {}
    for row_id, argv, artifacts in ARGV_ROWS:
        with tempfile.TemporaryDirectory() as workdir:
            captured[row_id] = _digests(argv, artifacts, workdir)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(captured, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
