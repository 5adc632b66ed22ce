"""Append-only wall-clock history, one row per PR (ROADMAP item 1).

    python3 benchmarks/wall_history.py append bench/out/results.json LABEL [PYTEST_LOG]
    python3 benchmarks/wall_history.py show [unit_ref_p50|setup_s|work_per_kref|peak_rss_mb]

``append`` runs from the root of the tree that produced the results file
(a full ``python3 bench/run.py``): commit, working-tree hash and
``make loc`` counts are read there, tier-1 from ``PYTEST_LOG`` — one
pytest summary line per run, the fastest kept (the suite's time on a
shared box is its floor, not its mean).  A summary that reports a
failure or an error is refused: it times a suite cut short.  Rows are
never rewritten; a re-measurement is a new row.
"""

import json
import os
import re
import sys
import tempfile
from subprocess import check_call, check_output

HISTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "wall_history.jsonl")


def tree_hash() -> str:
    """Git tree hash of the working tree as it stands — what was measured,
    where ``commit`` can only say ``<parent>-dirty`` before the commit
    exists.  Staged into a throwaway index; the real one is untouched."""
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        check_call(["git", "add", "-A"], env=env)
        return check_output(["git", "write-tree"], env=env, text=True).strip()


def append(results_path: str, label: str, pytest_log: str = None) -> None:
    with open(results_path) as handle:
        results = json.load(handle)
    commit = check_output(["git", "describe", "--always", "--dirty"], text=True)
    loc = check_output(["make", "-s", "loc"], text=True)
    row = {"label": label, "commit": commit.strip(), "tree": tree_hash(),
           "seed": results["seed"],
           "loc": {name.strip(): int(count) for name, count in (
               line.rsplit(None, 1) for line in loc.splitlines())},
           "tier1": None,
           "workloads": {name: dict(
               {metric: [value["value"], value["spread"]]
                for metric, value in entry["end_to_end"].items()},
               py_calls_per_unit=entry["per_layer"][
                   "harness.py_calls_per_unit"]["value"])
               for name, entry in results["workloads"].items()}}
    if pytest_log:
        with open(pytest_log) as handle:
            summaries = handle.read()
        # "1 failed, 612 passed" is a suite cut short, not a tier-1 time
        broken = re.search(r"\d+ (failed|errors?)\b", summaries)
        if broken:
            raise SystemExit(f"{pytest_log}: tier-1 reports {broken.group(0)}; "
                             "no row appended")
        runs = re.findall(r"(\d+) passed.* in ([\d.]+)s", summaries)
        seconds = [float(s) for _, s in runs]
        row["tier1"] = {"tests": int(runs[-1][0]), "seconds": min(seconds),
                        "readings": seconds}
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def show(metric: str = "unit_ref_p50") -> None:
    print(f"{metric}: median +-spread per workload | src/ lines | tier-1")
    with open(HISTORY) as handle:
        for row in map(json.loads, handle):
            tier1 = row["tier1"] or {"tests": "-", "seconds": "-"}
            tree = " tree " + row["tree"][:12] if "tree" in row else ""
            print(f"{row['label']} ({row['commit']}{tree}) | "
                  f"{row['loc']['src/ python lines']} | "
                  f"{tier1['seconds']} s, {tier1['tests']} tests")
            for name, entry in row["workloads"].items():
                print("  {:<26}{:>12.4g} +-{:.2f}".format(name, *entry[metric]))


if __name__ == "__main__":
    {"append": append, "show": show}[sys.argv[1]](*sys.argv[2:])
