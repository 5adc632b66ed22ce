"""One canonical JSON path for every machine-readable artifact.

Everything the repo emits as JSON — ``--json`` CLI output, the metrics
snapshot, the resilience report, the merged Perfetto trace — funnels
through :func:`to_jsonable` + :func:`dumps_json` so that (a) numpy
scalars, enums and dataclasses never leak into ``json.dump`` and (b) the
bytes are **deterministic**: keys are sorted, separators are fixed, and
floats round-trip via ``repr``.  Two runs at the same seed therefore
produce byte-identical artifacts, which is the contract the trace tests
assert.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

import numpy as np


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into plain JSON types.

    Handles dataclasses, enums, numpy scalars/arrays, mappings and
    sequences; anything already JSON-native passes through unchanged.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(x) for x in items]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj: Any, indent: int = 2) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(to_jsonable(obj), indent=indent, sort_keys=True) + "\n"


def dump_json(obj: Any, path: str) -> None:
    """Write :func:`dumps_json` output to ``path``."""
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))
