"""The benchmark's yardstick: a frozen reference kernel.

Wall-clock on a shared box drifts by +-10 %, for NumPy-bound and for
pure-Python-bound code alike.  Every timed unit of work is therefore
followed by a few runs of this kernel, and unit times are reported in
"refs": ``unit wall / median ref wall`` of the same worker process.  The
kernel has a NumPy part (two GEMMs and an elementwise chain, float64)
and a pure-Python part (a dict/tuple loop); a NumPy-only yardstick made
the pure-Python workload *less* steady, hence the mix.

This file depends on NumPy and the standard library only and never
imports ``repro``: no change to the system under test can speed up the
yardstick.  ``ref()`` returns a checksum that :func:`self_test` compares
with the frozen value, so an edit that changes the work is caught.
"""

from __future__ import annotations

import numpy as np

#: Loop count of the pure-Python part.
PY_ITERATIONS = 6000

#: The pure-Python part of ``ref()`` must return exactly this.
EXPECTED_PY = 18010568


def _operands():
    rng = np.random.default_rng(0)
    return rng.standard_normal((256, 128)), rng.standard_normal((128, 512))


_A, _B = _operands()


def ref():
    """Run the reference kernel once; returns ``(numpy_sum, python_sum)``."""
    c = _A @ _B
    d = np.tanh(c) * c + c * c * c
    numpy_sum = float((d @ _B.T).sum())
    table = {}
    total = 0
    for i in range(PY_ITERATIONS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(key) + (table[key] & 1)
    return numpy_sum, total + sum(table.values())


def self_test() -> float:
    """Check the kernel still does the frozen work; returns the NumPy
    checksum (recorded in the benchmark's ``env`` for cross-machine
    comparison).  The Python part is exact; the NumPy part is compared
    to a float64 re-evaluation with einsum, which shares no BLAS call
    with :func:`ref`, to 1e-9 relative."""
    numpy_sum, py_sum = ref()
    if py_sum != EXPECTED_PY:
        raise AssertionError(
            f"refkernel python part changed: {py_sum} != {EXPECTED_PY}")
    c = np.einsum("ik,kj->ij", _A, _B)
    d = np.tanh(c) * c + c ** 3
    oracle = float(np.einsum("ij,kj->ik", d, _B).sum())
    if abs(numpy_sum - oracle) > 1e-9 * abs(oracle):
        raise AssertionError(
            f"refkernel numpy part changed: {numpy_sum!r} vs {oracle!r}")
    return numpy_sum


if __name__ == "__main__":
    print(f"refkernel ok, numpy checksum {self_test()!r}")
