"""Tape-level fusion pass over :class:`OpRecord` streams.

``fuse_records`` rewrites an *unfused* op log into the log a fused run
would have produced: adjacent record patterns corresponding to the five
fused kernels of :mod:`repro.fusion.ops` are collapsed into single
``fused=True`` elementwise records with the same byte/FLOP formulas the
fused ops log.  ``tests/test_fusion.py`` asserts exact
:class:`OpRecord`-equality between ``fuse_records(unfused_run)`` and a
real fused run, which pins the two representations together.

Patterns only match **adjacent** records within one phase, which is
exactly how the fused execution behaves (nothing logs between the
constituents of a fusable chain); collectives — e.g. the vocab-parallel
loss's all-reduces right after its ``cast`` — break adjacency and
correctly leave those chains unfused.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from ..tensor.oplog import OpKind, OpRecord, Phase

# A pattern is a tuple of (name, kind) pairs plus a builder mapping the
# matched records to the fused replacement.  ``n`` (elements per rank) is
# recovered from the constituent byte formulas in
# ``repro.tensor.functions``; the emitted records mirror the formulas in
# ``repro.fusion.ops`` exactly.


def _ew(name: str, phase: Phase, nbytes: float, flops: float) -> OpRecord:
    return OpRecord(name=name, kind=OpKind.ELEMENTWISE, phase=phase,
                    flops=flops, bytes_moved=nbytes, fused=True)


def _bias_gelu(m: Sequence[OpRecord]) -> OpRecord:
    add, gelu = m
    n = gelu.bytes_moved / 4.0
    nb = (add.bytes_moved - 4.0 * n) / 2.0
    return _ew("bias_gelu", add.phase, 6 * n + 2 * nb, 9 * n)


def _bias_gelu_bwd(m: Sequence[OpRecord]) -> OpRecord:
    n = m[0].bytes_moved / 6.0
    return _ew("bias_gelu.bwd", m[0].phase, 6 * n, 17 * n)


def _smsd(m: Sequence[OpRecord]) -> OpRecord:
    n = m[1].bytes_moved / 4.0   # softmax: 4n
    return _ew("scale_mask_softmax_dropout", m[0].phase, 7 * n, 8 * n)


def _smsd_nodrop(m: Sequence[OpRecord]) -> OpRecord:
    n = m[1].bytes_moved / 4.0
    return _ew("scale_mask_softmax_dropout", m[0].phase, 4 * n, 6 * n)


def _smsd_bwd(m: Sequence[OpRecord]) -> OpRecord:
    n = m[1].bytes_moved / 6.0   # softmax.bwd: 6n
    return _ew("scale_mask_softmax_dropout.bwd", m[0].phase, 7 * n, 8 * n)


def _smsd_nodrop_bwd(m: Sequence[OpRecord]) -> OpRecord:
    n = m[0].bytes_moved / 6.0
    return _ew("scale_mask_softmax_dropout.bwd", m[0].phase, 6 * n, 6 * n)


def _dropout_add(m: Sequence[OpRecord]) -> OpRecord:
    n = m[0].bytes_moved / 5.0   # dropout: 5n
    return _ew("dropout_add", m[0].phase, 7 * n, 3 * n)


def _dropout_add_bwd(m: Sequence[OpRecord]) -> OpRecord:
    n = m[1].bytes_moved / 5.0   # dropout.bwd: 5n
    return _ew("dropout_add.bwd", m[0].phase, 5 * n, 2 * n)


def _layernorm(m: Sequence[OpRecord]) -> OpRecord:
    r = m[0]
    return _ew("fused_layernorm", r.phase, r.bytes_moved, r.flops)


def _layernorm_bwd(m: Sequence[OpRecord]) -> OpRecord:
    n = m[0].bytes_moved / 8.0   # layernorm.bwd: 8n
    return _ew("fused_layernorm.bwd", m[0].phase, 6 * n, 12 * n)


def _softmax_xent(m: Sequence[OpRecord]) -> OpRecord:
    n = m[0].bytes_moved / 6.0   # cast: (2+4)n
    return _ew("softmax_xent", m[0].phase, 4 * n, 5 * n)


_EW = OpKind.ELEMENTWISE
_GEMM = OpKind.GEMM

#: Tried in order at each scan position; longer / more specific first.
PATTERNS: List[Tuple[Tuple[Tuple[str, OpKind], ...],
                     Callable[[Sequence[OpRecord]], OpRecord]]] = [
    # forward (also matches checkpoint recompute replays, same names)
    ((("cast", _EW), ("cross_entropy", _GEMM), ("cross_entropy", _EW)),
     _softmax_xent),
    ((("causal_mask", _EW), ("softmax", _EW), ("dropout", _EW)), _smsd),
    ((("causal_mask", _EW), ("softmax", _EW)), _smsd_nodrop),
    ((("add", _EW), ("gelu", _EW)), _bias_gelu),
    ((("dropout", _EW), ("add", _EW)), _dropout_add),
    ((("layernorm", _EW),), _layernorm),
    # backward (tape order reverses the forward chains)
    ((("gelu.bwd", _EW), ("add.bwd", _EW)), _bias_gelu_bwd),
    ((("dropout.bwd", _EW), ("softmax.bwd", _EW)), _smsd_bwd),
    ((("softmax.bwd", _EW),), _smsd_nodrop_bwd),
    ((("add.bwd", _EW), ("dropout.bwd", _EW)), _dropout_add_bwd),
    ((("layernorm.bwd", _EW),), _layernorm_bwd),
]


def _matches(records: Sequence[OpRecord], start: int,
             pattern: Tuple[Tuple[str, OpKind], ...]) -> bool:
    if start + len(pattern) > len(records):
        return False
    phase = records[start].phase
    for offset, (name, kind) in enumerate(pattern):
        r = records[start + offset]
        if r.name != name or r.kind != kind or r.phase != phase:
            return False
    return True


def fuse_records(records: Sequence[OpRecord]) -> List[OpRecord]:
    """Collapse fusable adjacent chains; all other records pass through."""
    out: List[OpRecord] = []
    i = 0
    n = len(records)
    while i < n:
        replaced = False
        for pattern, build in PATTERNS:
            if _matches(records, i, pattern):
                out.append(build(records[i:i + len(pattern)]))
                i += len(pattern)
                replaced = True
                break
        if not replaced:
            out.append(records[i])
            i += 1
    return out


def fusion_report(records: Sequence[OpRecord]) -> dict:
    """Before/after kernel and traffic summary of applying the pass."""
    fused = fuse_records(records)
    def _compute(rs):
        return [r for r in rs if r.kind in (_EW, _GEMM)]
    before, after = _compute(records), _compute(fused)
    return {
        "kernels_before": len(before),
        "kernels_after": len(after),
        "kernels_eliminated": len(before) - len(after),
        "fused_kernels": sum(1 for r in after if r.fused),
        "bytes_before": sum(r.bytes_moved for r in before),
        "bytes_after": sum(r.bytes_moved for r in after),
    }
