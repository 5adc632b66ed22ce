"""Activation ledger: a per-tensor memory-timeline profiler.

:class:`~repro.tensor.memory_tracker.MemoryTracker` answers "how many
bytes are live / what was the peak"; this module upgrades every one of
its save/release events into a ledger record that also knows *which
tensor* the bytes belong to: the module path that saved it (threaded
through :meth:`Module.__call__ <repro.layers.module.Module>`), the op
that produced it, its paper Eq-term category, shape and dtype, its
birth/death timestamps on the tracer clock, and its full refcount
history (the Q/K/V projections saving one shared input show up as one
entry with three referencing paths — the paper's "store their shared
input" dedup, now attributable).

Three analyses sit on top of the ledger:

* **Exact peak attribution** — :func:`peak_attribution` reconstructs the
  set of tensors live at the instant the tracker's peak was set and
  decomposes the peak by module path and by category.  The decomposition
  is *bitwise*: the entry bytes sum exactly to
  ``MemoryTracker.peak_bytes(rank)`` and the category split reconciles
  term-by-term with :func:`repro.memory_model.per_layer_term_groups`
  (:func:`check_peak_attribution` gates zero drift).

* **Save-vs-recompute pricing** — :func:`frontier` prices every ledger
  entry with the :class:`~repro.perf_model.gpu.KernelCostModel`
  roofline: the recompute cost of a saved tensor is the cost of the op
  chain that rebuilds it from its nearest *saved* ancestors.  The
  resulting frontier (bytes held x lifetime vs recompute seconds) is the
  paper's Section 5 argument made mechanical: the attention softmax and
  dropout tensors are the best bytes-per-recompute-second candidates.

* **Allocator lifetime/fragmentation** — :func:`arena_recycling_report`
  and :func:`paged_kv_fragmentation` apply the same timeline lens to the
  fusion :class:`~repro.fusion.arena.BufferArena` and the paged-KV
  :class:`~repro.allocator.FirstFitAllocator`.

The profiler is installed like the tracer (:func:`install_memprof` /
:func:`memprof_scope`); when it is not installed every hook site in the
tensor core is a single ``is None`` check (the <5% overhead bound is
gated in ``benchmarks/test_disabled_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigError
from ..layers.transformer import Recompute
from ..tensor.backend import shape_of
from ..tensor.context import ctx
from ..tensor.dtypes import DType
from ..tensor.memory_tracker import MemoryTracker
from .tracer import trace_scope

LEDGER_SCHEMA_VERSION = 1

#: Categories whose recompute chain is anchored on a GEMM on every seed
#: configuration (rebuilding them replays a matmul, so they price as
#: compute-bound).  The frontier gate asserts the attention softmax /
#: dropout tensors beat every one of these on bytes-per-recompute-second.
GEMM_ANCHORED_CATEGORIES = (
    "attn_qk", "attn_proj_input", "gelu_input", "layernorm_input",
    "checkpoint_input",
)

#: The paper's Section 5 selective-recompute candidates: the O(a s^2)
#: attention-core tensors that are huge but rebuilt by cheap
#: bandwidth-bound kernels.
SELECTIVE_CANDIDATE_CATEGORIES = ("softmax_output", "dropout_mask")

#: Everything the attention core holds at peak (the candidates plus the
#: dropped-probabilities operand of the context GEMM) — the O(a s^2)
#: byte mass that selective recompute eliminates.
ATTENTION_CORE_CATEGORIES = ("softmax_output", "dropout_mask",
                             "attn_context")


# ---------------------------------------------------------------------------
# profiler: module paths, op frames, producer graph
# ---------------------------------------------------------------------------

@dataclass
class _OpFrame:
    """One live ``Function.forward`` invocation."""

    name: str
    #: ids of the input tensor shards (leaf detection for pricing).
    input_ids: frozenset
    #: op records logged while this frame was on top of the stack.
    records: List = field(default_factory=list)


@dataclass
class _Producer:
    """How an output shard was made: the op, the op records logged during
    its forward, and the ids of the same-rank input shards."""

    op: str
    records: List
    input_ids: Tuple[int, ...]


class MemProfiler:
    """Threads module paths and producer provenance through the tensor
    core's hook sites and prices ledger entries on a kernel cost model.

    One profiler can feed several :class:`MemoryLedger` instances (e.g.
    one per configuration in a sweep); :meth:`ledger` creates and
    registers one.
    """

    def __init__(self) -> None:
        from ..perf_model.gpu import KernelCostModel

        self.cost_model = KernelCostModel()
        #: (label, absolute path, was tag/name-rooted) per live module.
        self._module_stack: List[Tuple[str, str, bool]] = []
        self._op_stack: List[_OpFrame] = []
        #: id(output shard) -> :class:`_Producer`.
        self.producers: Dict[int, _Producer] = {}
        #: Every shard whose ``id`` is a provenance key.  Ids are unique
        #: only among live objects — a freed intermediate's id is reissued
        #: to a later shard, aliasing two nodes of the producer graph — so
        #: keyed shards stay pinned until :meth:`reset`.
        self._pinned: Dict[int, object] = {}
        self.ledgers: List["MemoryLedger"] = []
        self._price_memo: Dict[Tuple[int, int], Optional[float]] = {}

    # -- module paths ------------------------------------------------------
    def push_module(self, module) -> None:
        label = getattr(module, "tag", None)
        if not isinstance(label, str) or not label:
            label = getattr(module, "name", None)
        rooted = isinstance(label, str) and bool(label)
        if not rooted:
            label = type(module).__name__
        if not self._module_stack:
            path = label
        elif rooted:
            # tags/names are model-rooted dotted paths ("layer0.attn.wq");
            # hang them off the outermost module unless that module was
            # itself tag-labelled (then the namespace is already shared).
            root_label, _, root_rooted = self._module_stack[0]
            path = label if root_rooted else f"{root_label}.{label}"
        else:
            path = f"{self._module_stack[-1][1]}.{label}"
        self._module_stack.append((label, path, rooted))

    def pop_module(self) -> None:
        self._module_stack.pop()

    def current_path(self) -> str:
        return self._module_stack[-1][1] if self._module_stack else ""

    def key(self, shard) -> int:
        """``id(shard)``, made unrecyclable by pinning the shard."""
        self._pinned[id(shard)] = shard
        return id(shard)

    # -- op frames (called from tensor.apply) ------------------------------
    def begin_op(self, name: str, tensor_inputs: Sequence) -> _OpFrame:
        input_ids = frozenset(
            self.key(s) for t in tensor_inputs if t is not None
            for s in t.shards)
        frame = _OpFrame(name=name, input_ids=input_ids)
        self._op_stack.append(frame)
        return frame

    def end_op(self) -> None:
        self._op_stack.pop()

    def current_frame(self) -> Optional[_OpFrame]:
        return self._op_stack[-1] if self._op_stack else None

    def on_op_record(self, record) -> None:
        """Hook from the oplog seams: attribute the kernel to the
        innermost live op frame (pricing input)."""
        if self._op_stack:
            self._op_stack[-1].records.append(record)

    def register_outputs(self, frame: _OpFrame, tensor_inputs, outputs) -> None:
        """Record provenance for every output shard of a completed op."""
        inputs = [t for t in tensor_inputs if t is not None]
        for out in outputs:
            for r, shard in enumerate(out.shards):
                if id(shard) in frame.input_ids:
                    # Identity pass-through (e.g. the f/f-bar collectives
                    # at t=1 return their input shards unchanged): keep
                    # the original creator so recompute chains don't lose
                    # the producing kernel.
                    continue
                self.producers[self.key(shard)] = _Producer(
                    op=frame.name, records=frame.records,
                    input_ids=tuple(
                        id(t.shards[r if r < t.world else 0]) for t in inputs),
                )

    # -- ledgers -----------------------------------------------------------
    def ledger(self) -> "MemoryLedger":
        led = MemoryLedger(profiler=self)
        self.ledgers.append(led)
        return led

    # -- pricing -----------------------------------------------------------
    def recompute_records(self, ledger: "MemoryLedger",
                          entry: "LedgerEntry") -> Optional[List]:
        """The op records that would have to be replayed to rebuild
        ``entry`` from its nearest saved ancestors; ``None`` when the
        tensor cannot be recomputed (an external input — must keep)."""
        saved: Set[int] = {
            e.buffer_id for e in ledger.entries
            if e.rank == entry.rank and e is not entry}
        producer = self.producers.get(entry.buffer_id)
        if producer is None:
            # Not an op output: either materialized inside an op frame
            # (dropout mask, fused softmax intermediate) — priced as that
            # frame — or a leaf input from outside the graph (must keep).
            if entry.frame_input:
                return None
            return list(entry.frame_records)
        out: List = []
        stack = [entry.buffer_id]
        seen: Set[int] = set()
        while stack:
            buffer_id = stack.pop()
            if buffer_id in seen:
                continue
            seen.add(buffer_id)
            node = self.producers.get(buffer_id)
            if node is None:
                continue
            out.extend(node.records)
            for input_id in node.input_ids:
                if input_id not in saved and input_id not in seen:
                    stack.append(input_id)
        return out

    def recompute_seconds(self, ledger: "MemoryLedger",
                          entry: "LedgerEntry") -> Optional[float]:
        """Roofline seconds to rebuild ``entry``; ``None`` = must keep."""
        key = (id(ledger), id(entry))
        if key not in self._price_memo:
            records = self.recompute_records(ledger, entry)
            self._price_memo[key] = (
                None if records is None
                else sum(self.cost_model.op_time(r) for r in records))
        return self._price_memo[key]

    def reset(self) -> None:
        self._module_stack.clear()
        self._op_stack.clear()
        self.producers.clear()
        self._pinned.clear()
        self._price_memo.clear()


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerEntry:
    """One charged buffer's lifetime, as seen by the tracker."""

    rank: int
    buffer_id: int
    nbytes: int
    category: str
    dtype: str
    shape: Tuple[int, ...]
    #: op whose frame was live at first save ("" outside any op).
    op: str
    birth_seq: int
    birth_t: float
    #: module path of every save that referenced this buffer (dedup
    #: re-saves append here; ``paths[0]`` is the charged owner).
    paths: List[str] = field(default_factory=list)
    #: refcount after every save/release touching this buffer.
    refcount_history: List[int] = field(default_factory=list)
    death_seq: Optional[int] = None
    death_t: Optional[float] = None
    #: saved inside this op frame from an input shard (leaf candidate).
    frame_input: bool = False
    #: records of the op frame live at save time (pricing fallback for
    #: buffers materialized inside an op, e.g. dropout masks).
    frame_records: List = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.death_seq is None

    def lifetime(self, now_t: float) -> float:
        end = self.death_t if self.death_t is not None else now_t
        return max(0.0, end - self.birth_t)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank, "nbytes": self.nbytes,
            "category": self.category, "dtype": self.dtype,
            "shape": list(self.shape), "op": self.op,
            "paths": list(self.paths),
            "refcount_history": list(self.refcount_history),
            "birth_seq": self.birth_seq, "birth_t": self.birth_t,
            "death_seq": self.death_seq, "death_t": self.death_t,
        }


@dataclass(frozen=True)
class TimelineEvent:
    """One save/release edge: enough to rebuild live-bytes exactly."""

    seq: int
    t: float
    rank: int
    kind: str  # "save" | "ref" | "unref" | "free"
    category: str
    live_bytes: int
    category_bytes: int


class MemoryLedger(MemoryTracker):
    """A drop-in :class:`MemoryTracker` that additionally keeps the
    per-tensor ledger.  All tracker queries (``peak_bytes``,
    ``category_breakdown``, watermarks) behave identically — the ledger
    only *observes* the same save/release stream, so its attribution can
    be checked bitwise against the tracker's own accounting."""

    def __init__(self, profiler: Optional[MemProfiler] = None) -> None:
        super().__init__()
        self.profiler = profiler
        self.entries: List[LedgerEntry] = []
        self._open: Dict[Tuple[int, int], LedgerEntry] = {}
        self.timeline: List[TimelineEvent] = []
        #: sequence number at which each rank's current peak was set.
        self._peak_seq: Dict[int, int] = {}

    # -- recording ---------------------------------------------------------
    def save(self, rank: int, buffer, dtype: DType,
             category: str = "activation") -> None:
        key = (rank, id(buffer))
        existed = key in self._entries
        prev_peak = self._peak.get(rank, 0)
        super().save(rank, buffer, dtype, category)
        prof = self.profiler
        path = prof.current_path() if prof is not None else ""
        if existed:
            entry = self._open.get(key)
            if entry is not None:
                entry.refcount_history.append(self._entries[key].refcount)
                entry.paths.append(path)
                self._record(rank, "ref", entry.category)
            return
        tracker_entry = self._entries[key]
        frame = prof.current_frame() if prof is not None else None
        entry = LedgerEntry(
            rank=rank,
            buffer_id=prof.key(buffer) if prof is not None else id(buffer),
            nbytes=tracker_entry.nbytes,
            category=category, dtype=dtype.name,
            shape=tuple(shape_of(buffer)),
            op=frame.name if frame is not None else "",
            birth_seq=self._seq, birth_t=self._now(),
            paths=[path], refcount_history=[1],
            frame_input=(frame is not None and id(buffer) in frame.input_ids),
            frame_records=frame.records if frame is not None else [],
        )
        self._open[key] = entry
        self.entries.append(entry)
        if self._peak[rank] > prev_peak:
            self._peak_seq[rank] = self._seq
        self._record(rank, "save", category)

    def release(self, rank: int, buffer) -> None:
        key = (rank, id(buffer))
        charged = key in self._entries
        super().release(rank, buffer)
        if not charged:
            return  # never charged (e.g. a parameter)
        entry = self._open.get(key)
        if entry is None:
            return
        if key in self._entries:
            entry.refcount_history.append(self._entries[key].refcount)
            self._record(rank, "unref", entry.category)
        else:
            self._free(rank, self._open.pop(key))

    def rollback(self, mark: int) -> List[Tuple[int, int]]:
        dropped = super().rollback(mark)
        for key in dropped:
            self._free(key[0], self._open.pop(key))
        return dropped

    def _free(self, rank: int, entry: LedgerEntry) -> None:
        entry.refcount_history.append(0)
        entry.death_seq = self._seq
        entry.death_t = self._now()
        self._record(rank, "free", entry.category)

    def _record(self, rank: int, kind: str, category: str) -> None:
        self.timeline.append(TimelineEvent(
            self._seq, self._now(), rank, kind, category, self._live[rank],
            self._category_live[rank][category]))

    # -- queries -----------------------------------------------------------
    def peak_seq(self, rank: int) -> int:
        """Sequence number at which ``rank``'s peak was set (0 if the
        rank never charged anything)."""
        return self._peak_seq.get(rank, 0)

    def live_entries_at_peak(self, rank: int) -> List[LedgerEntry]:
        """Exactly the entries that were live when the peak was set."""
        peak_seq = self._peak_seq.get(rank)
        if peak_seq is None:
            return []
        return [e for e in self.entries
                if e.rank == rank and e.birth_seq <= peak_seq
                and (e.death_seq is None or e.death_seq > peak_seq)]

    def live_entry_bytes(self, rank: Optional[int] = None) -> int:
        """Sum of currently-open ledger entries — the ledger-side mirror
        of :meth:`MemoryTracker.live_bytes` (fuzz invariant)."""
        return sum(e.nbytes for (r, _), e in self._open.items()
                   if rank is None or r == rank)

    def ranks(self) -> List[int]:
        return sorted({e.rank for e in self.entries})


# ---------------------------------------------------------------------------
# peak attribution
# ---------------------------------------------------------------------------

@dataclass
class PeakAttribution:
    """Bitwise decomposition of one rank's peak."""

    rank: int
    peak_seq: int
    peak_bytes: int
    total_bytes: int
    by_category: Dict[str, int]
    by_path: Dict[str, int]
    entries: List[LedgerEntry]

    @property
    def exact(self) -> bool:
        return self.total_bytes == self.peak_bytes

    def to_dict(self) -> dict:
        return {
            "rank": self.rank, "peak_seq": self.peak_seq,
            "peak_bytes": self.peak_bytes, "total_bytes": self.total_bytes,
            "exact": self.exact,
            "by_category": dict(self.by_category),
            "by_path": dict(self.by_path),
        }


def peak_attribution(ledger: MemoryLedger, rank: int = 0) -> PeakAttribution:
    """Decompose ``ledger.peak_bytes(rank)`` over the tensors live at the
    instant the peak was set.  Sums are bitwise-exact by construction:
    the ledger mirrors the tracker's own entry lifetimes."""
    entries = ledger.live_entries_at_peak(rank)
    by_category: Dict[str, int] = {}
    by_path: Dict[str, int] = {}
    for e in entries:
        by_category[e.category] = by_category.get(e.category, 0) + e.nbytes
        path = e.paths[0] or "(unscoped)"
        by_path[path] = by_path.get(path, 0) + e.nbytes
    return PeakAttribution(
        rank=rank, peak_seq=ledger.peak_seq(rank),
        peak_bytes=ledger.peak_bytes(rank),
        total_bytes=sum(e.nbytes for e in entries),
        by_category=dict(sorted(by_category.items())),
        by_path=dict(sorted(by_path.items())),
        entries=entries)


def flamegraph(ledger: MemoryLedger, rank: int = 0) -> dict:
    """Flamegraph-style nested tree of the peak, keyed by module path.

    Node values are bytes at peak; every parent's value equals the sum
    of its children plus bytes charged directly at that path, and the
    root value equals ``peak_bytes(rank)`` exactly."""
    att = peak_attribution(ledger, rank)
    root = {"name": f"rank{rank}", "value": 0, "children": {}}
    for path, nbytes in att.by_path.items():
        root["value"] += nbytes
        node = root
        for part in path.split("."):
            node = node["children"].setdefault(
                part, {"name": part, "value": 0, "children": {}})
            node["value"] += nbytes

    def _finish(node):
        node["children"] = [
            _finish(child) for _, child in sorted(node["children"].items())]
        return node

    return _finish(root)


@dataclass(frozen=True)
class AttributionCheck:
    """One (config, layout) cell of the exactness matrix."""

    rank: int
    tensor_parallel: int
    sequence_parallel: bool
    recompute: str
    fused: bool
    peak_bytes: int
    sum_exact: bool          # entry bytes sum bitwise to the peak
    category_exact: bool     # per-category split matches the tracker
    watermark_exact: bool    # ... and the final WatermarkEvent snapshot
    path_sum_exact: bool     # per-path split sums bitwise to the peak
    term_drift_total: float  # vs memory_model.per_layer_term_groups
    term_drift: Dict[str, float]

    @property
    def exact(self) -> bool:
        return (self.sum_exact and self.category_exact
                and self.watermark_exact and self.path_sum_exact
                and self.term_drift_total == 0.0)


def profile_layer(model, microbatch_size: int, tensor_parallel: int = 1,
                  sequence_parallel: bool = False,
                  recompute: Recompute = Recompute.NONE,
                  fused: bool = False,
                  tracer=None,
                  ) -> Tuple[MemProfiler, MemoryLedger]:
    """Forward one abstract parallel transformer layer under a fresh
    profiler+ledger — the same protocol as
    :func:`repro.observability.analysis.memory_term_drift`, upgraded to
    per-tensor granularity.  Pass a ``tracer`` to timestamp the ledger
    on its simulated clock (and feed its counter tracks)."""
    from ..comm.process_group import ProcessGroup
    from ..layers.transformer import abstract_layer
    from ..parallel.layout import TensorParallel
    from ..tensor import instrument, seed

    if microbatch_size < 1:
        raise ConfigError(
            f"microbatch_size must be >= 1, got {microbatch_size}")
    prof = MemProfiler()
    ledger = prof.ledger()
    if tracer is not None:
        tracer.watch_tracker(ledger, "memprof")
    seed(0)
    layer, x = abstract_layer(
        TensorParallel(ProcessGroup(tensor_parallel), sequence_parallel),
        model, microbatch_size, recompute=recompute, fused=fused)
    with (nullcontext() if tracer is None else trace_scope(tracer)), \
            memprof_scope(prof), instrument(memory=ledger):
        layer(x)
    return prof, ledger


def check_peak_attribution(model, microbatch_size: int,
                           tensor_parallel: int = 1,
                           sequence_parallel: bool = False,
                           recompute: Recompute = Recompute.NONE,
                           fused: bool = False) -> List[AttributionCheck]:
    """Run :func:`profile_layer` and verify, per rank, that the ledger's
    peak decomposition is bitwise-exact and reconciles term-by-term with
    the Section 4 closed forms (zero drift)."""
    from ..memory_model import per_layer_term_groups
    from .analysis import MemoryTermDrift

    recompute = Recompute(recompute)
    _, ledger = profile_layer(
        model, microbatch_size, tensor_parallel, sequence_parallel,
        recompute, fused)
    predicted = per_layer_term_groups(model, microbatch_size,
                                      tensor_parallel, sequence_parallel,
                                      recompute)
    checks = []
    for rank in ledger.ranks():
        att = peak_attribution(ledger, rank)
        watermarks = ledger.watermark_events(rank)
        final_composition = watermarks[-1].by_category if watermarks else {}
        terms = MemoryTermDrift.of(att.by_category, predicted,
                                   sequence_parallel, recompute)
        checks.append(AttributionCheck(
            rank=rank, tensor_parallel=tensor_parallel,
            sequence_parallel=sequence_parallel,
            recompute=recompute.value, fused=fused,
            peak_bytes=att.peak_bytes,
            sum_exact=att.exact,
            category_exact=att.by_category == dict(
                sorted(ledger.category_breakdown(rank).items())),
            watermark_exact=att.by_category == dict(
                sorted(final_composition.items())),
            path_sum_exact=sum(att.by_path.values()) == att.peak_bytes,
            term_drift_total=terms.total_drift, term_drift=terms.drift))
    return checks


# ---------------------------------------------------------------------------
# save-vs-recompute pricing
# ---------------------------------------------------------------------------

def frontier(profiler: MemProfiler, ledger: MemoryLedger,
             rank: int = 0) -> List[dict]:
    """Per-tensor save-vs-recompute frontier for the tensors live at the
    peak: bytes held (x lifetime) vs roofline recompute seconds.  Rows
    sort best-candidate-first (score = bytes per recompute-second);
    unrecomputable tensors (``must_keep``) sort last."""
    now = ledger._now()
    rows = []
    for e in ledger.live_entries_at_peak(rank):
        seconds = profiler.recompute_seconds(ledger, e)
        score = (e.nbytes / seconds if seconds is not None and seconds > 0
                 else None)
        rows.append({
            "path": e.paths[0] or "(unscoped)",
            "category": e.category,
            "op": e.op,
            "nbytes": e.nbytes,
            "shape": list(e.shape),
            "dtype": e.dtype,
            "lifetime": e.lifetime(now),
            "byte_lifetime": e.nbytes * e.lifetime(now),
            "recompute_s": seconds,
            "bytes_per_recompute_s": score,
            "must_keep": seconds is None,
        })
    rows.sort(key=lambda r: (
        r["bytes_per_recompute_s"] is None,
        -(r["bytes_per_recompute_s"] or 0.0),
        -r["nbytes"], r["path"], r["category"]))
    return rows


def frontier_by_category(rows: Sequence[dict]) -> Dict[str, dict]:
    """Aggregate frontier rows per category: total bytes, total
    recompute seconds over priced entries, and the aggregate score."""
    out: Dict[str, dict] = {}
    for row in rows:
        agg = out.setdefault(row["category"], {
            "nbytes": 0, "recompute_s": 0.0, "priced_nbytes": 0,
            "must_keep_nbytes": 0, "entries": 0,
            "bytes_per_recompute_s": None})
        agg["nbytes"] += row["nbytes"]
        agg["entries"] += 1
        if row["recompute_s"] is None:
            agg["must_keep_nbytes"] += row["nbytes"]
        else:
            agg["recompute_s"] += row["recompute_s"]
            agg["priced_nbytes"] += row["nbytes"]
    for agg in out.values():
        if agg["recompute_s"] > 0:
            agg["bytes_per_recompute_s"] = (
                agg["priced_nbytes"] / agg["recompute_s"])
    return dict(sorted(out.items()))


def selective_recompute_dominates(by_category: Dict[str, dict]) -> bool:
    """The paper's Section 5 claim, checked on the priced frontier:

    1. the attention softmax/dropout tensors beat every GEMM-anchored
       category on bytes-per-recompute-second (rebuilding them replays
       only cheap bandwidth-bound kernels, never a matmul), and
    2. the attention-core categories hold the majority of the peak's
       recomputable bytes (the O(a s^2) terms dominate at paper scale) —

    which together make them the best save-vs-recompute candidates."""
    candidate_scores = [
        by_category[c]["bytes_per_recompute_s"]
        for c in SELECTIVE_CANDIDATE_CATEGORIES
        if c in by_category
        and by_category[c]["bytes_per_recompute_s"] is not None]
    anchored_scores = [
        by_category[c]["bytes_per_recompute_s"]
        for c in GEMM_ANCHORED_CATEGORIES
        if c in by_category
        and by_category[c]["bytes_per_recompute_s"] is not None]
    if len(candidate_scores) != len(SELECTIVE_CANDIDATE_CATEGORIES):
        return False
    if not anchored_scores:
        return False
    if min(candidate_scores) <= max(anchored_scores):
        return False
    core_bytes = sum(by_category[c]["nbytes"]
                     for c in ATTENTION_CORE_CATEGORIES if c in by_category)
    other_bytes = sum(agg["nbytes"] for cat, agg in by_category.items()
                      if cat not in ATTENTION_CORE_CATEGORIES)
    return core_bytes > other_bytes


# ---------------------------------------------------------------------------
# Perfetto counter tracks
# ---------------------------------------------------------------------------

def counter_events(ledger: MemoryLedger) -> List[dict]:
    """Perfetto counter events ("ph": "C"): live bytes per category per
    rank over the ledger timeline, plus total live bytes per rank.
    Append to a trace via ``export_trace(..., extra_events=...)``."""
    from .perfetto import SUBSYSTEM_PIDS, TIME_SCALE, _metadata

    pid = SUBSYSTEM_PIDS["memory"]
    events: List[dict] = []
    for ev in ledger.timeline:
        ts = ev.t * TIME_SCALE
        events.append({
            "name": f"memprof_bytes[{ev.category}/rank {ev.rank}]",
            "cat": "memory", "ph": "C", "ts": ts, "pid": pid, "tid": 0,
            "args": {"live": ev.category_bytes},
        })
        events.append({
            "name": f"memprof_bytes[total/rank {ev.rank}]",
            "cat": "memory", "ph": "C", "ts": ts, "pid": pid, "tid": 0,
            "args": {"live": ev.live_bytes},
        })
    if events:
        events.extend(_metadata(pid, "memory", [0], "counters"))
    return events


# ---------------------------------------------------------------------------
# allocator lifetime / fragmentation
# ---------------------------------------------------------------------------

def arena_recycling_report() -> dict:
    """Recycling effectiveness of the fusion scratch arena: hit rate and
    pooled-vs-served byte ratio (lifetime analysis of scratch reuse)."""
    from ..fusion.arena import default_arena

    stats = dict(default_arena().stats())
    requests = stats.get("hits", 0) + stats.get("misses", 0)
    stats["requests"] = requests
    stats["hit_rate"] = stats.get("hits", 0) / requests if requests else 0.0
    return stats


def paged_kv_fragmentation(seed: int = 0) -> dict:
    """Fragmentation-over-time of the paged-KV FirstFitAllocator under
    continuous-batching churn: the ``repro serve`` scenario's seeded
    workload (at its default shape) is driven round by round through the
    scheduler's fleet hooks, sampling the allocator's live/reserved
    bytes after every decode round."""
    from ..scenarios import defaults, serving_scheduler
    from ..serving import KVAdmissionFull

    shape = defaults(serving_scheduler)
    scheduler, specs, _ = serving_scheduler(seed_value=seed)
    pending = list(specs)
    finished = 0
    samples = []
    arena = scheduler.engine.cache.arena
    while finished < len(specs):
        still_waiting = []
        for spec in pending:
            try:
                scheduler.submit(spec)
            except KVAdmissionFull:
                still_waiting.append(spec)
        pending = still_waiting
        finished += len(scheduler.step())
        live = arena.live_bytes
        reserved = arena.reserved_bytes
        samples.append({
            "round": len(samples),
            "live_bytes": live,
            "reserved_bytes": reserved,
            "fragmentation": 1.0 - live / reserved if reserved else 0.0,
        })
    stats = arena.stats
    return {
        "block_size": shape["block_size"],
        "num_blocks": shape["num_blocks"],
        "policy": shape["policy"],
        "rounds": len(samples),
        "samples": samples,
        "max_fragmentation": max(
            (s["fragmentation"] for s in samples), default=0.0),
        "mean_fragmentation": (
            sum(s["fragmentation"] for s in samples) / len(samples)
            if samples else 0.0),
        "peak_live_bytes": stats.peak_live_bytes,
        "peak_reserved_bytes": stats.peak_reserved_bytes,
        "allocations": stats.allocations,
        "frees": stats.frees,
        "final_fragmentation": stats.fragmentation,
    }


# ---------------------------------------------------------------------------
# canonical ledger document
# ---------------------------------------------------------------------------

def ledger_document(profiler: MemProfiler, ledger: MemoryLedger,
                    config: Optional[dict] = None) -> dict:
    """Canonical JSON-able ledger dump: per-rank peak attribution, the
    priced frontier with its per-category aggregate, and every ledger
    entry.  Serialized with ``dumps_json`` this is byte-stable across
    runs of the same seeded protocol."""
    ranks = ledger.ranks()
    doc: dict = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "config": config or {},
        "ranks": ranks,
        "peak": {}, "frontier": {}, "frontier_by_category": {},
        "entries": [e.to_dict() for e in ledger.entries],
    }
    for rank in ranks:
        att = peak_attribution(ledger, rank)
        rows = frontier(profiler, ledger, rank)
        doc["peak"][str(rank)] = att.to_dict()
        doc["frontier"][str(rank)] = rows
        doc["frontier_by_category"][str(rank)] = frontier_by_category(rows)
    return doc


# ---------------------------------------------------------------------------
# installation (mirrors observability.tracer)
# ---------------------------------------------------------------------------

def active_memprof() -> Optional[MemProfiler]:
    """The installed profiler (``ctx().memprof``), or None (profiling
    off)."""
    return ctx().memprof


def install_memprof(profiler: Optional[MemProfiler]) -> Optional[MemProfiler]:
    """Install ``profiler`` into the tensor-core context (None turns every
    hook site back into a single is-None check); returns the previous
    profiler so callers can restore it."""
    context = ctx()
    previous = context.memprof
    context.memprof = profiler
    return previous


@contextmanager
def memprof_scope(profiler: MemProfiler):
    """Install ``profiler`` for the duration of a with-block."""
    previous = install_memprof(profiler)
    try:
        yield profiler
    finally:
        install_memprof(previous)
