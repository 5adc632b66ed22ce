"""Checkpoint I/O: save and restore model weights and optimizer state.

Weights are stored per parameter *shard* (``<name>::<rank>``) in a single
``.npz`` archive, so a sharded parallel model round-trips exactly.  The
layout is deliberately simple and dependency-free; it is not a Megatron
checkpoint format, but both loaders verify every entry's name and shape
against the model before writing anything, so a mismatched model or
parallel layout fails loudly and leaves the model and optimizer as they
were.

Every archive carries a content checksum (SHA-256 over sorted entry
names, dtypes, shapes and raw bytes).  Loading verifies it and raises
:class:`~repro.errors.CheckpointCorruptError` on any mismatch — a
corrupted checkpoint must never be silently restored, because the
resilience layer's rollback-and-replay guarantee depends on the restored
state being exactly what was saved.  Archives written before checksums
existed (no ``__checksum__`` entry) still load.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from typing import Dict

import numpy as np

from ..errors import CheckpointCorruptError, ConfigError
from ..layers.module import Module
from ..observability.tracer import active_tracer
from .optimizer import Adam

_SEP = "::"
_CHECKSUM_KEY = "__checksum__"
_STEP_KEY = "__optimizer_step__"
_MOMENTS = ("__adam_m__", "__adam_v__")


def _trace_io(event: str, payload: Dict[str, np.ndarray]) -> None:
    """Record a checkpoint save/restore on the trace timeline."""
    tracer = active_tracer()
    if tracer is None:
        return
    nbytes = sum(int(np.asarray(a).nbytes) for a in payload.values())
    tracer.instant(event, subsystem="checkpoint",
                   bytes=nbytes, entries=len(payload))
    if tracer.metrics is not None:
        tracer.metrics.counter(
            "repro_checkpoint_ops_total",
            "checkpoint archive operations").inc(event=event)
        tracer.metrics.counter(
            "repro_checkpoint_bytes_total",
            "checkpoint bytes written/read").inc(nbytes, event=event)


def _named_shards(model: Module) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        if param.is_abstract:
            raise ConfigError("cannot serialize an abstract (shape-only) model")
        for rank, shard in enumerate(param.shards):
            out[f"{name}{_SEP}{rank}"] = np.asarray(shard)
    return out


def _content_digest(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every entry's name, dtype, shape and bytes, in sorted
    name order — independent of dict insertion order and zip metadata."""
    digest = hashlib.sha256()
    for name in sorted(payload):
        if name == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(payload[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _save(payload: Dict[str, np.ndarray], path: str) -> None:
    checksum = _content_digest(payload)
    np.savez(path, **payload,
             **{_CHECKSUM_KEY: np.frombuffer(checksum.encode(), dtype=np.uint8)})


def _verify(archive: "np.lib.npyio.NpzFile", path: str) -> None:
    if _CHECKSUM_KEY not in archive.files:
        return  # legacy archive from before checksums; accept
    stored = bytes(archive[_CHECKSUM_KEY]).decode()
    actual = _content_digest({n: archive[n] for n in archive.files})
    if stored != actual:
        raise CheckpointCorruptError(
            f"checkpoint {path} failed its content checksum "
            f"(stored {stored[:12]}…, computed {actual[:12]}…)")


def _check_entries(model: Module, archive, training_state: bool) -> None:
    """Raise :class:`ConfigError` unless ``archive`` holds exactly the
    model's parameter shards at their shapes (plus, for a training state,
    the step count and, per parameter, all or none of its Adam moments).
    Runs before anything is written."""
    shapes = {key: shard.shape for key, shard in _named_shards(model).items()}
    stored = set(archive.files) - {_CHECKSUM_KEY}
    if training_state:
        shapes[_STEP_KEY] = ()
        for name, param in model.named_parameters():
            if f"{_MOMENTS[0]}{name}{_SEP}0" in stored:
                for prefix in _MOMENTS:
                    for rank in range(param.world):
                        key = f"{name}{_SEP}{rank}"
                        shapes[prefix + key] = shapes[key]
    if stored != shapes.keys():
        missing = sorted(shapes.keys() - stored)[:3]
        extra = sorted(stored - shapes.keys())[:3]
        raise ConfigError(
            f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    for key, shape in shapes.items():
        if archive[key].shape != shape:
            raise ConfigError(
                f"shape mismatch for {key}: {archive[key].shape} vs {shape}")


def save_weights(model: Module, path: str) -> None:
    """Write all parameter shards to ``path`` (.npz), checksummed."""
    payload = _named_shards(model)
    _trace_io("checkpoint.save_weights", payload)
    _save(payload, path)


def load_weights(model: Module, path: str) -> None:
    """Load shards saved by :func:`save_weights` into ``model`` in place."""
    with np.load(path) as archive:
        _verify(archive, path)
        _check_entries(model, archive, training_state=False)
        for name, param in model.named_parameters():
            for rank in range(param.world):
                np.copyto(param.shards[rank], archive[f"{name}{_SEP}{rank}"])


def save_training_state(model: Module, optimizer: Adam, path: str) -> None:
    """Weights + Adam moments + step count in one archive, checksummed."""
    payload = _named_shards(model)
    payload[_STEP_KEY] = np.asarray(optimizer.step_count)
    for name, param in model.named_parameters():
        key = id(param)
        if key in optimizer._m:
            for rank in range(param.world):
                payload[f"__adam_m__{name}{_SEP}{rank}"] = optimizer._m[key][rank]
                payload[f"__adam_v__{name}{_SEP}{rank}"] = optimizer._v[key][rank]
    _trace_io("checkpoint.save", payload)
    _save(payload, path)


def load_training_state(model: Module, optimizer: Adam, path: str) -> None:
    """Restore weights and Adam state saved by :func:`save_training_state`.

    Raises :class:`~repro.errors.CheckpointCorruptError` if the archive's
    content no longer matches its checksum, and :class:`ConfigError` if
    it does not fit the model.
    """
    with np.load(path) as archive:
        _verify(archive, path)
        _check_entries(model, archive, training_state=True)
        _trace_io("checkpoint.restore", {n: archive[n] for n in archive.files})
        for name, param in model.named_parameters():
            for rank in range(param.world):
                np.copyto(param.shards[rank], archive[f"{name}{_SEP}{rank}"])
            if f"{_MOMENTS[0]}{name}{_SEP}0" in archive.files:
                for prefix, moments in zip(_MOMENTS,
                                           (optimizer._m, optimizer._v)):
                    moments[id(param)] = [
                        archive[f"{prefix}{name}{_SEP}{r}"].copy()
                        for r in range(param.world)]
        optimizer.step_count = int(archive[_STEP_KEY])


def checkpoint_exists(path: str, validate: bool = True) -> bool:
    """True when ``path`` exists and (with ``validate``) is a readable
    archive whose content checksum verifies.  A corrupt or truncated
    checkpoint reports ``False`` rather than raising, so recovery code
    can fall back to an older checkpoint or a fresh start."""
    if not os.path.exists(path):
        return False
    if not validate:
        return True
    try:
        with np.load(path) as archive:
            _verify(archive, path)
    except (CheckpointCorruptError, OSError, ValueError,
            zipfile.BadZipFile, KeyError):
        return False
    return True
