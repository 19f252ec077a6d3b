"""CEGIS checkpoint serialization (write-atomic, bit-exact JSON).

A checkpoint captures everything the SNBC loop needs to resume
bit-identically after a crash or interruption: learner weights and
optimizer moments, the grown training datasets, counterexample lineage,
iteration history, phase timings, and the exact bit-generator states of
every RNG stream.  Floats survive the JSON round trip exactly (Python
serializes ``float64`` via shortest-repr, which is lossless), so a
resumed run replays the same arithmetic as an uninterrupted one.

The payload schema is owned by :meth:`repro.cegis.SNBC` (which builds
and consumes it); this module provides the envelope: kind/version
checking, atomic writes (tmp + rename — a crash mid-write never
corrupts the previous checkpoint), and RNG state helpers.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from repro.resilience.errors import CheckpointError
from repro.utils.fileio import atomic_write_text

CHECKPOINT_KIND = "SNBC_checkpoint"
CHECKPOINT_SCHEMA_VERSION = 1


def rng_state(gen: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe snapshot of a Generator's bit-generator state."""
    return json.loads(json.dumps(gen.bit_generator.state, default=int))


def restore_rng(gen: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a state captured by :func:`rng_state` (in place)."""
    gen.bit_generator.state = state


def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write ``payload`` (plus the envelope) to ``path``."""
    doc = {
        "kind": CHECKPOINT_KIND,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        **payload,
    }
    try:
        atomic_write_text(path, json.dumps(doc))
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint to {path}: {exc}",
            phase="checkpoint",
            cause=exc,
            path=path,
        ) from exc


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read and envelope-check a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}",
            phase="checkpoint",
            cause=exc,
            path=path,
        ) from exc
    if not isinstance(doc, dict) or doc.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path}: not a {CHECKPOINT_KIND} document", path=path
        )
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema_version "
            f"{doc.get('schema_version')!r} "
            f"(expected {CHECKPOINT_SCHEMA_VERSION})",
            path=path,
        )
    return doc
