"""Trace-context propagation across process pools.

One run — one ``trace_id``.  When a harness fans work out to a
``ProcessPoolExecutor`` (the bench driver's ``--jobs`` pool), the
parent captures a :class:`TraceContext` — the
run's ``trace_id``, the span the submission happened under, the run
name, and a shard index — and ships it with the submission.  The worker
activates a :func:`worker_session` that writes a JSONL *shard* file;
after the pool drains, the parent calls :func:`merge_shard` per shard to
fold everything back into its own trace:

* **span-id remapping** — worker span ids are rebased into a block
  reserved from the parent tracer (:meth:`Tracer.reserve_ids`), so ids
  stay unique in the merged trace;
* **parent linkage** — worker root spans are re-parented under the
  parent-process span recorded in the context, so the merged trace is
  one tree;
* **clock-skew annotation** — ``perf_counter()`` is per-process, so the
  worker's anchor (``t_perf``, ``t_wall``) pair is used to shift worker
  span times onto the parent's monotonic timeline; the applied shift is
  stamped on every migrated span as ``clock_skew_s``;
* **metrics + profiler fold** — the worker's raw metric export merges
  into the parent registry (:meth:`MetricsRegistry.merge_raw`) and its
  profiler samples into the context-active profiler
  (:meth:`SamplingProfiler.absorb`), so ``repro.telemetry.report`` and
  the fleet store see cross-process totals.

Everything is off unless telemetry is on: :func:`capture` returns
``None`` outside a session, workers then run exactly the pre-existing
code path, and the default single-process behavior stays bitwise
identical.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry import runtime
from repro.telemetry.profiler import (
    SamplingProfiler,
    get_active_profiler,
)
from repro.telemetry.runtime import Telemetry, get_telemetry
from repro.telemetry.spans import JSONLSink

TRACE_CONTEXT_SCHEMA_VERSION = 1

#: event types private to the shard protocol — consumed by the merge,
#: never re-emitted into the parent trace
_PROTOCOL_TYPES = {"trace_context", "worker_metrics", "profile_samples", "metrics"}


@dataclass(frozen=True)
class TraceContext:
    """What a pool submission needs to join its run's trace."""

    trace_id: str
    parent_span_id: Optional[int]
    run_name: str
    shard_index: int
    profile: bool = False

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["schema_version"] = TRACE_CONTEXT_SCHEMA_VERSION
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            parent_span_id=data.get("parent_span_id"),
            run_name=str(data.get("run_name", "run")),
            shard_index=int(data.get("shard_index", 0)),
            profile=bool(data.get("profile", False)),
        )


def capture(shard_index: int = 0, profile: bool = False) -> Optional[TraceContext]:
    """Snapshot the current context for a pool submission.

    Returns ``None`` when telemetry is disabled or the active instance
    has no ``trace_id`` (no session) — callers then submit exactly what
    they submitted before this module existed, keeping the default path
    bitwise-identical.
    """
    tel = get_telemetry()
    if not tel.enabled or tel.trace_id is None:
        return None
    current = tel.tracer.current_span
    name = tel.manifest.name if tel.manifest is not None else "run"
    return TraceContext(
        trace_id=tel.trace_id,
        parent_span_id=current.span_id if current is not None else None,
        run_name=name,
        shard_index=int(shard_index),
        profile=bool(profile),
    )


@contextmanager
def worker_session(
    ctx: TraceContext,
    shard_path: str,
    profile_interval_s: float = 0.01,
) -> Iterator[Telemetry]:
    """Activate telemetry inside a pool worker, writing a shard file.

    Lighter than :func:`~repro.telemetry.runtime.session`: no manifest,
    no status file — just a :class:`JSONLSink` on ``shard_path`` whose
    first line is a ``trace_context`` anchor (this process's
    ``perf_counter``/wall clock pair, pid, shard index, parent span) and
    whose last lines are the worker's raw metrics export and — when
    ``ctx.profile`` — its profiler samples, both consumed by
    :func:`merge_shard` in the parent.
    """
    sink = JSONLSink(shard_path)
    sink.emit({
        "type": "trace_context",
        "schema_version": TRACE_CONTEXT_SCHEMA_VERSION,
        "trace_id": ctx.trace_id,
        "run_name": ctx.run_name,
        "shard_index": ctx.shard_index,
        "parent_span_id": ctx.parent_span_id,
        "pid": os.getpid(),
        "t_perf": time.perf_counter(),
        "t_wall": time.time(),
    })
    tel = Telemetry(sink, trace_id=ctx.trace_id)
    profiler: Optional[SamplingProfiler] = None
    if ctx.profile:
        profiler = SamplingProfiler(interval=profile_interval_s).start()
    token = runtime._active.set(tel)
    try:
        yield tel
    finally:
        runtime._active.reset(token)
        if profiler is not None:
            profiler.stop()
            sink.emit({
                "type": "profile_samples",
                "shard_index": ctx.shard_index,
                **profiler.export_samples(),
            })
        sink.emit({
            "type": "worker_metrics",
            "shard_index": ctx.shard_index,
            "raw": tel.metrics.raw(),
        })
        sink.close()


def load_shard_events(path: str) -> List[Dict[str, Any]]:
    """Read a shard (or any JSONL trace) tolerantly: malformed lines —
    e.g. the torn last line of a killed worker — are skipped."""
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict):
                    events.append(event)
    except OSError:
        return []
    return events


def merge_shard_events(
    tel: Telemetry,
    events: List[Dict[str, Any]],
    profiler: Optional[SamplingProfiler] = None,
) -> Dict[str, Any]:
    """Fold one shard's events into ``tel``; returns merge stats.

    Span ids are rebased into a reserved block, worker root spans are
    re-parented under the submission span, span times are shifted onto
    the parent's monotonic timeline (shift recorded as ``clock_skew_s``),
    and every migrated event is stamped with the shard's ``trace_id``,
    ``shard`` index, and worker ``pid``.  Protocol events fold into the
    parent registry / active profiler instead of being re-emitted.
    """
    stats = {"events": 0, "spans": 0, "shard": None, "clock_skew_s": 0.0}
    if not events:
        return stats
    anchor: Dict[str, Any] = {}
    for event in events:
        if event.get("type") == "trace_context":
            anchor = event
            break
    skew = 0.0
    if "t_perf" in anchor and "t_wall" in anchor:
        # worker wall = anchor.t_wall + (tp - anchor.t_perf); mapping that
        # wall time back through the parent's own (wall - perf) offset
        # gives the parent-perf equivalent tp + skew:
        skew = (
            (float(anchor["t_wall"]) - float(anchor["t_perf"]))
            - (time.time() - time.perf_counter())
        )
    shard = anchor.get("shard_index")
    trace_id = anchor.get("trace_id", tel.trace_id)
    parent_span_id = anchor.get("parent_span_id")
    pid = anchor.get("pid")
    stats["shard"] = shard
    stats["clock_skew_s"] = skew

    max_id = 0
    for event in events:
        if event.get("type") == "span" and isinstance(event.get("span_id"), int):
            max_id = max(max_id, event["span_id"])
    base = tel.tracer.reserve_ids(max_id) if max_id else 0

    def _remap(span_id: Any) -> Any:
        if isinstance(span_id, int) and 1 <= span_id <= max_id:
            return base + span_id - 1
        return span_id

    for event in events:
        etype = event.get("type")
        if etype == "worker_metrics":
            tel.metrics.merge_raw(event.get("raw") or {})
            continue
        if etype == "profile_samples":
            target = profiler if profiler is not None else get_active_profiler()
            if target is not None:
                target.absorb(event)
            continue
        if etype in _PROTOCOL_TYPES:
            continue
        migrated = dict(event)
        migrated["trace_id"] = trace_id
        migrated["shard"] = shard
        if pid is not None:
            migrated.setdefault("pid", pid)
        if etype == "span":
            migrated["span_id"] = _remap(event.get("span_id"))
            old_parent = event.get("parent_id")
            migrated["parent_id"] = (
                parent_span_id if old_parent is None else _remap(old_parent)
            )
            for key in ("t_start", "t_end"):
                if isinstance(event.get(key), (int, float)):
                    migrated[key] = event[key] + skew
            migrated["clock_skew_s"] = skew
            stats["spans"] += 1
        tel.sink.emit(migrated)
        stats["events"] += 1
    return stats


def merge_shard(
    tel: Telemetry,
    shard_path: str,
    profiler: Optional[SamplingProfiler] = None,
    keep: bool = False,
) -> Dict[str, Any]:
    """Merge the shard file at ``shard_path`` into ``tel`` and (unless
    ``keep``) delete it.  Missing/empty shards merge as zero events —
    a crashed worker must never take the parent trace down."""
    stats = merge_shard_events(tel, load_shard_events(shard_path), profiler)
    if not keep:
        try:
            os.remove(shard_path)
        except OSError:
            pass
    return stats
