"""Hierarchical span tracing with pluggable sinks.

Every finished span becomes one event dict::

    {"type": "span", "name": "snbc.learning", "span_id": 7, "parent_id": 3,
     "thread": 140234, "t_start": 1.234, "t_end": 2.345, "duration": 1.111,
     "wall_start": 1722873600.0, "attrs": {"phase": "learning", ...}}

``t_start``/``t_end`` come from ``time.perf_counter()`` (monotonic,
comparable within one process); ``wall_start`` is epoch seconds for
cross-run correlation.  Sinks receive plain dicts, so any sink doubles as
a serialization boundary.

The tracer *always* times spans (callers read ``Span.duration`` to fill
result structs like ``PhaseTimings``) but only forwards events to the
sink when enabled — the disabled path is two ``perf_counter()`` calls.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple


class NullSink:
    """Swallows every event; the default for library users."""

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover - never called
        pass

    def close(self) -> None:
        pass


class InMemorySink:
    """Collects events in a list (tests, notebooks)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        pass

    # -- convenience filters -------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        out = [e for e in self.events if e.get("type") == "span"]
        if name is not None:
            out = [e for e in out if e.get("name") == name]
        return out

    def phases(self) -> List[str]:
        """Distinct ``phase`` attributes in emission order."""
        seen: List[str] = []
        for e in self.spans():
            ph = e.get("attrs", {}).get("phase")
            if ph and ph not in seen:
                seen.append(ph)
        return seen


class JSONLSink:
    """Appends one JSON object per line to ``path`` (thread-safe).

    ``max_bytes`` (optional) bounds the file so long sweeps cannot fill
    the disk silently: the first event that would cross the limit is
    dropped and replaced by a ``{"type": "trace_truncated", ...}`` marker
    at the cut point; every later event is counted but not written, and
    :meth:`close` appends a final marker carrying the total drop count.
    A bounded trace therefore always says — in-band — that and how much
    it is missing.

    ``flush_every`` controls line-granular durability: the file is
    flushed after every ``flush_every``-th line (default 1, i.e. after
    each line) so a live ``tail`` and crash post-mortems always see a
    trace ending on a complete JSON line.  Pass 0 to restore buffered
    writes (flush only on close).
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        flush_every: int = 1,
    ) -> None:
        self.path = str(path)
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.flush_every = max(0, int(flush_every))
        self._fh: Optional[TextIO] = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._bytes_written = 0
        self._lines_since_flush = 0
        self._dropped = 0

    @property
    def truncated(self) -> bool:
        """True once the byte bound has been hit."""
        with self._lock:
            return self._dropped > 0

    @property
    def dropped_events(self) -> int:
        """Events counted but not written because of ``max_bytes``."""
        with self._lock:
            return self._dropped

    def _write_line(self, line: str) -> None:
        assert self._fh is not None
        self._fh.write(line + "\n")
        self._bytes_written += len(line.encode("utf-8")) + 1
        if self.flush_every:
            self._lines_since_flush += 1
            if self._lines_since_flush >= self.flush_every:
                self._fh.flush()
                self._lines_since_flush = 0

    def emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, default=_json_default, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                return
            if self._dropped:
                self._dropped += 1
                return
            nbytes = len(line.encode("utf-8")) + 1
            if (
                self.max_bytes is not None
                and self._bytes_written + nbytes > self.max_bytes
            ):
                self._write_line(json.dumps(
                    {
                        "type": "trace_truncated",
                        "max_bytes": self.max_bytes,
                        "bytes_written": self._bytes_written,
                    },
                    separators=(",", ":"),
                ))
                self._dropped = 1
                return
            self._write_line(line)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                if self._dropped:
                    self._write_line(json.dumps(
                        {
                            "type": "trace_truncated",
                            "max_bytes": self.max_bytes,
                            "dropped_events": self._dropped,
                        },
                        separators=(",", ":"),
                    ))
                self._fh.flush()
                self._fh.close()
                self._fh = None


def _json_default(obj: Any) -> Any:
    """Best-effort serialization for numpy scalars/arrays without
    importing numpy (telemetry stays stdlib-only)."""
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def load_events(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def read_trace(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Tolerant :func:`load_events`: ``(events, skipped)``, counting
    malformed lines instead of dying on them, so a crashed run's torn
    final record does not hide the rest of its trace."""
    events: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    return events, skipped


@dataclass
class Span:
    """One timed region.  Created by :meth:`Tracer.span`."""

    name: str
    span_id: int
    parent_id: Optional[int]
    t_start: float
    wall_start: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    t_end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return end - self.t_start

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_attrs(self, **kv: Any) -> None:
        self.attrs.update(kv)

    def to_event(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": threading.get_ident(),
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "wall_start": self.wall_start,
            "attrs": self.attrs,
        }


class Tracer:
    """Context-manager span API with a per-thread parent stack."""

    def __init__(self, sink: Optional[Any] = None, enabled: bool = True) -> None:
        self.sink = sink or NullSink()
        self.enabled = bool(enabled)
        self._id_lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; always yields a timed :class:`Span` even
        when tracing is disabled (so callers can read ``duration``)."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        sp = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent,
            t_start=time.perf_counter(),
            wall_start=time.time(),
            attrs=dict(attrs) if attrs else {},
        )
        stack.append(sp)
        try:
            yield sp
        except Exception as exc:
            sp.set_attr("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            sp.t_end = time.perf_counter()
            stack.pop()
            if self.enabled:
                self.sink.emit(sp.to_event())

    def emit_event(self, event_type: str, **payload: Any) -> None:
        """Emit a free-form event (not a span) to the sink."""
        if not self.enabled:
            return
        self.sink.emit({"type": event_type, "wall": time.time(), **payload})
