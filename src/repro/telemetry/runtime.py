"""The process-default Telemetry instance and harness sessions.

Instrumented library code calls :func:`get_telemetry` at use time, so a
harness that installs a session *after* objects were constructed is
still picked up.  The default instance is disabled: spans still time
(callers rely on durations) but nothing is recorded or written.

Session activation is **per-context** (a :mod:`contextvars` variable),
not a process global: two runs started in different threads each see
their own sink, so a multi-run harness (pytest-parallel, notebooks)
cannot interleave events into one trace.  Threads spawned *inside* a
session start from a fresh context and therefore fall back to the
process default — pass the session's ``Telemetry`` handle explicitly if
a worker thread should record into it.  :func:`configure`/:func:`disable`
still manage the process-wide fallback for single-run scripts.
"""

from __future__ import annotations

import contextvars
import os
import threading
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import JSONLSink, NullSink, Tracer
from repro.telemetry.status import StatusWriter


class Telemetry:
    """A tracer + metrics registry + optional manifest, as one handle."""

    def __init__(
        self,
        sink: Optional[Any] = None,
        enabled: bool = True,
        manifest: Optional[RunManifest] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.sink = sink or NullSink()
        self.enabled = bool(enabled) and not isinstance(self.sink, NullSink)
        self.tracer = Tracer(self.sink, enabled=self.enabled)
        self.metrics = MetricsRegistry(enabled=self.enabled)
        self.manifest = manifest
        #: stable id of this run's trace; None on the disabled default
        #: instance
        self.trace_id = trace_id
        #: optional StatusWriter (sessions attach one); None elsewhere
        self.status: Optional[StatusWriter] = None

    # -- span/metric passthrough ---------------------------------------
    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def event(self, event_type: str, **payload: Any) -> None:
        self.tracer.emit_event(event_type, **payload)

    def status_update(self, force: bool = False, **fields: Any) -> None:
        """Heartbeat hook: merge ``fields`` into this run's status.json.
        A no-op (attribute check only) when no StatusWriter is attached,
        so library hooks can call it unconditionally."""
        if self.status is not None:
            self.status.update(force=force, **fields)

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        """Emit the metrics summary as a trailing trace event."""
        if self.enabled:
            self.sink.emit({"type": "metrics", "summary": self.metrics.summary()})

    def close(self) -> None:
        self.flush()
        self.sink.close()


_lock = threading.Lock()
_default = Telemetry(NullSink(), enabled=False)

#: the session active in the *current* context (thread / task); sessions
#: in sibling contexts do not see each other's sinks
_active: "contextvars.ContextVar[Optional[Telemetry]]" = contextvars.ContextVar(
    "repro_active_telemetry", default=None
)


def get_telemetry() -> Telemetry:
    """The active session's instance for this context, else the
    process-default (a disabled no-op unless configured)."""
    tel = _active.get()
    if tel is not None:
        return tel
    return _default


def configure(sink: Optional[Any] = None, manifest: Optional[RunManifest] = None) -> Telemetry:
    """Install a new default Telemetry writing to ``sink``; returns it."""
    global _default
    with _lock:
        _default = Telemetry(sink, enabled=sink is not None, manifest=manifest)
        return _default


def disable() -> None:
    """Reset the default instance to the disabled no-op."""
    global _default
    with _lock:
        _default = Telemetry(NullSink(), enabled=False)


@contextmanager
def session(
    trace_path: str,
    name: str = "run",
    config: Any = None,
    seed: Optional[int] = None,
    manifest_path: Optional[str] = None,
    max_bytes: Optional[int] = None,
    status: bool = True,
    **extra: Any,
) -> Iterator[Telemetry]:
    """Route telemetry for *this context* into ``trace_path``.

    Writes a JSONL trace, appends the metrics summary on exit, and — when
    ``manifest_path`` is given (default: ``<trace>.manifest.json``) — a
    run manifest.  Activation uses a :mod:`contextvars` token, so
    concurrent sessions in different threads each keep their own sink
    and the previous state is restored on exit — nested/parallel harness
    code cannot leak a sink or interleave into a sibling's trace.

    ``max_bytes`` bounds the trace file (see
    :class:`~repro.telemetry.spans.JSONLSink`); ``None`` means unbounded.

    Every session carries a fresh ``uuid4`` hex ``trace_id``, recorded
    in the manifest and the status heartbeat.

    Unless ``status=False``, a live ``<base>.status.json`` heartbeat
    (see :class:`~repro.telemetry.status.StatusWriter`) is attached and
    finished with the manifest outcome — this is what
    ``python -m repro.telemetry tail`` watches.

    The manifest outcome defaults to ``success``/``error``; set
    ``telemetry.manifest.finish(...)`` inside the block to override.
    """
    os.makedirs(os.path.dirname(os.path.abspath(trace_path)), exist_ok=True)
    base = trace_path[:-6] if trace_path.endswith(".jsonl") else trace_path
    if manifest_path is None:
        manifest_path = base + ".manifest.json"
    trace_id = uuid.uuid4().hex
    extra.setdefault("trace_id", trace_id)
    manifest = RunManifest.create(
        name, config=config, seed=seed, trace_path=trace_path, **extra
    )
    tel = Telemetry(
        JSONLSink(trace_path, max_bytes=max_bytes),
        manifest=manifest,
        trace_id=trace_id,
    )
    if status:
        tel.status = StatusWriter(
            base + ".status.json", name=name, trace_id=trace_id
        )
    token = _active.set(tel)
    try:
        yield tel
        if manifest.outcome is None:
            manifest.finish("success")
    except BaseException as exc:
        if manifest.outcome is None:
            manifest.finish("error", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _active.reset(token)
        if tel.status is not None:
            tel.status.finish(manifest.outcome or "unknown")
        tel.close()
        manifest.write(manifest_path)
