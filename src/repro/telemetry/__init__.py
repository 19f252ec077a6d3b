"""Structured telemetry for the SNBC pipeline.

Zero-dependency (stdlib-only) observability layer: hierarchical span
tracing, a metrics registry, run manifests, and a trace-report CLI.

Three entry levels:

* **Library users** pay nothing: the default :class:`Telemetry` instance
  is disabled (null sink) and every instrumentation point degrades to a
  cheap no-op.
* **Harnesses** (the Table 1 benchmarks) call :func:`session` to route
  spans and metrics into a JSONL trace plus a JSON run manifest under
  ``results/``.
* **Humans** render a trace with ``python -m repro.telemetry.report
  trace.jsonl`` — per-phase time breakdown and metric summaries — or
  aggregate a whole results tree with ``python -m repro.telemetry.fleet
  results/``.

Deeper instrumentation lives alongside: :mod:`repro.telemetry.profiler`
(a stdlib sampling profiler writing collapsed stacks + per-phase
self-time) and :mod:`repro.telemetry.store` (the cross-run fleet index
behind the fleet CLI).

:mod:`repro.telemetry.status` maintains an atomically-written
``status.json`` heartbeat per run that ``python -m repro.telemetry.tail``
follows live (single run or ``--fleet`` board).

The span/metric event schema is documented in :mod:`repro.telemetry.spans`.
"""

from repro.telemetry.manifest import RunManifest, collect_git_sha, platform_info
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import SamplingProfiler
from repro.telemetry.runtime import (
    Telemetry,
    configure,
    disable,
    get_telemetry,
    session,
)
from repro.telemetry.spans import (
    InMemorySink,
    JSONLSink,
    NullSink,
    Span,
    Tracer,
    load_events,
)
from repro.telemetry.status import StatusWriter, read_status
from repro.telemetry.store import RunRecord, fleet_summary, load_run, scan_runs

__all__ = [
    "InMemorySink",
    "JSONLSink",
    "MetricsRegistry",
    "NullSink",
    "RunManifest",
    "RunRecord",
    "SamplingProfiler",
    "Span",
    "StatusWriter",
    "Telemetry",
    "Tracer",
    "collect_git_sha",
    "configure",
    "disable",
    "fleet_summary",
    "get_telemetry",
    "load_events",
    "load_run",
    "platform_info",
    "read_status",
    "scan_runs",
    "session",
]
