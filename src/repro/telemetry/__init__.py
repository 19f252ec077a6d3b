"""Structured telemetry for the SNBC pipeline.

Zero-dependency (stdlib-only) observability layer: hierarchical span
tracing, a metrics registry, run manifests, and the observability CLI.

Three entry levels:

* **Library users** pay nothing: the default :class:`Telemetry` instance
  is disabled (null sink) and every instrumentation point degrades to a
  cheap no-op.
* **Harnesses** (the Table 1 benchmarks) call :func:`session` to route
  spans and metrics into a JSONL trace plus a JSON run manifest under
  ``results/``.
* **Humans** use the CLI in :mod:`repro.telemetry.__main__`:
  ``python -m repro.telemetry report RUN`` renders one run (convergence, counterexample lineage,
  audit, per-phase time, spans, metrics), ``fleet ROOT`` aggregates a
  results tree, ``tail TARGET`` follows the atomically-written
  ``status.json`` heartbeats (:mod:`repro.telemetry.status`) live, and
  ``regress OLD NEW`` gates a BENCH document against its baseline.

Deeper instrumentation lives alongside: :mod:`repro.telemetry.profiler`
(a stdlib sampling profiler writing collapsed stacks + per-phase
self-time) and :mod:`repro.telemetry.store` (the run-artifact resolver
and the cross-run fleet index).

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
from repro.telemetry.store import (
    RunRecord,
    fleet_summary,
    load_run,
    run_family,
    scan_runs,
)

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
    "run_family",
    "scan_runs",
    "session",
]
