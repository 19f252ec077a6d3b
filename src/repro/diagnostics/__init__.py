"""CEGIS flight recorder: convergence diagnostics, certificate audits,
and the benchmark regression gate.

Layers on top of :mod:`repro.telemetry` (which records *what happened*)
to answer *how well it went*:

* :mod:`repro.diagnostics.convergence` — stall detection and trace-event
  digestion (per-iteration loss breakdown, counterexample lineage);
* :mod:`repro.diagnostics.audit` — independent numerical recheck of a
  synthesized certificate (Gram/IPM margins + dense-grid margins);
* :mod:`repro.diagnostics.bench` / :mod:`repro.diagnostics.regress` —
  the one BENCH document schema (Table-1, scenario-sweep and service
  kinds) and the gate that compares two documents of one kind against
  that kind's policy (``python -m repro.telemetry regress OLD NEW``).

Import discipline: this package is imported *by* :mod:`repro.cegis`
(the stall detector runs inside the loop), so nothing here may import
``repro.cegis`` at module level — run results are duck-typed instead.
"""

from repro.diagnostics.audit import (
    AUDIT_SCHEMA_VERSION,
    audit_certificate,
    grid_margins,
    load_audit,
    write_audit,
)
from repro.diagnostics.bench import (
    BENCH_KINDS,
    BENCH_SCHEMA_VERSION,
    TIMING_KEYS,
    bench_document,
    bench_entry,
    error_entry,
    load_bench,
    result_outcome,
    write_bench,
)
from repro.diagnostics.convergence import (
    DEFAULT_STALL_WINDOW,
    convergence_summary,
    detect_stall,
    iteration_rows,
    lineage_records,
    stall_event,
)

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "BENCH_KINDS",
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_STALL_WINDOW",
    "TIMING_KEYS",
    "audit_certificate",
    "bench_document",
    "bench_entry",
    "convergence_summary",
    "detect_stall",
    "error_entry",
    "grid_margins",
    "iteration_rows",
    "lineage_records",
    "load_audit",
    "load_bench",
    "result_outcome",
    "stall_event",
    "write_audit",
    "write_bench",
]
