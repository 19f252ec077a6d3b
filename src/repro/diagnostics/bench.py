"""The BENCH document: one schema for every benchmark the repo gates.

Three producers write it, each with its own ``kind``:

* ``BENCH_table1`` — ``python -m repro.analysis.report``, one row per
  Table-1 system (rows from :func:`bench_entry` / :func:`error_entry`);
* ``BENCH_scenarios`` — ``benchmarks/run_bench_scenarios.py``, one row
  per scenario seed (rows from :func:`repro.soundness.scenarios.bench_rows`);
* ``BENCH_service`` — ``benchmarks/run_bench_service.py``, one row per
  service job key.

Two documents of one kind are compared by
``python -m repro.diagnostics.regress``, which is how the repo detects
outcome and performance regressions against a committed baseline.

Schema (version 2)::

    {
      "schema_version": 2,
      "kind": "BENCH_table1" | "BENCH_scenarios" | "BENCH_service",
      "scale": "smoke" | "paper" | "sweep" | "chaos" | "clean",
      "generated_at": "<iso8601>",
      "git_sha": "<sha or null>",
      "platform": {...},
      "config": {...},              # producer settings, {} when none
      "rows": {"<row key>": {...}, ...},
      "invariants": {"<name>": <bool or null>, ...},
      ...                           # kind-specific sections, e.g. the
                                    # service's "counts" and "cache"
    }

A ``BENCH_table1`` row::

    "C1": {
      "outcome": "success" | "failure" | "timeout" | "error",
      "iterations": 1,
      "stalled": false,
      "d_B": 2,
      "timings": {"T_l": ..., "T_c": ..., "T_v": ..., "T_e": ...,
                  "inclusion": ...},
      "audit": {"min_gram_eigenvalue": ..., "max_residual_bound": ...,
                "max_sdp_gap": ..., "min_grid_margin": ...} | null,
      "soundness": {"ok": ..., "conditions": ...,
                    "min_certified_margin": ...,
                    "max_slack_shift": ...} | absent,
      "error": {"kind": ..., "message": ..., ...} | absent
    }

``timeout`` is the paper's OOT (deadline overrun ended the run cleanly);
``error`` records a typed unrecoverable failure — both carry the failure
under ``error``.  The scenario and service rows are documented in
``docs/scenarios.md`` and ``docs/service.md``.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Any, Dict, Optional

from repro.telemetry import collect_git_sha, platform_info
from repro.utils.fileio import atomic_write_text

BENCH_SCHEMA_VERSION = 2

#: the document kinds; ``regress`` holds one gate policy per kind
BENCH_KINDS = ("BENCH_table1", "BENCH_scenarios", "BENCH_service")

#: timing keys every entry carries (paper column names + phase 0)
TIMING_KEYS = ("T_l", "T_c", "T_v", "T_e", "inclusion")

#: SNBCResult.outcome -> bench row outcome
RESULT_OUTCOMES = {
    "verified": "success",
    "not_verified": "failure",
    "timeout": "timeout",
    "error": "error",
}


def result_outcome(result: Any) -> str:
    """Bench-row outcome string for an SNBCResult."""
    return RESULT_OUTCOMES[result.outcome]


def bench_entry(
    result: Any, audit: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One ``BENCH_table1`` row from an :class:`~repro.cegis.snbc.SNBCResult`
    (duck-typed) and an optional audit artifact dict."""
    timings = result.timings
    entry = {
        "outcome": result_outcome(result),
        "iterations": int(result.iterations),
        "stalled": bool(getattr(result, "stalled", False)),
        "d_B": (
            int(result.barrier.degree) if result.barrier is not None else None
        ),
        "timings": {
            "T_l": round(float(timings.learning), 6),
            "T_c": round(float(timings.counterexample), 6),
            "T_v": round(float(timings.verification), 6),
            "T_e": round(float(timings.total), 6),
            "inclusion": round(float(timings.inclusion), 6),
        },
        "audit": dict(audit["summary"]) if audit else None,
    }
    soundness = getattr(result, "soundness", None)
    if soundness is not None:
        # the exact recheck verdict plus the smallest exactly-certified
        # margin across the conditions
        entry["soundness"] = soundness.summary()
    error = getattr(result, "error", None)
    if error:
        entry["error"] = dict(error)
    return entry


def error_entry(exc: BaseException) -> Dict[str, Any]:
    """A ``BENCH_table1`` row for a run that raised before producing a result
    (a driver-level crash): ``outcome == "error"`` with
    the exception class recorded, so the table keeps its full coverage
    and the regression gate sees the failure class."""
    from repro.resilience.errors import ReproError

    if isinstance(exc, ReproError):
        error = exc.to_dict()
    else:
        error = {"kind": type(exc).__name__, "message": str(exc)}
    return {
        "outcome": "error",
        "iterations": 0,
        "stalled": False,
        "d_B": None,
        "timings": {key: 0.0 for key in TIMING_KEYS},
        "audit": None,
        "error": error,
    }


def bench_document(
    kind: str,
    scale: str,
    rows: Dict[str, Dict[str, Any]],
    *,
    config: Optional[Dict[str, Any]] = None,
    invariants: Optional[Dict[str, Any]] = None,
    **sections: Any,
) -> Dict[str, Any]:
    """Assemble one BENCH document around prepared ``rows``."""
    if kind not in BENCH_KINDS:
        raise ValueError(f"unknown BENCH kind {kind!r}")
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": kind,
        "scale": scale,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": collect_git_sha(),
        "platform": platform_info(),
        "config": dict(config or {}),
        "rows": dict(rows),
        "invariants": dict(invariants or {}),
        **sections,
    }


def write_bench(path: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Atomically write ``doc`` to ``path``; returns the document."""
    atomic_write_text(
        path, json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    )
    return doc


def load_bench(path: str) -> Dict[str, Any]:
    """Read and schema-check a BENCH document of any kind."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") not in BENCH_KINDS:
        raise ValueError(f"{path}: not a BENCH document")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version "
            f"{doc.get('schema_version')!r} (expected {BENCH_SCHEMA_VERSION})"
        )
    for field in ("rows", "invariants"):
        if not isinstance(doc.get(field), dict):
            raise ValueError(f"{path}: missing/invalid {field!r}")
    return doc
