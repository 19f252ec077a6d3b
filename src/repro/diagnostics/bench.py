"""The ``BENCH_table1.json`` schema: one benchmark trajectory point.

Every Table 1 harness run can be reduced to a flat JSON document of
per-system rows — outcome, CEGIS iterations, the paper's phase timings
``T_l``/``T_c``/``T_v``/``T_e``, and the audit margins — plus provenance
(git SHA, platform, scale).  Two such documents are comparable by
``python -m repro.diagnostics.regress``, which is how the repo detects
perf/outcome regressions against a committed baseline.

Schema (version 1)::

    {
      "schema_version": 1,
      "kind": "BENCH_table1",
      "scale": "smoke" | "paper",
      "generated_at": "<iso8601>",
      "git_sha": "<sha or null>",
      "platform": {...},
      "systems": {
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
        }, ...
      }
    }

``timeout`` is the paper's OOT (deadline overrun ended the run cleanly);
``error`` records a typed unrecoverable failure — both carry the failure
under ``error``.  The additive fields keep the schema at version 1:
documents written by older revisions load unchanged.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Any, Dict, Optional

from repro.telemetry import collect_git_sha, platform_info

BENCH_SCHEMA_VERSION = 1
BENCH_KIND = "BENCH_table1"

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
    """Bench-row outcome string for an SNBCResult (duck-typed; results
    from revisions predating the ``outcome`` field map via ``success``)."""
    outcome = getattr(result, "outcome", "")
    if outcome in RESULT_OUTCOMES:
        return RESULT_OUTCOMES[outcome]
    return "success" if result.success else "failure"


def bench_entry(
    result: Any, audit: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One ``systems`` row from an :class:`~repro.cegis.snbc.SNBCResult`
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
        # additive key (schema stays v1): the exact recheck verdict plus
        # the smallest exactly-certified margin across the conditions
        entry["soundness"] = soundness.summary()
    error = getattr(result, "error", None)
    if error:
        entry["error"] = dict(error)
    return entry


def error_entry(exc: BaseException) -> Dict[str, Any]:
    """A ``systems`` row for a run that raised before producing a result
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
    systems: Dict[str, Dict[str, Any]], scale: str, **extra: Any
) -> Dict[str, Any]:
    """Assemble the full document around prepared ``systems`` rows."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "scale": scale,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": collect_git_sha(),
        "platform": platform_info(),
        "systems": dict(systems),
        **extra,
    }


def write_bench(
    path: str, systems: Dict[str, Dict[str, Any]], scale: str, **extra: Any
) -> Dict[str, Any]:
    """Write a BENCH document to ``path``; returns the document."""
    doc = bench_document(systems, scale, **extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return doc


def load_bench(path: str) -> Dict[str, Any]:
    """Read and schema-check a BENCH document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != BENCH_KIND:
        raise ValueError(f"{path}: not a {BENCH_KIND} document")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version "
            f"{doc.get('schema_version')!r} (expected {BENCH_SCHEMA_VERSION})"
        )
    if not isinstance(doc.get("systems"), dict):
        raise ValueError(f"{path}: missing 'systems' mapping")
    return doc
