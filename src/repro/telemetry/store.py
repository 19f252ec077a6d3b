"""Cross-run fleet telemetry store.

One run leaves an artifact family on disk (``<base>.jsonl`` trace,
``<base>.manifest.json``, ``<base>.audit.json``); a results tree
accumulates many.  This module indexes every family under a root into
:class:`RunRecord` rows and folds them into one deterministic,
JSON-ready :func:`fleet_summary` — per-system iteration counts,
phase-time totals, cache hit rates, SDP recovery engagement, and
IPM-convergence-class histograms across runs.  It is the query substrate
the future service tier aggregates per-user requests into; today it is
the ``python -m repro.telemetry.fleet`` CLI.

Everything here reads static files and tolerates partial families:
a trace with no manifest, or whose manifest never recorded an outcome
(the process died mid-run), indexes with the explicit outcome
``incomplete`` and ``incomplete: true`` on the record; malformed JSONL
lines are skipped the same way the report CLIs skip them, and artifacts
written before a given schema addition simply leave the corresponding
fields empty.
The summary is a pure function of file contents — no clocks — so
committed fixtures can pin it with a golden test; *live* staleness
detection (heartbeat age) belongs to ``repro.telemetry.tail``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.report import cache_rates, metrics_summary, phase_totals
from repro.telemetry.spans import read_trace

FLEET_SCHEMA_VERSION = 1


def _round(x: Optional[float], digits: int = 6) -> Optional[float]:
    if x is None:
        return None
    v = float(x)
    if not math.isfinite(v):
        return None
    return round(v, digits)


@dataclass
class RunRecord:
    """One indexed run: the cheap-to-query projection of its artifacts."""

    base: str                      # artifact family path relative to the root
    name: str = "unknown"          # manifest name, e.g. "table1/C1"
    system: str = "unknown"        # benchmark system id parsed from the name
    scale: str = "unknown"         # smoke / paper when derivable
    outcome: str = "unknown"
    #: no manifest, or a manifest with no recorded outcome: the run died
    #: (or is still running) before ``session`` finalized its artifacts
    incomplete: bool = False
    seed: Optional[int] = None
    git_sha: Optional[str] = None
    started_at: Optional[str] = None
    elapsed_seconds: Optional[float] = None
    iterations: Optional[int] = None
    phases: Dict[str, float] = field(default_factory=dict)
    caches: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    convergence: Dict[str, int] = field(default_factory=dict)
    recovery_engaged: int = 0
    recovery_successes: int = 0
    truncated: bool = False
    n_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base,
            "name": self.name,
            "system": self.system,
            "scale": self.scale,
            "outcome": self.outcome,
            "incomplete": self.incomplete,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "started_at": self.started_at,
            "elapsed_seconds": _round(self.elapsed_seconds),
            "iterations": self.iterations,
            "phases": {k: _round(v) for k, v in sorted(self.phases.items())},
            "caches": self.caches,
            "convergence": dict(sorted(self.convergence.items())),
            "recovery_engaged": self.recovery_engaged,
            "recovery_successes": self.recovery_successes,
            "truncated": self.truncated,
            "n_events": self.n_events,
        }


def _load_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return out if isinstance(out, dict) else None


def _system_and_scale(name: str, base: str) -> Tuple[str, str]:
    """Best-effort (system, scale) from a manifest name or file base.

    ``table1/C1`` → (``C1``, scale from the file base's ``-smoke`` /
    ``-paper`` suffix when present); a bare base like ``C3-paper`` parses
    directly.
    """
    system = name.rsplit("/", 1)[-1] if name and name != "unknown" else ""
    stem = os.path.basename(base)
    scale = "unknown"
    if "-" in stem:
        head, tail = stem.rsplit("-", 1)
        if tail in ("smoke", "paper"):
            scale = tail
            if not system:
                system = head
    if not system:
        system = stem or "unknown"
    return system, scale


def _convergence_histogram(events: Sequence[Dict[str, Any]],
                           audit: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """Convergence-class counts for one run.

    Prefers the per-solve ``sdp.ipm_trace`` events (one per IPM solve);
    falls back to ``sdp.solve`` span attrs, then to the audit's
    per-condition verdicts — so pre-tracing artifacts still contribute
    whatever they recorded (possibly nothing).
    """
    hist: Dict[str, int] = {}

    def bump(value: Any) -> None:
        if value:
            hist[str(value)] = hist.get(str(value), 0) + 1

    for e in events:
        if e.get("type") == "sdp.ipm_trace":
            bump(e.get("convergence"))
    if hist:
        return hist
    for e in events:
        if e.get("type") == "span" and e.get("name") == "sdp.solve":
            bump(e.get("attrs", {}).get("convergence"))
    if hist:
        return hist
    for c in (audit or {}).get("conditions", []):
        bump((c.get("sdp") or {}).get("convergence"))
    return hist


def load_run(trace_path: str, root: Optional[str] = None) -> Optional[RunRecord]:
    """Index one trace (plus its sibling manifest/audit) into a record.

    Returns ``None`` when the trace is unreadable or contains no valid
    JSON lines at all (e.g. a stray non-trace ``.jsonl``).
    """
    try:
        events, skipped = read_trace(trace_path)
    except OSError:
        return None
    if not events and skipped:
        return None

    base = trace_path[:-6] if trace_path.endswith(".jsonl") else trace_path
    rel_base = os.path.relpath(base, root) if root else base
    rec = RunRecord(base=rel_base.replace(os.sep, "/"), n_events=len(events))

    manifest = _load_json(base + ".manifest.json")
    if manifest:
        rec.name = str(manifest.get("name") or "unknown")
        outcome = manifest.get("outcome")
        # a manifest without an outcome means session() never finalized:
        # the run crashed, was killed, or is still going — mark explicitly
        # rather than degrading to the pre-tracing "unknown"
        rec.outcome = str(outcome) if outcome else "incomplete"
        rec.incomplete = not outcome
        seed = manifest.get("seed")
        rec.seed = int(seed) if isinstance(seed, int) else None
        rec.git_sha = manifest.get("git_sha")
        rec.started_at = manifest.get("started_at")
        elapsed = manifest.get("elapsed_seconds")
        rec.elapsed_seconds = float(elapsed) if elapsed is not None else None
        iterations = (manifest.get("extra") or {}).get("iterations")
        rec.iterations = int(iterations) if isinstance(iterations, int) else None
        scale = (manifest.get("config") or {}).get("scale")
    else:
        # trace with no manifest at all: a partially-written family
        rec.outcome = "incomplete"
        rec.incomplete = True
        scale = None
    if rec.iterations is None:
        n = sum(1 for e in events if e.get("type") == "cegis.iteration")
        rec.iterations = n or None

    rec.system, file_scale = _system_and_scale(rec.name, base)
    rec.scale = str(scale) if scale else file_scale

    audit = _load_json(base + ".audit.json")
    rec.phases = phase_totals(events)
    counters = metrics_summary(events).get("counters", {})
    rec.caches = {
        name: {"hits": hits, "misses": misses, "rate": _round(rate)}
        for name, hits, misses, rate in cache_rates(counters)
    }
    rec.convergence = _convergence_histogram(events, audit)
    rec.recovery_engaged = int(counters.get("sdp.recovery.engaged", 0))
    rec.recovery_successes = int(sum(
        v for k, v in counters.items()
        if k.startswith("sdp.recovery.") and k.endswith(".successes")
    ))
    rec.truncated = any(e.get("type") == "trace_truncated" for e in events)
    return rec


def scan_runs(root: str) -> List[RunRecord]:
    """Walk ``root`` and index every ``*.jsonl`` trace found.

    Sorted by relative base path, so the result (and everything derived
    from it) is independent of filesystem iteration order.
    """
    trace_paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".jsonl"):
                trace_paths.append(os.path.join(dirpath, fname))
    records = []
    for path in sorted(trace_paths):
        rec = load_run(path, root=root)
        if rec is not None:
            records.append(rec)
    records.sort(key=lambda r: r.base)
    return records


def _mean(values: Sequence[float]) -> Optional[float]:
    vals = [float(v) for v in values if v is not None and math.isfinite(float(v))]
    return sum(vals) / len(vals) if vals else None


def fleet_summary(records: Sequence[RunRecord]) -> Dict[str, Any]:
    """Fold run records into the one aggregate document.

    Deterministic given the records (no clocks, no randomness): keys are
    sorted, floats rounded to 6 digits — suitable for golden tests.
    """
    systems: Dict[str, List[RunRecord]] = {}
    for rec in records:
        systems.setdefault(rec.system, []).append(rec)

    outcome_hist: Dict[str, int] = {}
    convergence_total: Dict[str, int] = {}
    cache_totals: Dict[str, Dict[str, int]] = {}
    for rec in records:
        outcome_hist[rec.outcome] = outcome_hist.get(rec.outcome, 0) + 1
        for cls, n in rec.convergence.items():
            convergence_total[cls] = convergence_total.get(cls, 0) + n
        for name, c in rec.caches.items():
            agg = cache_totals.setdefault(name, {"hits": 0, "misses": 0})
            agg["hits"] += int(c.get("hits", 0))
            agg["misses"] += int(c.get("misses", 0))

    system_rows: Dict[str, Any] = {}
    for system, recs in sorted(systems.items()):
        phase_acc: Dict[str, List[float]] = {}
        for rec in recs:
            for phase, seconds in rec.phases.items():
                phase_acc.setdefault(phase, []).append(seconds)
        conv: Dict[str, int] = {}
        for rec in recs:
            for cls, n in rec.convergence.items():
                conv[cls] = conv.get(cls, 0) + n
        iterations = [r.iterations for r in recs if r.iterations is not None]
        hits = sum(int(c.get("hits", 0)) for r in recs for c in r.caches.values())
        misses = sum(
            int(c.get("misses", 0)) for r in recs for c in r.caches.values()
        )
        system_rows[system] = {
            "runs": len(recs),
            "scales": sorted({r.scale for r in recs}),
            "outcomes": {
                o: sum(1 for r in recs if r.outcome == o)
                for o in sorted({r.outcome for r in recs})
            },
            "iterations": {
                "min": min(iterations) if iterations else None,
                "max": max(iterations) if iterations else None,
                "mean": _round(_mean(iterations)),
            },
            "elapsed_seconds": {
                "mean": _round(_mean(
                    [r.elapsed_seconds for r in recs
                     if r.elapsed_seconds is not None]
                )),
                "total": _round(sum(
                    r.elapsed_seconds for r in recs
                    if r.elapsed_seconds is not None
                )),
            },
            "phase_seconds": {
                phase: {
                    "mean": _round(_mean(vals)),
                    "total": _round(sum(vals)),
                }
                for phase, vals in sorted(phase_acc.items())
            },
            "cache_hit_rate": _round(
                hits / (hits + misses) if (hits + misses) else None
            ) if (hits + misses) else None,
            "convergence": dict(sorted(conv.items())),
            "sdp_recovery": {
                "engaged": sum(r.recovery_engaged for r in recs),
                "successes": sum(r.recovery_successes for r in recs),
            },
        }

    return {
        "schema_version": FLEET_SCHEMA_VERSION,
        "kind": "fleet_summary",
        "n_runs": len(records),
        "n_incomplete": sum(1 for r in records if r.incomplete),
        "n_systems": len(systems),
        "outcomes": dict(sorted(outcome_hist.items())),
        "convergence": dict(sorted(convergence_total.items())),
        "caches": {
            name: {
                "hits": agg["hits"],
                "misses": agg["misses"],
                "rate": _round(
                    agg["hits"] / (agg["hits"] + agg["misses"])
                ) if (agg["hits"] + agg["misses"]) else None,
            }
            for name, agg in sorted(cache_totals.items())
        },
        "systems": system_rows,
        "runs": [r.to_dict() for r in records],
    }
