"""Render a telemetry trace as a human-readable report.

    python -m repro.telemetry.report results/telemetry/C1-smoke.jsonl
    python -m repro.telemetry.report trace.jsonl --format markdown
    python -m repro.telemetry.report trace.jsonl --format json
    python -m repro.telemetry.report trace.jsonl --manifest run.manifest.json

Sections:

* **Phases** — total seconds per pipeline phase (spans carrying a
  ``phase`` attribute: inclusion / learning / verification /
  counterexample), with share-of-total.  These totals match
  ``SNBCResult.timings`` because both are filled from the same spans.
* **Spans** — per-span-name aggregate (count, total, self, mean, max);
  *self* is exclusive time (total minus direct-child spans), so nested
  spans do not double-count.
* **IPM sub-phases** — solver time attributed inside the interior-point
  iteration (Z factorization, Schur assembly, Schur factorization, line
  search), aggregated from the per-iteration timers every
  ``sdp.ipm_trace`` event carries.
* **Metrics** — counters, gauges, and histogram summaries from the
  trailing ``metrics`` event.
* **Caches** — hit rates derived from paired ``<name>.hits`` /
  ``<name>.misses`` counters (workspace cache, compile-field cache,
  field-value cache, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.spans import read_trace

#: canonical pipeline order for the phase table
PHASE_ORDER = ["inclusion", "learning", "verification", "counterexample"]


def phase_totals(events: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Sum span durations per ``phase`` attribute.

    Only spans that *carry* the attribute count, so nested helper spans
    (e.g. SDP solves inside a verification span) are not double-counted.
    """
    totals: Dict[str, float] = {}
    for e in events:
        if e.get("type") != "span":
            continue
        phase = e.get("attrs", {}).get("phase")
        if phase:
            totals[phase] = totals.get(phase, 0.0) + float(e.get("duration", 0.0))
    return totals


def span_self_times(events: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Exclusive (self) seconds per span id: duration minus the summed
    durations of its *direct* children, floored at 0 (clock jitter can
    make children sum past the parent by nanoseconds).
    """
    by_id: Dict[int, Dict[str, Any]] = {
        e["span_id"]: e
        for e in events
        if e.get("type") == "span" and e.get("span_id") is not None
    }
    child_sum: Dict[int, float] = {}
    for e in by_id.values():
        parent = e.get("parent_id")
        if parent is None:
            continue
        child_sum[parent] = child_sum.get(parent, 0.0) + float(
            e.get("duration", 0.0)
        )
    return {
        span_id: max(
            0.0, float(e.get("duration", 0.0)) - child_sum.get(span_id, 0.0)
        )
        for span_id, e in by_id.items()
    }


def span_aggregates(
    events: Sequence[Dict[str, Any]],
) -> List[Tuple[str, int, float, float, float, float]]:
    """Per-name (count, total, self, mean, max) rows sorted by total desc.

    ``total`` is inclusive wall time; ``self`` excludes time attributed
    to child spans, so nested spans (``snbc.verification`` wrapping
    ``sdp.solve``) no longer double-count in a "where did the time go"
    reading.
    """
    selfs = span_self_times(events)
    acc: Dict[str, List[float]] = {}
    self_acc: Dict[str, float] = {}
    for e in events:
        if e.get("type") == "span":
            name = e["name"]
            acc.setdefault(name, []).append(float(e.get("duration", 0.0)))
            self_acc[name] = self_acc.get(name, 0.0) + selfs.get(
                e.get("span_id"), float(e.get("duration", 0.0))
            )
    rows = [
        (name, len(ds), sum(ds), self_acc.get(name, 0.0), sum(ds) / len(ds),
         max(ds))
        for name, ds in acc.items()
    ]
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


#: solver sub-phase keys in per-iteration IPM trace records, in
#: iteration order (see :mod:`repro.sdp.trace`)
IPM_SUBPHASES = ("t_residuals", "t_z_factor", "t_schur_assembly",
                 "t_schur_factor", "t_direction", "t_line_search")


def ipm_subphase_totals(
    events: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate solver sub-phase timers across all ``sdp.ipm_trace``
    events (one per solve, carrying per-iteration records).

    Returns one row per sub-phase with total seconds, the number of
    iterations that recorded the phase, and mean seconds per iteration —
    attributing time *inside* the IPM instead of to the solve span as a
    whole.  Empty when no solve emitted timed records (e.g. traces from
    before the timers existed).
    """
    totals = {k: 0.0 for k in IPM_SUBPHASES}
    counts = {k: 0 for k in IPM_SUBPHASES}
    for e in events:
        if e.get("type") != "sdp.ipm_trace":
            continue
        for rec in e.get("records") or []:
            for k in IPM_SUBPHASES:
                v = rec.get(k)
                if isinstance(v, (int, float)) and v == v:  # skip nan/None
                    totals[k] += float(v)
                    counts[k] += 1
    return [
        {
            "phase": k[2:],
            "seconds": totals[k],
            "iterations": counts[k],
            "mean_s": totals[k] / counts[k] if counts[k] else 0.0,
        }
        for k in IPM_SUBPHASES
        if counts[k]
    ]


def metrics_summary(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The last ``metrics`` event's summary (empty if none was emitted)."""
    summary: Dict[str, Any] = {}
    for e in events:
        if e.get("type") == "metrics":
            summary = e.get("summary", {})
    return summary


def cache_rates(counters: Dict[str, float]) -> List[Tuple[str, int, int, float]]:
    """Pair ``<name>.hits`` / ``<name>.misses`` counters into hit rates.

    A cache shows up as soon as either counter exists (a cold run has
    only misses); returns ``(name, hits, misses, rate)`` rows sorted by
    name.
    """
    names = {
        k[: -len(suffix)]
        for k in counters
        for suffix in (".hits", ".misses")
        if k.endswith(suffix)
    }
    rows = []
    for name in sorted(names):
        hits = int(counters.get(name + ".hits", 0))
        misses = int(counters.get(name + ".misses", 0))
        total = hits + misses
        rows.append((name, hits, misses, hits / total if total else 0.0))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.4g}" if abs(x) < 1e-3 or abs(x) >= 1e5 else f"{x:.3f}"


def _table(
    header: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool
) -> List[str]:
    if markdown:
        out = ["| " + " | ".join(header) + " |",
               "|" + "|".join("---" for _ in header) + "|"]
        out += ["| " + " | ".join(r) + " |" for r in rows]
        return out
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    out = [line, "-" * len(line)]
    out += ["  ".join(r[i].ljust(widths[i]) for i in range(len(header))) for r in rows]
    return out


def render_report(
    events: Sequence[Dict[str, Any]],
    fmt: str = "text",
    manifest: Optional[Dict[str, Any]] = None,
    max_span_rows: int = 20,
) -> str:
    """Build the full report string (``fmt``: ``text`` or ``markdown``)."""
    markdown = fmt == "markdown"
    h = (lambda s: f"## {s}") if markdown else (lambda s: f"== {s} ==")
    lines: List[str] = []

    if manifest:
        lines.append(h("Run"))
        for key in ("name", "outcome", "seed", "git_sha", "started_at",
                    "finished_at", "elapsed_seconds"):
            if manifest.get(key) is not None:
                lines.append(f"- {key}: {manifest[key]}")
        trace_id = (manifest.get("extra") or {}).get("trace_id")
        if trace_id:
            lines.append(f"- trace_id: {trace_id}")
        lines.append("")

    totals = phase_totals(events)
    if totals:
        grand = sum(totals.values())
        ordered = [p for p in PHASE_ORDER if p in totals]
        ordered += sorted(set(totals) - set(ordered))
        rows = [
            [p, f"{totals[p]:.3f}", f"{100.0 * totals[p] / grand:.1f}%"]
            for p in ordered
        ]
        rows.append(["total", f"{grand:.3f}", "100.0%"])
        lines.append(h("Phases"))
        lines += _table(["phase", "seconds", "share"], rows, markdown)
        lines.append("")

    span_rows = span_aggregates(events)
    if span_rows:
        rows = [
            [name, str(count), f"{total:.3f}", f"{self_total:.3f}",
             f"{mean:.4f}", f"{mx:.4f}"]
            for name, count, total, self_total, mean, mx
            in span_rows[:max_span_rows]
        ]
        lines.append(h("Spans"))
        lines += _table(["span", "count", "total s", "self s", "mean s",
                         "max s"], rows, markdown)
        if len(span_rows) > max_span_rows:
            lines.append(f"... {len(span_rows) - max_span_rows} more span names")
        lines.append("")

    subphases = ipm_subphase_totals(events)
    if subphases:
        grand = sum(r["seconds"] for r in subphases)
        rows = [
            [r["phase"], f"{r['seconds']:.3f}", str(r["iterations"]),
             _fmt(r["mean_s"]),
             f"{100.0 * r['seconds'] / grand:.1f}%" if grand else "-"]
            for r in subphases
        ]
        lines.append(h("IPM sub-phases"))
        lines += _table(
            ["phase", "seconds", "iterations", "mean s/it", "share"],
            rows, markdown,
        )
        lines.append("")

    summary = metrics_summary(events)
    counters = summary.get("counters", {})
    gauges = summary.get("gauges", {})
    hists = summary.get("histograms", {})
    if counters or gauges:
        rows = [[k, "counter", _fmt(v)] for k, v in sorted(counters.items())]
        rows += [[k, "gauge", _fmt(v)] for k, v in sorted(gauges.items())]
        lines.append(h("Metrics"))
        lines += _table(["metric", "kind", "value"], rows, markdown)
        lines.append("")
    caches = cache_rates(counters)
    if caches:
        rows = [
            [name, str(hits), str(misses), f"{100.0 * rate:.1f}%"]
            for name, hits, misses, rate in caches
        ]
        lines.append(h("Caches"))
        lines += _table(["cache", "hits", "misses", "hit rate"], rows, markdown)
        lines.append("")
    if hists:
        rows = [
            [k, str(int(s["count"])), _fmt(s["mean"]), _fmt(s["p50"]),
             _fmt(s["p95"]), _fmt(s["max"])]
            for k, s in sorted(hists.items())
        ]
        lines.append(h("Histograms"))
        lines += _table(["metric", "count", "mean", "p50", "p95", "max"],
                        rows, markdown)
        lines.append("")

    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines).rstrip() + "\n"


def report_payload(
    events: Sequence[Dict[str, Any]],
    manifest: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Machine-readable report: the same aggregates the text report shows."""
    summary = metrics_summary(events)
    return {
        "manifest": manifest,
        "phases": phase_totals(events),
        "spans": [
            {"name": name, "count": count, "total": total, "self": self_total,
             "mean": mean, "max": mx}
            for name, count, total, self_total, mean, mx
            in span_aggregates(events)
        ],
        "ipm_subphases": ipm_subphase_totals(events),
        "metrics": summary,
        "caches": [
            {"name": name, "hits": hits, "misses": misses, "hit_rate": rate}
            for name, hits, misses, rate in cache_rates(
                summary.get("counters", {})
            )
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument("--format", choices=["text", "markdown", "json"],
                        default="text")
    parser.add_argument("--manifest", default=None,
                        help="run manifest JSON to include (auto-detected "
                             "from <trace>.manifest.json when present)")
    parser.add_argument("--max-span-rows", type=int, default=20)
    args = parser.parse_args(argv)

    # tolerate truncated/corrupt lines: a crashed run leaves a partial
    # final record, and its trace is exactly the one worth reading
    try:
        events, skipped = read_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if skipped and not events:
        print(
            f"error: all {skipped} line(s) of the trace are malformed",
            file=sys.stderr,
        )
        return 1
    if skipped:
        print(f"warning: skipped {skipped} malformed line(s)", file=sys.stderr)
    manifest: Optional[Dict[str, Any]] = None
    manifest_path = args.manifest
    if manifest_path is None:
        base = args.trace[:-6] if args.trace.endswith(".jsonl") else args.trace
        candidate = base + ".manifest.json"
        import os
        if os.path.exists(candidate):
            manifest_path = candidate
    if manifest_path:
        from repro.telemetry.manifest import RunManifest
        manifest = RunManifest.load(manifest_path)

    if args.format == "json":
        print(json.dumps(report_payload(events, manifest=manifest),
                         indent=2, sort_keys=True))
        return 0
    print(render_report(events, fmt=args.format, manifest=manifest,
                        max_span_rows=args.max_span_rows), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
