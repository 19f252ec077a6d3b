"""Render one run's trace as a human-readable report.

    python -m repro.telemetry report results/telemetry/C1-smoke
    python -m repro.telemetry report trace.jsonl --format markdown
    python -m repro.telemetry report trace.jsonl --format json
    python -m repro.telemetry report trace.jsonl --html run.report.html

Sections, each shown when the run has data for it:

* **Run** — the manifest header (name, outcome, seed, git SHA, times)
  plus the CEGIS iteration and counterexample counts and any stall.
* **Convergence** — per-iteration loss breakdown (``L_I``/``L_U``/
  ``L_D``), worst violation, counterexamples and dataset sizes.
* **Counterexample lineage** — which condition (13)–(15) each round's
  counterexamples violated, and whether the final certificate resolved
  them.
* **Certificate audit** — per-condition Gram/IPM margins, dense-grid
  margins, and the exact ℚ recheck verdict.
* **Phases** — total seconds per pipeline phase (spans carrying a
  ``phase`` attribute: inclusion / learning / verification /
  counterexample), with share-of-total.  These totals match
  ``SNBCResult.timings`` because both are filled from the same spans.
* **Spans** — per-span-name aggregate (count, total, self, mean, max)
  for the :data:`MAX_SPAN_ROWS` costliest names; *self* is exclusive
  time (total minus direct-child spans), so nested spans do not
  double-count.
* **IPM sub-phases** — solver time attributed inside the interior-point
  iteration (Z factorization, Schur assembly, Schur factorization, line
  search), aggregated from the per-iteration timers every
  ``sdp.ipm_trace`` event carries.
* **Metrics** — counters, gauges, and histogram summaries from the
  trailing ``metrics`` event.
* **Caches** — hit rates derived from paired ``<name>.hits`` /
  ``<name>.misses`` counters (workspace cache, compile-field cache,
  field-value cache, ...).

This module is stdlib-only: the convergence summary and the audit are
computed by :mod:`repro.diagnostics` and passed in as plain dicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

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


#: span names listed in the report (costliest first)
MAX_SPAN_ROWS = 20


def _fmt(x: Any) -> str:
    """One table cell: ``-`` for a missing value, integers verbatim,
    other numbers to 4 significant digits when tiny or huge and to 3
    decimals otherwise, anything else as ``str``."""
    if x is None:
        return "-"
    if isinstance(x, int):
        return str(x)
    try:
        v = float(x)
    except (TypeError, ValueError):
        return str(x)
    return f"{v:.4g}" if abs(v) < 1e-3 or abs(v) >= 1e5 else f"{v:.3f}"


def _table(
    header: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool = False
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


def report_payload(
    events: Sequence[Dict[str, Any]],
    manifest: Optional[Dict[str, Any]] = None,
    convergence: Optional[Dict[str, Any]] = None,
    audit: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Machine-readable report: every aggregate the text report shows.

    ``convergence`` is :func:`repro.diagnostics.convergence_summary` of
    the same events and ``audit`` the run's audit artifact; both pass
    through unchanged (``None`` when not supplied).
    """
    summary = metrics_summary(events)
    return {
        "manifest": manifest,
        "convergence": convergence,
        "audit": audit,
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


def _run_lines(
    manifest: Optional[Dict[str, Any]], convergence: Optional[Dict[str, Any]]
) -> List[str]:
    manifest = manifest or {}
    convergence = convergence or {}
    outcome = manifest.get("outcome") or (
        "success" if convergence.get("converged") else "unknown"
    )
    lines = [f"- outcome: {outcome}"]
    for key in ("seed", "git_sha", "started_at", "finished_at",
                "elapsed_seconds"):
        if manifest.get(key) is not None:
            lines.append(f"- {key}: {manifest[key]}")
    trace_id = (manifest.get("extra") or {}).get("trace_id")
    if trace_id:
        lines.append(f"- trace_id: {trace_id}")
    if convergence.get("n_iterations"):
        lines.append(
            f"- iterations: {convergence['n_iterations']}, counterexamples: "
            f"{convergence.get('n_resolved', 0)}/"
            f"{convergence.get('n_counterexamples', 0)} resolved"
        )
    stall = convergence.get("stall")
    if stall:
        lines.append(
            f"- STALL: worst violation non-decreasing for "
            f"{stall.get('window')} iterations (at iter "
            f"{stall.get('iteration')})"
        )
    return lines


def _audit_lines(audit: Dict[str, Any], markdown: bool) -> List[str]:
    rows = []
    for c in audit.get("conditions", []):
        sdp = c.get("sdp") or {}
        ipm = sdp.get("convergence") or "-"
        rung = sdp.get("recovery_rung")
        if rung and rung != "base":
            ipm += f" (via {rung})"
        rows.append([
            str(c.get("name")), str(c.get("paper_condition")),
            "ok" if c.get("feasible") and c.get("validated") else "FAILED",
            _fmt(c.get("min_gram_eigenvalue")), _fmt(c.get("residual_bound")),
            _fmt(sdp.get("gap")), ipm,
        ])
    lines = _table(["condition", "paper", "verdict", "min Gram eig",
                    "residual", "SDP gap", "ipm"], rows, markdown)
    grid = audit.get("grid_margins") or {}
    if grid:
        rows = []
        for name, m in grid.items():
            margin = m.get("margin")
            holds = margin is not None and float(margin) > 0
            rows.append([str(name), _fmt(margin), _fmt(m.get("n_points")),
                         "holds" if holds else "VIOLATED"])
        lines.append("")
        lines += _table(["grid", "margin", "points", "verdict"], rows,
                        markdown)
    soundness = audit.get("soundness")
    if soundness:
        verdict = "PROVEN over Q" if soundness.get("ok") else "REJECTED"
        rows = [
            [str(c.get("name")), "ok" if c.get("ok") else "FAILED",
             _fmt(c.get("certified_margin")), _fmt(c.get("slack_shift")),
             str(c.get("message") or "")]
            for c in soundness.get("conditions", [])
        ]
        lines += ["", f"exact recheck: {verdict}", ""]
        lines += _table(["condition", "verdict", "certified margin",
                         "shift", "message"], rows, markdown)
    return lines


def render_report(payload: Dict[str, Any], fmt: str = "text") -> str:
    """Render a :func:`report_payload` document (``fmt``: ``text`` or
    ``markdown``); ``--format json`` prints the document itself."""
    manifest = payload["manifest"]
    convergence = payload["convergence"]
    audit = payload["audit"]
    markdown = fmt == "markdown"
    lines: List[str] = []

    def section(title: str, body: List[str]) -> None:
        lines.append(f"## {title}" if markdown else f"== {title} ==")
        lines.extend(body)
        lines.append("")

    if manifest or (convergence or {}).get("n_iterations"):
        name = (manifest or {}).get("name", "(unnamed run)")
        section(f"Run: {name}", _run_lines(manifest, convergence))

    iterations = (convergence or {}).get("iterations") or []
    if iterations:
        rows = [
            [str(r.get("iteration", "?")), _fmt(r.get("loss")),
             _fmt(r.get("loss_init")), _fmt(r.get("loss_unsafe")),
             _fmt(r.get("loss_domain")), _fmt(r.get("worst_violation")),
             str(r.get("n_counterexamples", 0)),
             "/".join(str(s) for s in r.get("dataset_sizes") or []),
             "yes" if r.get("verified") else "no"]
            for r in iterations
        ]
        section("Convergence", _table(
            ["iter", "loss", "L_I", "L_U", "L_D", "worst", "cex", "dataset",
             "ok"], rows, markdown))

    lineage = (convergence or {}).get("lineage") or []
    if lineage:
        rows = [
            [str(r.get("iteration")), str(r.get("condition")),
             str(r.get("paper_condition")), _fmt(r.get("worst_violation")),
             str(r.get("n_points")),
             "resolved" if r.get("satisfied_by_final") else "STILL VIOLATED",
             _fmt(r.get("final_violation"))]
            for r in lineage
        ]
        section("Counterexample lineage", _table(
            ["iter", "condition", "paper", "violation", "points", "status",
             "final"], rows, markdown))

    if audit:
        section("Certificate audit", _audit_lines(audit, markdown))

    totals = payload["phases"]
    if totals:
        grand = sum(totals.values())
        ordered = [p for p in PHASE_ORDER if p in totals]
        ordered += sorted(set(totals) - set(ordered))
        rows = [
            [p, f"{totals[p]:.3f}",
             f"{100.0 * totals[p] / grand:.1f}%" if grand else "-"]
            for p in ordered
        ]
        rows.append(["total", f"{grand:.3f}", "100.0%"])
        section("Phases", _table(["phase", "seconds", "share"], rows, markdown))

    spans = payload["spans"]
    if spans:
        rows = [
            [s["name"], str(s["count"]), f"{s['total']:.3f}",
             f"{s['self']:.3f}", f"{s['mean']:.4f}", f"{s['max']:.4f}"]
            for s in spans[:MAX_SPAN_ROWS]
        ]
        body = _table(["span", "count", "total s", "self s", "mean s",
                       "max s"], rows, markdown)
        if len(spans) > MAX_SPAN_ROWS:
            body.append(f"... {len(spans) - MAX_SPAN_ROWS} more span names")
        section("Spans", body)

    subphases = payload["ipm_subphases"]
    if subphases:
        grand = sum(r["seconds"] for r in subphases)
        rows = [
            [r["phase"], f"{r['seconds']:.3f}", str(r["iterations"]),
             _fmt(r["mean_s"]),
             f"{100.0 * r['seconds'] / grand:.1f}%" if grand else "-"]
            for r in subphases
        ]
        section("IPM sub-phases", _table(
            ["phase", "seconds", "iterations", "mean s/it", "share"],
            rows, markdown))

    summary = payload["metrics"]
    counters = summary.get("counters", {})
    gauges = summary.get("gauges", {})
    if counters or gauges:
        rows = [[k, "counter", _fmt(float(v))] for k, v in sorted(counters.items())]
        rows += [[k, "gauge", _fmt(float(v))] for k, v in sorted(gauges.items())]
        section("Metrics", _table(["metric", "kind", "value"], rows, markdown))
    if payload["caches"]:
        rows = [
            [c["name"], str(c["hits"]), str(c["misses"]),
             f"{100.0 * c['hit_rate']:.1f}%"]
            for c in payload["caches"]
        ]
        section("Caches", _table(["cache", "hits", "misses", "hit rate"],
                                 rows, markdown))
    hists = summary.get("histograms", {})
    if hists:
        rows = [
            [k, str(int(s["count"])), _fmt(s["mean"]), _fmt(s["p50"]),
             _fmt(s["p95"]), _fmt(s["max"])]
            for k, s in sorted(hists.items())
        ]
        section("Histograms", _table(
            ["metric", "count", "mean", "p50", "p95", "max"], rows, markdown))

    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines).rstrip() + "\n"
