"""The run report CLI: terminal summary + single-file HTML dashboard.

    python -m repro.diagnostics.report results/telemetry/C1-smoke
    python -m repro.diagnostics.report results/telemetry/C1-smoke.jsonl
    python -m repro.diagnostics.report trace.jsonl --html out.html
    python -m repro.diagnostics.report trace.jsonl --no-html

``<run>`` names one run's artifact family: the ``<base>.jsonl`` trace
(required), plus ``<base>.manifest.json`` and ``<base>.audit.json`` when
present (each is warn-only if missing — a trace alone still yields the
convergence story).  The terminal summary shows the CEGIS convergence
table, counterexample lineage, audit margins, and the per-phase time
breakdown; unless ``--no-html`` is given, a self-contained dashboard is
written to ``<base>.report.html`` (no external JS/CSS — safe to attach
to CI artifacts and open offline).

Exit codes: 0 ok, 1 trace exists but every line is malformed,
2 trace unreadable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.diagnostics.audit import load_audit
from repro.diagnostics.convergence import convergence_summary
from repro.diagnostics.html import render_dashboard
from repro.telemetry.report import metrics_summary, phase_totals
from repro.telemetry.spans import read_trace


def resolve_run(run: str) -> Dict[str, Optional[str]]:
    """Map a ``<run>`` argument to its artifact paths.

    Accepts the trace path itself or the extension-less base; manifest
    and audit paths are returned only when the files exist.
    """
    base = run[: -len(".jsonl")] if run.endswith(".jsonl") else run
    trace = base + ".jsonl"
    if not os.path.exists(trace) and os.path.exists(run):
        trace, base = run, run  # trace with a non-.jsonl name
    manifest = base + ".manifest.json"
    audit = base + ".audit.json"
    return {
        "base": base,
        "trace": trace,
        "manifest": manifest if os.path.exists(manifest) else None,
        "audit": audit if os.path.exists(audit) else None,
    }


def _fmt(x: Any) -> str:
    if x is None:
        return "-"
    try:
        v = float(x)
    except (TypeError, ValueError):
        return str(x)
    return f"{v:.4g}" if abs(v) < 1e-3 or abs(v) >= 1e5 else f"{v:.4f}"


def render_terminal(
    summary: Dict[str, Any],
    manifest: Optional[Dict[str, Any]],
    audit: Optional[Dict[str, Any]],
    phases: Dict[str, float],
) -> str:
    lines: List[str] = []
    manifest = manifest or {}
    name = manifest.get("name", "(unnamed run)")
    outcome = manifest.get("outcome") or (
        "success" if summary.get("converged") else "unknown"
    )
    lines.append(f"== Run: {name} ==")
    lines.append(
        f"outcome: {outcome}  iterations: {summary.get('n_iterations', 0)}  "
        f"counterexamples: {summary.get('n_resolved', 0)}/"
        f"{summary.get('n_counterexamples', 0)} resolved"
    )
    stall = summary.get("stall")
    if stall:
        lines.append(
            f"STALL: worst violation non-decreasing for "
            f"{stall.get('window')} iterations (at iter "
            f"{stall.get('iteration')})"
        )
    lines.append("")

    rows = summary.get("iterations", [])
    if rows:
        lines.append("== Convergence ==")
        header = (
            f"{'iter':>4}  {'total':>10}  {'L_I':>10}  {'L_U':>10}  "
            f"{'L_D':>10}  {'worst':>10}  {'cex':>4}  {'dataset':>15}  ok"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in rows:
            sizes = r.get("dataset_sizes") or []
            lines.append(
                f"{r.get('iteration', '?'):>4}  {_fmt(r.get('loss')):>10}  "
                f"{_fmt(r.get('loss_init')):>10}  "
                f"{_fmt(r.get('loss_unsafe')):>10}  "
                f"{_fmt(r.get('loss_domain')):>10}  "
                f"{_fmt(r.get('worst_violation')):>10}  "
                f"{r.get('n_counterexamples', 0):>4}  "
                f"{'/'.join(str(s) for s in sizes):>15}  "
                f"{'yes' if r.get('verified') else 'no'}"
            )
        lines.append("")

    lineage = summary.get("lineage", [])
    if lineage:
        lines.append("== Counterexample lineage ==")
        for r in lineage:
            status = (
                "resolved" if r.get("satisfied_by_final")
                else "STILL VIOLATED"
            )
            lines.append(
                f"  iter {r.get('iteration')}: {r.get('condition')} "
                f"(condition {r.get('paper_condition')}), "
                f"violation {_fmt(r.get('worst_violation'))}, "
                f"{r.get('n_points')} pts -> {status} "
                f"(final {_fmt(r.get('final_violation'))})"
            )
        lines.append("")

    if audit:
        lines.append("== Certificate audit ==")
        for c in audit.get("conditions", []):
            sdp = c.get("sdp", {})
            verdict = (
                "ok" if c.get("feasible") and c.get("validated") else "FAILED"
            )
            convergence = sdp.get("convergence") or "-"
            rung = sdp.get("recovery_rung") or ""
            if rung and rung != "base":
                convergence += f" (via {rung})"
            lines.append(
                f"  {c.get('name')} ({c.get('paper_condition')}): {verdict}  "
                f"min Gram eig {_fmt(c.get('min_gram_eigenvalue'))}  "
                f"residual {_fmt(c.get('residual_bound'))}  "
                f"SDP gap {_fmt(sdp.get('gap'))}  "
                f"ipm {convergence}"
            )
        for name_, m in (audit.get("grid_margins") or {}).items():
            margin = m.get("margin")
            holds = margin is not None and float(margin) > 0
            lines.append(
                f"  grid {name_}: margin {_fmt(margin)} over "
                f"{m.get('n_points')} pts "
                f"{'(holds)' if holds else '(VIOLATED)'}"
            )
        soundness = audit.get("soundness")
        if soundness:
            verdict = "PROVEN over Q" if soundness.get("ok") else "REJECTED"
            lines.append(f"  exact recheck: {verdict}")
            for c in soundness.get("conditions", []):
                lines.append(
                    f"    {c.get('name')}: "
                    f"{'ok' if c.get('ok') else 'FAILED'}  "
                    f"certified margin {_fmt(c.get('certified_margin'))}  "
                    f"shift {_fmt(c.get('slack_shift'))}"
                    + (f"  ({c.get('message')})" if c.get("message") else "")
                )
        lines.append("")

    if phases:
        grand = sum(phases.values()) or 1.0
        lines.append("== Phases ==")
        for p, v in sorted(phases.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {p:<16} {v:>8.3f}s  {100.0 * v / grand:>5.1f}%")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnostics.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "run", help="run base path or its .jsonl trace "
                    "(manifest/audit auto-detected alongside)"
    )
    parser.add_argument("--html", default=None,
                        help="dashboard output path "
                             "(default <base>.report.html)")
    parser.add_argument("--no-html", action="store_true",
                        help="terminal summary only")
    args = parser.parse_args(argv)

    paths = resolve_run(args.run)
    try:
        events, skipped = read_trace(paths["trace"])
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
    if paths["manifest"]:
        try:
            with open(paths["manifest"], "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: unreadable manifest: {exc}", file=sys.stderr)
    else:
        print(
            f"warning: no manifest at {paths['base']}.manifest.json",
            file=sys.stderr,
        )

    audit: Optional[Dict[str, Any]] = None
    if paths["audit"]:
        try:
            audit = load_audit(paths["audit"])
        except (OSError, ValueError) as exc:
            print(f"warning: unreadable audit: {exc}", file=sys.stderr)
    else:
        print(
            f"warning: no audit artifact at {paths['base']}.audit.json",
            file=sys.stderr,
        )

    summary = convergence_summary(events)
    phases = phase_totals(events)
    metrics = metrics_summary(events)

    print(render_terminal(summary, manifest, audit, phases), end="")

    if not args.no_html:
        out = args.html or (paths["base"] + ".report.html")
        title = (manifest or {}).get("name") or os.path.basename(paths["base"])
        page = render_dashboard(title, manifest, summary, audit, phases,
                                metrics)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(page)
        print(f"dashboard written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
