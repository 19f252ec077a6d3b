"""Self-contained single-file HTML dashboard for one SNBC run.

Pure string building over the data the report CLI already collected — no
external JS/CSS, no third-party assets: styles are inline CSS custom
properties (light + dark), charts are inline SVG with native ``<title>``
hover tooltips, and every chart is paired with a data table so nothing is
readable only through color.

Color assignment is fixed, not cycled: the three condition families keep
one hue each everywhere in the dashboard (init=blue, unsafe=orange,
lie/domain=aqua), phase bars are a single hue because their message is
magnitude, and pass/fail verdicts are text plus symbol, never color
alone.
"""

from __future__ import annotations

import html as _html
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: fixed categorical slots per condition family (light, dark)
CONDITION_COLORS = {
    "init": ("#2a78d6", "#3987e5"),
    "unsafe": ("#eb6834", "#d95926"),
    "domain": ("#1baf7a", "#199e70"),
    "lie": ("#1baf7a", "#199e70"),
}
CONDITION_ORDER = ["init", "unsafe", "domain"]

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e3e2de;
  --series-init: #2a78d6;
  --series-unsafe: #eb6834;
  --series-domain: #1baf7a;
  --bar: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #383835;
    --series-init: #3987e5;
    --series-unsafe: #d95926;
    --series-domain: #199e70;
    --bar: #3987e5;
  }
}
body {
  background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0 auto;
  max-width: 960px;
  padding: 24px 16px 64px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-2);
  border-radius: 8px;
  padding: 10px 14px;
  min-width: 120px;
}
.tile .v { font-size: 20px; font-weight: 600; display: block; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0 16px; }
th, td {
  text-align: right;
  padding: 4px 8px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th:first-child, td:first-child { text-align: left; }
th { color: var(--text-secondary); font-weight: 500; }
svg { display: block; margin: 8px 0; }
.legend { color: var(--text-secondary); font-size: 12px; margin: 4px 0; }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 4px 0 12px; vertical-align: baseline;
}
.ok::before { content: "\\2713 "; }
.fail::before { content: "\\2717 "; font-weight: 700; }
"""


def esc(value: Any) -> str:
    return _html.escape(str(value))


def fmt(x: Any, digits: int = 4) -> str:
    """Compact numeric formatting for tables ('-' for missing)."""
    if x is None:
        return "-"
    try:
        v = float(x)
    except (TypeError, ValueError):
        return esc(x)
    if not math.isfinite(v):
        return esc(x)
    if v == 0.0:
        return "0"
    if abs(v) < 1e-3 or abs(v) >= 1e5:
        return f"{v:.{digits - 1}e}"
    return f"{v:.{digits}g}"


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    head = "".join(f"<th>{esc(h)}</th>" for h in header)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    spans = "".join(
        f'<span class="swatch" style="background:var(--series-{slot})"></span>'
        f"{esc(label)}"
        for label, slot in entries
    )
    return f'<div class="legend">{spans}</div>'


def _scale(
    values: Sequence[float], lo_px: float, hi_px: float
) -> Tuple[float, float, Any]:
    """Linear scale over the (finite) data range; pads a flat range."""
    finite = [v for v in values if math.isfinite(v)]
    v_lo, v_hi = (min(finite), max(finite)) if finite else (0.0, 1.0)
    if v_hi - v_lo < 1e-12:
        v_lo, v_hi = v_lo - 0.5, v_hi + 0.5

    def to_px(v: float) -> float:
        return lo_px + (v - v_lo) / (v_hi - v_lo) * (hi_px - lo_px)

    return v_lo, v_hi, to_px


def loss_chart(rows: Sequence[Dict[str, Any]]) -> str:
    """Per-condition loss trajectory as an SVG line chart + table.

    Series keep the fixed condition hues; direct hover via per-point
    ``<title>`` tooltips; the table below is the accessible twin.
    """
    if not rows:
        return "<p class='sub'>no iteration events in this trace</p>"
    series = {
        "init": [r.get("loss_init") for r in rows],
        "unsafe": [r.get("loss_unsafe") for r in rows],
        "domain": [r.get("loss_domain") for r in rows],
    }
    width, height, pad = 640, 220, 36
    all_vals = [
        float(v)
        for vs in series.values()
        for v in vs
        if v is not None and math.isfinite(float(v))
    ]
    v_lo, v_hi, y_px = _scale(all_vals, height - pad, pad)
    n = len(rows)
    def x_px(i: float) -> float:
        return pad + (i / max(n - 1, 1)) * (width - 2 * pad)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}"'
        f' role="img" aria-label="per-condition loss by iteration">'
    ]
    # recessive grid: 3 horizontal lines + the baseline
    for frac in (0.0, 0.5, 1.0):
        v = v_lo + frac * (v_hi - v_lo)
        y = y_px(v)
        parts.append(
            f'<line x1="{pad}" y1="{y:.1f}" x2="{width - pad}" y2="{y:.1f}"'
            f' stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{pad - 4}" y="{y + 4:.1f}" text-anchor="end"'
            f' font-size="11" fill="var(--text-secondary)">{fmt(v, 3)}</text>'
        )
    for cond in CONDITION_ORDER:
        vals = series[cond]
        pts = [
            (x_px(i), y_px(float(v)))
            for i, v in enumerate(vals)
            if v is not None and math.isfinite(float(v))
        ]
        if not pts:
            continue
        poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{poly}" fill="none"'
            f' stroke="var(--series-{cond})" stroke-width="2"/>'
        )
        for i, v in enumerate(vals):
            if v is None or not math.isfinite(float(v)):
                continue
            parts.append(
                f'<circle cx="{x_px(i):.1f}" cy="{y_px(float(v)):.1f}" r="4"'
                f' fill="var(--series-{cond})" stroke="var(--surface-1)"'
                f' stroke-width="2">'
                f"<title>{esc(cond)} loss, iteration "
                f"{rows[i].get('iteration', i + 1)}: {fmt(v)}</title></circle>"
            )
    for i, r in enumerate(rows):
        parts.append(
            f'<text x="{x_px(i):.1f}" y="{height - pad + 16}"'
            f' text-anchor="middle" font-size="11"'
            f' fill="var(--text-secondary)">{esc(r.get("iteration", i + 1))}</text>'
        )
    parts.append("</svg>")
    legend = _legend([("L_I (init)", "init"), ("L_U (unsafe)", "unsafe"),
                      ("L_D (domain)", "domain")])
    table = _table(
        ["iter", "total", "L_I", "L_U", "L_D", "worst viol.", "cex", "|S_I|",
         "|S_U|", "|S_D|", "verified"],
        [
            [
                esc(r.get("iteration")),
                fmt(r.get("loss")),
                fmt(r.get("loss_init")),
                fmt(r.get("loss_unsafe")),
                fmt(r.get("loss_domain")),
                fmt(r.get("worst_violation")),
                esc(r.get("n_counterexamples", 0)),
                *(esc(s) for s in (r.get("dataset_sizes") or ["-"] * 3)),
                '<span class="ok">yes</span>' if r.get("verified")
                else '<span class="fail">no</span>',
            ]
            for r in rows
        ],
    )
    return "".join(parts) + legend + table


def lineage_chart(records: Sequence[Dict[str, Any]]) -> str:
    """Counterexample lineage: violation magnitude by iteration of origin,
    one fixed hue per condition; resolved points are filled, points the
    final certificate still violates are hollow (shape, not color, carries
    the verdict)."""
    if not records:
        return ("<p class='sub'>no counterexamples were generated "
                "(first candidate verified, or no true violations found)</p>")
    width, height, pad = 640, 220, 36
    iters = [int(r.get("iteration", 0)) for r in records]
    lo_it, hi_it = min(iters), max(iters)
    vals = [float(r.get("worst_violation", 0.0)) for r in records]
    _, _, y_px = _scale(vals, height - pad, pad)

    def x_px(it: float) -> float:
        return pad + (it - lo_it) / max(hi_it - lo_it, 1) * (width - 2 * pad)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}"'
        f' role="img" aria-label="counterexample lineage">'
    ]
    v_fin = [v for v in vals if math.isfinite(v)]
    for frac in (0.0, 0.5, 1.0):
        v = (min(v_fin) + frac * (max(v_fin) - min(v_fin))) if v_fin else frac
        y = y_px(v)
        parts.append(
            f'<line x1="{pad}" y1="{y:.1f}" x2="{width - pad}" y2="{y:.1f}"'
            f' stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{pad - 4}" y="{y + 4:.1f}" text-anchor="end"'
            f' font-size="11" fill="var(--text-secondary)">{fmt(v, 3)}</text>'
        )
    for it in range(lo_it, hi_it + 1):
        parts.append(
            f'<text x="{x_px(it):.1f}" y="{height - pad + 16}"'
            f' text-anchor="middle" font-size="11"'
            f' fill="var(--text-secondary)">{it}</text>'
        )
    for r in records:
        cond = str(r.get("condition", "domain"))
        slot = cond if cond in CONDITION_COLORS else "domain"
        slot = "domain" if slot == "lie" else slot
        resolved = bool(r.get("satisfied_by_final"))
        x = x_px(int(r.get("iteration", 0)))
        y = y_px(float(r.get("worst_violation", 0.0)))
        fill = f"var(--series-{slot})" if resolved else "var(--surface-1)"
        title = (
            f"iter {r.get('iteration')}: {esc(cond)} "
            f"(condition {r.get('paper_condition')}), "
            f"violation {fmt(r.get('worst_violation'))}, "
            f"gamma {fmt(r.get('gamma'))}, {r.get('n_points')} pts — "
            + ("resolved by final B" if resolved else "still violated")
        )
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="{fill}"'
            f' stroke="var(--series-{slot})" stroke-width="2">'
            f"<title>{title}</title></circle>"
        )
    parts.append("</svg>")
    legend = _legend(
        [("init (13)", "init"), ("unsafe (14)", "unsafe"), ("lie (15)", "domain")]
    ) + ("<div class='legend'>filled = satisfied by final certificate, "
         "hollow = still violated</div>")
    table = _table(
        ["origin iter", "condition", "paper", "violation", "gamma", "points",
         "final violation", "resolved"],
        [
            [
                esc(r.get("iteration")),
                esc(r.get("condition")),
                f"({esc(r.get('paper_condition'))})",
                fmt(r.get("worst_violation")),
                fmt(r.get("gamma")),
                esc(r.get("n_points")),
                fmt(r.get("final_violation")),
                '<span class="ok">yes</span>' if r.get("satisfied_by_final")
                else '<span class="fail">no</span>',
            ]
            for r in records
        ],
    )
    return "".join(parts) + legend + table


def phase_chart(phases: Dict[str, float]) -> str:
    """Phase time breakdown: single-hue horizontal bars (the message is
    magnitude; labels carry identity) + table."""
    if not phases:
        return "<p class='sub'>no phase spans in this trace</p>"
    order = ["inclusion", "learning", "verification", "counterexample"]
    items = [(p, phases[p]) for p in order if p in phases]
    items += sorted(
        (kv for kv in phases.items() if kv[0] not in order),
        key=lambda kv: -kv[1],
    )
    total = sum(v for _, v in items) or 1.0
    width, row_h, label_w = 640, 26, 130
    height = row_h * len(items) + 8
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}"'
        f' role="img" aria-label="seconds per phase">'
    ]
    vmax = max(v for _, v in items) or 1.0
    for i, (name, v) in enumerate(items):
        y = i * row_h + 4
        w = (v / vmax) * (width - label_w - 90)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + 15}" text-anchor="end"'
            f' font-size="12" fill="var(--text-primary)">{esc(name)}</text>'
            f'<rect x="{label_w}" y="{y}" width="{max(w, 2):.1f}" height="18"'
            f' rx="4" fill="var(--bar)">'
            f"<title>{esc(name)}: {v:.3f}s "
            f"({100.0 * v / total:.1f}%)</title></rect>"
            f'<text x="{label_w + max(w, 2) + 6:.1f}" y="{y + 15}"'
            f' font-size="12" fill="var(--text-secondary)">'
            f"{v:.3f}s · {100.0 * v / total:.1f}%</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def audit_section(audit: Optional[Dict[str, Any]]) -> str:
    """Certificate audit tables: per-condition SOS/IPM numbers and the
    dense-grid margins."""
    if not audit:
        return ("<p class='sub'>no audit artifact found next to this trace "
                "(runs emit one after verification)</p>")
    rows = []
    for c in audit.get("conditions", []):
        sdp = c.get("sdp", {})
        verdict = (
            '<span class="ok">ok</span>'
            if c.get("feasible") and c.get("validated")
            else '<span class="fail">failed</span>'
        )
        convergence = sdp.get("convergence") or "-"
        conv_cell = (
            f'<span class="ok">{esc(convergence)}</span>'
            if convergence == "healthy"
            else (
                f'<span class="fail">{esc(convergence)}</span>'
                if convergence in ("diverging", "ill_conditioned", "stalling")
                else esc(convergence)
            )
        )
        rung = sdp.get("recovery_rung") or ""
        if rung and rung != "base":
            conv_cell += f" <span class='sub'>via {esc(rung)}</span>"
        rows.append(
            [
                esc(c.get("name")),
                f"({esc(c.get('paper_condition'))})",
                verdict,
                fmt(c.get("min_gram_eigenvalue")),
                fmt(c.get("residual_bound")),
                fmt(sdp.get("gap")),
                fmt(sdp.get("primal_residual")),
                fmt(sdp.get("dual_residual")),
                esc(sdp.get("iterations")),
                conv_cell,
            ]
        )
    cond_table = _table(
        ["condition", "paper", "verdict", "min Gram eig", "residual bound",
         "SDP gap", "primal res", "dual res", "IPM iters", "convergence"],
        rows,
    ) if rows else "<p class='sub'>no verified conditions recorded</p>"

    margin_rows = []
    for name, m in (audit.get("grid_margins") or {}).items():
        margin = m.get("margin")
        verdict = (
            '<span class="ok">holds</span>'
            if margin is not None and float(margin) > 0
            else '<span class="fail">violated</span>'
        )
        margin_rows.append(
            [esc(name), fmt(margin), esc(m.get("n_points")),
             esc(m.get("n_endpoints", 1)), verdict]
        )
    margin_table = _table(
        ["condition", "grid margin", "points", "endpoints", "verdict"],
        margin_rows,
    ) if margin_rows else ""
    return cond_table + "<h2>Dense-grid margins</h2>" + margin_table


def metrics_section(metrics: Dict[str, Any]) -> str:
    hists = (metrics or {}).get("histograms", {})
    if not hists:
        return ""
    rows = [
        [esc(k), esc(int(s.get("count", 0))), fmt(s.get("mean")),
         fmt(s.get("p50")), fmt(s.get("p95")), fmt(s.get("p99")),
         fmt(s.get("max"))]
        for k, s in sorted(hists.items())
    ]
    return "<h2>Metric histograms</h2>" + _table(
        ["metric", "count", "mean", "p50", "p95", "p99", "max"], rows
    )


def render_dashboard(
    title: str,
    manifest: Optional[Dict[str, Any]],
    summary: Dict[str, Any],
    audit: Optional[Dict[str, Any]],
    phases: Dict[str, float],
    metrics: Dict[str, Any],
) -> str:
    """The full single-file dashboard as an HTML string."""
    manifest = manifest or {}
    outcome = manifest.get("outcome") or (
        "success" if summary.get("converged") else "unknown"
    )
    sub_bits = [
        f"outcome: {esc(outcome)}",
        f"seed: {esc(manifest.get('seed', '-'))}",
        f"git: {esc((manifest.get('git_sha') or '-')[:12])}",
        f"elapsed: {fmt(manifest.get('elapsed_seconds'))}s",
    ]
    stall = summary.get("stall")
    audit_summary = (audit or {}).get("summary", {})
    tiles = [
        ("CEGIS iterations", summary.get("n_iterations", 0)),
        (
            "counterexamples resolved",
            f"{summary.get('n_resolved', 0)}/{summary.get('n_counterexamples', 0)}",
        ),
        (
            "stall",
            f"at iter {stall.get('iteration')}" if stall else "none",
        ),
        ("min Gram eig", fmt(audit_summary.get("min_gram_eigenvalue"))),
        ("min grid margin", fmt(audit_summary.get("min_grid_margin"))),
        ("max SDP gap", fmt(audit_summary.get("max_sdp_gap"))),
    ]
    tile_html = "".join(
        f'<div class="tile"><span class="v">{esc(v)}</span>'
        f'<span class="k">{esc(k)}</span></div>'
        for k, v in tiles
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{esc(title)} — SNBC run report</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{esc(title)}</h1>
<p class="sub">{" · ".join(sub_bits)}</p>
<div class="tiles">{tile_html}</div>
<h2>Convergence — per-condition loss by CEGIS iteration</h2>
{loss_chart(summary.get("iterations", []))}
<h2>Counterexample lineage</h2>
{lineage_chart(summary.get("lineage", []))}
<h2>Certificate audit</h2>
{audit_section(audit)}
<h2>Phase times</h2>
{phase_chart(phases)}
{metrics_section(metrics)}
</body>
</html>
"""
