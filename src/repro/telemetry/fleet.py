"""Fleet telemetry CLI: aggregate every run under a results root.

    python -m repro.telemetry.fleet results/
    python -m repro.telemetry.fleet results/telemetry --format json
    python -m repro.telemetry.fleet results/ --out fleet_summary.json

Walks the root for ``*.jsonl`` traces (with their sibling manifests and
audit artifacts), indexes them through :mod:`repro.telemetry.store`, and
prints the cross-run aggregate: per-system run/iteration counts, phase
time trends, cache hit rates, SDP recovery engagement, and the
IPM-convergence-class histogram.  ``--format json`` emits the full
:func:`~repro.telemetry.store.fleet_summary` document; ``--out`` writes
the JSON document regardless of the printed format (the CI artifact
path).

Exit codes: 0 ok, 1 no runs found under the root, 2 root unreadable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.store import fleet_summary, scan_runs


def _fmt(x: Any) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.4g}" if abs(x) < 1e-3 or abs(x) >= 1e5 else f"{x:.3f}"
    return str(x)


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    out = [line, "-" * len(line)]
    out += ["  ".join(r[i].ljust(widths[i]) for i in range(len(header))) for r in rows]
    return out


def render_fleet_text(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of a fleet summary document."""
    lines: List[str] = []
    lines.append(
        f"== Fleet: {summary.get('n_runs', 0)} run(s) across "
        f"{summary.get('n_systems', 0)} system(s) =="
    )
    if summary.get("n_incomplete"):
        lines.append(f"   incomplete={summary['n_incomplete']}")
    outcomes = summary.get("outcomes", {})
    if outcomes:
        lines.append(
            "outcomes: "
            + "  ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        )
    lines.append("")

    runs = summary.get("runs", [])
    if runs:
        rows = [
            [
                r.get("base", "?"),
                r.get("system", "?"),
                r.get("scale", "?"),
                r.get("outcome", "?"),
                _fmt(r.get("iterations")),
                _fmt(r.get("elapsed_seconds")),
                "yes" if r.get("truncated") else "no",
            ]
            for r in runs
        ]
        lines.append("== Runs ==")
        lines += _table(
            ["run", "system", "scale", "outcome", "iters", "elapsed s",
             "truncated"],
            rows,
        )
        lines.append("")

    systems = summary.get("systems", {})
    if systems:
        rows = []
        for system, s in sorted(systems.items()):
            iters = s.get("iterations", {})
            phases = s.get("phase_seconds", {})
            verification = (phases.get("verification") or {}).get("total")
            learning = (phases.get("learning") or {}).get("total")
            conv = s.get("convergence", {})
            recovery = s.get("sdp_recovery", {})
            rows.append([
                system,
                str(s.get("runs", 0)),
                _fmt(iters.get("mean")),
                _fmt(learning),
                _fmt(verification),
                _fmt(s.get("cache_hit_rate")),
                f"{recovery.get('engaged', 0)}/{recovery.get('successes', 0)}",
                " ".join(f"{k}={v}" for k, v in sorted(conv.items())) or "-",
            ])
        lines.append("== Systems ==")
        lines += _table(
            ["system", "runs", "mean iters", "learn s", "verify s",
             "cache hit", "recov eng/succ", "ipm convergence"],
            rows,
        )
        lines.append("")

    convergence = summary.get("convergence", {})
    if convergence:
        lines.append("== IPM convergence classes (all runs) ==")
        total = sum(convergence.values()) or 1
        for cls, n in sorted(convergence.items()):
            lines.append(f"  {cls:<16} {n:>6}  {100.0 * n / total:>5.1f}%")
        lines.append("")

    caches = summary.get("caches", {})
    if caches:
        rows = [
            [name, str(c.get("hits", 0)), str(c.get("misses", 0)),
             _fmt(c.get("rate"))]
            for name, c in sorted(caches.items())
        ]
        lines.append("== Caches (all runs) ==")
        lines += _table(["cache", "hits", "misses", "hit rate"], rows)
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.fleet", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("root", help="results root to scan for run traces")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", default=None,
                        help="also write the JSON summary document here")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.root):
        print(f"error: not a directory: {args.root}", file=sys.stderr)
        return 2
    records = scan_runs(args.root)
    if not records:
        print(f"error: no run traces found under {args.root}", file=sys.stderr)
        return 1
    summary = fleet_summary(records)

    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_fleet_text(summary), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
