"""The observability CLI: one entry point, four subcommands.

    python -m repro.telemetry report RUN [--format text|markdown|json]
    python -m repro.telemetry fleet ROOT [--format text|json]
    python -m repro.telemetry tail TARGET [--fleet] [--once]
    python -m repro.telemetry regress OLD NEW [--max-slowdown X] [--only ROWS] [--allow-missing]

* ``report`` — one run's report (:mod:`repro.telemetry.report`).  RUN is
  the run's base path or its ``.jsonl`` trace; the manifest and audit
  beside it are read when present and warned about when not.  Exit 0
  ok, 1 every trace line malformed, 2 trace unreadable.
* ``fleet`` — the cross-run aggregate of every trace under ROOT
  (:mod:`repro.telemetry.store`).  Exit 0 ok, 1 no runs found, 2 ROOT
  is not a directory.
* ``tail`` — follow one run's heartbeat, or with ``--fleet`` the board
  of every heartbeat under TARGET (:mod:`repro.telemetry.tail`).  Exit 0
  outcome recorded (or ``--once``), 1 heartbeat lost, 2 no status.json.
* ``regress`` — gate one BENCH document against another of its kind
  (:mod:`repro.diagnostics.regress`).  Exit 0 no regression, 1
  regression(s), 2 unreadable or invalid input.

Each subcommand imports its modules only when it runs, so importing
:mod:`repro.telemetry` stays stdlib-only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, Optional, Sequence


def _sibling(path: Optional[str], missing: str, load: Callable[[str], Any],
             what: str) -> Optional[Dict[str, Any]]:
    """Load one optional artifact of a run, warning when it is absent
    (``missing`` names where it was looked for) or unreadable."""
    if path is None:
        print(f"warning: no {what} at {missing}", file=sys.stderr)
        return None
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        print(f"warning: unreadable {what}: {exc}", file=sys.stderr)
        return None


def _report(args: argparse.Namespace) -> int:
    from repro.diagnostics.audit import load_audit
    from repro.diagnostics.convergence import convergence_summary
    from repro.telemetry.manifest import RunManifest
    from repro.telemetry.report import render_report, report_payload
    from repro.telemetry.spans import read_trace
    from repro.telemetry.store import run_family

    family = run_family(args.run)
    # tolerate truncated/corrupt lines: a crashed run leaves a partial
    # final record, and its trace is exactly the one worth reading
    try:
        events, skipped = read_trace(family.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if skipped and not events:
        print(f"error: all {skipped} line(s) of the trace are malformed",
              file=sys.stderr)
        return 1
    if skipped:
        print(f"warning: skipped {skipped} malformed line(s)", file=sys.stderr)
    manifest = _sibling(family.manifest, family.base + ".manifest.json",
                        RunManifest.load, "manifest")
    audit = _sibling(family.audit, family.base + ".audit.json", load_audit,
                     "audit artifact")
    payload = report_payload(events, manifest, convergence_summary(events),
                             audit)

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(payload, args.format), end="")
    return 0


def _fleet(args: argparse.Namespace) -> int:
    from repro.telemetry.store import fleet_summary, render_fleet_text, scan_runs

    if not os.path.isdir(args.root):
        print(f"error: not a directory: {args.root}", file=sys.stderr)
        return 2
    records = scan_runs(args.root)
    if not records:
        print(f"error: no run traces found under {args.root}", file=sys.stderr)
        return 1
    summary = fleet_summary(records)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_fleet_text(summary), end="")
    return 0


def _tail(args: argparse.Namespace) -> int:
    from repro.telemetry.tail import follow_fleet, follow_run

    follow = follow_fleet if args.fleet else follow_run
    return follow(args.target, once=args.once)


def _regress(args: argparse.Namespace) -> int:
    from repro.diagnostics.bench import load_bench
    from repro.diagnostics.regress import compare, render

    only = (
        [key.strip() for key in args.only.split(",") if key.strip()]
        if args.only
        else None
    )
    try:
        old = load_bench(args.old)
        new = load_bench(args.new)
        outcome = compare(old, new, max_slowdown=args.max_slowdown, only=only,
                          allow_missing=args.allow_missing)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(render(old, new))
    for w in outcome["warnings"]:
        print(f"warning: {w}")
    if outcome["regressions"]:
        print(f"\n{len(outcome['regressions'])} regression(s):")
        for r in outcome["regressions"]:
            print(f"  FAIL {r}")
        return 1
    print("\nno regressions")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="render one run's report")
    p.add_argument("run", help="run base path or its .jsonl trace")
    p.add_argument("--format", choices=["text", "markdown", "json"],
                   default="text")
    p.set_defaults(handler=_report)

    p = sub.add_parser("fleet", help="aggregate every run under a root")
    p.add_argument("root", help="results root to scan for run traces")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_fleet)

    p = sub.add_parser("tail", help="follow run heartbeats live")
    p.add_argument("target", help="run base / trace / status.json (or, "
                                  "with --fleet, a results tree)")
    p.add_argument("--fleet", action="store_true",
                   help="one line per *.status.json under the target tree")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit")
    p.set_defaults(handler=_tail)

    p = sub.add_parser("regress", help="gate a BENCH document against a "
                                       "baseline of its kind")
    p.add_argument("old", help="baseline BENCH document")
    p.add_argument("new", help="candidate BENCH document of the same kind")
    p.add_argument("--max-slowdown", type=float, default=1.3,
                   help="allowed per-timing ratio NEW/OLD (default 1.3)")
    p.add_argument("--only", default=None,
                   help="comma-separated row keys to compare")
    p.add_argument("--allow-missing", action="store_true",
                   help="rows missing from NEW warn instead of fail")
    p.set_defaults(handler=_regress)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
