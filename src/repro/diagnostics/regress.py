"""Benchmark regression gate.

    python -m repro.diagnostics.regress OLD.json NEW.json --max-slowdown 1.3
    python -m repro.diagnostics.regress base.json new.json --systems C1,C3
    python -m repro.diagnostics.regress base.json new.json --ignore-timings

The document kind is auto-detected.  For ``BENCH_table1.json`` documents
(see :mod:`repro.diagnostics.bench`) the gate compares system by system
and **exits nonzero** when the new run regressed:

* **outcome** — a system that succeeded in OLD but not in NEW, or one
  that ran to completion in OLD (``success``/``failure``) and now ends
  with ``timeout``/``error`` — a new failure class gates hard;
* **iterations** — more CEGIS iterations than OLD allows
  (``--max-extra-iterations``, default 0: the loop is seeded and
  deterministic, so extra rounds are a real behavior change);
* **time** — any of ``T_l``/``T_c``/``T_v``/``T_e`` beyond
  ``--max-slowdown`` times the OLD value, ignoring timings below
  ``--min-seconds`` (tiny phases are all noise);
* **coverage** — a system present in OLD but missing from NEW
  (disable with ``--allow-missing``).

Audit-margin changes (e.g. a grid margin flipping sign) are reported as
warnings but do not gate: margins move with every retrain and the hard
outcome check already covers soundness.

For ``BENCH_service.json`` documents (see
:mod:`repro.diagnostics.servicebench`) the gate is hard on the chaos
invariants (every job terminal, zero corrupt cache entries served,
serial identity preserved), per-key outcome, and cache hit rate;
retry/redelivery counts only warn.

For ``BENCH_scenarios.json`` documents (see
:mod:`repro.diagnostics.scenariobench`) the gate is hard on the sweep
invariants (every outcome terminal, zero rational-recheck failures,
minted expectations met), per-seed outcome, cell decomposition, and
region-spec hash; verify timings only report.

Exit codes: 0 no regression, 1 regression(s), 2 unreadable/invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.diagnostics.bench import BENCH_KIND, TIMING_KEYS, load_bench
from repro.diagnostics.scenariobench import (
    SCENARIO_KIND,
    compare_scenario_benches,
    load_scenario_bench,
    render_scenario_table,
)
from repro.diagnostics.servicebench import (
    SERVICE_KIND,
    compare_service_benches,
    load_service_bench,
    render_service_table,
)


def compare_benches(
    old: Dict[str, Any],
    new: Dict[str, Any],
    max_slowdown: float = 1.3,
    min_seconds: float = 0.05,
    max_extra_iterations: int = 0,
    systems: Optional[Sequence[str]] = None,
    allow_missing: bool = False,
    ignore_timings: bool = False,
) -> Dict[str, List[str]]:
    """Pure comparison; returns ``{"regressions": [...], "warnings": [...]}``."""
    regressions: List[str] = []
    warnings: List[str] = []
    old_systems = old["systems"]
    new_systems = new["systems"]
    names = list(old_systems) if systems is None else [
        s for s in systems if s in old_systems
    ]
    if systems is not None:
        for s in systems:
            if s not in old_systems:
                warnings.append(f"{s}: not in OLD baseline; skipped")
    if old.get("scale") != new.get("scale"):
        warnings.append(
            f"scale mismatch: OLD={old.get('scale')!r} NEW={new.get('scale')!r}"
            " — timing comparison is apples-to-oranges"
        )

    for name in names:
        o = old_systems[name]
        n = new_systems.get(name)
        if n is None:
            (warnings if allow_missing else regressions).append(
                f"{name}: present in OLD but missing from NEW"
            )
            continue
        if o["outcome"] == "success" and n["outcome"] != "success":
            regressions.append(
                f"{name}: outcome regressed ({o['outcome']} -> {n['outcome']})"
            )
            continue  # timings of a failed run are not comparable
        if n["outcome"] in ("timeout", "error") and o["outcome"] not in (
            "timeout",
            "error",
        ):
            # a system that used to run to completion (even unsuccessfully)
            # now dies on a deadline or a typed failure: a new failure
            # class is a hard regression, not a tolerable flake
            regressions.append(
                f"{name}: new failure class "
                f"({o['outcome']} -> {n['outcome']}"
                + (
                    f", {n['error'].get('kind')}" if n.get("error") else ""
                )
                + ")"
            )
            continue
        if o["outcome"] == "success":
            extra = int(n["iterations"]) - int(o["iterations"])
            if extra > max_extra_iterations:
                regressions.append(
                    f"{name}: iterations {o['iterations']} -> "
                    f"{n['iterations']} (+{extra} > "
                    f"allowed +{max_extra_iterations})"
                )
        if not ignore_timings:
            for key in TIMING_KEYS:
                t_old = float(o["timings"].get(key, 0.0))
                t_new = float(n["timings"].get(key, 0.0))
                if t_old < min_seconds:
                    continue
                if t_new > t_old * max_slowdown:
                    regressions.append(
                        f"{name}: {key} {t_old:.3f}s -> {t_new:.3f}s "
                        f"({t_new / t_old:.2f}x > {max_slowdown:.2f}x)"
                    )
        o_audit, n_audit = o.get("audit"), n.get("audit")
        if o_audit and n_audit:
            o_m = o_audit.get("min_grid_margin")
            n_m = n_audit.get("min_grid_margin")
            if o_m is not None and n_m is not None and o_m > 0 >= n_m:
                warnings.append(
                    f"{name}: min grid margin flipped sign "
                    f"({o_m:.3e} -> {n_m:.3e})"
                )
    return {"regressions": regressions, "warnings": warnings}


def _detect_kind(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return str(json.load(fh).get("kind", ""))


def _render_table(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    header = f"{'system':<8}{'outcome':<20}{'iters':<12}{'T_e old':>10}{'T_e new':>10}{'ratio':>8}"
    lines = [header, "-" * len(header)]
    for name in sorted(set(old["systems"]) | set(new["systems"])):
        o = old["systems"].get(name)
        n = new["systems"].get(name)

        def fmt(entry, key, sub=None):
            if entry is None:
                return "-"
            value = entry.get(key) if sub is None else entry[key].get(sub)
            return str(value)

        t_old = float(o["timings"]["T_e"]) if o else float("nan")
        t_new = float(n["timings"]["T_e"]) if n else float("nan")
        ratio = t_new / t_old if o and n and t_old > 0 else float("nan")
        lines.append(
            f"{name:<8}"
            f"{fmt(o, 'outcome') + '->' + fmt(n, 'outcome'):<20}"
            f"{fmt(o, 'iterations') + '->' + fmt(n, 'iterations'):<12}"
            f"{t_old:>10.3f}{t_new:>10.3f}{ratio:>8.2f}"
        )
    return "\n".join(lines)


def _report(table: str, outcome: Dict[str, List[str]]) -> int:
    """Print the comparison table and verdict; the CLI exit code."""
    print(table)
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
        prog="python -m repro.diagnostics.regress", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("old", help="baseline BENCH_table1.json")
    parser.add_argument("new", help="candidate BENCH_table1.json")
    parser.add_argument("--max-slowdown", type=float, default=1.3,
                        help="allowed per-timing ratio NEW/OLD (default 1.3)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore OLD timings below this (default 0.05)")
    parser.add_argument("--max-extra-iterations", type=int, default=0,
                        help="allowed CEGIS iteration increase (default 0)")
    parser.add_argument("--systems", default=None,
                        help="comma-separated subset to compare")
    parser.add_argument("--allow-missing", action="store_true",
                        help="missing systems in NEW warn instead of fail")
    parser.add_argument("--ignore-timings", action="store_true",
                        help="gate only on outcome/iterations/coverage")
    args = parser.parse_args(argv)

    try:
        kind_old = _detect_kind(args.old)
        kind_new = _detect_kind(args.new)
        if kind_old != kind_new:
            raise ValueError(
                f"kind mismatch: {args.old} is {kind_old!r}, "
                f"{args.new} is {kind_new!r}"
            )
        if kind_old == SERVICE_KIND:
            old = load_service_bench(args.old)
            new = load_service_bench(args.new)
        elif kind_old == SCENARIO_KIND:
            old = load_scenario_bench(args.old)
            new = load_scenario_bench(args.new)
        elif kind_old == BENCH_KIND:
            old = load_bench(args.old)
            new = load_bench(args.new)
        else:
            raise ValueError(f"{args.old}: unknown document kind {kind_old!r}")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if kind_old == SCENARIO_KIND:
        return _report(
            render_scenario_table(old, new),
            compare_scenario_benches(old, new, allow_missing=args.allow_missing),
        )
    if kind_old == SERVICE_KIND:
        return _report(
            render_service_table(old, new),
            compare_service_benches(old, new, allow_missing=args.allow_missing),
        )

    systems = (
        [s.strip() for s in args.systems.split(",") if s.strip()]
        if args.systems
        else None
    )
    outcome = compare_benches(
        old,
        new,
        max_slowdown=args.max_slowdown,
        min_seconds=args.min_seconds,
        max_extra_iterations=args.max_extra_iterations,
        systems=systems,
        allow_missing=args.allow_missing,
        ignore_timings=args.ignore_timings,
    )
    return _report(_render_table(old, new), outcome)


if __name__ == "__main__":
    sys.exit(main())
