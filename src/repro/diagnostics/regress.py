"""Benchmark regression gate: one differ for every BENCH document kind.

    python -m repro.diagnostics.regress OLD.json NEW.json
    python -m repro.diagnostics.regress base.json new.json --max-slowdown 20
    python -m repro.diagnostics.regress base.json new.json --only C1,C3

Both documents must be BENCH documents of one kind (see
:mod:`repro.diagnostics.bench`).  The gate is that kind's entry in
:data:`POLICIES`; a hard check **exits nonzero**, a soft one warns:

* ``BENCH_table1`` — hard: the outcome rank may not fall (success >
  failure > timeout = error, so both "success regressed" and "a run that
  completed now times out or errors" gate); iterations may not rise on
  success rows (the loop is seeded, so an extra round is a behaviour
  change — on the C1 smoke row it also pins which optimal vertex the
  inclusion LP (5) returns, so a move there is a vertex change, not
  necessarily a quality loss); a ``T_l``/``T_c``/``T_v``/``T_e``/
  ``inclusion`` timing may not exceed ``--max-slowdown`` times OLD where
  OLD is at least 0.05 s.  Soft: ``audit.min_grid_margin`` flipping sign
  (margins move with every retrain; the exact recheck covers soundness)
  and a scale mismatch.
* ``BENCH_scenarios`` — hard: per seed, ``outcome``, ``cells`` and
  ``psi_spec_key`` unchanged (the factory is a pure function of the
  seed); the invariants ``all_terminal``, ``no_soundness_failures`` and
  ``expectations_met`` hold in NEW.
* ``BENCH_service`` — hard: the job status rank may not fall (success >
  dead_letter); ``all_terminal`` and ``no_corrupt_served`` hold in NEW;
  ``serial_identical`` holds in NEW where it held in OLD;
  ``cache.hit_rate`` is at least OLD's.  Soft: ``counts.retries`` and
  ``counts.redeliveries`` changing (how often chaos strikes is the fault
  plan's business, surviving it is the service's).

Coverage is hard for every kind: a row present in OLD but missing from
NEW fails unless ``--allow-missing``.  ``--only`` restricts the row
checks to the named rows.

Exit codes: 0 no regression, 1 regression(s), 2 unreadable/invalid input.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

from repro.diagnostics.bench import TIMING_KEYS, load_bench

#: OLD timings below this are noise and never gate
MIN_SECONDS = 0.05

#: The gate, per document kind.  Row checks: ``outcome`` is the row's
#: outcome column with its rank (the rank may not fall; ``None``: the
#: outcome may not change at all); ``same`` columns may not change;
#: ``no_rise`` columns may not rise on success rows; ``slowdown`` timings
#: may not exceed ``max_slowdown`` times OLD; ``warn_sign`` values warn
#: when they turn non-positive.  Document checks: ``hold`` invariants
#: must be true in NEW, ``keep`` invariants true in NEW where true in
#: OLD; ``no_fall`` values may not drop below OLD; ``warn_change``
#: values warn when they change.  Dotted names reach into nested dicts.
POLICIES: Dict[str, Dict[str, Any]] = {
    "BENCH_table1": {
        "outcome": (
            "outcome", {"success": 2, "failure": 1, "timeout": 0, "error": 0}
        ),
        "no_rise": ("iterations",),
        "slowdown": tuple(f"timings.{key}" for key in TIMING_KEYS),
        "warn_sign": ("audit.min_grid_margin",),
        "warn_change": ("scale",),
    },
    "BENCH_scenarios": {
        "outcome": ("outcome", None),
        "same": ("cells", "psi_spec_key"),
        "hold": ("all_terminal", "no_soundness_failures", "expectations_met"),
    },
    "BENCH_service": {
        "outcome": ("status", {"success": 1, "dead_letter": 0}),
        "hold": ("all_terminal", "no_corrupt_served"),
        "keep": ("serial_identical",),
        "no_fall": ("cache.hit_rate",),
        "warn_change": ("counts.retries", "counts.redeliveries"),
    },
}


def _get(doc: Any, name: str) -> Any:
    for part in name.split("."):
        doc = doc.get(part) if isinstance(doc, dict) else None
    return doc


def compare(
    old: Dict[str, Any],
    new: Dict[str, Any],
    *,
    max_slowdown: float = 1.3,
    only: Optional[Sequence[str]] = None,
    allow_missing: bool = False,
) -> Dict[str, List[str]]:
    """Gate NEW against OLD; returns ``{"regressions": [...],
    "warnings": [...]}``."""
    if old["kind"] != new["kind"]:
        raise ValueError(f"kind mismatch: {old['kind']!r} vs {new['kind']!r}")
    policy = POLICIES[old["kind"]]
    regressions: List[str] = []
    warnings: List[str] = []

    for name in policy.get("hold", ()):
        if not new["invariants"].get(name):
            regressions.append(f"invariant {name} fails in NEW")
    for name in policy.get("keep", ()):
        if old["invariants"].get(name) and not new["invariants"].get(name):
            regressions.append(f"invariant {name} held in OLD, fails in NEW")
    for name in policy.get("no_fall", ()):
        o, n = float(_get(old, name) or 0.0), float(_get(new, name) or 0.0)
        if n + 1e-9 < o:
            regressions.append(f"{name} fell: {o:.4g} -> {n:.4g}")
    for name in policy.get("warn_change", ()):
        o, n = _get(old, name), _get(new, name)
        if o != n:
            warnings.append(f"{name} changed: {o!r} -> {n!r}")

    old_rows, new_rows = old["rows"], new["rows"]
    keys = list(old_rows)
    if only is not None:
        warnings.extend(
            f"{key}: not in OLD baseline; skipped"
            for key in only if key not in old_rows
        )
        keys = [key for key in only if key in old_rows]
    column, rank = policy["outcome"]
    for key in keys:
        o, n = old_rows[key], new_rows.get(key)
        if n is None:
            (warnings if allow_missing else regressions).append(
                f"{key}: present in OLD but missing from NEW"
            )
            continue
        o_out, n_out = o.get(column), n.get(column)
        if rank is None and o_out != n_out:
            regressions.append(f"{key}: {column} flipped ({o_out} -> {n_out})")
            continue  # the rest of a changed row is not comparable
        if rank is not None and rank.get(n_out, 0) < rank.get(o_out, 0):
            error = (n.get("error") or {}).get("kind")
            regressions.append(
                f"{key}: {column} regressed ({o_out} -> {n_out}"
                + (f", {error}" if error else "") + ")"
            )
            continue
        for name in policy.get("same", ()):
            if o.get(name) != n.get(name):
                regressions.append(
                    f"{key}: {name} changed ({o.get(name)} -> {n.get(name)})"
                )
        for name in policy.get("no_rise", ()):
            if o_out == "success" and int(n[name]) > int(o[name]):
                regressions.append(
                    f"{key}: {name} rose ({o[name]} -> {n[name]})"
                )
        for name in policy.get("slowdown", ()):
            t_old = float(_get(o, name) or 0.0)
            t_new = float(_get(n, name) or 0.0)
            if t_old >= MIN_SECONDS and t_new > t_old * max_slowdown:
                regressions.append(
                    f"{key}: {name} {t_old:.3f}s -> {t_new:.3f}s "
                    f"({t_new / t_old:.2f}x > {max_slowdown:.2f}x)"
                )
        for name in policy.get("warn_sign", ()):
            o_v, n_v = _get(o, name), _get(n, name)
            if o_v is not None and n_v is not None and o_v > 0 >= n_v:
                warnings.append(
                    f"{key}: {name} flipped sign ({o_v:.3e} -> {n_v:.3e})"
                )
    return {"regressions": regressions, "warnings": warnings}


def render(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    """The row table (OLD and NEW outcome per row) plus outcome counts
    and flips."""
    column = POLICIES[old["kind"]]["outcome"][0]
    old_rows, new_rows = old["rows"], new["rows"]
    header = f"{'row':<18}{'OLD ' + column:<14}{'NEW ' + column:<14}"
    lines = [header, "-" * len(header)]
    for key in sorted(set(old_rows) | set(new_rows)):
        o = old_rows.get(key, {}).get(column, "-")
        n = new_rows.get(key, {}).get(column, "-")
        lines.append(f"{key[:16]:<18}{o!s:<14}{n!s:<14}")
    for label, rows in (("OLD", old_rows), ("NEW", new_rows)):
        counts = Counter(str(row.get(column)) for row in rows.values())
        lines.append(
            f"{label} {column} counts: "
            + (", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
               or "none")
        )
    flips = Counter(
        f"{o.get(column)} -> {new_rows[key].get(column)}"
        for key, o in old_rows.items()
        if key in new_rows and o.get(column) != new_rows[key].get(column)
    )
    lines.append(
        f"outcome flips: {sum(flips.values())}"
        + "".join(f"\n  {flip}: {n}" for flip, n in sorted(flips.items()))
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnostics.regress", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("old", help="baseline BENCH document")
    parser.add_argument("new", help="candidate BENCH document of the same kind")
    parser.add_argument("--max-slowdown", type=float, default=1.3,
                        help="allowed per-timing ratio NEW/OLD (default 1.3)")
    parser.add_argument("--only", default=None,
                        help="comma-separated row keys to compare")
    parser.add_argument("--allow-missing", action="store_true",
                        help="rows missing from NEW warn instead of fail")
    args = parser.parse_args(argv)

    only = (
        [key.strip() for key in args.only.split(",") if key.strip()]
        if args.only
        else None
    )
    try:
        old = load_bench(args.old)
        new = load_bench(args.new)
        outcome = compare(
            old,
            new,
            max_slowdown=args.max_slowdown,
            only=only,
            allow_missing=args.allow_missing,
        )
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


if __name__ == "__main__":
    sys.exit(main())
