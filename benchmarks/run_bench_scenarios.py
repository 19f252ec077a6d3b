#!/usr/bin/env python
"""Obstacle-workload sweep: emit ``BENCH_scenarios.json``.

Mints a seeded batch of ``repro.soundness.scenarios`` workloads
(floor-minus-obstacles workspaces, union-of-obstacles unsafe sets),
verifies each one's closed-form barrier per decomposed cell with the
SOS verifier, re-proves every accepted certificate over the rationals,
and records outcomes + per-cell timings::

    python benchmarks/run_bench_scenarios.py --seed 0 --count 120 \
        --out results/BENCH_scenarios.json

The base seed is printed on stdout so any CI failure is replayable with
one flag.  The emitted BENCH document (kind ``BENCH_scenarios``, one row
per seed) is gated by ``python -m repro.telemetry regress`` under the
scenario policy: hard on the invariants — every outcome terminal, zero
rational-recheck failures, minted expectations met — and on per-seed
outcome / cell decomposition / region-spec hash stability.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.diagnostics.bench import bench_document, write_bench
from repro.soundness.scenarios import batch_invariants, bench_rows, run_batch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (scenarios use seed..seed+count-1)")
    parser.add_argument("--count", type=int, default=120,
                        help="number of scenarios to mint (default 120)")
    parser.add_argument("--time-budget", type=float, default=30.0,
                        help="per-scenario verify wall-clock budget "
                             "in seconds (default 30)")
    parser.add_argument("--scale", default="sweep",
                        choices=("sweep", "smoke"),
                        help="document scale label (default sweep)")
    parser.add_argument("--out", default="results/BENCH_scenarios.json")
    args = parser.parse_args(argv)

    print(
        f"scenario sweep: base seed {args.seed}, {args.count} scenarios "
        f"(replay with --seed {args.seed} --count {args.count})"
    )
    rows = run_batch(args.seed, args.count, time_budget_s=args.time_budget)
    invariants = batch_invariants(rows)
    write_bench(args.out, bench_document(
        "BENCH_scenarios",
        args.scale,
        bench_rows(rows),
        config={
            "base_seed": int(args.seed),
            "count": int(args.count),
            "time_budget_s": float(args.time_budget),
        },
        invariants=invariants,
    ))

    counts = Counter(row.get("outcome") for row in rows)
    print(
        f"wrote {args.out}: total={len(rows)}, "
        + ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    )
    print(f"invariants: {invariants}")
    for row in rows:
        if row.get("outcome") == "error":
            err = row.get("error", {})
            print(
                f"  ERROR seed {row['seed']}: {err.get('kind')}: "
                f"{err.get('message')}",
                file=sys.stderr,
            )
    return 0 if all(invariants.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
