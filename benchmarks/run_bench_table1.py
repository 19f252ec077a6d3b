"""Standalone Table-1 timing harness (no pytest-benchmark needed).

    python benchmarks/run_bench_table1.py --systems C1
    python benchmarks/run_bench_table1.py --out results/BENCH_table1.json
    python benchmarks/run_bench_table1.py --checkpoint-dir results/ckpt --resume
    python benchmarks/run_bench_table1.py --time-budget 600
    python benchmarks/run_bench_table1.py --profile
    REPRO_BENCH_SCALE=paper python benchmarks/run_bench_table1.py

Runs SNBC on the selected Table-1 systems one after another, with full
telemetry (trace + manifest + audit artifact per run under
``results/telemetry/``), and writes the aggregate ``BENCH_table1.json``
for the regression gate (``python -m repro.diagnostics.regress``).
Rows run serially on purpose: each carries the ``T_l/T_c/T_v/T_e``
timings, and rows that share cores would distort them.  To certify
Table-1 rows in parallel, send ``certify`` requests to the
certification service instead (``python -m repro.service run
--jobs-file``, see ``docs/service.md``); it adds retry, redelivery,
a journal and an exactly rechecked cache, but its payloads carry no
timings.

One bad row never loses the table: a system that raises is recorded with
``outcome: "error"`` (exception class included) and the remaining rows
still run; deadline overruns (``--time-budget``) land as ``timeout``
rows (the paper's OOT).  ``--checkpoint-dir``/``--resume`` continue
interrupted runs bit-identically (see ``docs/robustness.md``).  Exits
nonzero when any selected system fails to produce a certificate, so CI
fails fast even before the gate compares timings.
"""

from __future__ import annotations

import argparse
import os
import sys

import table1_common
from table1_common import (
    bench_scale,
    emit_bench_document,
    run_snbc,
    systems_for_scale,
)
from repro.diagnostics import error_entry, result_outcome


def _checkpoint_path(directory, name, scale):
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{name}-{scale}.ckpt.json")


def _resume_path(directory, name, scale, resume):
    path = _checkpoint_path(directory, name, scale)
    if resume and path and os.path.exists(path):
        return path
    return None


def _run_one_serial(name, scale, args, failures):
    """Run one system in-process; any raise becomes an ``error`` row."""
    print(f"[{scale}] {name}: running SNBC ...", flush=True)
    try:
        result = run_snbc(
            name,
            scale,
            checkpoint_path=_checkpoint_path(args.checkpoint_dir, name, scale),
            resume_from=_resume_path(
                args.checkpoint_dir, name, scale, args.resume
            ),
            time_budget_s=args.time_budget,
            profile=getattr(args, "profile", False),
        )
    except Exception as exc:
        table1_common.BENCH_ROWS[name] = error_entry(exc)
        print(
            f"[{scale}] {name}: ERROR ({type(exc).__name__}: {exc})",
            flush=True,
        )
        failures.append(name)
        return
    outcome = result_outcome(result)
    status = "ok" if outcome == "success" else outcome.upper()
    print(
        f"[{scale}] {name}: {status}  iterations={result.iterations}  "
        f"T_e={result.timings.total:.3f}s",
        flush=True,
    )
    if outcome != "success":
        failures.append(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--systems", default=None,
                        help="comma-separated subset (default: all for the "
                             "current REPRO_BENCH_SCALE)")
    parser.add_argument("--out", default=None,
                        help="BENCH document path "
                             "(default results/BENCH_table1.json)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="write per-system CEGIS checkpoints under this "
                             "directory (<name>-<scale>.ckpt.json)")
    parser.add_argument("--resume", action="store_true",
                        help="resume each system from its checkpoint in "
                             "--checkpoint-dir when one exists")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="per-system wall-clock budget in seconds; "
                             "overruns are recorded as 'timeout' rows")
    parser.add_argument("--profile", action="store_true",
                        help="attach the sampling profiler to each run and "
                             "write <base>.stacks.txt / <base>.profile.json "
                             "next to its trace")
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")

    scale = bench_scale()
    names = (
        [s.strip() for s in args.systems.split(",") if s.strip()]
        if args.systems
        else systems_for_scale(scale)
    )
    failures = []
    for name in names:
        _run_one_serial(name, scale, args, failures)

    out = emit_bench_document(args.out, scale)
    print(f"BENCH document written to {out}")
    if failures:
        print(f"FAILED systems: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
