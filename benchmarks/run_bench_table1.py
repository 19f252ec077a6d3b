"""Standalone Table-1 harness driver (no pytest-benchmark needed).

    python benchmarks/run_bench_table1.py --systems C1
    python benchmarks/run_bench_table1.py --out results/BENCH_table1.json
    python benchmarks/run_bench_table1.py --jobs 4
    python benchmarks/run_bench_table1.py --checkpoint-dir results/ckpt --resume
    python benchmarks/run_bench_table1.py --time-budget 600
    python benchmarks/run_bench_table1.py --profile
    REPRO_BENCH_SCALE=paper python benchmarks/run_bench_table1.py

Runs SNBC on the selected Table-1 systems with full telemetry (trace +
manifest + audit artifact per run under ``results/telemetry/``) and
writes the aggregate ``BENCH_table1.json`` for the regression gate
(``python -m repro.diagnostics.regress``).

One bad row never loses the table: a system that raises is recorded with
``outcome: "error"`` (exception class included) and the remaining rows
still run; deadline overruns (``--time-budget``) land as ``timeout``
rows (the paper's OOT).  In ``--jobs`` mode a dead worker is classified
as a ``WorkerCrash`` and the row is redelivered to a serial retry loop
governed by the same :class:`repro.resilience.RetryPolicy` the
certification service uses — transient kinds (``WorkerCrash``,
``SolverNumericalError``) retry with exponential backoff up to the
policy's attempt bound, terminal kinds fail fast — and every row
records ``retries`` (extra attempts consumed) and ``redelivered``
(whether it was pulled back from a dead worker).
``--checkpoint-dir``/``--resume`` continue interrupted runs
bit-identically (see ``docs/robustness.md``).  Exits nonzero when any
selected system fails to produce a certificate, so CI fails fast even
before the gate compares timings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import table1_common
from table1_common import (
    bench_scale,
    emit_bench_document,
    run_snbc,
    run_snbc_row,
    systems_for_scale,
    trace_max_bytes,
)
from repro.diagnostics import error_entry, result_outcome
from repro.resilience import RetryPolicy, WorkerCrash
from repro.resilience.faults import fault_point
from repro.telemetry import session as telemetry_session
from repro.telemetry.context import capture as capture_trace_context, merge_shard


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


def _run_trace_path(name, scale):
    return os.path.join(
        os.path.normpath(table1_common.TELEMETRY_DIR), f"{name}-{scale}.jsonl"
    )


#: the same policy the certification service applies to its workers —
#: WorkerCrash/SolverNumericalError retry with backoff, everything else
#: fails fast; bench rows are cheap enough for short backoff floors
BENCH_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.1,
                                 max_delay_s=2.0)


def _annotate_row(name, retries, redelivered):
    """Record retry accounting on a completed BENCH row."""
    row = table1_common.BENCH_ROWS.get(name)
    if isinstance(row, dict):
        row["retries"] = int(retries)
        row["redelivered"] = bool(redelivered)


def _run_serial_with_retry(name, scale, args, failures,
                           policy=BENCH_RETRY_POLICY, redelivered=False):
    """Serial execution of one row under the shared retry policy.

    Each attempt that ends in an ``error`` row whose kind the policy
    classifies transient is retried after the policy's backoff delay;
    terminal kinds (and plain unsuccessful outcomes, which are results,
    not failures) are recorded as-is.
    """
    attempt = 0
    while True:
        attempt += 1
        attempt_failures = []
        _run_one_serial(name, scale, args, attempt_failures)
        row = table1_common.BENCH_ROWS.get(name) or {}
        error = row.get("error") if isinstance(row, dict) else None
        kind = error.get("kind") if isinstance(error, dict) else None
        if (
            not attempt_failures
            or kind is None
            or not policy.should_retry_kind(kind, attempt)
        ):
            _annotate_row(name, attempt - 1, redelivered)
            if attempt_failures:
                failures.append(name)
            return
        delay = policy.delay_s(attempt, token=name)
        print(
            f"[{scale}] {name}: transient {kind} on attempt {attempt}; "
            f"retrying in {delay:.2f}s "
            f"({attempt}/{policy.max_attempts})",
            flush=True,
        )
        time.sleep(delay)


def _run_parallel(names, scale, args) -> list:
    """Run Table-1 rows in a process pool; returns failed system names.

    Each system is an independent SNBC run (separate telemetry files,
    deterministic seeds), so rows are embarrassingly parallel; the
    workers' BENCH rows are merged back into this process before the
    document is emitted.  A future whose worker died is recorded as a
    ``WorkerCrash`` and redelivered to the shared-policy serial retry
    loop (:data:`BENCH_RETRY_POLICY`); other per-row raises become
    ``error`` rows.  Raises only when the pool cannot start at all —
    the caller then falls back to the serial loop.

    The driver itself runs a telemetry session
    (``results/telemetry/bench-<scale>.jsonl``, manifest role
    ``bench_parent``): every submission happens under a ``bench.row``
    span whose :class:`TraceContext` travels to the worker, and each
    completed row's trace is merged back as a shard — one unified trace
    across the whole fleet, plus a live ``bench-<scale>.status.json``
    heartbeat with per-row worker liveness for
    ``python -m repro.telemetry.tail``.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    failures = []
    retry_serially = []
    bench_trace = _run_trace_path("bench", scale)
    with telemetry_session(
        bench_trace,
        name=f"table1-bench/{scale}",
        config={"scale": scale, "jobs": args.jobs, "systems": list(names)},
        max_bytes=trace_max_bytes(),
        role="bench_parent",
    ) as tel:
        tel.status_update(
            force=True, phase="bench", total_rows=len(names), completed_rows=0
        )
        completed = 0
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs
        ) as pool:
            futures = {}
            for i, name in enumerate(names):
                with tel.span("bench.row", system=name, shard=i):
                    ctx = capture_trace_context(shard_index=i)
                    fut = pool.submit(
                        run_snbc_row,
                        name,
                        scale,
                        checkpoint_path=_checkpoint_path(
                            args.checkpoint_dir, name, scale
                        ),
                        resume_from=_resume_path(
                            args.checkpoint_dir, name, scale, args.resume
                        ),
                        time_budget_s=args.time_budget,
                        profile=getattr(args, "profile", False),
                        trace_ctx=ctx,
                        submitted_at=time.time(),
                    )
                futures[fut] = name
                tel.status_worker(name, state="submitted", shard_index=i)
            for fut in concurrent.futures.as_completed(futures):
                name = futures[fut]
                try:
                    fault_point("bench.pool")
                    row, success, iterations, total = fut.result()
                except BrokenProcessPool as exc:
                    # the worker died (OOM kill, segfault): classify the
                    # row and redeliver it to the shared-policy serial
                    # retry loop in this process
                    crash = WorkerCrash(
                        f"pool worker died while running {name}: {exc}",
                        cause=exc,
                        system=name,
                    )
                    table1_common.BENCH_ROWS[name] = error_entry(crash)
                    print(
                        f"[{scale}] {name}: WORKER CRASH ({exc}); "
                        "redelivering to serial retry",
                        flush=True,
                    )
                    retry_serially.append(name)
                    tel.status_worker(name, state="crashed")
                    continue
                except Exception as exc:
                    table1_common.BENCH_ROWS[name] = error_entry(exc)
                    print(
                        f"[{scale}] {name}: ERROR "
                        f"({type(exc).__name__}: {exc})",
                        flush=True,
                    )
                    failures.append(name)
                    tel.status_worker(name, state="error")
                    _annotate_row(name, 0, False)
                    continue
                finally:
                    completed += 1
                    tel.status_update(completed_rows=completed)
                table1_common.BENCH_ROWS[name] = row
                _annotate_row(name, 0, False)
                # fold the worker run's trace into the bench trace (the
                # run's own artifacts stay on disk untouched)
                merge_shard(tel, _run_trace_path(name, scale), keep=True)
                outcome = row.get(
                    "outcome", "success" if success else "failure"
                )
                status = "ok" if outcome == "success" else outcome.upper()
                tel.status_worker(
                    name,
                    state="done",
                    outcome=outcome,
                    queue_wait_s=row.get("queue_wait_s"),
                )
                print(
                    f"[{scale}] {name}: {status}  iterations={iterations}  "
                    f"T_e={total:.3f}s",
                    flush=True,
                )
                if outcome != "success":
                    failures.append(name)
        for name in retry_serially:
            # overwrites the WorkerCrash row when a retry completes;
            # backoff/attempt bounds come from the shared policy
            _run_serial_with_retry(
                name, scale, args, failures, redelivered=True
            )
        tel.manifest.finish(
            "success" if not failures else "failure",
            failed_systems=list(failures),
        )
    return failures


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
    parser.add_argument("--jobs", type=int, default=1,
                        help="run systems in a process pool of this size "
                             "(default 1: serial)")
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
                             "next to its trace.  The profiler samples one "
                             "process: with --jobs each row is profiled "
                             "inside its worker and the driver process "
                             "itself is not sampled")
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.profile and args.jobs > 1:
        print(
            "warning: --profile samples one process at a time — the driver "
            "is not profiled under --jobs; each row is profiled inside its "
            "worker",
            file=sys.stderr,
        )

    scale = bench_scale()
    names = (
        [s.strip() for s in args.systems.split(",") if s.strip()]
        if args.systems
        else systems_for_scale(scale)
    )
    failures = None
    if args.jobs > 1 and len(names) > 1:
        try:
            failures = _run_parallel(names, scale, args)
        except Exception as exc:  # pool unavailable -> serial fallback
            print(f"process pool failed ({exc}); running serially", flush=True)
            failures = None
    if failures is None:
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
