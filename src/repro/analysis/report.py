"""The Table-1 runner: SNBC over the benchmark registry, one BENCH row each.

    python -m repro.analysis.report --scale smoke --systems C1
    python -m repro.analysis.report --systems C1,C3 --out results/BENCH_table1.json
    python -m repro.analysis.report --checkpoint-dir results/ckpt --resume
    python -m repro.analysis.report --time-budget 600 --profile
    python -m repro.analysis.report --scale paper --markdown table1.md

Runs SNBC on the selected systems one after another, with full
telemetry: a trace, manifest and audit artifact per run under
``results/telemetry/<name>-<scale>.*``.  It writes the aggregate BENCH
document (``--out``, the input of ``python -m repro.diagnostics.regress``)
and prints the paper's Table-1 SNBC columns; ``--markdown`` also writes
them as a markdown section, the layout EXPERIMENTS.md records.

Rows run serially on purpose: each carries the ``T_l/T_c/T_v/T_e``
timings, and rows that share cores would distort them.  To certify
Table-1 rows in parallel, send ``certify`` requests to the certification
service instead (``python -m repro.service run --jobs-file``, see
``docs/service.md``); its payloads carry no timings.

One bad row never loses the table: a system that raises is recorded with
``outcome: "error"`` (exception class included) and the remaining rows
still run; deadline overruns (``--time-budget``) land as ``timeout``
rows (the paper's OOT).  ``--checkpoint-dir``/``--resume`` continue
interrupted runs bit-identically (see ``docs/robustness.md``).  Exits 1
when any selected system fails to produce a certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from typing import Dict, Mapping, Optional, Sequence

from repro.analysis.tables import Table, format_table
from repro.benchmarks import get_benchmark, list_benchmarks
from repro.cegis import SNBC
from repro.diagnostics import (
    audit_certificate,
    bench_document,
    bench_entry,
    error_entry,
    result_outcome,
    write_audit,
    write_bench,
)
from repro.telemetry import session as telemetry_session
from repro.telemetry.profiler import SamplingProfiler

logger = logging.getLogger(__name__)

#: every run's trace family lands here, relative to the working directory
TRACE_DIR = os.path.join("results", "telemetry")

#: trace byte bound per run, so long sweeps cannot fill the disk silently
TRACE_MAX_BYTES = 64 * 1024 * 1024


def run_row(
    name: str,
    scale: str,
    *,
    trace_dir: str,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    time_budget_s: Optional[float] = None,
    profile: bool = False,
) -> dict:
    """Run SNBC on one system with its Table-1 configuration; return the
    BENCH row (:func:`repro.diagnostics.bench_entry`).

    The run's trace, manifest and audit land at
    ``<trace_dir>/<name>-<scale>.{jsonl,manifest.json,audit.json}``;
    render them with ``python -m repro.diagnostics.report``.  With a
    ``checkpoint_dir`` the CEGIS loop checkpoints to
    ``<checkpoint_dir>/<name>-<scale>.ckpt.json``, and ``resume``
    continues from that file when it exists.  ``time_budget_s`` arms the
    per-run deadline, so an overrun is a ``timeout`` row.  ``profile``
    attaches the sampling profiler and writes ``<base>.stacks.txt`` /
    ``<base>.profile.json`` next to the trace.  A run that raises
    becomes an ``error`` row.
    """
    base = os.path.join(trace_dir, f"{name}-{scale}")
    profiler = None
    try:
        spec = get_benchmark(name)
        snbc_config = spec.snbc_config(scale)
        resume_from = None
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            checkpoint = os.path.join(checkpoint_dir, f"{name}-{scale}.ckpt.json")
            snbc_config = dataclasses.replace(snbc_config, checkpoint_path=checkpoint)
            if resume and os.path.exists(checkpoint):
                resume_from = checkpoint
        if time_budget_s:
            snbc_config = dataclasses.replace(snbc_config, time_budget_s=time_budget_s)
        learner_config = spec.learner_config()
        problem = spec.make_problem()
        controller = spec.make_controller()
        if profile:
            profiler = SamplingProfiler().start()
        with telemetry_session(
            base + ".jsonl",
            name=f"table1/{name}",
            config={
                "scale": scale,
                "snbc": snbc_config,
                "learner": learner_config,
            },
            seed=snbc_config.seed,
            max_bytes=TRACE_MAX_BYTES,
        ) as tel:
            result = SNBC(
                problem,
                controller=controller,
                learner_config=learner_config,
                config=snbc_config,
            ).run(resume_from=resume_from)
            tel.manifest.finish(
                result_outcome(result),
                iterations=result.iterations,
                timings={
                    "inclusion": result.timings.inclusion,
                    "learning": result.timings.learning,
                    "counterexample": result.timings.counterexample,
                    "verification": result.timings.verification,
                    "total": result.timings.total,
                },
            )
    except Exception as exc:
        logger.exception("%s-%s raised; recorded as an error row", name, scale)
        return error_entry(exc)
    finally:
        if profiler is not None:
            profiler.stop()
            profiler.write(base)
    # timeout/error runs may end before any candidate exists
    audit = None
    if result.barrier is not None:
        audit = audit_certificate(result, problem)
        write_audit(base + ".audit.json", audit)
    return bench_entry(result, audit=audit)


def _cells(name: str, row: Mapping) -> dict:
    """One rendered Table-1 line: static columns from the registry, the
    measured ones from a BENCH row."""
    meta = get_benchmark(name).table_row()
    timings = row["timings"]
    return {
        "Ex.": name,
        "n_x": meta["n_x"],
        "d_f": meta["d_f"],
        "NN_B": meta["NN_B"],
        "NN_lambda": meta["NN_lambda"],
        "d_B": row["d_B"] if row["outcome"] == "success" else None,
        "I_s": row["iterations"],
        "T_l": timings["T_l"],
        "T_c": timings["T_c"],
        "T_v": timings["T_v"],
        "T_e": timings["T_e"],
    }


def render_markdown(systems: Mapping[str, Mapping], scale: str) -> str:
    """Render a BENCH_table1 document's ``rows`` as a markdown table
    plus summary lines."""
    lines = [
        f"### Table 1 / SNBC columns (measured, scale={scale})",
        "",
        "| Ex. | n_x | d_f | NN_B | NN_lambda | d_B | I_s | T_l (s) | T_c (s) | T_v (s) | T_e (s) |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name, row in systems.items():
        c = _cells(name, row)
        lines.append(
            f"| {name} | {c['n_x']} | {c['d_f']} | {c['NN_B']} | "
            f"{c['NN_lambda']} | {'x' if c['d_B'] is None else c['d_B']} | "
            f"{c['I_s']} | {c['T_l']:.3f} | {c['T_c']:.3f} | "
            f"{c['T_v']:.3f} | {c['T_e']:.3f} |"
        )
    solved = [r for r in systems.values() if r["outcome"] == "success"]
    lines += [
        "",
        f"Solved: **{len(solved)}/{len(systems)}** systems "
        f"(paper: SNBC solves 14/14, d_B = 2 throughout).",
    ]
    if solved:
        mean_total = sum(r["timings"]["T_e"] for r in solved) / len(solved)
        lines.append(f"Mean T_e over solved systems: {mean_total:.3f} s.")
    return "\n".join(lines)


def render_text(systems: Mapping[str, Mapping], scale: str) -> str:
    """Plain-text rendering of BENCH_table1 ``rows`` (terminals, logs)."""
    table = Table(
        columns=["Ex.", "n_x", "d_f", "NN_B", "NN_lambda", "d_B", "I_s",
                 "T_l", "T_c", "T_v", "T_e"],
        title=f"Table 1 / SNBC columns (scale={scale})",
    )
    for name, row in systems.items():
        table.add_row(**_cells(name, row))
    return format_table(table)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", choices=["smoke", "paper"], default="smoke")
    parser.add_argument("--systems", nargs="+", default=None,
                        help="system names, space- or comma-separated "
                             "(default: every registry system but example1)")
    parser.add_argument("--out", default=os.path.join("results", "BENCH_table1.json"),
                        help="BENCH document path (default %(default)s)")
    parser.add_argument("--markdown", default=None,
                        help="also write the table as markdown to this path")
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

    names = (
        [s for arg in args.systems for s in arg.split(",") if s]
        if args.systems
        else [n for n in list_benchmarks() if n != "example1"]
    )
    unknown = sorted(set(names) - set(list_benchmarks()))
    if unknown:
        parser.error(f"unknown systems: {', '.join(unknown)}")
    systems: Dict[str, dict] = {}
    for name in names:
        row = systems[name] = run_row(
            name,
            args.scale,
            trace_dir=TRACE_DIR,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            time_budget_s=args.time_budget,
            profile=args.profile,
        )
        status = "ok" if row["outcome"] == "success" else row["outcome"].upper()
        error = row.get("error")
        detail = f" ({error.get('kind')}: {error.get('message')})" if error else ""
        print(f"  {name}: {status} in {row['timings']['T_e']:.2f}s "
              f"({row['iterations']} iterations){detail}", flush=True)

    write_bench(args.out, bench_document("BENCH_table1", args.scale, systems))
    print()
    print(render_text(systems, args.scale))
    print(f"\nBENCH document written to {args.out}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(render_markdown(systems, args.scale) + "\n")
        print(f"markdown written to {args.markdown}")
    return 0 if all(r["outcome"] == "success" for r in systems.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
