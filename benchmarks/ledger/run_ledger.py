"""Paper-pipeline ledger: wall-clock to a ℚ-proven certificate, per layer.

One workload::

    python3 benchmarks/ledger/run_ledger.py --workload table1 --seed 0 \\
        --seconds 10 --trace 0

Every workload, each in its own child process, one after another::

    python3 benchmarks/ledger/run_ledger.py --seed 0 --out ledger.json [--trace]

A run sets up its workload ``setup_reps`` times (reporting the median),
then measures whole untraced passes until ``--seconds`` have elapsed
(at least one).  With ``--trace`` it measures one untraced pass and then
one traced pass, and reports the per-layer metrics of the traced one.
Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when a check that
must never fail fails or an item misses its expected outcome.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: parent of the service workload's temporary roots (inside the checkout)
SCRATCH = ROOT / ".ledger_tmp"

#: a second BLAS thread on a 2-core machine doubles C1's T_e and triples
#: C12's verification round; the ledger measures the program, not the
#: scheduler, so BLAS runs on one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: printed with --trace 0 (name, unit)
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: printed with --trace 1 (name, unit)
PER_LAYER = (
    ("soundness.recheck_s", "s"),
    ("soundness.rechecks", "count"),
    ("soundness.max_gram_dim", "rows"),
    ("sdp.solve_s", "s"),
    ("sdp.solves", "count"),
    ("sdp.ipm_iterations", "count"),
    ("sdp.z_factor_s", "s"),
    ("sdp.schur_assembly_s", "s"),
    ("sdp.schur_factor_s", "s"),
    ("sdp.line_search_s", "s"),
    ("sdp.unattributed_s", "s"),
    ("sdp.max_block_dim", "rows"),
    ("sdp.recovered", "count"),
    ("sdp.warm_started", "count"),
    ("sos.assembly_s", "s"),
    ("verifier.verify_s", "s"),
    ("verifier.verify_calls", "count"),
    ("verifier.accept_ratio", "ratio"),
    ("cegis.cex_s", "s"),
    ("cegis.cex_calls", "count"),
    ("cegis.cex_points", "count"),
    ("learner.fit_s", "s"),
    ("learner.fit_calls", "count"),
    ("controllers.inclusion_s", "s"),
    ("controllers.inclusion_calls", "count"),
    ("service.submit_s", "s"),
    ("service.cache_get_s", "s"),
    ("service.cache_put_s", "s"),
    ("service.journal_append_s", "s"),
    ("service.retries", "count"),
    ("service.redeliveries", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: share of an in-process traced pass the layer self times must cover
MIN_COVERAGE = 0.9


def bootstrap() -> Optional[str]:
    """Pin BLAS to one thread before numpy loads and import ``repro``
    from this checkout's sources.  Returns why that failed, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no repro sources under {SRC}"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return f"repro was imported from {repro.__file__}, not {SRC}"
    return None


# -- one workload -------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set up, run the passes, and return the raw measurement."""
    from ledger_trace import SpanRecorder, Tracer

    setups = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    passes = []
    t_start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - t_start < seconds):
        passes.append(workload.run_pass(state, None))
    traced = spans = None
    if trace:
        recorder = SpanRecorder()
        recorder.pass_index = len(passes)
        with Tracer(recorder):
            traced = workload.run_pass(state, recorder)
        spans = recorder.spans
    leftover = multiprocessing.active_children()
    for proc in leftover:
        proc.terminate()
        proc.join()
    return {
        "setups": setups,
        "passes": passes,
        "traced": traced,
        "spans": spans,
        "expected_spans": workload.expected_spans(state),
        "in_process": workload.in_process,
        "leftover_processes": len(leftover),
    }


def check(m: Dict[str, Any]) -> List[str]:
    """Violations of the checks that must never fail."""
    from ledger_trace import unrestored

    errors: List[str] = []
    runs = m["passes"] + ([m["traced"]] if m["traced"] is not None else [])
    for p in runs:
        errors.extend(p.errors)
        for item in p.items:
            errors.extend(item.errors)
    first = {item.label: item.identity for item in runs[0].items}
    for k, p in enumerate(runs[1:], 1):
        for item in p.items:
            if first.get(item.label) != item.identity:
                errors.append(
                    f"pass {k}: {item.label} gave {item.identity}, "
                    f"pass 0 gave {first.get(item.label)}"
                )
    if m["leftover_processes"]:
        errors.append(f"{m['leftover_processes']} child processes outlived the run")
    if m["spans"] is not None:
        counts = Counter(span["name"] for span in m["spans"])
        for name, (lo, hi) in m["expected_spans"].items():
            n = counts.get(name, 0)
            if n < lo or (hi is not None and n > hi):
                want = f"{lo}" if lo == hi else f">= {lo}" if hi is None else f"{lo}-{hi}"
                errors.append(f"trace: {name} fired {n} times, expected {want}")
        errors.extend(f"trace: {t} still wrapped" for t in unrestored())
    return errors


def _median_extras(passes) -> Dict[str, Any]:
    out = {}
    for key, (_value, unit) in passes[0].extras.items():
        out[key] = (statistics.median(p.extras[key][0] for p in passes), unit)
    return out


def summarize(m: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end and per-layer metrics plus the verdict of one run."""
    from ledger_trace import item_layers, layer_metrics

    errors = check(m)
    passes = m["passes"]
    runs = passes + ([m["traced"]] if m["traced"] is not None else [])
    items = [item for p in runs for item in p.items]
    failed = sum(item.missed for item in items)
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = _median_extras(passes)
    extras["fail_ratio"] = (failed / len(items), "ratio")
    layers = None
    per_item = None
    if m["spans"] is not None:
        traced = m["traced"]
        layers = layer_metrics(m["spans"], traced.wall_s)
        layers.update(traced.counters)
        layers["trace.overhead_ratio"] = traced.wall_s / wall - 1.0
        if m["in_process"] and layers["trace.coverage"] < MIN_COVERAGE:
            errors.append(
                f"trace: layers cover {layers['trace.coverage']:.3f} of the "
                f"traced pass, below {MIN_COVERAGE}"
            )
        per_item = item_layers(m["spans"])
    return {
        "correct": not errors,
        "attempted": len(items),
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "extras": extras,
        "layers": layers,
        "item_layers": per_item,
    }


def report_lines(summary: Dict[str, Any], trace: bool) -> List[str]:
    """``name value unit`` lines, then the JSON result line."""
    lines = []
    shown = {}
    for name, unit in END_TO_END:
        lines.append(f"{name} {summary['metrics'][name]} {unit}")
        shown[name] = {"value": summary["metrics"][name], "unit": unit}
    for name, (value, unit) in summary["extras"].items():
        lines.append(f"{name} {value} {unit}")
    if trace:
        shown = {}
        for name, unit in PER_LAYER:
            value = summary["layers"][name]
            lines.append(f"{name} {value} {unit}")
            shown[name] = {"value": value, "unit": unit}
    lines.append(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": shown,
    }))
    return lines


def exit_code(summary: Dict[str, Any]) -> int:
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


def _pass_doc(p, traced: bool) -> Dict[str, Any]:
    return {
        "traced": traced,
        "wall_s": p.wall_s,
        "extras": {k: v for k, (v, _u) in p.extras.items()},
        "items": [
            {"label": i.label, "outcome": i.outcome, "expected": i.expected,
             "wall_s": i.wall_s, **i.info}
            for i in p.items
            # the service's 600 jobs are summarized by the pass extras
            if i.wall_s is not None
        ],
    }


def run_one(args) -> int:
    from ledger_workloads import make_workloads

    SCRATCH.mkdir(exist_ok=True)
    try:
        workloads = make_workloads(str(SCRATCH))
        if args.workload not in workloads:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads)}", file=sys.stderr)
            return 2
        m = measure(workloads[args.workload], args.seed, args.seconds,
                    bool(args.trace))
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    summary = summarize(m)
    for error in summary["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if args.out:
        import numpy

        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            },
            "setup_s": m["setups"],
            "passes": [_pass_doc(p, False) for p in m["passes"]]
            + ([_pass_doc(m["traced"], True)] if m["traced"] else []),
            **{k: summary[k] for k in (
                "correct", "attempted", "failed", "errors", "metrics",
                "layers", "item_layers",
            )},
            "extras": {k: v for k, (v, _u) in summary["extras"].items()},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        if m["spans"] is not None:
            Path(f"{args.out}.spans.json").write_text(json.dumps(m["spans"]) + "\n")
    for line in report_lines(summary, bool(args.trace)):
        print(line)
    return exit_code(summary)


# -- every workload -----------------------------------------------------------

def run_all(args, names: Sequence[str]) -> int:
    """Each workload in its own child process, one after another."""
    combined: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {},
    }
    docs: Dict[str, Any] = {}
    spans: Dict[str, Any] = {}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        part = Path(f"{args.out}.{name}.part") if args.out else None
        if part is not None:
            cmd += ["--out", str(part)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}.{line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if result is None:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            status = max(status, 2)
            continue
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
        if part is not None:
            docs[name] = json.loads(part.read_text())
            part.unlink()
            part_spans = Path(f"{part}.spans.json")
            if part_spans.exists():
                spans[name] = json.loads(part_spans.read_text())
                part_spans.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "trace": bool(args.trace), "workloads": docs},
            indent=1,
        ) + "\n")
        if spans:
            Path(f"{args.out}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(combined))
    return status


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in its own child process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes for at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="one untraced then one traced pass, "
                        "reporting per-layer metrics")
    parser.add_argument("--out", help="write the full run document here "
                        "(and the spans to OUT.spans.json when tracing)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    problem = bootstrap()
    if problem is not None:
        print(f"run_ledger: {problem}", file=sys.stderr)
        return 2
    if args.workload is not None:
        return run_one(args)
    from ledger_workloads import make_workloads

    return run_all(args, list(make_workloads(str(SCRATCH))))


if __name__ == "__main__":
    sys.exit(main())
