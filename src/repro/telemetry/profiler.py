"""Stdlib sampling profiler: where does the wall-clock actually go?

A background thread wakes every ``interval`` seconds and snapshots the
target thread's Python stack via ``sys._current_frames()`` — the same
mechanism py-spy-style tools use in-process.  Sampling never touches the
profiled code path (no ``sys.settrace``, no bytecode patching), so the
run under profile produces bitwise-identical results; the only cost is
the GIL time spent walking ~30 frames a hundred times a second, which is
well under the PR's 3% end-to-end budget.

Two artifacts per profile, written next to the run's telemetry:

``<base>.stacks.txt``
    Collapsed-stack format (``root;child;leaf count`` per line) — feed it
    to any flamegraph renderer, or just sort it.
``<base>.profile.json``
    A per-function self/total table plus a per-*pipeline-phase* rollup
    (learning / verification / counterexample / inclusion / other) keyed
    off module prefixes, so the profile answers the ROADMAP question
    ("what, inside verification, is slow?") without a renderer.

Usage::

    from repro.telemetry.profiler import SamplingProfiler

    with SamplingProfiler() as prof:
        result = SNBC(problem, config).run()
    prof.write("results/telemetry/C1-smoke")

or pass ``--profile`` to ``python -m repro.analysis.report``.

A signal-based sampler (``signal.setitimer``) would also catch C-level
stalls, but only works on the main thread; the thread-based sampler
works anywhere, which is why it is the default and only implementation
here.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

PROFILE_SCHEMA_VERSION = 1

#: default sampling period (seconds); ~100 Hz keeps overhead noise-level
#: while resolving phases that last tens of milliseconds
DEFAULT_INTERVAL_S = 0.01

#: module-prefix → pipeline phase, first match wins (most specific first)
PHASE_MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.cegis.counterexamples", "counterexample"),
    ("repro.controllers.inclusion", "inclusion"),
    ("repro.learner", "learning"),
    ("repro.nn", "learning"),
    ("repro.autodiff", "learning"),
    ("repro.sdp", "verification"),
    ("repro.sos", "verification"),
    ("repro.verifier", "verification"),
    ("repro.soundness", "verification"),
)


def phase_of(frame_key: str) -> str:
    """Map a ``module:function`` frame key onto a pipeline phase."""
    module = frame_key.split(":", 1)[0]
    for prefix, phase in PHASE_MODULES:
        if module == prefix or module.startswith(prefix + "."):
            return phase
    return "other"


class SamplingProfiler:
    """Samples one thread's stack from a daemon thread.

    The target defaults to the thread that calls :meth:`start` (almost
    always the one about to run ``SNBC.run``).  Samples accumulate as a
    ``Counter`` over full stacks (root→leaf), which is simultaneously
    the collapsed-stack output and the input to the self/total rollups.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL_S,
        target_ident: Optional[int] = None,
        max_depth: int = 256,
    ) -> None:
        self.interval = float(interval)
        self.target_ident = target_ident
        self.max_depth = int(max_depth)
        self.samples: Counter = Counter()
        self.n_samples = 0
        self.wall_seconds = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = 0.0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        if self.target_ident is None:
            self.target_ident = threading.get_ident()
        self._stop.clear()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.wall_seconds += time.perf_counter() - self._t0
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- sampling loop --------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.target_ident)
            if frame is None:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                module = frame.f_globals.get("__name__", "?")
                stack.append(f"{module}:{frame.f_code.co_name}")
                frame = frame.f_back
                depth += 1
            if stack:
                self.samples[tuple(reversed(stack))] += 1
                self.n_samples += 1

    # -- aggregation ----------------------------------------------------
    @property
    def seconds_per_sample(self) -> float:
        return self.wall_seconds / self.n_samples if self.n_samples else 0.0

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``a;b;c count``), sorted for stability."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.samples.items())
        ]

    def function_table(self) -> List[Dict[str, Any]]:
        """Per-function self/total sample counts and estimated seconds.

        ``self`` counts samples where the function was the leaf;
        ``total`` counts samples where it appears anywhere on the stack
        (once per sample, so recursion does not inflate it).
        """
        self_counts: Counter = Counter()
        total_counts: Counter = Counter()
        for stack, count in self.samples.items():
            self_counts[stack[-1]] += count
            for frame_key in set(stack):
                total_counts[frame_key] += count
        sps = self.seconds_per_sample
        rows = [
            {
                "frame": frame_key,
                "phase": phase_of(frame_key),
                "self": self_counts.get(frame_key, 0),
                "total": total,
                "self_seconds": round(self_counts.get(frame_key, 0) * sps, 6),
                "total_seconds": round(total * sps, 6),
            }
            for frame_key, total in total_counts.items()
        ]
        rows.sort(key=lambda r: (-r["self"], -r["total"], r["frame"]))
        return rows

    def phase_table(self) -> Dict[str, Dict[str, Any]]:
        """Self-time rollup per pipeline phase.

        Each sample is attributed to the phase of the *innermost* frame
        that maps to a known phase (leaf-ward attribution), falling back
        to ``other`` — so an SDP solve called from the CEGIS loop counts
        as verification, not other.
        """
        phase_counts: Counter = Counter()
        for stack, count in self.samples.items():
            phase = "other"
            for frame_key in reversed(stack):
                candidate = phase_of(frame_key)
                if candidate != "other":
                    phase = candidate
                    break
            phase_counts[phase] += count
        sps = self.seconds_per_sample
        total = self.n_samples or 1
        return {
            phase: {
                "samples": count,
                "seconds": round(count * sps, 6),
                "share": round(count / total, 6),
            }
            for phase, count in sorted(phase_counts.items())
        }

    def report(self) -> Dict[str, Any]:
        return {
            "kind": "sampling_profile",
            "schema_version": PROFILE_SCHEMA_VERSION,
            "interval_s": self.interval,
            "n_samples": self.n_samples,
            "wall_seconds": round(self.wall_seconds, 6),
            "phases": self.phase_table(),
            "functions": self.function_table(),
        }

    # -- output ---------------------------------------------------------
    def write(self, base: str) -> Dict[str, str]:
        """Write ``<base>.stacks.txt`` + ``<base>.profile.json``; returns
        the two paths.  ``base`` may be a trace path — a trailing
        ``.jsonl`` is stripped so the artifacts sit next to the trace."""
        if base.endswith(".jsonl"):
            base = base[: -len(".jsonl")]
        stacks_path = base + ".stacks.txt"
        profile_path = base + ".profile.json"
        with open(stacks_path, "w", encoding="utf-8") as fh:
            for line in self.collapsed():
                fh.write(line + "\n")
        with open(profile_path, "w", encoding="utf-8") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return {"stacks": stacks_path, "profile": profile_path}
