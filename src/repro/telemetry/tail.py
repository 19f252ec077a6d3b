"""Live run-health streaming: follow status.json heartbeats.

    python -m repro.telemetry tail results/telemetry/C1-smoke
    python -m repro.telemetry tail results/telemetry/C1-smoke.jsonl
    python -m repro.telemetry tail results/ --fleet
    python -m repro.telemetry tail results/ --fleet --once

Single-run mode (:func:`follow_run`) follows one run: a phase ticker
(phase, CEGIS iteration, IPM iteration + convergence class,
counterexample counts, recovery rung, remaining budget) re-rendered every
:data:`POLL_INTERVAL_S` seconds from the run's atomically-written
``status.json``, interleaved with the trace's non-span events as they
are appended (``flush_every=1`` on the sink makes them visible live).
Exits 0 when the run records an outcome, 1 when its heartbeat is lost.

``--fleet`` mode (:func:`follow_fleet`) renders a one-line-per-run board
over every ``*.status.json`` under a results tree, with dead-man
detection: a run whose heartbeat is older than
:data:`DEFAULT_STALE_AFTER_S` seconds shows STALLED, older than
:data:`DEFAULT_DEAD_AFTER_S` shows DEAD — no cooperation from the
(possibly wedged) run process required.  A certification-service
supervisor (its status carries a ``service`` block) renders queue
health instead of CEGIS progress: queue depth, in-flight, done/total,
retries, redeliveries, dead-letters, cache hits/evictions, and a
SERIAL marker when the pool degraded to in-process execution; its
``worker-<i>.status.json`` heartbeats appear as ordinary fleet rows.

``--once`` renders a single snapshot and exits — for scripts and CI.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.status import read_status
from repro.telemetry.store import run_family

#: seconds between two polls of a followed run or fleet
POLL_INTERVAL_S = 1.0
#: heartbeat age (seconds) after which a run with no outcome is STALLED
DEFAULT_STALE_AFTER_S = 30.0
#: heartbeat age (seconds) after which it is presumed DEAD
DEFAULT_DEAD_AFTER_S = 120.0


# -- classification (pure: everything takes `now` for testability) ------
def heartbeat_age(status: Dict[str, Any], now: float) -> Optional[float]:
    beat = status.get("heartbeat_wall")
    if not isinstance(beat, (int, float)):
        return None
    return max(0.0, now - float(beat))


def classify(
    status: Dict[str, Any],
    now: float,
    stale_after: float = DEFAULT_STALE_AFTER_S,
    dead_after: float = DEFAULT_DEAD_AFTER_S,
) -> str:
    """One word for the run's liveness: a recorded outcome wins; without
    one the heartbeat age decides RUNNING / STALLED / DEAD."""
    outcome = status.get("outcome")
    if outcome:
        return str(outcome).upper()
    age = heartbeat_age(status, now)
    if age is None or age > dead_after:
        return "DEAD"
    if age > stale_after:
        return "STALLED"
    return "RUNNING"


def _fmt_age(age: Optional[float]) -> str:
    if age is None:
        return "?"
    if age < 100.0:
        return f"{age:.0f}s"
    return f"{age / 60.0:.1f}m"


def _fmt_budget(value: Any) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{float(value):.0f}s"


def render_status_line(
    status: Dict[str, Any],
    now: float,
    stale_after: float = DEFAULT_STALE_AFTER_S,
    dead_after: float = DEFAULT_DEAD_AFTER_S,
) -> str:
    """One fleet-board row: liveness, name, phase, progress, heartbeat."""
    state = classify(status, now, stale_after, dead_after)
    name = str(status.get("name", "?"))
    phase = str(status.get("phase") or "-")
    service = status.get("service")
    if isinstance(service, dict):
        # service-supervisor row: queue health instead of CEGIS progress
        parts = [f"{state:<8}", f"{name:<24}", f"{phase:<16}"]
        parts.append(f"queue={service.get('queue_depth', '-')}")
        parts.append(f"inflight={service.get('in_flight', '-')}")
        parts.append(
            f"done={service.get('done', '-')}/{service.get('total', '-')}"
        )
        parts.append(f"retries={service.get('retries', '-')}")
        if service.get("redeliveries"):
            parts.append(f"redeliv={service['redeliveries']}")
        parts.append(f"dead={service.get('dead_letters', '-')}")
        if service.get("cache_hits"):
            parts.append(f"cached={service['cache_hits']}")
        if service.get("cache_evictions"):
            parts.append(f"evicted={service['cache_evictions']}")
        if service.get("serial_mode"):
            parts.append("SERIAL")
        parts.append(f"beat={_fmt_age(heartbeat_age(status, now))}")
        return "  ".join(parts)
    it = status.get("cegis_iteration")
    ipm = status.get("ipm_iteration")
    conv = status.get("ipm_convergence")
    cex = status.get("cex_total")
    rung = status.get("recovery_rung")
    workers = status.get("workers") or {}
    parts = [f"{state:<8}", f"{name:<24}", f"{phase:<16}"]
    parts.append(f"it={it if it is not None else '-'}")
    ipm_text = f"ipm={ipm if ipm is not None else '-'}"
    if conv:
        ipm_text += f"/{conv}"
    parts.append(ipm_text)
    parts.append(f"cex={cex if cex is not None else '-'}")
    if rung and rung != "base":
        parts.append(f"rung={rung}")
    if workers:
        live = sum(
            1 for lane in workers.values()
            if isinstance(lane, dict)
            and isinstance(lane.get("heartbeat_wall"), (int, float))
            and now - lane["heartbeat_wall"] <= stale_after
        )
        parts.append(f"workers={live}/{len(workers)}")
    budget = status.get("budget_remaining_s")
    if budget is not None:
        parts.append(f"budget={_fmt_budget(budget)}")
    parts.append(f"beat={_fmt_age(heartbeat_age(status, now))}")
    return "  ".join(parts)


def render_fleet_board(
    statuses: Sequence[Tuple[str, Dict[str, Any]]],
    now: float,
    stale_after: float = DEFAULT_STALE_AFTER_S,
    dead_after: float = DEFAULT_DEAD_AFTER_S,
) -> List[str]:
    """The full fleet board: one line per (path, status), running runs
    first (RUNNING, then STALLED/DEAD, then finished), stable by name."""
    rank = {"RUNNING": 0, "STALLED": 1, "DEAD": 2}
    decorated = []
    for path, status in statuses:
        state = classify(status, now, stale_after, dead_after)
        decorated.append((rank.get(state, 3), str(status.get("name", path)),
                          path, status))
    decorated.sort(key=lambda item: (item[0], item[1], item[2]))
    lines = [
        render_status_line(status, now, stale_after, dead_after)
        for _, _, _, status in decorated
    ]
    if not lines:
        lines.append("(no status.json heartbeats found)")
    return lines


# -- discovery -----------------------------------------------------------
def find_status_files(root: str) -> List[str]:
    """Every ``*.status.json`` under ``root`` (sorted walk, like the
    fleet store's trace scan)."""
    out: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".status.json"):
                out.append(os.path.join(dirpath, filename))
    return out


def resolve_run_status_path(target: str) -> Optional[str]:
    """Map a run dir / base / trace / status path onto its status.json."""
    if os.path.isdir(target):
        found = find_status_files(target)
        if not found:
            return None
        # most recently touched heartbeat = the run being watched
        return max(found, key=lambda p: (os.path.getmtime(p), p))
    return run_family(target).status


# -- single-run event stream --------------------------------------------
def format_event(event: Dict[str, Any], max_width: int = 110) -> Optional[str]:
    """Compact one-liner for a non-span trace event; None to skip."""
    etype = event.get("type")
    # the last three are cross-process merge events found in older traces
    if etype in (None, "span", "metrics", "trace_context", "worker_metrics",
                 "profile_samples"):
        return None
    payload = {
        k: v
        for k, v in event.items()
        if k not in ("type", "wall") and not isinstance(v, (dict, list))
    }
    text = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
    line = f"  [{etype}] {text}" if text else f"  [{etype}]"
    if len(line) > max_width:
        line = line[: max_width - 3] + "..."
    return line


class _TraceFollower:
    """Incrementally yields newly appended complete lines of a trace."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0

    def poll(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return events
        if not chunk:
            return events
        lines = chunk.split("\n")
        tail = lines.pop()  # incomplete last line: retry next poll
        consumed = len(chunk) - len(tail)
        self._offset += consumed
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                events.append(event)
        return events


def follow_run(target: str, once: bool = False) -> int:
    """Follow one run until it records an outcome (0) or its heartbeat
    is lost (1); 2 when the target has no status.json."""
    status_path = resolve_run_status_path(target)
    if status_path is None:
        print(f"error: no status.json found for {target}", file=sys.stderr)
        return 2
    follower = _TraceFollower(run_family(status_path).trace)
    last_line = None
    while True:
        now = time.time()
        status = read_status(status_path) or {}
        for event in follower.poll():
            line = format_event(event)
            if line:
                print(line, flush=True)
        line = render_status_line(status, now)
        if line != last_line:
            print(line, flush=True)
            last_line = line
        if once or status.get("outcome"):
            return 0
        if classify(status, now) == "DEAD":
            print("heartbeat lost; giving up", file=sys.stderr)
            return 1
        time.sleep(POLL_INTERVAL_S)


def follow_fleet(root: str, once: bool = False) -> int:
    """Re-render the fleet board under ``root`` until every run has an
    outcome (or once); always 0."""
    while True:
        now = time.time()
        statuses = [
            (path, status)
            for path in find_status_files(root)
            for status in [read_status(path)]
            if status is not None
        ]
        board = render_fleet_board(statuses, now)
        stamp = time.strftime("%H:%M:%S", time.localtime(now))
        print(f"-- fleet @ {stamp} ({len(statuses)} run(s)) --", flush=True)
        for line in board:
            print(line, flush=True)
        if once:
            return 0
        if statuses and all(
            status.get("outcome") for _, status in statuses
        ):
            return 0
        time.sleep(POLL_INTERVAL_S)
