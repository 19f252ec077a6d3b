"""Atomically-written per-run ``status.json`` heartbeat.

A :class:`StatusWriter` holds one flat state dict for a run — current
phase, CEGIS iteration, IPM iteration and convergence health class,
counterexample counts, recovery-ladder rung, remaining time budget, and
per-worker liveness — and rewrites ``<base>.status.json`` whenever the
state changes.  Writes are atomic (temp file + ``os.replace``) so a
reader (``python -m repro.telemetry tail``) never sees a torn file, and
throttled (``min_interval_s``) so per-IPM-iteration updates from hot
loops cost one ``perf_counter()`` call most of the time.

The file doubles as a dead-man switch: every write stamps
``heartbeat_wall`` with the current epoch time, so a fleet board can
classify a run as stalled (heartbeat old) or dead (heartbeat ancient,
or outcome never written) without talking to the process.

Everything here is stdlib-only, like the rest of :mod:`repro.telemetry`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from repro.utils.fileio import atomic_write_text

STATUS_SCHEMA_VERSION = 1

#: fields whose change always forces an immediate write, bypassing the
#: throttle — these are the transitions a live watcher must not miss
_FORCE_FIELDS = ("phase", "outcome", "ipm_convergence", "recovery_rung")


class StatusWriter:
    """Maintains one run's ``status.json`` with throttled atomic writes."""

    def __init__(
        self,
        path: str,
        name: str = "run",
        trace_id: Optional[str] = None,
        min_interval_s: float = 0.2,
    ) -> None:
        self.path = str(path)
        self.min_interval_s = float(min_interval_s)
        self._last_write = float("-inf")
        self._closed = False
        self.state: Dict[str, Any] = {
            "schema_version": STATUS_SCHEMA_VERSION,
            "name": name,
            "trace_id": trace_id,
            "pid": os.getpid(),
            "started_wall": time.time(),
            "heartbeat_wall": None,
            "phase": None,
            "outcome": None,
            "workers": {},
        }
        self._write()

    # -- updates --------------------------------------------------------
    def update(self, force: bool = False, **fields: Any) -> None:
        """Merge ``fields`` into the state and write if due.

        A write happens when ``force`` is set, when a force-field (phase,
        outcome, convergence class, recovery rung) changes value, or when
        ``min_interval_s`` has elapsed since the last write.  Unwritten
        updates are not lost — they ride along with the next write.
        """
        if self._closed:
            return
        changed_force = any(
            key in _FORCE_FIELDS and self.state.get(key) != value
            for key, value in fields.items()
        )
        self.state.update(fields)
        now = time.perf_counter()
        if force or changed_force or now - self._last_write >= self.min_interval_s:
            self._write(now)

    def worker_update(self, shard: Any, **fields: Any) -> None:
        """Merge liveness fields for one worker lane (keyed by shard)."""
        if self._closed:
            return
        lane = self.state["workers"].setdefault(str(shard), {})
        lane.update(fields)
        lane["heartbeat_wall"] = time.time()
        now = time.perf_counter()
        if now - self._last_write >= self.min_interval_s:
            self._write(now)

    def finish(self, outcome: str, **fields: Any) -> None:
        """Record the final outcome and write unconditionally."""
        if self._closed:
            return
        self.state.update(fields)
        self.state["outcome"] = outcome
        self._write()
        self._closed = True

    # -- IO -------------------------------------------------------------
    def _write(self, now: Optional[float] = None) -> None:
        self.state["heartbeat_wall"] = time.time()
        try:
            atomic_write_text(
                self.path,
                json.dumps(self.state, separators=(",", ":"), default=str),
            )
        except OSError:
            # a heartbeat must never take a run down (read-only results
            # tree, disk full); the run carries on without one
            return
        self._last_write = time.perf_counter() if now is None else now


def read_status(path: str) -> Optional[Dict[str, Any]]:
    """Read one ``status.json``; None when missing or (transiently)
    malformed — callers treat both as 'no heartbeat yet'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
