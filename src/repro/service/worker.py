"""Process-worker loop: pipe protocol + heartbeat + fault sites.

Each worker is one OS process holding one end of a duplex
:func:`multiprocessing.Pipe`.  The supervisor sends ``job`` messages
(request manifest + attempt number) and ``stop``; the worker answers
with ``started`` (assignment acknowledged — the supervisor's redelivery
bookkeeping keys off this), then ``done`` (deterministic payload) or
``error`` (a JSON-safe classified failure the retry policy judges in
the supervisor).

Liveness is a file, not a message: a daemon thread rewrites the
worker's ``worker-<id>.status.json`` (the PR 7 :class:`StatusWriter`)
every ``HEARTBEAT_INTERVAL_S`` seconds even while a job blocks the main loop,
so the supervisor — and ``python -m repro.telemetry tail --fleet`` —
can classify a wedged worker as STALLED/DEAD from heartbeat age alone.

The ``service.worker_kill_mid_job`` fault fires *inside* the worker
after it has acknowledged a job and calls ``os._exit(137)`` — the
moral equivalent of an OOM SIGKILL mid-job, taking the heartbeat
thread down with it.  Fault specs travel from the supervisor as plain
dicts (fault plans are per-process; the parent's plan does not reach
a spawned child).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.resilience.errors import ReproError
from repro.resilience.faults import FaultPlan, FaultSpec, fired
from repro.service import jobs as service_jobs
from repro.telemetry.status import StatusWriter

#: exit code a fault-killed worker dies with (mirrors SIGKILL's 128+9)
KILLED_EXIT_CODE = 137


def install_fault_specs(specs: List[Dict[str, Any]]) -> None:
    """Arm a fault plan from serialized specs (worker-process side)."""
    if not specs:
        return
    from repro.resilience import faults

    plan = FaultPlan()
    for doc in specs:
        plan.add(
            FaultSpec(
                site=str(doc["site"]),
                at_call=int(doc.get("at_call", 1)),
                times=int(doc.get("times", 1)),
            )
        )
    # direct install: the worker owns its whole lifetime, no nesting
    faults._plan = plan


#: seconds between a worker's heartbeat writes
HEARTBEAT_INTERVAL_S = 0.5


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """JSON-safe classified failure for the supervisor's retry policy."""
    if isinstance(exc, ReproError):
        doc = exc.to_dict()
    else:
        doc = {
            "kind": type(exc).__name__,
            "message": str(exc),
            "phase": "service.job",
        }
    doc["traceback"] = traceback.format_exc(limit=8)
    return doc


class _Heartbeat(threading.Thread):
    """Daemon thread beating the worker's status file at a fixed cadence.

    Doubles as the orphan watch: a SIGKILLed supervisor cannot reap its
    children (``daemon=True`` only acts on a *clean* parent exit), so
    the thread also polls ``os.getppid()`` and hard-exits the worker the
    moment it is reparented — an orphan must not keep computing, and
    must not complete a job whose completion nobody can journal."""

    #: parent-death poll cadence (independent of the status interval)
    PPID_POLL_S = 0.1

    def __init__(self, status: StatusWriter, lock: threading.Lock,
                 interval_s: float) -> None:
        super().__init__(daemon=True, name="service-worker-heartbeat")
        self._status = status
        self._lock = lock
        self._interval = max(0.05, float(interval_s))
        self._stop = threading.Event()
        self._parent = os.getppid()

    def run(self) -> None:
        since_beat = 0.0
        tick = min(self.PPID_POLL_S, self._interval)
        while not self._stop.wait(tick):
            if os.getppid() != self._parent:
                os._exit(1)  # orphaned: die before finishing anything
            since_beat += tick
            if since_beat >= self._interval:
                since_beat = 0.0
                with self._lock:
                    self._status.update(force=True)

    def stop(self) -> None:
        self._stop.set()


def worker_main(
    worker_id: int,
    conn: Any,
    heartbeat_path: str,
    workdir: Optional[str] = None,
    fault_specs: Optional[List[Dict[str, Any]]] = None,
) -> None:
    """Entry point of one pool worker (runs until ``stop`` or death)."""
    install_fault_specs(fault_specs or [])
    status = StatusWriter(
        heartbeat_path, name=f"service-worker-{worker_id}"
    )
    lock = threading.Lock()
    with lock:
        status.update(force=True, phase="idle", worker_id=worker_id)
    beat = _Heartbeat(status, lock, HEARTBEAT_INTERVAL_S)
    beat.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # supervisor went away: die quietly
            op = message.get("op")
            if op == "stop":
                break
            if op != "job":
                continue
            key = str(message["key"])
            attempt = int(message.get("attempt", 1))
            with lock:
                status.update(
                    force=True, phase="running", job=key[:16],
                    attempt=attempt,
                )
            conn.send({"op": "started", "key": key, "attempt": attempt})
            if fired("service.worker_kill_mid_job"):
                # simulate an OOM/SIGKILL after taking the job: no
                # goodbye message, no status outcome, hard exit
                os._exit(KILLED_EXIT_CODE)
            t0 = time.perf_counter()
            try:
                payload = service_jobs.execute_job(
                    message["request"], workdir=workdir, attempt=attempt
                )
            except BaseException as exc:
                conn.send({
                    "op": "error",
                    "key": key,
                    "attempt": attempt,
                    "error": error_payload(exc),
                    "elapsed_s": time.perf_counter() - t0,
                })
            else:
                conn.send({
                    "op": "done",
                    "key": key,
                    "attempt": attempt,
                    "payload": payload,
                    "elapsed_s": time.perf_counter() - t0,
                })
            with lock:
                status.update(force=True, phase="idle", job=None)
    finally:
        beat.stop()
        with lock:
            status.finish("stopped")
        try:
            conn.close()
        except OSError:
            pass
