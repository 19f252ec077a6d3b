"""Crash-safe write-ahead job journal (append-only JSONL).

Every job state transition is appended to ``journal.jsonl`` *before*
the supervisor acts on it, so a SIGKILLed supervisor resumes its queue
exactly: replaying the journal reconstructs, per job key, the request,
attempt/redelivery counts, and terminal status.  Jobs with a recorded
``complete``/``dead_letter`` are never re-executed (their results live
in the content-addressed cache); everything else is requeued.

Torn writes are expected, not fatal: a crash (or the
``service.journal_torn_write`` fault) can leave a half-written last
line.  Replay decodes line by line and **skips** undecodable records,
counting them in :attr:`JournalState.torn_records` — the write-ahead
discipline makes a lost trailing record safe (the worst case is one
job re-executing, which the cache+journal dedupe then collapses).

Appends are newline-terminated and flushed to the OS per record, which
survives process SIGKILL (the acceptance mode); :meth:`JobJournal.sync`
additionally ``fsync``\\ s for machine-crash durability.  ``compact``
rewrites the journal as one snapshot record per live job via the
atomic tmp+rename pattern shared with checkpoints and status files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience.faults import fired
from repro.utils.fileio import create_temp_file

JOURNAL_KIND = "service_journal"
JOURNAL_SCHEMA_VERSION = 1

#: journal operations, in lifecycle order
OPS = (
    "submit",       # job accepted (record carries the request manifest)
    "cache_hit",    # served from the verified cache, no execution
    "start",        # handed to a worker (attempt number, worker id)
    "retry",        # transient failure; re-queued with backoff
    "redeliver",    # worker died/stalled mid-job; re-queued
    "complete",     # terminal success (payload cached under the key)
    "dead_letter",  # terminal failure (classified error attached)
    "snapshot",     # compaction record (full per-job state)
)


@dataclass
class JournalState:
    """Everything replay reconstructs from a journal file."""

    #: per-key state: request, attempts, redeliveries, status, error
    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: undecodable (torn/corrupt) lines skipped during replay
    torn_records: int = 0
    #: total well-formed records replayed
    records: int = 0

    def pending(self) -> List[str]:
        """Keys that must be (re-)executed after a restart."""
        return [
            key
            for key, job in self.jobs.items()
            if job.get("status") not in ("complete", "dead_letter")
        ]

    def completed(self) -> List[str]:
        return [
            key
            for key, job in self.jobs.items()
            if job.get("status") == "complete"
        ]


def _apply(state: JournalState, record: Dict[str, Any]) -> None:
    op = record.get("op")
    key = record.get("key")
    if op not in OPS or not isinstance(key, str):
        state.torn_records += 1
        return
    state.records += 1
    job = state.jobs.setdefault(
        key,
        {"request": None, "attempts": 0, "redeliveries": 0,
         "status": "pending", "error": None},
    )
    if op == "snapshot":
        job.update({
            "request": record.get("request", job["request"]),
            "attempts": int(record.get("attempts", job["attempts"])),
            "redeliveries": int(
                record.get("redeliveries", job["redeliveries"])
            ),
            "status": str(record.get("status", job["status"])),
            "error": record.get("error", job["error"]),
        })
    elif op == "submit":
        job["request"] = record.get("request", job["request"])
        if job["status"] == "pending":
            job["status"] = "pending"
    elif op == "cache_hit":
        job["status"] = "complete"
        job["from_cache"] = True
    elif op == "start":
        job["attempts"] = max(
            job["attempts"], int(record.get("attempt", job["attempts"] + 1))
        )
        job["status"] = "running"
    elif op == "retry":
        job["status"] = "pending"
        job["error"] = record.get("error", job["error"])
    elif op == "redeliver":
        job["redeliveries"] = int(
            record.get("redeliveries", job["redeliveries"] + 1)
        )
        job["status"] = "pending"
    elif op == "complete":
        job["status"] = "complete"
    elif op == "dead_letter":
        job["status"] = "dead_letter"
        job["error"] = record.get("error", job["error"])


def replay_journal(path: str) -> JournalState:
    """Reconstruct queue state from ``path``; an absent file is an empty
    journal (fresh service root)."""
    state = JournalState()
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return state
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                state.torn_records += 1
                continue
            if not isinstance(record, dict):
                state.torn_records += 1
                continue
            _apply(state, record)
    return state


class JobJournal:
    """Append-side handle for one service root's ``journal.jsonl``."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._repair_framing()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _repair_framing(self) -> None:
        """Terminate a torn trailing line left by a crash mid-append, so
        the next record starts on its own line (replay then loses only
        the torn record, never the one after it)."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
        except OSError:
            return
        if last != b"\n":
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("\n")

    # -- writes ---------------------------------------------------------
    def append(self, op: str, key: str, **fields: Any) -> None:
        """Write one record ahead of acting on it.

        The ``service.journal_torn_write`` fault simulates a crash mid-
        write: only a prefix of the line (no newline) reaches the file —
        exactly what replay must tolerate.
        """
        if op not in OPS:
            raise ValueError(f"unknown journal op {op!r}")
        record = {"op": op, "key": key}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        if fired("service.journal_torn_write"):
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            return
        self._fh.write(line + "\n")
        self._fh.flush()

    def sync(self) -> None:
        """``fsync`` the journal (machine-crash durability point)."""
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    # -- maintenance ----------------------------------------------------
    def compact(self, state: Optional[JournalState] = None) -> JournalState:
        """Atomically rewrite the journal as one snapshot per job.

        Bounds journal growth across long-lived services; safe at any
        point because the snapshot is built from a full replay and lands
        via tmp+rename (a crash mid-compaction leaves the old journal).
        """
        self._fh.flush()
        state = state or replay_journal(self.path)
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = create_temp_file(
            directory, os.path.basename(self.path) + "."
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for key, job in sorted(state.jobs.items()):
                record = {
                    "op": "snapshot",
                    "key": key,
                    "request": job.get("request"),
                    "attempts": job.get("attempts", 0),
                    "redeliveries": job.get("redeliveries", 0),
                    "status": job.get("status", "pending"),
                    "error": job.get("error"),
                }
                fh.write(
                    json.dumps(record, separators=(",", ":"), default=str)
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        return state
