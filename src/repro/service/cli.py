"""``python -m repro.service`` — drive a certification service root.

Subcommands::

    run     submit a batch (from --jobs-file or --verify-seeds) and run
            the supervisor until every job is terminal; prints the
            results document as JSON
    status  one-shot summary of a root: journal replay + cache keys
    resume  alias of ``run`` with no new submissions — finish whatever
            the journal says is still pending (the post-SIGKILL path)

A jobs file is JSONL, one request manifest per line (the format
:meth:`CertificationRequest.manifest` emits); ``--verify-seeds N``
instead generates the deterministic cheap verify family used by the
chaos bench.  Exit code 0 when every job succeeded, 3 when any job
dead-lettered (the batch still *terminated* — that is the service's
contract), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.service.journal import replay_journal
from repro.service.jobs import make_verify_request
from repro.service.request import CertificationRequest
from repro.service.supervisor import ServiceConfig, run_service


def _load_jobs_file(path: str) -> List[CertificationRequest]:
    requests: List[CertificationRequest] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise SystemExit(
                    f"{path}:{lineno}: undecodable request: {exc}"
                )
            requests.append(CertificationRequest.from_dict(doc))
    return requests


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    worker_faults = []
    for spec in args.worker_fault or []:
        # site[:at_call] — e.g. service.worker_kill_mid_job:2
        site, _, at_call = spec.partition(":")
        worker_faults.append(
            {"site": site, "at_call": int(at_call) if at_call else 1}
        )
    return ServiceConfig(
        workers=args.workers,
        max_redeliveries=args.max_redeliveries,
        worker_stall_timeout_s=args.stall_timeout_s,
        job_deadline_s=args.job_deadline_s,
        worker_faults=tuple(worker_faults),
    )


def _cmd_run(args: argparse.Namespace, resume_only: bool = False) -> int:
    requests: List[CertificationRequest] = []
    if not resume_only:
        if args.jobs_file:
            requests.extend(_load_jobs_file(args.jobs_file))
        for seed in range(args.verify_seeds or 0):
            requests.append(make_verify_request(seed=seed))
        if not requests and not getattr(args, "recover", False):
            print(
                "no jobs: pass --jobs-file or --verify-seeds "
                "(or use `resume`)",
                file=sys.stderr,
            )
            return 2
    results = run_service(
        args.root,
        requests,
        config=_config_from_args(args),
        recover=getattr(args, "recover", False) or resume_only,
    )
    json.dump(results, sys.stdout, indent=2, default=str)
    print()
    statuses = [row["status"] for row in results["jobs"].values()]
    return 0 if all(s == "success" for s in statuses) else 3


def _cmd_status(args: argparse.Namespace) -> int:
    state = replay_journal(f"{args.root}/journal.jsonl")
    from repro.service.cache import CertificateCache

    cache = CertificateCache(f"{args.root}/cache")
    doc: Dict[str, Any] = {
        "root": args.root,
        "journal_records": state.records,
        "torn_records": state.torn_records,
        "jobs": {
            key: {
                "status": job.get("status"),
                "attempts": job.get("attempts"),
                "redeliveries": job.get("redeliveries"),
            }
            for key, job in sorted(state.jobs.items())
        },
        "pending": state.pending(),
        "cached_keys": cache.keys(),
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="fault-tolerant certification service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", required=True,
                       help="service root directory (journal/cache/work)")
        p.add_argument("--workers", type=int, default=2,
                       help="pool size; 0 = serial in-process")
        p.add_argument("--max-redeliveries", type=int, default=2)
        p.add_argument("--stall-timeout-s", type=float, default=60.0)
        p.add_argument("--job-deadline-s", type=float, default=None)
        p.add_argument("--worker-fault", action="append", metavar="SITE[:N]",
                       help="arm a worker fault site (chaos testing)")

    run_p = sub.add_parser("run", help="submit a batch and run it")
    add_run_options(run_p)
    run_p.add_argument("--jobs-file", help="JSONL of request manifests")
    run_p.add_argument("--verify-seeds", type=int, metavar="N",
                       help="submit N deterministic cheap verify jobs")
    run_p.add_argument("--recover", action="store_true",
                       help="also requeue pending jobs from the journal")

    resume_p = sub.add_parser(
        "resume", help="finish the journal's pending jobs (post-crash)"
    )
    add_run_options(resume_p)

    status_p = sub.add_parser("status", help="summarize a service root")
    status_p.add_argument("--root", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "resume":
        return _cmd_run(args, resume_only=True)
    if args.command == "status":
        return _cmd_status(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
