#!/usr/bin/env python
"""Service load generator + chaos bench: emit ``BENCH_service.json``.

Drives one :class:`repro.service.CertificationService` batch of cheap
deterministic verify jobs (real SOS certificates, exact recheck) and
records what the fault-tolerance machinery did::

    python benchmarks/run_bench_service.py --jobs 20 --workers 2 \
        --kill-worker 2 --corrupt-cache --out results/BENCH_service.json

* ``--kill-worker K`` arms ``service.worker_kill_mid_job`` on worker
  slot 0's K-th job (the supervisor must redeliver + respawn);
* ``--corrupt-cache`` pre-seeds one job's cache entry with a corrupted
  certificate (inflated margin claim, recomputed digest) — the read-
  time exact recheck must evict it and the job recompute;
* ``--serial-check`` also runs the same batch serially, fault-free, in
  a fresh temporary root and asserts every successful payload is
  **bitwise identical** (sha256 over canonical JSON) to the serial
  result;
* ``--repeat`` re-submits the identical batch against the same root
  afterwards and records the cache hit rate (100% expected).

The emitted BENCH document (kind ``BENCH_service``, one row per job key,
plus ``counts`` and ``cache`` sections) is gated by
``python -m repro.telemetry regress`` under the service policy: hard on
the invariants — every job terminal, zero corrupt entries served, serial
identity — on per-job status and on the cache hit rate; soft on the
chaos counters.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.diagnostics.bench import bench_document, write_bench
from repro.service import (
    CertificateCache,
    CertificationService,
    ServiceConfig,
    make_verify_request,
    run_service,
)
from repro.service.cache import payload_digest
from repro.soundness import bundle_from_dict, bundle_to_dict


def corrupt_cache_entry(root: str, request) -> str:
    """Plant a *self-consistent* corrupted entry for ``request``: the
    certificate's first margin claim is inflated and the payload digest
    recomputed, so only the exact recheck can reject it.  The donor run
    that computes the honest entry lives in a temporary root."""
    with tempfile.TemporaryDirectory() as seed_root:
        run_service(seed_root, [request], ServiceConfig(workers=0))
        donor = CertificateCache(os.path.join(seed_root, "cache"),
                                 verify_on_read=False)
        payload = donor.get(request)
    assert payload and payload.get("bundle"), "seed run produced no bundle"
    bundle = bundle_from_dict(payload["bundle"])
    bundle.conditions[0].margin = float(bundle.conditions[0].margin) + 10.0
    payload["bundle"] = bundle_to_dict(bundle)
    target = CertificateCache(os.path.join(root, "cache"),
                              verify_on_read=False)
    return target.put(request, payload)


def payload_hash(payload) -> str:
    return payload_digest(payload) if payload is not None else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-worker", type=int, metavar="K", default=0,
                        help="kill worker slot 0 on its K-th job (0=off)")
    parser.add_argument("--corrupt-cache", action="store_true",
                        help="pre-seed one corrupted cache entry")
    parser.add_argument("--serial-check", action="store_true",
                        help="compare payloads against a fault-free "
                             "serial run (bitwise, via canonical sha256)")
    parser.add_argument("--repeat", action="store_true",
                        help="re-run the identical batch and record the "
                             "cache hit rate")
    parser.add_argument("--root", default="results/service_bench",
                        help="service root directory")
    parser.add_argument("--out", default="results/BENCH_service.json")
    parser.add_argument("--max-redeliveries", type=int, default=2)
    args = parser.parse_args(argv)

    requests = [make_verify_request(seed=i) for i in range(args.jobs)]

    corrupted_key = None
    if args.corrupt_cache:
        corrupted_key = corrupt_cache_entry(args.root, requests[0])
        print(f"planted corrupted cache entry {corrupted_key[:16]}")

    worker_faults = ()
    if args.kill_worker:
        worker_faults = (
            {"site": "service.worker_kill_mid_job",
             "at_call": args.kill_worker},
        )
    config = ServiceConfig(
        workers=args.workers,
        max_redeliveries=args.max_redeliveries,
        worker_faults=worker_faults,
    )
    results = run_service(args.root, requests, config)
    counts = results["counts"]
    evictions = results["cache_evictions"]
    print(f"batch done: {counts}")

    # collect per-job rows + payload hashes from the (verified) cache
    cache = CertificateCache(os.path.join(args.root, "cache"))
    jobs = {}
    hashes = {}
    for request in requests:
        key = request.key()
        row = dict(results["jobs"][key])
        payload = cache.get(request)
        row["payload_sha256"] = payload_hash(payload)
        row["serial_match"] = None
        jobs[key] = row
        hashes[key] = row["payload_sha256"]

    # invariant: the corrupted entry was evicted, never served
    no_corrupt_served = True
    if corrupted_key is not None:
        evicted = any(e["key"] == corrupted_key for e in evictions)
        recomputed = jobs[corrupted_key]["status"] == "success"
        no_corrupt_served = evicted and recomputed
        print(f"corrupted entry evicted={evicted} recomputed={recomputed}")

    serial_identical = None
    if args.serial_check:
        # a fresh root each time: a cache left by an earlier run would
        # make the serial side an echo of old payloads
        with tempfile.TemporaryDirectory() as serial_root:
            run_service(serial_root, requests, ServiceConfig(workers=0))
            serial_cache = CertificateCache(
                os.path.join(serial_root, "cache")
            )
            serial_hashes = {
                request.key(): payload_hash(serial_cache.get(request))
                for request in requests
            }
        serial_identical = True
        for key, serial_hash in serial_hashes.items():
            if jobs[key]["status"] != "success":
                continue  # dead-letters have no payload to compare
            match = hashes[key] is not None and hashes[key] == serial_hash
            jobs[key]["serial_match"] = match
            serial_identical = serial_identical and match
        print(f"serial identity: {serial_identical}")

    hit_rate = None
    if args.repeat:
        repeat_results = run_service(args.root, requests, config)
        repeat_rows = repeat_results["jobs"]
        from_cache = sum(
            1 for row in repeat_rows.values() if row["from_cache"]
        )
        hit_rate = from_cache / max(1, len(repeat_rows))
        print(f"repeat batch cache hit rate: {hit_rate:.2%}")

    scale = (
        "chaos" if (args.kill_worker or args.corrupt_cache) else "clean"
    )
    write_bench(args.out, bench_document(
        "BENCH_service",
        scale,
        jobs,
        config={
            "jobs": args.jobs,
            "workers": args.workers,
            "max_redeliveries": args.max_redeliveries,
            "faults": list(worker_faults)
            + (["cache_corrupt_entry"] if args.corrupt_cache else []),
        },
        invariants={
            "all_terminal": bool(results["all_terminal"]),
            "no_corrupt_served": bool(no_corrupt_served),
            "serial_identical": serial_identical,
        },
        counts=counts,
        cache={
            "hit_rate": hit_rate if hit_rate is not None else 0.0,
            "evictions": len(evictions),
        },
    ))
    print(f"wrote {args.out}")

    ok = (
        results["all_terminal"]
        and no_corrupt_served
        and serial_identical in (None, True)
        and (hit_rate is None or hit_rate >= 1.0)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
