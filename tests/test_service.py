"""Certification service: requests, journal, cache, queue, supervisor.

The expensive acceptance drills (20-job chaos batch, supervisor
SIGKILL + journal resume) live at the bottom; everything above runs on
cheap scripted custom jobs so the state machinery is exercised without
paying for SOS solves.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.resilience.faults import FaultSpec, inject
from repro.service import (
    CertificateCache,
    CertificationRequest,
    CertificationService,
    JobJournal,
    JobQueue,
    JobStatus,
    ServiceConfig,
    canonical_json,
    make_verify_request,
    replay_journal,
    request_key,
    run_service,
)
from repro.service.cache import payload_digest
from repro.service.testing import read_events

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def custom_request(seed=0, entry="repro.service.testing:echo_job", **config):
    return CertificationRequest(
        kind="custom", system="test", seed=seed, config=config, entry=entry
    )


# -- requests and keys ---------------------------------------------------
def test_request_key_is_canonical():
    a = CertificationRequest(
        kind="verify", seed=3, config={"b": 1.0, "a": 2}
    )
    b = CertificationRequest(
        kind="verify", seed=3, config={"a": 2, "b": 1.0}
    )
    assert request_key(a) == request_key(b)  # dict order is irrelevant
    assert a.key() == request_key(a)
    c = CertificationRequest(kind="verify", seed=4, config={"a": 2, "b": 1.0})
    assert request_key(c) != request_key(a)


def test_request_round_trips_through_manifest():
    req = make_verify_request(seed=7)
    again = CertificationRequest.from_dict(req.manifest())
    assert request_key(again) == request_key(req)
    assert canonical_json(again.manifest()) == canonical_json(req.manifest())


def test_verify_family_is_deterministic():
    a, b = make_verify_request(seed=5), make_verify_request(seed=5)
    assert a.key() == b.key()
    assert make_verify_request(seed=6).key() != a.key()


# -- journal -------------------------------------------------------------
def test_journal_replay_reconstructs_state(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    journal.append("submit", "k1", request={"kind": "custom"})
    journal.append("start", "k1", attempt=1, worker=0)
    journal.append("complete", "k1")
    journal.append("submit", "k2", request={"kind": "custom"})
    journal.append("start", "k2", attempt=1, worker=1)
    journal.append("retry", "k2", attempt=1)
    journal.close()
    state = replay_journal(path)
    assert state.jobs["k1"]["status"] == "complete"
    assert state.jobs["k2"]["status"] == "pending"
    assert state.jobs["k2"]["attempts"] == 1
    assert state.pending() == ["k2"]
    assert state.completed() == ["k1"]
    assert state.torn_records == 0


def test_journal_torn_write_loses_exactly_one_record(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    journal.append("submit", "k1", request={"kind": "custom"})
    with inject(FaultSpec(site="service.journal_torn_write")) as plan:
        journal.append("complete", "k1")  # half-written, no newline
    assert plan.fired_sites() == ["service.journal_torn_write"]
    journal.close()
    # crash-restart: a fresh handle repairs framing, replay skips the
    # torn record and keeps everything before AND after it
    journal2 = JobJournal(path)
    journal2.append("start", "k1", attempt=2, worker=0)
    journal2.close()
    state = replay_journal(path)
    assert state.torn_records == 1
    assert state.jobs["k1"]["status"] == "running"  # complete was torn
    assert state.jobs["k1"]["attempts"] == 2


def test_journal_compact_preserves_state(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    for i in range(5):
        journal.append("submit", f"k{i}", request={"seed": i})
        journal.append("start", f"k{i}", attempt=1, worker=0)
        journal.append("complete", f"k{i}")
    journal.append("submit", "pending-job", request={"seed": 99})
    before = replay_journal(path)
    journal.compact()
    journal.close()
    after = replay_journal(path)
    assert {k: v["status"] for k, v in after.jobs.items()} == {
        k: v["status"] for k, v in before.jobs.items()
    }
    # compaction: one snapshot line per job
    with open(path) as fh:
        lines = [json.loads(l) for l in fh if l.strip()]
    assert all(rec["op"] == "snapshot" for rec in lines)
    assert len(lines) == 6


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_published_files_get_the_mode_open_gives(tmp_path, umask):
    """Atomic writes and journal compaction publish their temp file by
    rename, so it must carry ``0o666 & ~umask`` like a plain ``open``,
    not ``mkstemp``'s 0600."""
    from repro.utils import atomic_write_text

    saved = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        atomic_write_text(str(tmp_path / "atomic.txt"), "x")
        journal = JobJournal(str(tmp_path / "journal.jsonl"))
        journal.append("submit", "k0", request={"seed": 0})
        journal.compact()
        journal.close()
    finally:
        os.umask(saved)
    want = 0o666 & ~umask
    for name in ("plain.txt", "atomic.txt", "journal.jsonl"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == want, name


def test_journal_replay_missing_file_is_empty(tmp_path):
    state = replay_journal(str(tmp_path / "nope.jsonl"))
    assert state.jobs == {} and state.records == 0


# -- queue ---------------------------------------------------------------
def test_queue_fifo_and_backoff():
    queue = JobQueue()
    j1 = queue.submit(custom_request(seed=1))
    j2 = queue.submit(custom_request(seed=2))
    assert queue.submit(custom_request(seed=1)) is j1  # dedupe by key
    assert queue.next_ready(now=0.0) is j1
    queue.mark_running(j1, worker=0, now=0.0)
    assert queue.next_ready(now=0.0) is j2
    queue.mark_retry(j2, {"kind": "WorkerCrash"}, not_before=10.0)
    assert queue.next_ready(now=5.0) is None  # backoff not yet elapsed
    assert queue.next_ready(now=10.5) is j2
    queue.mark_done(j1, {"outcome": "success"}, finished_at=1.0)
    queue.mark_dead_letter(j2, {"kind": "WorkerCrash"}, finished_at=2.0)
    assert queue.all_terminal()
    assert j1.summary()["status"] == "success"
    assert j2.summary()["status"] == "dead_letter"


# -- cache ---------------------------------------------------------------
def test_cache_put_get_round_trip(tmp_path):
    cache = CertificateCache(str(tmp_path / "cache"))
    req = custom_request(seed=1)
    payload = {"kind": "custom", "outcome": "success", "x": [1, 2.5]}
    key = cache.put(req, payload)
    assert key == request_key(req)
    assert cache.get(req) == payload
    assert cache.get(custom_request(seed=2)) is None  # plain miss


def test_cache_rejects_bitflipped_entry(tmp_path):
    """Satellite: a bit-flipped stored payload fails the digest layer,
    is evicted, and is NEVER served; recompute then repopulates."""
    root = str(tmp_path / "svc")
    req = make_verify_request(seed=0)
    out = run_service(root, [req], ServiceConfig(workers=0))
    assert out["jobs"][req.key()]["status"] == "success"
    cache = CertificateCache(os.path.join(root, "cache"))
    good = cache.get(req)
    assert good is not None and good.get("bundle") is not None

    # flip one bit in the stored payload
    path = cache.path_for(req.key())
    entry = json.load(open(path))
    entry["payload"]["ok"] = not entry["payload"]["ok"]
    json.dump(entry, open(path, "w"))

    assert cache.get(req) is None  # evicted, not served
    assert cache.eviction_log and cache.eviction_log[-1][1] == "digest"
    assert req.key() not in cache  # file is gone

    # recompute produces the original payload again (content address!)
    out2 = run_service(root, [req], ServiceConfig(workers=0))
    assert out2["jobs"][req.key()]["status"] == "success"
    assert not out2["jobs"][req.key()]["from_cache"]
    restored = cache.get(req)
    assert payload_digest(restored) == payload_digest(good)


def test_cache_recheck_rejects_selfconsistent_corruption(tmp_path):
    """A corrupted bundle with a *recomputed* digest passes layers 1-2;
    only the exact recheck (layer 3) can reject it — and must."""
    root = str(tmp_path / "svc")
    req = make_verify_request(seed=1)
    run_service(root, [req], ServiceConfig(workers=0))
    cache = CertificateCache(os.path.join(root, "cache"))
    with inject(FaultSpec(site="service.cache_corrupt_bundle")) as plan:
        assert cache.get(req) is None
    assert plan.fired_sites() == ["service.cache_corrupt_bundle"]
    assert cache.eviction_log[-1][1] == "recheck"


def test_cache_envelope_mismatch_evicts(tmp_path):
    cache = CertificateCache(str(tmp_path / "cache"))
    req_a, req_b = custom_request(seed=1), custom_request(seed=2)
    cache.put(req_a, {"outcome": "success"})
    # cross-wire: entry for A moved under B's key
    path_b = cache.path_for(request_key(req_b))
    os.makedirs(os.path.dirname(path_b), exist_ok=True)
    os.replace(cache.path_for(request_key(req_a)), path_b)
    assert cache.get(req_b) is None
    assert cache.eviction_log[-1][1] == "envelope"


# -- supervisor: happy path and failure policies -------------------------
def test_service_runs_batch_across_workers(tmp_path):
    log = str(tmp_path / "events.jsonl")
    reqs = [
        custom_request(seed=i, entry="repro.service.testing:pid_job", log=log)
        for i in range(6)
    ]
    out = run_service(str(tmp_path / "root"), reqs, ServiceConfig(workers=2))
    assert all(r["status"] == "success" for r in out["jobs"].values())
    pids = {e["pid"] for e in read_events(log)}
    assert len(pids) >= 2  # genuinely distributed over the pool


def test_service_retries_transient_failures_with_backoff(tmp_path):
    log = str(tmp_path / "events.jsonl")
    req = custom_request(
        seed=0, entry="repro.service.testing:flaky_job",
        succeed_on=2, log=log,
    )
    out = run_service(str(tmp_path / "root"), [req], ServiceConfig(workers=1))
    row = out["jobs"][req.key()]
    assert row["status"] == "success"
    assert row["attempts"] == 2
    assert out["counts"]["retries"] == 1
    attempts = [e["attempt"] for e in read_events(log)]
    assert attempts == [1, 2]


def test_service_dead_letters_terminal_failures_fast(tmp_path):
    req = custom_request(seed=0, entry="repro.service.testing:terminal_job")
    out = run_service(str(tmp_path / "root"), [req], ServiceConfig(workers=1))
    row = out["jobs"][req.key()]
    assert row["status"] == "dead_letter"
    assert row["attempts"] == 1  # BudgetExhausted: no retry
    assert row["error"]["kind"] == "BudgetExhausted"
    assert out["counts"]["retries"] == 0
    assert out["counts"]["dead_letters"] == 1


def test_service_survives_worker_kill_mid_job(tmp_path):
    reqs = [custom_request(seed=i) for i in range(4)]
    config = ServiceConfig(
        workers=2,
        worker_faults=(
            {"site": "service.worker_kill_mid_job", "at_call": 1},
        ),
    )
    out = run_service(str(tmp_path / "root"), reqs, config)
    assert all(r["status"] == "success" for r in out["jobs"].values())
    assert out["counts"]["redeliveries"] >= 1
    assert out["counts"]["workers_respawned"] >= 1


def test_service_dead_letters_after_max_redeliveries(tmp_path):
    # a persistent killer: every respawned worker re-arms the fault, so
    # the single job keeps dying until the redelivery bound gives up
    req = custom_request(seed=0)
    config = ServiceConfig(
        workers=1,
        max_redeliveries=1,
        worker_faults=(
            {"site": "service.worker_kill_mid_job", "times": 50},
        ),
        worker_faults_once=False,
    )
    out = run_service(str(tmp_path / "root"), [req], config)
    row = out["jobs"][req.key()]
    assert row["status"] == "dead_letter"
    assert row["error"]["kind"] == "WorkerCrash"
    assert row["redeliveries"] == 1
    assert out["counts"]["dead_letters"] == 1


def test_service_degrades_to_serial_when_pool_unavailable(tmp_path):
    reqs = [custom_request(seed=i) for i in range(3)]
    with inject(
        FaultSpec(
            site="service.pool_spawn",
            exception=lambda: OSError("no more processes"),
            times=100,
        )
    ) as plan:
        out = run_service(
            str(tmp_path / "root"), reqs, ServiceConfig(workers=2)
        )
    assert plan.fired_sites()  # spawn really was refused
    assert out["counts"]["serial_fallbacks"] == 1
    assert all(r["status"] == "success" for r in out["jobs"].values())


def test_service_cache_hits_skip_execution(tmp_path):
    root = str(tmp_path / "root")
    log = str(tmp_path / "events.jsonl")
    reqs = [
        custom_request(seed=i, log=log) for i in range(3)
    ]
    run_service(root, reqs, ServiceConfig(workers=0))
    runs_before = len(read_events(log))
    out = run_service(root, reqs, ServiceConfig(workers=0))
    assert all(r["from_cache"] for r in out["jobs"].values())
    assert len(read_events(log)) == runs_before  # nothing re-executed


def test_service_status_file_carries_service_block(tmp_path):
    root = str(tmp_path / "root")
    run_service(root, [custom_request(seed=0)], ServiceConfig(workers=0))
    status = json.load(open(os.path.join(root, "service.status.json")))
    assert status["outcome"] == "success"
    service = status["service"]
    assert service["done"] == 1 and service["total"] == 1
    assert service["dead_letters"] == 0
    # and the fleet board renders the service view for it
    from repro.telemetry.tail import render_status_line

    line = render_status_line(status, now=time.time())
    assert "done=1/1" in line and "dead=0" in line


# -- acceptance drills ---------------------------------------------------
def test_chaos_batch_terminates_and_matches_serial(tmp_path):
    """The PR's headline acceptance: a 20-job batch with a worker kill
    mid-job and a corrupted cache entry — every job terminal, corrupted
    entry evicted (never served), payloads bitwise-identical to a
    fault-free serial run."""
    root = str(tmp_path / "chaos")
    reqs = [make_verify_request(seed=i) for i in range(20)]

    # plant a self-consistent corrupted entry for job 0 (bad margin
    # claim, recomputed digest) before the batch runs
    seed_root = str(tmp_path / "seed")
    run_service(seed_root, [reqs[0]], ServiceConfig(workers=0))
    donor = CertificateCache(os.path.join(seed_root, "cache"))
    payload = donor.get(reqs[0])
    from repro.soundness import bundle_from_dict, bundle_to_dict

    bundle = bundle_from_dict(payload["bundle"])
    bundle.conditions[0].margin = float(bundle.conditions[0].margin) + 10.0
    payload["bundle"] = bundle_to_dict(bundle)
    CertificateCache(os.path.join(root, "cache")).put(reqs[0], payload)

    config = ServiceConfig(
        workers=2,
        worker_faults=(
            {"site": "service.worker_kill_mid_job", "at_call": 2},
        ),
    )
    out = run_service(root, reqs, config)

    # every job terminal, chaos absorbed
    assert out["all_terminal"]
    assert all(
        r["status"] in ("success", "dead_letter")
        for r in out["jobs"].values()
    )
    assert all(r["status"] == "success" for r in out["jobs"].values())
    assert out["counts"]["redeliveries"] >= 1

    # the corrupted entry was evicted at submit time and recomputed
    evicted_keys = {e["key"] for e in out["cache_evictions"]}
    assert reqs[0].key() in evicted_keys
    assert not out["jobs"][reqs[0].key()]["from_cache"]

    # bitwise identity against a fault-free serial run
    serial_root = str(tmp_path / "serial")
    run_service(serial_root, reqs, ServiceConfig(workers=0))
    chaos_cache = CertificateCache(os.path.join(root, "cache"))
    serial_cache = CertificateCache(os.path.join(serial_root, "cache"))
    for req in reqs:
        a, b = chaos_cache.get(req), serial_cache.get(req)
        assert a is not None and b is not None
        assert payload_digest(a) == payload_digest(b)


@pytest.mark.slow
def test_supervisor_sigkill_then_resume_finishes_batch(tmp_path):
    """SIGKILL the supervisor mid-batch; a journal-recovered restart
    finishes every job, loses none, and completes none twice."""
    root = str(tmp_path / "root")
    log = str(tmp_path / "events.jsonl")
    jobs_file = str(tmp_path / "jobs.jsonl")
    with open(jobs_file, "w") as fh:
        for seed in range(6):
            fh.write(json.dumps({
                "schema_version": 1, "kind": "custom", "system": "test",
                "seed": seed,
                "config": {"sleep_s": 0.4, "log": log},
                "entry": "repro.service.testing:slow_job",
            }) + "\n")

    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "run", "--root", root,
         "--jobs-file", jobs_file, "--workers", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # let it journal the batch and get jobs in flight, then SIGKILL
    deadline = time.time() + 10.0
    while time.time() < deadline:
        state = replay_journal(os.path.join(root, "journal.jsonl"))
        if state.jobs and any(
            j["status"] == "running" for j in state.jobs.values()
        ):
            break
        time.sleep(0.05)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    time.sleep(0.5)  # orphan watch reaps the workers

    state = replay_journal(os.path.join(root, "journal.jsonl"))
    assert state.jobs, "journal lost the batch"
    assert state.pending(), "nothing left pending — kill came too late"

    resume = subprocess.run(
        [sys.executable, "-m", "repro.service", "resume", "--root", root,
         "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert resume.returncode == 0, resume.stderr
    results = json.loads(resume.stdout)
    assert len(results["jobs"]) == 6
    assert all(r["status"] == "success" for r in results["jobs"].values())

    finishes = {}
    for event in read_events(log):
        if event["op"] == "finish":
            finishes[event["seed"]] = finishes.get(event["seed"], 0) + 1
    assert sorted(finishes) == [0, 1, 2, 3, 4, 5], "a job was lost"
    assert all(v == 1 for v in finishes.values()), (
        f"a job ran to completion twice: {finishes}"
    )


# -- certify: full SNBC Table-1 rows --------------------------------------
def certify_request(system, scale="smoke", seed=0):
    return CertificationRequest(
        kind="certify", system=system, seed=seed, config={"scale": scale}
    )


def test_certify_through_pool_matches_serial_snbc_run(tmp_path):
    """The service is the parallel path for Table-1 rows: a C1 row run
    by a pool worker yields the same certificate as a direct run."""
    import asyncio

    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC
    from repro.soundness import bundle_to_dict

    req = certify_request("C1")
    service = CertificationService(
        str(tmp_path / "root"), ServiceConfig(workers=2)
    )
    try:
        service.submit(req)
        out = asyncio.run(service.run())
        payload = service.payload(req.key())
    finally:
        service.close()
    assert out["jobs"][req.key()]["status"] == "success"
    assert payload["outcome"] == "success"
    assert payload["proven"] is True

    spec = get_benchmark("C1")
    result = SNBC(
        spec.make_problem(),
        controller=spec.make_controller(),
        learner_config=spec.learner_config(),
        config=spec.snbc_config("smoke"),
    ).run()
    assert payload["iterations"] == result.iterations
    assert canonical_json(payload["bundle"]) == canonical_json(
        bundle_to_dict(result.verification.certificate)
    )


def test_certify_mistyped_scale_dead_letters_before_snbc(
    tmp_path, monkeypatch
):
    from repro.cegis import SNBC

    started = []
    monkeypatch.setattr(
        SNBC, "run", lambda self, *a, **k: started.append(self)
    )
    req = certify_request("C1", scale="Smoke")
    out = run_service(str(tmp_path / "root"), [req], ServiceConfig(workers=0))
    row = out["jobs"][req.key()]
    assert row["status"] == "dead_letter"
    assert row["attempts"] == 1  # ValueError is terminal: no retry
    assert row["error"]["kind"] == "ValueError"
    assert "Smoke" in row["error"]["message"]
    assert started == []


# -- CLI -----------------------------------------------------------------
def test_cli_run_and_status(tmp_path, capsys):
    from repro.service.cli import main

    root = str(tmp_path / "root")
    rc = main(["run", "--root", root, "--verify-seeds", "2",
               "--workers", "0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["jobs"]) == 2
    rc = main(["status", "--root", root])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["pending"] == []
    assert len(doc["cached_keys"]) == 2


def test_cli_reports_dead_letters_in_exit_code(tmp_path, capsys):
    from repro.service.cli import main

    jobs_file = str(tmp_path / "jobs.jsonl")
    with open(jobs_file, "w") as fh:
        fh.write(json.dumps({
            "schema_version": 1, "kind": "custom", "system": "test",
            "seed": 0, "config": {},
            "entry": "repro.service.testing:terminal_job",
        }) + "\n")
    rc = main(["run", "--root", str(tmp_path / "root"),
               "--jobs-file", jobs_file, "--workers", "0"])
    capsys.readouterr()
    assert rc == 3  # terminated, but with a dead letter


def test_service_bench_reruns_leave_only_root_and_out(tmp_path, capsys):
    """The chaos bench keeps its donor and serial batches in temporary
    roots: two runs into one directory both pass, and leave nothing
    beside ``--root`` but the ``--out`` document."""
    import importlib.util

    script = os.path.join(os.path.dirname(SRC), "benchmarks",
                          "run_bench_service.py")
    spec = importlib.util.spec_from_file_location("run_bench_service", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    root = str(tmp_path / "svc")
    out = str(tmp_path / "BENCH_service.json")
    argv = ["--jobs", "2", "--workers", "0", "--corrupt-cache",
            "--serial-check", "--root", root, "--out", out]
    assert bench.main(argv) == 0
    assert bench.main(argv) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["BENCH_service.json", "svc"]
