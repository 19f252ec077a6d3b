"""The ledger's four workloads: inputs, one timed pass, and the checks.

Every workload exposes ``setup(seed)`` (timed as set-up, repeated by
``run_ledger.py``) and ``run_pass(state, recorder)``, which returns a
:class:`PassResult`: one :class:`ItemResult` per unit of work plus the
workload's own end-to-end numbers.  Only the public ``repro`` API is
used; the instances are the ones ``repro.benchmarks`` ships.

Why the certification instances are fixed rather than drawn from the
seed: on ``table1`` the exact recheck of C9's certificate costs 10.2 to
11.2 s on eight of SNBC seeds 0-9 and 16 to 17 s on the other two
(the slack Gram then needs a diagonal shift and a second LDLᵀ), and on
``cegis-multiround`` the iteration count of one item ranges from 1 to 9
across seeds.  A pass built from seed-drawn instances therefore moves by
10-25% between seeds, more than the regressions the ledger must catch.
So ``table1``, ``verify-highdim`` and ``cegis-multiround`` run the
paper's instances at their spec seeds and the seed only permutes the
item order; ``service-batch``, whose 300-job average is steady, draws
its job parameters from the seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.benchmarks import get_benchmark
from repro.cegis import SNBC, CexConfig, SNBCConfig
from repro.learner import LearnerConfig
from repro.service import CertificationService, ServiceConfig, make_verify_request
from repro.service.cache import payload_digest
from repro.verifier import SOSVerifier

from ledger_trace import ITEM_SPAN, SpanRecorder


@dataclass
class ItemResult:
    """One unit of work: an SNBC run, a verify round, or a service job."""

    label: str
    outcome: str
    expected: str
    #: must be equal across passes (outcome, iterations, verdict, hash)
    identity: Tuple[Any, ...]
    wall_s: Optional[float] = None
    info: Dict[str, Any] = field(default_factory=dict)
    #: violations of checks that must never fail
    errors: List[str] = field(default_factory=list)

    @property
    def missed(self) -> bool:
        return self.outcome != self.expected


@dataclass
class PassResult:
    wall_s: float
    items: List[ItemResult]
    #: workload-specific end-to-end numbers: name -> (value, unit)
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: per-layer counters read from the program rather than from spans
    counters: Dict[str, float] = field(default_factory=dict)
    #: checks over the pass as a whole
    errors: List[str] = field(default_factory=list)


def item_span(recorder: Optional[SpanRecorder], label: str):
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(ITEM_SPAN, label=label)


def snbc_item(label: str, result: Any, wall_s: float) -> ItemResult:
    """Outcome and never-fail checks of one ``SNBC.run()``."""
    errors = []
    if result.outcome == "error":
        kind = (result.error or {}).get("kind", "")
        errors.append(f"{label}: outcome 'error' ({kind})")
    soundness = result.soundness
    if result.outcome == "verified":
        if soundness is None or not soundness.ok:
            errors.append(f"{label}: verified without a passing ℚ recheck")
        if result.barrier is None or result.barrier.degree != 2:
            errors.append(f"{label}: verified barrier is not of degree 2")
    return ItemResult(
        label=label,
        outcome=result.outcome,
        expected="verified",
        identity=(
            result.outcome,
            result.iterations,
            soundness.barrier_hash if soundness is not None else None,
        ),
        wall_s=wall_s,
        info={"T_e_s": result.timings.total, "iterations": result.iterations},
        errors=errors,
    )


def cegis_extras(items: Sequence[ItemResult]) -> Dict[str, Tuple[float, str]]:
    return {
        "T_e_s": (sum(i.info["T_e_s"] for i in items), "s"),
        "cegis_iterations": (sum(i.info["iterations"] for i in items), "count"),
    }


class Workload:
    """Base class; subclasses set the class attributes and two methods."""

    name = ""
    why = ""
    #: set-ups per run; run_ledger reports their median
    setup_reps = 3
    #: whether every traced layer runs in this process (the coverage
    #: guard's 90% self-time rule applies only then)
    in_process = True

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run_pass(self, state: Any, recorder: Optional[SpanRecorder]) -> PassResult:
        raise NotImplementedError

    def expected_spans(self, state: Any) -> Dict[str, Tuple[int, Optional[int]]]:
        """Span name -> (min, max) calls in one traced pass."""
        raise NotImplementedError


def _shuffled(items: Sequence[Any], seed: int) -> List[Any]:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def _instance(name: str) -> Tuple[Any, Any, Any]:
    spec = get_benchmark(name)
    return spec, spec.make_problem(), spec.make_controller()


class Table1(Workload):
    name = "table1"
    why = ("C1-C8, Q1 and C9 at paper scale, each a full SNBC run with the "
           "exact recheck: the paper's Table-1 job, where C9's recheck dominates")
    systems = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "Q1", "C9")

    def setup(self, seed: int) -> List[Tuple[Any, Any, Any]]:
        return [_instance(name) for name in _shuffled(self.systems, seed)]

    def run_pass(self, state, recorder):
        items = []
        t_pass = time.perf_counter()
        for spec, problem, controller in state:
            with item_span(recorder, spec.name):
                t0 = time.perf_counter()
                result = SNBC(
                    problem,
                    controller=controller,
                    learner_config=spec.learner_config(),
                    config=spec.snbc_config("paper"),
                ).run()
                wall = time.perf_counter() - t0
            items.append(snbc_item(spec.name, result, wall))
        return PassResult(
            time.perf_counter() - t_pass, items, extras=cegis_extras(items)
        )

    def expected_spans(self, state):
        n = len(state)
        controlled = sum(1 for _s, p, _c in state if p.system.n_inputs > 0)
        return {
            "soundness.recheck": (n, n),
            "controllers.inclusion": (controlled, controlled),
            "learner.fit": (n, None),
            "verifier.verify": (n, None),
            "sdp.solve": (n, None),
        }


@dataclass
class _Minted:
    name: str
    problem: Any
    inclusion: Any
    verifier_config: Any
    barrier: Any


class VerifyHighdim(Workload):
    name = "verify-highdim"
    why = ("a cold and a warm SOS verification round on C12 and C13 "
           "candidates: the CEGIS round at n_x 7-9, where the SDP dominates")
    systems = ("C12", "C13")
    # one set-up mints both candidates with a CEGIS round each: about
    # 15 s, half of this workload's run, so it is done once per run
    setup_reps = 1

    def setup(self, seed: int) -> List[_Minted]:
        minted = []
        for name in _shuffled(self.systems, seed):
            spec, problem, controller = _instance(name)
            snbc = SNBC(
                problem,
                controller=controller,
                learner_config=spec.learner_config(),
                config=dataclasses.replace(
                    spec.snbc_config("paper"),
                    max_iterations=1,
                    soundness_check=False,
                ),
            )
            result = snbc.run()
            if result.barrier is None or result.barrier.degree != 2:
                raise RuntimeError(f"{name}: minting produced no degree-2 candidate")
            minted.append(_Minted(
                name, problem, result.inclusion, snbc.verifier_config,
                result.barrier,
            ))
        return minted

    def run_pass(self, state, recorder):
        items = []
        t_pass = time.perf_counter()
        for m in state:
            verifier = None
            for round_name in ("cold", "warm"):
                label = f"{m.name}/{round_name}"
                with item_span(recorder, label):
                    t0 = time.perf_counter()
                    if verifier is None:
                        verifier = SOSVerifier(
                            m.problem,
                            m.inclusion.polynomials,
                            m.inclusion.sigma_star,
                            config=m.verifier_config,
                        )
                    verdict = verifier.verify(m.barrier)
                    wall = time.perf_counter() - t0
                items.append(ItemResult(
                    label=label,
                    outcome="accepted" if verdict.ok else "rejected",
                    expected="accepted",
                    identity=(verdict.ok, tuple(verdict.failed_conditions())),
                    wall_s=wall,
                    info={"round": round_name},
                ))
        return PassResult(time.perf_counter() - t_pass, items, extras={
            f"{r}_round_s": (
                sum(i.wall_s for i in items if i.info["round"] == r), "s"
            )
            for r in ("cold", "warm")
        })

    def expected_spans(self, state):
        n = 2 * len(state)
        return {
            "verifier.verify": (n, n),
            "sdp.solve": (n, None),
            "soundness.recheck": (0, 0),
            "learner.fit": (0, 0),
            "controllers.inclusion": (0, 0),
        }


class CegisMultiround(Workload):
    name = "cegis-multiround"
    why = ("C6-C8 with a short-trained learner, so CEGIS takes 1-8 rounds: "
           "the only workload where the counterexample search runs")
    systems = ("C6", "C7", "C8")
    #: SNBC seeds per system; with these the six runs take 26 rounds
    run_seeds = (1, 2)
    # a half-second set-up moves by a third between runs on a busy
    # machine; more repetitions steady its median
    setup_reps = 5

    def setup(self, seed: int):
        instances = {name: _instance(name) for name in self.systems}
        runs = [(name, s) for name in self.systems for s in self.run_seeds]
        return [(instances[name], s) for name, s in _shuffled(runs, seed)]

    def run_pass(self, state, recorder):
        items = []
        t_pass = time.perf_counter()
        for (spec, problem, controller), seed in state:
            label = f"{spec.name}/seed{seed}"
            with item_span(recorder, label):
                t0 = time.perf_counter()
                result = SNBC(
                    problem,
                    controller=controller,
                    learner_config=LearnerConfig(
                        b_hidden=spec.b_hidden,
                        lambda_hidden=spec.lambda_hidden,
                        epochs=60,
                        warm_start=False,
                        seed=seed,
                    ),
                    cex_config=CexConfig(n_points=40, gamma_max=1.0, seed=seed),
                    config=SNBCConfig(max_iterations=10, n_samples=150, seed=seed),
                ).run()
                wall = time.perf_counter() - t0
            items.append(snbc_item(label, result, wall))
        return PassResult(
            time.perf_counter() - t_pass, items, extras=cegis_extras(items)
        )

    def expected_spans(self, state):
        n = len(state)
        return {
            "soundness.recheck": (n, n),
            "controllers.inclusion": (n, n),
            "cegis.cex": (1, None),
            "learner.fit": (n, None),
            "verifier.verify": (n, None),
        }


class ServiceBatch(Workload):
    name = "service-batch"
    why = ("300 verify jobs through the 2-worker certification service, "
           "then the same batch again, served from its exactly rechecked cache")
    batch = 300
    workers = 2
    in_process = False
    setup_reps = 5

    def __init__(self, scratch: str) -> None:
        #: parent directory of each pass's fresh service root
        self.scratch = scratch

    def setup(self, seed: int):
        requests = [
            make_verify_request(seed=seed * self.batch + i)
            for i in range(self.batch)
        ]
        # warm-up: a few jobs outside the batch through a throwaway root,
        # so the lazy imports of the cache's recheck path and of the
        # worker's job runner happen here and not in the first pass
        warmup = [make_verify_request(seed=-1 - i) for i in range(2 * self.workers)]
        root = tempfile.mkdtemp(prefix="warmup-", dir=self.scratch)
        try:
            for label in ("cold", "repeat"):
                self._serve(root, warmup, None, label)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return requests

    def _serve(self, root: str, requests, recorder, label: str):
        with item_span(recorder, label):
            t0 = time.perf_counter()
            service = CertificationService(
                root, ServiceConfig(workers=self.workers)
            )
            try:
                service.recover()
                keys = [service.submit(r).key for r in requests]
                results = asyncio.run(service.run())
                payloads = [service.payload(k) for k in keys]
            finally:
                service.close()
            wall = time.perf_counter() - t0
        return wall, keys, results, payloads

    def run_pass(self, state, recorder):
        t_pass = time.perf_counter()
        root = tempfile.mkdtemp(prefix="service-", dir=self.scratch)
        try:
            cold = self._serve(root, state, recorder, "cold")
            repeat = self._serve(root, state, recorder, "repeat")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        wall_s = time.perf_counter() - t_pass
        n = len(state)
        items: List[ItemResult] = []
        errors: List[str] = []
        digests = {}
        for label, (_wall, keys, results, payloads) in (
            ("cold", cold), ("repeat", repeat)
        ):
            if not results["all_terminal"]:
                errors.append(f"{label}: not every job reached a terminal state")
            for key, payload in zip(keys, payloads):
                payload = payload or {}
                item_errors = []
                if payload.get("proven") is not True:
                    item_errors.append(f"{label} {key[:12]}: payload not proven")
                digest = payload_digest(payload)
                if digests.setdefault(key, digest) != digest:
                    item_errors.append(
                        f"{key[:12]}: repeat payload differs from the cold one"
                    )
                items.append(ItemResult(
                    label=f"{label}/{key[:12]}",
                    outcome=str(payload.get("outcome")),
                    expected="success",
                    identity=(payload.get("outcome"), digest),
                    errors=item_errors,
                ))
        cold_counts, repeat_counts = cold[2]["counts"], repeat[2]["counts"]
        if cold_counts["cache_hits"]:
            errors.append("cold batch hit the cache of a fresh root")
        return PassResult(
            wall_s,
            items,
            extras={
                "jobs_per_s": (n / cold[0], "1/s"),
                "cached_jobs_per_s": (n / repeat[0], "1/s"),
                "cache_hit_ratio": (repeat_counts["cache_hits"] / n, "ratio"),
            },
            counters={
                "service.retries": cold_counts["retries"] + repeat_counts["retries"],
                "service.redeliveries": (
                    cold_counts["redeliveries"] + repeat_counts["redeliveries"]
                ),
            },
            errors=errors,
        )

    def expected_spans(self, state):
        n = len(state)
        return {
            "service.submit": (2 * n, 2 * n),
            "service.cache_get": (2 * n, None),
            "service.cache_put": (n, n),
            "service.journal_append": (1, None),
        }


def make_workloads(scratch: str) -> Dict[str, Workload]:
    workloads = [Table1(), VerifyHighdim(), CegisMultiround(), ServiceBatch(scratch)]
    return {w.name: w for w in workloads}
