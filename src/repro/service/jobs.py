"""Job runners executed by service workers.

``execute_job`` maps a :class:`~repro.service.request
.CertificationRequest` to a JSON-safe payload dict.  Payloads are
**deterministic**: no wall-clock timings, hostnames, or PIDs — a
payload is a pure function of the request manifest, which is what makes
content-addressed caching and the chaos suite's "bitwise-identical to a
fault-free serial run" assertion meaningful.  (Run *descriptions* —
latency, attempts, worker id — live in the supervisor's job records and
BENCH output, never inside the cached payload.)

Runners
-------

``verify``
    Single-shot SOS verification of a parametrized 2-state contraction
    family (``system="decay"``): build the CCDS from the request's
    parameters, verify a quadratic barrier, capture the
    :class:`CertificateBundle`, and re-prove it over ℚ before the
    payload leaves the worker.  Milliseconds per job — the load
    generator's and chaos suite's workhorse.

``certify``
    A full CEGIS/SNBC run on a named Table-1 benchmark, honoring the
    PR 4 checkpoint protocol: the worker passes a per-key checkpoint
    path, so a preempted job resumes bit-identically instead of
    restarting.  ``config["scale"]`` (default ``smoke``) must be
    ``smoke`` or ``paper``.

``custom``
    Resolve ``entry`` (``module:function``) and call it with
    ``(request_dict, workdir, attempt)`` — the extension/test hook.

``problem_for`` rebuilds the CCDS a cached certificate was produced
for, so the cache can run the exact recheck on *read* without trusting
anything but the request manifest and rational arithmetic.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from typing import Any, Dict, Optional

from repro.service.request import CertificationRequest, request_key

#: bounded parameter ranges of the ``verify`` family — chosen so every
#: member admits the quadratic barrier below with a healthy margin
_VERIFY_DEFAULTS = {
    "level": 1.0,       # barrier level c in B = c - 0.5 |x|^2
    "rate": 1.0,        # contraction rate k in f = -k x
    "theta_hw": 0.3,    # init box half-width
    "xi_lo": 1.5,       # unsafe corner box
    "xi_hi": 2.0,
    "psi_hw": 2.0,      # workspace half-width
}


def _u(seed: int, salt: str) -> float:
    """Deterministic uniform in [0, 1) from (seed, salt) — stdlib only,
    stable across platforms/processes (no RNG object state)."""
    import hashlib

    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


def make_verify_request(seed: int, **overrides: Any) -> CertificationRequest:
    """A distinct-keyed member of the ``verify`` family for ``seed``.

    Parameters are sampled from ranges where the family provably stays
    certifiable (level < 1.4 < 0.5 * xi_lo^2 * 2 keeps the unsafe
    condition strict), so load generators can mint thousands of
    successful jobs without per-job tuning.
    """
    config = {
        "level": round(1.0 + 0.35 * _u(seed, "level"), 12),
        "rate": round(0.8 + 0.4 * _u(seed, "rate"), 12),
        "theta_hw": round(0.2 + 0.15 * _u(seed, "theta"), 12),
        "xi_lo": _VERIFY_DEFAULTS["xi_lo"],
        "xi_hi": _VERIFY_DEFAULTS["xi_hi"],
        "psi_hw": _VERIFY_DEFAULTS["psi_hw"],
    }
    config.update(overrides)
    return CertificationRequest(
        kind="verify", system="decay", seed=int(seed), config=config
    )


def _verify_family_problem(config: Dict[str, Any]):
    from repro.dynamics import CCDS, ControlAffineSystem
    from repro.poly import Polynomial
    from repro.sets import Box

    params = dict(_VERIFY_DEFAULTS)
    params.update({k: v for k, v in config.items() if k in params})
    x, y = Polynomial.variables(2)
    rate = float(params["rate"])
    system = ControlAffineSystem.autonomous([-rate * x, -rate * y])
    return CCDS(
        system,
        theta=Box.cube(
            2, -float(params["theta_hw"]), float(params["theta_hw"]),
            name="theta",
        ),
        psi=Box.cube(
            2, -float(params["psi_hw"]), float(params["psi_hw"]), name="psi"
        ),
        xi=Box.cube(
            2, float(params["xi_lo"]), float(params["xi_hi"]), name="xi"
        ),
        name="decay",
    )


def problem_for(request: CertificationRequest):
    """The CCDS a cached certificate for ``request`` must be rechecked
    against, or ``None`` when the kind has no reconstructible problem
    (``custom`` payloads carry no certificates)."""
    if request.kind == "verify":
        return _verify_family_problem(request.config)
    if request.kind == "certify":
        from repro.benchmarks import get_benchmark

        return get_benchmark(request.system).make_problem()
    return None


def _stable_soundness_dict(report) -> Dict[str, Any]:
    """SoundnessReport as a dict with wall-clock fields zeroed, so equal
    certificates yield bitwise-equal payloads."""
    doc = report.to_dict()
    doc["elapsed_seconds"] = 0.0
    for cond in doc.get("conditions", []):
        cond["elapsed_seconds"] = 0.0
    return doc


def _run_verify(request: CertificationRequest) -> Dict[str, Any]:
    from repro.poly import Polynomial
    from repro.soundness import bundle_to_dict, check_certificate
    from repro.verifier import SOSVerifier

    problem = _verify_family_problem(request.config)
    level = float(request.config.get("level", _VERIFY_DEFAULTS["level"]))
    x, y = Polynomial.variables(2)
    barrier = Polynomial.constant(2, level) - 0.5 * (x * x + y * y)
    verification = SOSVerifier(problem, []).verify(barrier)
    payload: Dict[str, Any] = {
        "kind": "verify",
        "outcome": "success" if verification.ok else "failure",
        "ok": bool(verification.ok),
    }
    if verification.ok and verification.certificate is not None:
        report = check_certificate(problem, verification.certificate)
        payload["bundle"] = bundle_to_dict(verification.certificate)
        payload["soundness"] = _stable_soundness_dict(report)
        payload["proven"] = bool(report.ok)
    return payload


def _run_certify(
    request: CertificationRequest, workdir: Optional[str]
) -> Dict[str, Any]:
    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC
    from repro.diagnostics import result_outcome
    from repro.soundness import bundle_to_dict

    spec = get_benchmark(request.system)
    config = request.config
    scale = str(config.get("scale", "smoke"))
    snbc_config = spec.snbc_config(scale)
    overrides: Dict[str, Any] = {"seed": int(request.seed)}
    for key in ("max_iterations", "time_budget_s", "iteration_budget_s"):
        if config.get(key) is not None:
            overrides[key] = config[key]
    checkpoint_path = resume_from = None
    if workdir:
        checkpoint_path = os.path.join(
            workdir, f"{request_key(request)[:16]}.ckpt.json"
        )
        if os.path.exists(checkpoint_path):
            resume_from = checkpoint_path
        overrides["checkpoint_path"] = checkpoint_path
    snbc_config = dataclasses.replace(snbc_config, **overrides)
    snbc = SNBC(
        spec.make_problem(),
        controller=spec.make_controller(),
        learner_config=spec.learner_config(),
        config=snbc_config,
    )
    result = snbc.run(resume_from=resume_from)
    payload: Dict[str, Any] = {
        "kind": "certify",
        "outcome": result_outcome(result),
        "ok": bool(result.success),
        "iterations": int(result.iterations),
        "d_B": (
            int(result.barrier.degree) if result.barrier is not None else None
        ),
    }
    certificate = (
        result.verification.certificate
        if result.verification is not None
        else None
    )
    if result.success and certificate is not None:
        payload["bundle"] = bundle_to_dict(certificate)
    if result.soundness is not None:
        payload["soundness"] = _stable_soundness_dict(result.soundness)
        payload["proven"] = bool(result.soundness.ok)
    if result.error is not None:
        payload["error"] = dict(result.error)
    return payload


def _run_custom(
    request: CertificationRequest, workdir: Optional[str], attempt: int
) -> Dict[str, Any]:
    module_name, _, func_name = (request.entry or "").partition(":")
    if not module_name or not func_name:
        raise ValueError(
            f"custom entry must be 'module:function', got {request.entry!r}"
        )
    func = getattr(importlib.import_module(module_name), func_name)
    payload = func(request.to_dict(), workdir, attempt)
    if not isinstance(payload, dict):
        raise TypeError(
            f"custom runner {request.entry!r} returned "
            f"{type(payload).__name__}, expected dict"
        )
    return payload


def execute_job(
    request: "CertificationRequest | Dict[str, Any]",
    workdir: Optional[str] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """Run one request to completion; returns its deterministic payload.

    Raises whatever the runner raises — classification and retry policy
    are the supervisor's concern, not the runner's.
    """
    if not isinstance(request, CertificationRequest):
        request = CertificationRequest.from_dict(dict(request))
    if request.kind == "verify":
        return _run_verify(request)
    if request.kind == "certify":
        return _run_certify(request, workdir)
    return _run_custom(request, workdir, attempt)
