"""Seeded factory for obstacle-rich semialgebraic workloads.

The generators here mint the ``quad2d_obstacles`` family: a planar
contraction system ``f = -k x`` whose workspace is a floor box with
1-2 Box/Ball obstacles punched out (:class:`repro.sets.DifferenceSet`),
the unsafe set being the union of the obstacles
(:class:`repro.sets.UnionSet`), and the initial set a ball around the
origin.  Every scenario ships a *closed-form* quadratic barrier
``B = c - 0.5 |x|^2``, so a single :class:`~repro.verifier.SOSVerifier`
call (one Putinar certificate per decomposed cell) plus the exact
rational recheck decides it — no CEGIS loop, which is what makes
thousand-scenario sweeps affordable.

Determinism contract: every parameter is derived from
``sha256(seed:salt)`` (the same scheme as
:func:`repro.service.jobs._u`), never from shared RNG state, so a row
is replayable from its seed alone across platforms and processes.
Seeds with ``seed % 5 == 4`` are minted *deliberately infeasible*
(the barrier level is pushed above the closest obstacle), pinning the
``falsified`` outcome class so the conformance gate can detect a
verifier that starts accepting garbage.

Outcomes are terminal by construction:

``certified``
    the SOS verifier accepted every per-cell condition *and* the exact
    checker re-proved every captured certificate over the rationals;
``falsified``
    the verifier rejected the barrier (expected for infeasible seeds);
``unsound``
    the verifier accepted but the rational recheck failed — this is
    the soundness alarm the ``no_soundness_failures`` invariant gates;
``timeout``
    the verify call exceeded its wall-clock budget;
``error``
    an exception escaped — *not* terminal, and gated hard.

Import discipline: like :mod:`repro.soundness.oracles`, this module
imports ``repro.verifier`` and must therefore be imported explicitly
(``from repro.soundness import scenarios``), never eagerly from the
package ``__init__``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.dynamics import CCDS, ControlAffineSystem
from repro.poly import Polynomial
from repro.sets import RegionSpec

FAMILY = "quad2d_obstacles"

#: every 5th seed is minted infeasible (barrier level above the nearest
#: obstacle) so the ``falsified`` outcome class never silently vanishes
INFEASIBLE_STRIDE = 5

#: outcome classes the conformance gate treats as terminal
TERMINAL_OUTCOMES = ("certified", "falsified", "unsound", "timeout")

_FLOOR_HALF = 2.0


def _u(seed: int, salt: str) -> float:
    """Deterministic uniform in [0, 1) from (seed, salt) — stdlib only,
    stable across platforms/processes (no RNG object state)."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


@dataclass
class Scenario:
    """One minted workload: problem + closed-form barrier + metadata."""

    seed: int
    name: str
    problem: CCDS
    barrier: Polynomial
    expected: str  # "certifiable" | "infeasible"
    psi_spec: RegionSpec
    params: Dict[str, Any] = field(default_factory=dict)


def _obstacle_specs(seed: int, n_obstacles: int) -> List[RegionSpec]:
    """Place obstacles in disjoint angular sectors, each fully inside
    the floor and strictly away from the origin (so the initial ball
    and the barrier's sublevel set stay clear)."""
    specs: List[RegionSpec] = []
    for j in range(n_obstacles):
        angle = 2.0 * math.pi * (j + _u(seed, f"angle{j}")) / n_obstacles
        rho = 1.2 + 0.4 * _u(seed, f"rho{j}")
        cx = round(rho * math.cos(angle), 6)
        cy = round(rho * math.sin(angle), 6)
        if _u(seed, f"kind{j}") < 0.5:
            radius = round(0.2 + 0.15 * _u(seed, f"radius{j}"), 6)
            specs.append(
                RegionSpec.ball([cx, cy], radius, name=f"obstacle{j}")
            )
        else:
            hx = round(0.15 + 0.15 * _u(seed, f"hx{j}"), 6)
            hy = round(0.15 + 0.15 * _u(seed, f"hy{j}"), 6)
            specs.append(
                RegionSpec.box(
                    [cx - hx, cy - hy], [cx + hx, cy + hy],
                    name=f"obstacle{j}",
                )
            )
    return specs


def _origin_clearance(spec: RegionSpec) -> float:
    """Euclidean distance from the origin to an obstacle spec."""
    if spec.kind == "ball":
        return float(np.linalg.norm(spec.center)) - float(spec.radius)
    lo = np.asarray(spec.lo)
    hi = np.asarray(spec.hi)
    gap = np.maximum(np.maximum(lo, -hi), 0.0)
    return float(np.linalg.norm(gap))


def make_scenario(seed: int) -> Scenario:
    """Mint the scenario for ``seed`` — pure function of the seed."""
    seed = int(seed)
    n_obstacles = 1 + (_u(seed, "n_obstacles") < 0.5)
    obstacle_specs = _obstacle_specs(seed, n_obstacles)
    theta_radius = round(0.25 + 0.15 * _u(seed, "theta"), 6)
    rate = round(0.8 + 0.4 * _u(seed, "rate"), 6)

    floor = RegionSpec.box(
        [-_FLOOR_HALF, -_FLOOR_HALF], [_FLOOR_HALF, _FLOOR_HALF],
        name="floor",
    )
    psi_spec = RegionSpec.difference(floor, *obstacle_specs, name="psi")
    xi_spec = RegionSpec.union_of(*obstacle_specs, name="xi")
    theta_spec = RegionSpec.ball([0.0, 0.0], theta_radius, name="theta")

    # the barrier B = c - 0.5 |x|^2 certifies iff
    #   0.5 * theta_radius^2  <=  c  <  0.5 * clearance^2 - eps
    clearance = min(_origin_clearance(s) for s in obstacle_specs)
    c_lo = 0.5 * theta_radius ** 2
    c_hi = 0.5 * clearance ** 2
    expected = (
        "infeasible" if seed % INFEASIBLE_STRIDE == INFEASIBLE_STRIDE - 1
        else "certifiable"
    )
    if expected == "certifiable":
        # midpoint keeps both the init and unsafe margins healthy
        level = round(0.5 * (c_lo + c_hi), 6)
    else:
        # level above the nearest obstacle: B >= 0 on part of Xi, so
        # condition (14) is genuinely violated, not merely SDP-marginal
        level = round(c_hi + 0.25, 6)

    x1, x2 = Polynomial.variables(2)
    system = ControlAffineSystem.autonomous([-rate * x1, -rate * x2])
    problem = CCDS(
        system,
        theta=theta_spec.build(),
        psi=psi_spec.build(),
        xi=xi_spec.build(),
        name=f"{FAMILY}[seed={seed}]",
        source="seeded scenario factory (repro.soundness.scenarios)",
    )
    barrier = Polynomial.constant(2, level) - 0.5 * (x1 * x1 + x2 * x2)
    return Scenario(
        seed=seed,
        name=problem.name,
        problem=problem,
        barrier=barrier,
        expected=expected,
        psi_spec=psi_spec,
        params={
            "n_obstacles": int(n_obstacles),
            "theta_radius": theta_radius,
            "rate": rate,
            "level": level,
            "clearance": round(clearance, 6),
        },
    )


def _cell_counts(problem: CCDS) -> Dict[str, int]:
    return {
        "init": len(problem.theta.decompose()),
        "unsafe": len(problem.xi.decompose()),
        "lie": len(problem.psi.decompose()),
    }


def run_scenario(
    seed: int, time_budget_s: Optional[float] = None
) -> Dict[str, Any]:
    """Verify one scenario end to end; returns its result row.

    ``certified`` requires both the SOS acceptance *and* the exact
    rational recheck of every per-cell certificate.  Exceptions are
    caught into the ``error`` outcome (with a typed kind) rather than
    propagated, so a batch always yields one row per seed.
    """
    from repro.soundness import check_certificate
    from repro.verifier import SOSVerifier

    scenario = make_scenario(seed)
    row: Dict[str, Any] = {
        "seed": int(seed),
        "name": scenario.name,
        "family": FAMILY,
        "expected": scenario.expected,
        "params": dict(scenario.params),
        "cells": _cell_counts(scenario.problem),
        "psi_spec_key": scenario.psi_spec.canonical_key()[:16],
    }
    t0 = time.perf_counter()
    try:
        verification = SOSVerifier(scenario.problem, []).verify(
            scenario.barrier
        )
        row["conditions"] = [
            {
                "name": c.name,
                "ok": bool(c.ok),
                "elapsed_seconds": float(c.elapsed_seconds),
            }
            for c in verification.conditions
        ]
        elapsed = time.perf_counter() - t0
        if time_budget_s is not None and elapsed > time_budget_s:
            row["outcome"] = "timeout"
        elif not verification.ok:
            row["outcome"] = "falsified"
            row["soundness_ok"] = None
        else:
            report = check_certificate(
                scenario.problem, verification.certificate
            )
            row["soundness_ok"] = bool(report.ok)
            row["n_exact_conditions"] = len(report.conditions)
            row["outcome"] = "certified" if report.ok else "unsound"
    except Exception as exc:  # noqa: BLE001 — rows must not explode a batch
        row["outcome"] = "error"
        row["error"] = {
            "kind": type(exc).__name__,
            "message": str(exc)[:500],
        }
    row["elapsed_seconds"] = time.perf_counter() - t0
    return row


def run_batch(
    base_seed: int,
    count: int,
    time_budget_s: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Rows for seeds ``base_seed .. base_seed + count - 1``."""
    return [
        run_scenario(base_seed + i, time_budget_s=time_budget_s)
        for i in range(int(count))
    ]


def bench_rows(
    rows: Sequence[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The ``BENCH_scenarios`` rows of a batch, keyed by seed."""
    out: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        entry: Dict[str, Any] = {
            "outcome": row.get("outcome"),
            "expected": row.get("expected"),
            "n_obstacles": int(row.get("params", {}).get("n_obstacles", 0)),
            "cells": dict(row.get("cells", {})),
            "psi_spec_key": row.get("psi_spec_key"),
            "soundness_ok": row.get("soundness_ok"),
            "elapsed_seconds": float(row.get("elapsed_seconds", 0.0)),
        }
        if row.get("error"):
            entry["error"] = dict(row["error"])
        out[str(row["seed"])] = entry
    return out


def batch_invariants(rows: Sequence[Dict[str, Any]]) -> Dict[str, bool]:
    """The hard invariants the regress gate checks on a batch."""
    return {
        "all_terminal": all(
            row.get("outcome") in TERMINAL_OUTCOMES for row in rows
        ),
        "no_soundness_failures": all(
            row.get("outcome") != "unsound" for row in rows
        ),
        "expectations_met": all(
            (row.get("expected") == "certifiable")
            == (row.get("outcome") == "certified")
            for row in rows
            if row.get("outcome") not in ("timeout", "error")
        ),
    }
