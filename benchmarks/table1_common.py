"""Shared instance cache for the Table 1 baseline and ablation benches.

The SNBC Table-1 rows themselves come from one runner,
``python -m repro.analysis.report``.

Scale control: set ``REPRO_BENCH_SCALE=paper`` for the full protocol
(all 14 systems, paper-size budgets) or leave the default ``smoke`` for a
laptop-/CI-friendly subset with reduced budgets.  Every bench prints the
rows it reproduces so the output can be compared against the paper's
table by eye.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.benchmarks import BenchmarkSpec, get_benchmark
from repro.controllers import NNController, PolynomialInclusion, polynomial_inclusion


def bench_scale() -> str:
    """Current harness scale: ``smoke`` (default) or ``paper``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    if scale not in ("smoke", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be smoke|paper, got {scale!r}")
    return scale


#: Table 1 rows exercised per scale.  The smoke subset spans every
#: dimension class (2, 3, 4, 5, 6, 7, 9, 12) while staying CI-friendly.
SMOKE_SYSTEMS = ["C1", "C3", "C6", "C7", "C8", "C9", "C10", "C12"]
PAPER_SYSTEMS = [f"C{i}" for i in range(1, 15)]


def systems_for_scale(scale: Optional[str] = None) -> List[str]:
    scale = scale or bench_scale()
    return PAPER_SYSTEMS if scale == "paper" else SMOKE_SYSTEMS


#: systems where interval/SMT-style verification is expected to blow up
#: (the paper's OT rows for FOSSIL start at n_x = 5)
SMT_FEASIBLE_SYSTEMS = {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"}


@lru_cache(maxsize=None)
def prepared(name: str) -> Tuple[BenchmarkSpec, object, NNController]:
    """Cache (spec, problem, trained controller) per system so the four
    per-tool benches attack identical instances."""
    spec = get_benchmark(name)
    problem = spec.make_problem()
    controller = spec.make_controller()
    return spec, problem, controller


@lru_cache(maxsize=None)
def prepared_inclusion(name: str) -> PolynomialInclusion:
    """Degree-2 polynomial inclusion shared by NNCChecker/SOSTOOLS benches."""
    spec, problem, controller = prepared(name)
    return polynomial_inclusion(
        controller,
        problem.psi,
        degree=spec.inclusion_degree,
        spacing=spec.inclusion_spacing,
        max_mesh_points=10_000,
        error_mode=spec.inclusion_error_mode,
    )
