"""Benchmark specification: system + sets + network shapes + controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.cegis import CexConfig, SNBCConfig
from repro.controllers import (
    NNController,
    behavior_clone,
    linear_feedback_fn,
    lqr_gain,
)
from repro.dynamics import CCDS
from repro.learner import LearnerConfig
from repro.verifier import VerifierConfig


@dataclass
class BenchmarkSpec:
    """One Table 1 row.

    ``b_hidden`` / ``lambda_hidden`` mirror the ``NN_B`` / ``NN_lambda``
    columns (``lambda_hidden=None`` is the constant multiplier ``c``).
    """

    name: str
    make_problem: Callable[[], CCDS]
    source: str
    d_f: int
    n_x: int
    b_hidden: Tuple[int, ...]
    lambda_hidden: Optional[Tuple[int, ...]]
    controller_hidden: Tuple[int, ...] = (8,)
    controller_scale: Optional[float] = None
    #: "lipschitz" uses the Theorem 2 mesh bound (sound; dense meshes only),
    #: "empirical" uses a sampled max-error bound (documented heuristic for
    #: n_x where a covering mesh is impossible)
    inclusion_error_mode: str = "lipschitz"
    inclusion_spacing: float = 0.1
    inclusion_degree: int = 2
    n_samples: int = 500
    learner_epochs: int = 600
    learner_lr: float = 0.02
    max_iterations: int = 12
    seed: int = 0
    notes: str = ""

    # ------------------------------------------------------------------
    def make_controller(self, seed: Optional[int] = None) -> NNController:
        """Behaviour-clone the LQR expert into a tanh NN controller."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        problem = self.make_problem()
        system = problem.system
        k = NNController(
            system.n_vars,
            system.n_inputs,
            hidden=self.controller_hidden,
            output_scale=self.controller_scale,
            rng=rng,
        )
        K = lqr_gain(system)
        # cloning only needs to sample the domain, so any bounded region
        # (box, or a composite like Q1's box-minus-obstacles) works
        assert problem.psi.bounding_box is not None, "benchmark domains are bounded"
        behavior_clone(
            k,
            linear_feedback_fn(K),
            problem.psi,
            n_samples=2048,
            epochs=150,
            rng=rng,
        )
        return k

    def learner_config(self) -> LearnerConfig:
        return LearnerConfig(
            b_hidden=self.b_hidden,
            lambda_hidden=self.lambda_hidden,
            epochs=self.learner_epochs,
            lr=self.learner_lr,
            seed=self.seed,
        )

    def snbc_config(self, scale: str = "paper") -> SNBCConfig:
        """Loop configuration; ``scale='smoke'`` shrinks budgets for CI.

        Raises ``ValueError`` for any scale other than ``smoke`` or
        ``paper``, so a mistyped scale cannot select paper budgets.
        """
        if scale not in ("smoke", "paper"):
            raise ValueError(f"scale must be smoke|paper, got {scale!r}")
        if scale == "smoke":
            return SNBCConfig(
                max_iterations=min(4, self.max_iterations),
                # 200 samples suffice below 4 dimensions; higher-dimensional
                # domains need denser coverage even in smoke mode
                n_samples=min(200 if self.n_x < 4 else 500, self.n_samples),
                inclusion_degree=self.inclusion_degree,
                inclusion_spacing=max(self.inclusion_spacing, 0.2),
                inclusion_max_mesh=5_000,
                inclusion_error_mode=self.inclusion_error_mode,
                seed=self.seed,
            )
        return SNBCConfig(
            max_iterations=self.max_iterations,
            n_samples=self.n_samples,
            inclusion_degree=self.inclusion_degree,
            inclusion_spacing=self.inclusion_spacing,
            inclusion_max_mesh=50_000,
            inclusion_error_mode=self.inclusion_error_mode,
            seed=self.seed,
        )

    def table_row(self) -> dict:
        """Static metadata for the Table 1 reproduction harness."""
        lam = (
            "c"
            if self.lambda_hidden is None
            else "-".join(str(s) for s in (self.n_x, *self.lambda_hidden, 1))
        )
        return {
            "name": self.name,
            "n_x": self.n_x,
            "d_f": self.d_f,
            "NN_B": "-".join(str(s) for s in (self.n_x, *self.b_hidden, 1)),
            "NN_lambda": lam,
            "source": self.source,
        }
