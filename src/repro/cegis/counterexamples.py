"""Counterexample generation (paper §4.3).

When a candidate fails verification, each violated condition defines a
violation functional ``V`` over its semialgebraic set (``V > 0`` means the
condition is broken there).  Following (16)-(17):

1. the *worst* point ``x*`` maximizes ``V`` — found here by multi-start
   projected gradient ascent on the polynomial violation (the paper's
   Lagrangian + gradient-descent scheme specialized to box-bounded sets);
2. a maximal radius ``gamma`` around ``x*`` on which the violation persists
   is found by doubling + bisection with sampled certification;
3. the counterexample set is sampled from ``ball(x*, gamma)`` intersected
   with the set, and handed back to the Learner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dynamics import CCDS
from repro.poly import Polynomial, lie_derivative
from repro.sets import SemialgebraicSet
from repro.telemetry import get_telemetry


@dataclass
class CexConfig:
    """Search hyper-parameters for the counterexample generator."""

    n_starts: int = 16
    n_steps: int = 150
    step_size: float = 0.05
    n_points: int = 40
    gamma_max: float = 1.0
    gamma_samples: int = 48
    seed: int = 0


@dataclass
class Counterexample:
    """One violated condition with its worst point and sampled ball."""

    condition: str
    worst_point: np.ndarray
    worst_violation: float
    gamma: float
    points: np.ndarray


class _ViolationFn:
    """A violation functional with values and gradients on batches."""

    def __init__(
        self,
        polys_pos: List[Polynomial],
        polys_abs: List[Tuple[float, Polynomial]],
    ):
        # V(x) = sum p(x) + sum c * |q(x)|
        self.polys_pos = polys_pos
        self.polys_abs = polys_abs
        self.grads_pos = [p.grad() for p in polys_pos]
        self.grads_abs = [(c, q, q.grad()) for c, q in polys_abs]

    def value(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts))
        for p in self.polys_pos:
            out += p(pts)
        for c, q in self.polys_abs:
            out += c * np.abs(q(pts))
        return out

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros_like(pts)
        for grads in self.grads_pos:
            for i, g in enumerate(grads):
                out[:, i] += g(pts)
        for c, q, grads in self.grads_abs:
            sign = np.sign(q(pts))
            for i, g in enumerate(grads):
                out[:, i] += c * sign * g(pts)
        return out


class CounterexampleGenerator:
    """Builds counterexample sets for failed barrier conditions."""

    def __init__(
        self,
        problem: CCDS,
        controller_polys: Sequence[Polynomial],
        sigma_star: Optional[Sequence[float]] = None,
        config: Optional[CexConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.problem = problem
        self.controller_polys = list(controller_polys)
        m = problem.system.n_inputs
        self.sigma_star = (
            [0.0] * m if sigma_star is None else [float(s) for s in sigma_star]
        )
        self.config = config or CexConfig()
        # an injected generator lets SNBC derive all component streams
        # from one seed chain; standalone use keeps the config seed
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    def _violation_fn(self, condition: str, B: Polynomial, lam: Polynomial) -> Tuple[_ViolationFn, SemialgebraicSet]:
        if condition == "init":
            # violated where B < 0 on Theta: V = -B
            return _ViolationFn([-1.0 * B], []), self.problem.theta
        if condition == "unsafe":
            # violated where B >= 0 on Xi: V = B
            return _ViolationFn([B], []), self.problem.xi
        if condition.startswith("lie"):
            # violated where worst-case Lie margin <= 0 on Psi:
            # margin = L_{f0+Gh} B - sum_j sigma*_j |grad B . G_j| - lam B
            field0 = self.problem.system.closed_loop(self.controller_polys)
            lfb = lie_derivative(B, field0)
            margin_pos = [-1.0 * (lfb - lam * B)]
            gains = self.problem.system.input_gain_polys(B.grad())
            abs_terms = [
                (s, gains[j]) for j, s in enumerate(self.sigma_star) if s > 0.0
            ]
            return _ViolationFn(margin_pos, abs_terms), self.problem.psi
        raise ValueError(f"unknown condition {condition!r}")

    def _ascend(self, fn: _ViolationFn, region: SemialgebraicSet) -> Tuple[np.ndarray, float]:
        cfg = self.config
        starts = region.sample(cfg.n_starts, rng=self.rng)
        pts = starts.copy()
        lo, hi = region.bounding_box
        scale = float(np.max(hi - lo))
        for step in range(cfg.n_steps):
            g = fn.gradient(pts)
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            lr = cfg.step_size * scale * (1.0 - 0.9 * step / cfg.n_steps)
            pts = pts + lr * g / norms
            pts = np.clip(pts, lo, hi)
        # keep only feasible points; fall back to the starts (always feasible)
        inside = region.contains(pts, tol=1e-12)
        candidates = np.vstack([pts[inside], starts])
        vals = fn.value(candidates)
        best = int(np.argmax(vals))
        return candidates[best], float(vals[best])

    def _max_radius(
        self, fn: _ViolationFn, region: SemialgebraicSet, center: np.ndarray
    ) -> float:
        """Largest gamma (up to gamma_max) with the violation persisting on
        sampled points of ``ball(center, gamma) cap region`` (problem (17))."""
        cfg = self.config

        def violated_everywhere(radius: float) -> bool:
            direction = self.rng.normal(size=(cfg.gamma_samples, center.shape[0]))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = radius * self.rng.uniform(size=(cfg.gamma_samples, 1)) ** (
                1.0 / center.shape[0]
            )
            pts = center + direction * radii
            pts = pts[region.contains(pts, tol=1e-12)]
            if len(pts) == 0:
                return True  # nothing of the ball is in the region
            return bool(np.all(fn.value(pts) > 0.0))

        lo_r, hi_r = 0.0, cfg.gamma_max * 2.0 ** (-10)
        # grow until violated_everywhere fails or cap reached
        while hi_r < cfg.gamma_max and violated_everywhere(hi_r):
            lo_r = hi_r
            hi_r *= 2.0
        hi_r = min(hi_r, cfg.gamma_max)
        for _ in range(12):  # bisection refinement
            mid = 0.5 * (lo_r + hi_r)
            if violated_everywhere(mid):
                lo_r = mid
            else:
                hi_r = mid
        return lo_r

    def _sample_ball(
        self, region: SemialgebraicSet, center: np.ndarray, gamma: float
    ) -> np.ndarray:
        cfg = self.config
        if gamma <= 0.0:
            return center[None, :]
        pts: List[np.ndarray] = [center[None, :]]
        collected = 1
        for _ in range(50):
            direction = self.rng.normal(size=(cfg.n_points, center.shape[0]))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = gamma * self.rng.uniform(size=(cfg.n_points, 1)) ** (
                1.0 / center.shape[0]
            )
            cand = center + direction * radii
            keep = cand[region.contains(cand, tol=1e-12)]
            if len(keep):
                pts.append(keep)
                collected += len(keep)
            if collected >= cfg.n_points:
                break
        return np.vstack(pts)[: cfg.n_points]

    # ------------------------------------------------------------------
    def generate(
        self,
        B: Polynomial,
        lam: Polynomial,
        conditions: Sequence[str],
    ) -> List[Counterexample]:
        """Counterexamples for each (violated) condition name.

        Conditions whose worst point does not actually violate (violation
        value <= 0, e.g. the SOS certificate failed only numerically) are
        skipped.
        """
        tel = get_telemetry()
        out: List[Counterexample] = []
        for cond in conditions:
            key = "lie" if cond.startswith("lie") else cond
            with tel.span("cex.generate", condition=key) as span:
                fn, region = self._violation_fn(key, B, lam)
                worst, value = self._ascend(fn, region)
                tel.metrics.inc(
                    "cex.ascent_steps", self.config.n_steps * self.config.n_starts
                )
                if value <= 0.0:
                    span.set_attrs(spurious=True, worst_violation=value)
                    tel.metrics.inc("cex.spurious")
                    continue
                gamma = self._max_radius(fn, region, worst)
                points = self._sample_ball(region, worst, gamma)
                span.set_attrs(
                    spurious=False,
                    worst_violation=value,
                    gamma=gamma,
                    n_points=len(points),
                )
                if tel.enabled:
                    tel.metrics.observe("cex.violation", value)
                    tel.metrics.observe("cex.gamma", gamma)
            out.append(
                Counterexample(
                    condition=key,
                    worst_point=worst,
                    worst_violation=value,
                    gamma=gamma,
                    points=points,
                )
            )
        return out
