"""Joint training of the neural BC and multiplier networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff import Tape, TapeUnsupportedOp
from repro.learner.datasets import TrainingData
from repro.learner.loss import BarrierLossTerms, barrier_loss, field_values
from repro.nn import (
    Adam,
    ConstantMultiplier,
    LinearMultiplier,
    QuadraticNetwork,
    SquareNetwork,
)
from repro.poly import Polynomial
from repro.resilience.errors import LearnerDivergence
from repro.resilience.faults import fired
from repro.telemetry import get_telemetry


@dataclass
class LearnerConfig:
    """Hyper-parameters of the Learner (paper §4.1).

    ``b_hidden`` mirrors Table 1's ``NN_B`` column (hidden widths of the
    quadratic network; one hidden layer gives a degree-2 barrier).
    ``lambda_hidden`` mirrors ``NN_lambda``; ``None`` selects the constant
    multiplier (Table 1's ``c``).
    """

    b_hidden: Tuple[int, ...] = (10,)
    lambda_hidden: Optional[Tuple[int, ...]] = (5,)
    epochs: int = 300
    lr: float = 0.02
    eps: float = 0.05
    etas: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    #: slope of the LeakyReLU surrogate for max(eps, .).  0 is the exact
    #: hinge (satisfied samples contribute no gradient, like the paper's
    #: max); small positive values smooth it but reward margin inflation.
    negative_slope: float = 0.0
    loss_tolerance: float = -1.0  # stop early when total loss drops below
    b_architecture: str = "quadratic"  # or "square" (ablation)
    paper_printed_form: bool = False
    #: initialize B as a Lyapunov-shaped quadratic ``c - x^T P x`` when the
    #: architecture allows it (one hidden layer); see SNBC._warm_start
    warm_start: bool = True
    seed: int = 0


class BarrierLearner:
    """Trains ``B(x)`` (quadratic net) and ``lambda(x)`` (linear net).

    The same Learner instance persists across CEGIS rounds so retraining
    refines the current candidate rather than restarting from scratch.
    """

    def __init__(
        self,
        n_vars: int,
        config: Optional[LearnerConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.n_vars = int(n_vars)
        self.config = config or LearnerConfig()
        # an injected generator lets SNBC derive all component streams
        # from one seed chain; standalone use keeps the config seed
        rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        arch = [n_vars, *self.config.b_hidden]
        if self.config.b_architecture == "quadratic":
            self.b_net = QuadraticNetwork(arch, rng=rng)
        elif self.config.b_architecture == "square":
            self.b_net = SquareNetwork(arch, rng=rng)
        else:
            raise ValueError(
                f"unknown b_architecture {self.config.b_architecture!r}"
            )
        if self.config.lambda_hidden is None:
            self.lambda_net = ConstantMultiplier(n_vars, init=-0.1)
        else:
            self.lambda_net = LinearMultiplier(
                [n_vars, *self.config.lambda_hidden, 1], rng=rng, init_output=-0.1
            )
        params = self.b_net.parameters() + self.lambda_net.parameters()
        self._params = params  # parameter discovery walks the module tree
        self.optimizer = Adam(params, lr=self.config.lr)
        self.loss_history: List[BarrierLossTerms] = []
        #: field fingerprint -> (points evaluated, values) for incremental
        #: re-evaluation across CEGIS rounds
        self._field_cache: dict = {}

    # ------------------------------------------------------------------
    def fit(
        self,
        data: TrainingData,
        closed_loop_field: Sequence[Polynomial],
        epochs: Optional[int] = None,
        gain_fields: Sequence[Sequence[Polynomial]] = (),
        sigma_star: Sequence[float] = (),
    ) -> BarrierLossTerms:
        """Run full-batch Adam on loss (10); returns the final loss terms.

        The first epoch builds the loss graph; the rest replay it through
        a :class:`repro.autodiff.Tape` (bitwise-identical to rebuilding
        it), which skips the replay outright while Adam leaves every
        parameter unchanged.  A graph the tape cannot replay is rebuilt
        every epoch instead.

        ``gain_fields``/``sigma_star`` activate the robust Lie margin for
        controllers with a nonzero inclusion error (see
        :func:`repro.learner.loss.barrier_loss`).
        """
        cfg = self.config
        tel = get_telemetry()
        f_vals = self._field_values(closed_loop_field, data.s_domain)
        g_vals = [self._field_values(g, data.s_domain) for g in gain_fields]
        last: Optional[BarrierLossTerms] = None
        max_epochs = epochs if epochs is not None else cfg.epochs
        with tel.span(
            "learner.fit", epochs=max_epochs, n_domain=len(data.s_domain)
        ) as span:
            epochs_run = 0
            converged = False
            tape: Optional[Tape] = None
            components: dict = {}
            loss = None
            use_tape = True
            for _ in range(max_epochs):
                self.optimizer.zero_grad()
                if tape is None:
                    loss, terms = barrier_loss(
                        self.b_net,
                        self.lambda_net,
                        data,
                        f_vals,
                        eps=cfg.eps,
                        etas=cfg.etas,
                        negative_slope=cfg.negative_slope,
                        paper_printed_form=cfg.paper_printed_form,
                        gain_field_values=g_vals,
                        sigma_star=sigma_star,
                        _components=components,
                    )
                    loss.backward()
                    if use_tape:
                        # replay the captured graph for the remaining
                        # epochs — bitwise-identical to rebuilding it
                        try:
                            tape = Tape(loss)
                            tel.metrics.inc("learner.tape.traces")
                        except TapeUnsupportedOp:
                            use_tape = False
                            tel.metrics.inc("learner.tape.fallbacks")
                else:
                    replays = tape.replays
                    tape.run()
                    tel.metrics.inc(
                        "learner.tape.replays" if tape.replays > replays
                        else "learner.tape.replays_skipped"
                    )
                    terms = BarrierLossTerms(
                        total=loss.item(),
                        init=components["init"].item(),
                        unsafe=components["unsafe"].item(),
                        domain=components["domain"].item(),
                    )
                if fired("learner.gradients"):
                    for p in self._params:
                        if p.grad is not None:
                            p.grad = np.full_like(
                                np.asarray(p.grad, dtype=float), np.nan
                            )
                grad_norm = self._grad_norm()
                if tel.enabled:
                    tel.metrics.observe("learner.epoch_loss", terms.total)
                    tel.metrics.observe("learner.grad_norm", grad_norm)
                    # throttled heartbeat (StatusWriter rate-limits writes)
                    tel.status_update(
                        learner_epoch=epochs_run + 1, learner_loss=terms.total
                    )
                if not np.isfinite(terms.total) or not np.isfinite(grad_norm):
                    # stop before the step poisons the weights: the caller
                    # still holds a finite parameter state it can restore
                    tel.metrics.inc("learner.divergence")
                    span.set_attrs(diverged=True, epochs_run=epochs_run)
                    raise LearnerDivergence(
                        "non-finite training signal at epoch "
                        f"{epochs_run + 1}: loss={terms.total!r}, "
                        f"grad_norm={grad_norm!r}",
                        epoch=epochs_run + 1,
                        loss=float(terms.total),
                        grad_norm=float(grad_norm),
                    )
                self.optimizer.step()
                epochs_run += 1
                last = terms
                self.loss_history.append(terms)
                if terms.total < cfg.loss_tolerance:
                    converged = True
                    break
            tel.metrics.inc("learner.epochs", epochs_run)
            if converged:
                tel.metrics.observe("learner.epochs_to_converge", epochs_run)
            assert last is not None
            span.set_attrs(
                epochs_run=epochs_run,
                converged=converged,
                final_loss=last.total,
                replays=tape.replays if tape is not None else 0,
                replays_skipped=tape.replays_skipped if tape is not None else 0,
            )
        return last

    # ------------------------------------------------------------------
    def _field_values(
        self, field: Sequence[Polynomial], points: np.ndarray
    ) -> np.ndarray:
        """Field evaluations at ``points``, reusing rows evaluated in
        earlier CEGIS rounds when the dataset only grew (append-only
        counterexample rows keep the prefix bitwise-unchanged)."""
        from repro.poly.fast_eval import _field_key

        tel = get_telemetry()
        key = _field_key(field)
        cached = self._field_cache.get(key)
        if cached is not None:
            old_pts, old_vals = cached
            n_old = old_pts.shape[0]
            if points.shape[0] >= n_old and np.array_equal(
                points[:n_old], old_pts
            ):
                if tel.enabled:
                    tel.metrics.inc("learner.field_cache.hits")
                if points.shape[0] == n_old:
                    return old_vals
                new_vals = field_values(field, points[n_old:])
                vals = np.vstack([old_vals, new_vals])
                self._field_cache[key] = (points, vals)
                return vals
        if tel.enabled:
            tel.metrics.inc("learner.field_cache.misses")
        vals = field_values(field, points)
        self._field_cache[key] = (points, vals)
        return vals

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe copy of the trainable state: every parameter plus
        the optimizer moments.  Serves both in-memory rollback (restore
        after a diverged ``fit``) and CEGIS checkpoints — floats survive
        the JSON round trip exactly, so a restore is bit-identical."""
        return {
            "params": [
                {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
                for p in self._params
            ],
            "optimizer": self.optimizer.state_dict(),
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` back into the live networks (in place)."""
        params = state["params"]
        if len(params) != len(self._params):
            raise ValueError(
                f"snapshot has {len(params)} parameters, "
                f"learner has {len(self._params)}"
            )
        for p, s in zip(self._params, params):
            arr = np.asarray(s["data"], dtype=float).reshape(s["shape"])
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"snapshot parameter shape {arr.shape} != {p.data.shape}"
                )
            p.data = arr
        self.optimizer.load_state_dict(state["optimizer"])

    def _grad_norm(self) -> float:
        """Global l2 norm of all parameter gradients (diagnostics)."""
        total = 0.0
        for p in self._params:
            if p.grad is not None:
                g = np.asarray(p.grad).ravel()
                total += float(g @ g)
        return float(np.sqrt(total))

    def candidate(self) -> Tuple[Polynomial, Polynomial]:
        """Extract the symbolic candidate ``(B~, lambda~)``."""
        return self.b_net.to_polynomial(), self.lambda_net.to_polynomial()

    def empirical_violations(
        self,
        data: TrainingData,
        closed_loop_field: Sequence[Polynomial],
    ) -> Tuple[int, int, int]:
        """Count raw condition violations on the datasets (diagnostics)."""
        B, lam = self.candidate()
        from repro.poly import lie_derivative

        lfb = lie_derivative(B, closed_loop_field)
        n_i = int(np.sum(B(data.s_init) < 0.0))
        n_u = int(np.sum(B(data.s_unsafe) >= 0.0))
        margin = lfb(data.s_domain) - lam(data.s_domain) * B(data.s_domain)
        n_d = int(np.sum(margin <= 0.0))
        return n_i, n_u, n_d
