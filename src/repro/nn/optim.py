"""First-order optimizers (SGD with momentum, Adam)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: Sequence[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data = p.data + v

    def state_dict(self) -> Dict[str, Any]:
        return {"velocity": [v.tolist() for v in self._velocity]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        vel = [np.asarray(v, dtype=float) for v in state["velocity"]]
        if len(vel) != len(self._velocity):
            raise ValueError(
                f"state has {len(vel)} velocity buffers, "
                f"optimizer has {len(self._velocity)}"
            )
        self._velocity = [
            v.reshape(old.shape) for v, old in zip(vel, self._velocity)
        ]


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    All parameters step as one flat vector: the first and second moments
    live in one float64 vector each (``_m``/``_v`` are per-parameter
    views into them), and each step gathers the gradients and values with
    one ``concatenate`` apiece and runs the update once over the whole
    vector.  Every line is elementwise IEEE arithmetic, so each element
    gets the bits a per-parameter loop would give it.  A parameter whose
    ``grad`` is ``None`` is left out of the step: its value and moments
    stay untouched.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._bounds = [0, *np.cumsum([p.data.size for p in self.parameters])]
        self._m_flat = np.zeros(self._bounds[-1])
        self._v_flat = np.zeros(self._bounds[-1])
        self._m = self._views(self._m_flat)
        self._v = self._views(self._v_flat)
        self._t = 0

    def _views(self, flat: np.ndarray) -> List[np.ndarray]:
        b = self._bounds
        return [
            flat[b[i]:b[i + 1]].reshape(p.data.shape)
            for i, p in enumerate(self.parameters)
        ]

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        params = self.parameters
        active = [i for i, p in enumerate(params) if p.grad is not None]
        if not active:
            return
        if len(active) == len(params):
            rows = slice(None)
        else:
            b = self._bounds
            rows = np.concatenate(
                [np.arange(b[i], b[i + 1]) for i in active]
            )
        g = np.concatenate([np.ravel(params[i].grad) for i in active])
        x = np.concatenate([params[i].data.ravel() for i in active])
        m = self._m_flat[rows]
        v = self._v_flat[rows]
        if self.weight_decay:
            g = g + self.weight_decay * x
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        self._m_flat[rows] = m
        self._v_flat[rows] = v
        m_hat = m / (1.0 - b1 ** self._t)
        v_hat = v / (1.0 - b2 ** self._t)
        x = x - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        start = 0
        for i in active:
            p = params[i]
            stop = start + p.data.size
            p.data = x[start:stop].reshape(p.data.shape)
            start = stop

    def state_dict(self) -> Dict[str, Any]:
        return {
            "t": self._t,
            "m": [m.tolist() for m in self._m],
            "v": [v.tolist() for v in self._v],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        m = [np.asarray(a, dtype=float) for a in state["m"]]
        v = [np.asarray(a, dtype=float) for a in state["v"]]
        if len(m) != len(self._m) or len(v) != len(self._v):
            raise ValueError(
                f"state has {len(m)}/{len(v)} moment buffers, "
                f"optimizer has {len(self._m)}"
            )
        # reshape everything before writing, so a bad state leaves the
        # moments as they were
        m = [a.reshape(old.shape) for a, old in zip(m, self._m)]
        v = [a.reshape(old.shape) for a, old in zip(v, self._v)]
        for dst, src in zip(self._m + self._v, m + v):
            dst[...] = src
        self._t = int(state["t"])
