"""Trace-and-replay execution of autodiff graphs.

The Learner rebuilds an *identical* Tensor graph every epoch: same ops,
same shapes, same constant leaves — only the Parameter values change
between Adam steps.  :class:`Tape` captures the graph once (after one
normal forward pass) and replays forward + backward against the captured
node objects, skipping per-epoch graph construction, backward-closure
allocation, and the recursive topological sort.

Replay is bitwise-identical to rebuilding the graph from scratch:

* forward recomputes every gradient-carrying node with the exact numpy
  expression its op method uses, walking the same topological order
  ``Tensor.backward()`` derives;
* backward mirrors each op's closure formula (reading *fresh* output
  data where closures capture it) and accumulates gradient contributions
  through ``Tensor._accumulate`` in the same reverse-topological order,
  so every float add happens in the same sequence.

A replay is a pure function of the grad-carrying leaves, so ``run()``
skips it while those leaves hold the bytes of the previous replay: a
learner at a fixed point of Adam pays only that comparison per epoch.

Ops outside the replay table raise :class:`TapeUnsupportedOp` at capture
time; callers fall back to the per-epoch graph path.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autodiff.tensor import Tensor, _unbroadcast


class TapeUnsupportedOp(RuntimeError):
    """Raised when a traced graph contains an op the tape cannot replay."""


# ---------------------------------------------------------------------------
# forward replay: node -> recompute node.data from its parents' data.
# Each body is the literal numpy expression of the corresponding op method.
# ---------------------------------------------------------------------------

def _f_add(t):
    a, b = t._parents
    t.data = a.data + b.data


def _f_neg(t):
    t.data = -t._parents[0].data


def _f_mul(t):
    a, b = t._parents
    t.data = a.data * b.data


def _f_div(t):
    a, b = t._parents
    t.data = a.data / b.data


def _f_pow(t):
    t.data = t._parents[0].data ** t._args[0]


def _f_matmul(t):
    a, b = t._parents
    t.data = a.data @ b.data


def _f_sum(t):
    axis, keepdims = t._args
    t.data = np.asarray(t._parents[0].data.sum(axis=axis, keepdims=keepdims))


def _f_tanh(t):
    t.data = np.tanh(t._parents[0].data)


def _f_sigmoid(t):
    t.data = 1.0 / (1.0 + np.exp(-t._parents[0].data))


def _f_relu(t):
    t.data = np.maximum(t._parents[0].data, 0.0)


def _f_leaky_relu(t):
    x = t._parents[0].data
    t.data = np.where(x > 0.0, x, t._args[0] * x)


def _f_exp(t):
    t.data = np.exp(t._parents[0].data)


def _f_abs(t):
    t.data = np.abs(t._parents[0].data)


def _f_maximum(t):
    a, b = t._parents
    t.data = np.maximum(a.data, b.data)


def _f_cat(t):
    t.data = np.concatenate([p.data for p in t._parents], axis=t._args[0])


def _f_reshape(t):
    t.data = t._parents[0].data.reshape(*t._args[0])


def _f_transpose(t):
    t.data = t._parents[0].data.T


# ---------------------------------------------------------------------------
# backward replay: node, grad -> accumulate into parents.  Each body
# mirrors the corresponding backward closure; where a closure captures
# ``out_data`` we read ``t.data`` (fresh from the forward replay), which
# is exactly what a rebuilt closure would have captured.
# ---------------------------------------------------------------------------

def _b_add(t, g):
    a, b = t._parents
    if a.requires_grad:
        a._accumulate(_unbroadcast(g, a.data.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.data.shape))


def _b_neg(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(-g)


def _b_mul(t, g):
    a, b = t._parents
    if a.requires_grad:
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))


def _b_div(t, g):
    a, b = t._parents
    if a.requires_grad:
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(-g * a.data / (b.data ** 2), b.data.shape))


def _b_pow(t, g):
    a = t._parents[0]
    exponent = t._args[0]
    if a.requires_grad:
        a._accumulate(g * exponent * a.data ** (exponent - 1))


def _b_matmul(t, g):
    a, b = t._parents
    if a.requires_grad:
        if b.data.ndim == 1:
            a._accumulate(np.outer(g, b.data) if a.data.ndim == 2 else g * b.data)
        else:
            gg = g[..., None, :] if g.ndim == t.data.ndim - 1 else g
            a._accumulate(_unbroadcast(gg @ b.data.swapaxes(-1, -2), a.data.shape))
    if b.requires_grad:
        if a.data.ndim == 1:
            b._accumulate(np.outer(a.data, g) if b.data.ndim == 2 else a.data * g)
        else:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))


def _b_sum(t, g):
    a = t._parents[0]
    if not a.requires_grad:
        return
    axis, keepdims = t._args
    g_arr = np.asarray(g)
    if axis is not None and not keepdims:
        g_arr = np.expand_dims(g_arr, axis)
    a._accumulate(np.broadcast_to(g_arr, a.data.shape).copy())


def _b_tanh(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g * (1.0 - t.data ** 2))


def _b_sigmoid(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g * t.data * (1.0 - t.data))


def _b_relu(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g * (a.data > 0.0))


def _b_leaky_relu(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g * np.where(a.data > 0.0, 1.0, t._args[0]))


def _b_exp(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g * t.data)


def _b_abs(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g * np.sign(a.data))


def _b_maximum(t, g):
    a, b = t._parents
    mask = a.data >= b.data
    if a.requires_grad:
        a._accumulate(_unbroadcast(g * mask, a.data.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(g * (~mask), b.data.shape))


def _b_cat(t, g):
    axis = t._args[0]
    start = 0
    for p in t._parents:
        stop = start + p.data.shape[axis]
        if p.requires_grad:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            p._accumulate(g[tuple(sl)])
        start = stop


def _b_reshape(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g.reshape(a.data.shape))


def _b_transpose(t, g):
    a = t._parents[0]
    if a.requires_grad:
        a._accumulate(g.T)


def _specialized_backward(t):
    """Capture-time specialization of the hottest backward rules.

    Parent shapes, ndims and ``requires_grad`` flags never change across
    replays, so identity ``_unbroadcast`` calls and dead branches can be
    resolved once instead of per replay.  Every specialized body runs the
    exact numpy expression the generic rule would reach, so replay stays
    bitwise-identical; returns ``None`` when no specialization applies.
    """
    op, parents = t._op, t._parents
    if op == "add":
        a, b = parents
        if (a.requires_grad and b.requires_grad
                and a.data.shape == t.data.shape
                and b.data.shape == t.data.shape):
            def bwd(t, g, a=a, b=b):
                a._accumulate(g)
                b._accumulate(g)
            return bwd
    elif op == "mul":
        a, b = parents
        same_a = a.data.shape == t.data.shape
        same_b = b.data.shape == t.data.shape
        if a.requires_grad and same_a and not b.requires_grad:
            def bwd(t, g, a=a, b=b):
                a._accumulate(g * b.data)
            return bwd
        if b.requires_grad and same_b and not a.requires_grad:
            def bwd(t, g, a=a, b=b):
                b._accumulate(g * a.data)
            return bwd
        if a.requires_grad and b.requires_grad and same_a and same_b:
            def bwd(t, g, a=a, b=b):
                a._accumulate(g * b.data)
                b._accumulate(g * a.data)
            return bwd
    elif op == "matmul":
        a, b = parents
        # g always has t's shape, so for the plain 2D @ 2D / 2D @ 1D
        # cases both _unbroadcast calls are identities
        if a.data.ndim == 2 and b.data.ndim == 2:
            if a.requires_grad and b.requires_grad:
                def bwd(t, g, a=a, b=b):
                    a._accumulate(g @ b.data.swapaxes(-1, -2))
                    b._accumulate(a.data.swapaxes(-1, -2) @ g)
                return bwd
            if a.requires_grad:
                def bwd(t, g, a=a, b=b):
                    a._accumulate(g @ b.data.swapaxes(-1, -2))
                return bwd
            if b.requires_grad:
                def bwd(t, g, a=a, b=b):
                    b._accumulate(a.data.swapaxes(-1, -2) @ g)
                return bwd
        if a.data.ndim == 2 and b.data.ndim == 1:
            if a.requires_grad and b.requires_grad:
                def bwd(t, g, a=a, b=b):
                    a._accumulate(np.outer(g, b.data))
                    b._accumulate(a.data.swapaxes(-1, -2) @ g)
                return bwd
            if a.requires_grad:
                def bwd(t, g, a=a, b=b):
                    a._accumulate(np.outer(g, b.data))
                return bwd
            if b.requires_grad:
                def bwd(t, g, a=a, b=b):
                    b._accumulate(a.data.swapaxes(-1, -2) @ g)
                return bwd
    return None


_FORWARD = {
    "add": _f_add, "neg": _f_neg, "mul": _f_mul, "div": _f_div,
    "pow": _f_pow, "matmul": _f_matmul, "sum": _f_sum, "tanh": _f_tanh,
    "sigmoid": _f_sigmoid, "relu": _f_relu, "leaky_relu": _f_leaky_relu,
    "exp": _f_exp, "abs": _f_abs, "maximum": _f_maximum, "cat": _f_cat,
    "reshape": _f_reshape, "T": _f_transpose,
}

_BACKWARD = {
    "add": _b_add, "neg": _b_neg, "mul": _b_mul, "div": _b_div,
    "pow": _b_pow, "matmul": _b_matmul, "sum": _b_sum, "tanh": _b_tanh,
    "sigmoid": _b_sigmoid, "relu": _b_relu, "leaky_relu": _b_leaky_relu,
    "exp": _b_exp, "abs": _b_abs, "maximum": _b_maximum, "cat": _b_cat,
    "reshape": _b_reshape, "T": _b_transpose,
}


class Tape:
    """Replayable capture of the gradient-carrying subgraph under ``output``.

    ``Tape(loss)`` captures after a normal forward pass built the graph;
    ``tape.run()`` then recomputes every node's ``data`` from the current
    leaf values (Parameters included) and reruns backward, leaving fresh
    gradients on the leaves — identical, float for float, to rebuilding
    the graph and calling ``loss.backward()``.

    When no grad-carrying leaf changed since the last replay (same shape,
    dtype and bytes, so ``-0.0`` and ``0.0`` differ), ``run()`` skips the
    replay, hands every leaf the gradient array that replay left on it,
    and returns ``output`` with the interior nodes untouched.
    ``replays``/``replays_skipped`` count real replays and such skips.

    Precondition: constant (non-grad) leaves are not mutated in place
    while the tape lives — the skip test looks only at the grad-carrying
    leaves.  Rebinding a leaf's ``data`` or writing into it are both seen.
    Like ``Tensor._accumulate``, the tape assumes nobody writes into a
    ``grad`` array in place: a skipped replay hands out the same arrays.
    """

    def __init__(self, output: Tensor):
        if not output.requires_grad:
            raise TapeUnsupportedOp("output does not require grad")
        if output.data.size != 1:
            raise TapeUnsupportedOp("tape replay needs a scalar output")
        topo: List[Tensor] = []
        visited = set()

        # same traversal as Tensor.backward() so replay order matches
        def visit(t: Tensor) -> None:
            if id(t) in visited or not t.requires_grad:
                return
            visited.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(output)
        for t in topo:
            if t._op is None:
                if t._parents:
                    raise TapeUnsupportedOp(
                        "graph contains an op node without replay metadata"
                    )
            elif t._op not in _FORWARD:
                raise TapeUnsupportedOp(f"op {t._op!r} has no replay rule")
        self.output = output
        self.nodes = topo
        self.leaves = [t for t in topo if t._op is None]
        self._interior = [
            (t, _FORWARD[t._op],
             _specialized_backward(t) or _BACKWARD[t._op])
            for t in topo if t._op is not None
        ]
        #: per leaf (shape, dtype, bytes) of ``data`` and the ``grad`` at
        #: the end of the last real replay; ``None`` before the first
        self._memo = None
        self.replays = 0
        self.replays_skipped = 0

    # ------------------------------------------------------------------
    def run(self) -> Tensor:
        """One forward + backward replay; returns the output tensor.

        Skipped when every grad-carrying leaf matches the last replay's.
        """
        leaves = self.leaves
        memo = self._memo
        if memo is not None and all(
            d.shape == shape and d.dtype == dtype and d.tobytes() == raw
            for d, (shape, dtype, raw, _) in zip(
                (t.data for t in leaves), memo
            )
        ):
            for t, entry in zip(leaves, memo):
                t.grad = entry[3]
            self.replays_skipped += 1
            return self.output
        interior = self._interior
        for t, fwd, _ in interior:
            fwd(t)
        for t in self.nodes:
            t.grad = None
        out = self.output
        out.grad = np.ones_like(out.data)
        for t, _, bwd in reversed(interior):
            if t.grad is not None:
                bwd(t, t.grad)
        self._memo = [
            (t.data.shape, t.data.dtype, t.data.tobytes(), t.grad)
            for t in leaves
        ]
        self.replays += 1
        return out
