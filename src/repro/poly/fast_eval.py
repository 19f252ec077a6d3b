"""Compiled polynomial evaluation for hot loops.

:class:`CompiledPolynomial` precomputes the exponent matrix of a
polynomial — or, the case it is built for, a whole *vector field* — and
evaluates batches through a single power-product/matmul pipeline.  The
win comes from sharing the monomial work across components: a k-component
field costs one monomial matrix plus one matmul instead of k independent
sparse evaluations (learner field values, simulation right-hand sides,
counterexample search all evaluate fields on large batches).  For a single
polynomial the sparse :meth:`Polynomial.__call__` path is already
competitive; prefer :func:`compile_field` for systems.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Union

import numpy as np

from repro.poly.polynomial import Polynomial


class CompiledPolynomial:
    """A polynomial (or stacked system of them) compiled for batch eval.

    All component polynomials share one monomial support union, so a batch
    evaluation costs one power-product tensor plus one matmul.
    """

    def __init__(self, polys: Union[Polynomial, Sequence[Polynomial]]):
        if isinstance(polys, Polynomial):
            polys = [polys]
            self._single = True
        else:
            polys = list(polys)
            self._single = False
        if not polys:
            raise ValueError("nothing to compile")
        n = polys[0].n_vars
        if any(p.n_vars != n for p in polys):
            raise ValueError("all polynomials must share a variable count")
        self.n_vars = n
        self.n_outputs = len(polys)
        support = sorted({a for p in polys for a in p.coeffs})
        if not support:
            support = [(0,) * n]
        self._exponents = np.array(support, dtype=np.int64)  # (t, n)
        self._coeffs = np.zeros((len(support), len(polys)))
        index = {a: i for i, a in enumerate(support)}
        for j, p in enumerate(polys):
            for a, c in p.coeffs.items():
                self._coeffs[index[a], j] = c
        self._max_pow = int(self._exponents.max(initial=0))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on ``(m, n)`` points; returns ``(m,)`` for a single
        polynomial, ``(m, k)`` for a compiled system."""
        pts = np.asarray(points, dtype=float)
        single_pt = pts.ndim == 1
        if single_pt:
            pts = pts[None, :]
        if pts.shape[1] != self.n_vars:
            raise ValueError(f"points must have {self.n_vars} columns")
        m = pts.shape[0]
        # powers[k] = pts ** k, built once
        powers = np.ones((self._max_pow + 1, m, self.n_vars))
        for k in range(1, self._max_pow + 1):
            powers[k] = powers[k - 1] * pts
        # monomial matrix, term-major (t, m) so row updates are contiguous
        t = self._exponents.shape[0]
        mono = np.ones((t, m))
        for i in range(self.n_vars):
            exps = self._exponents[:, i]
            nz = np.flatnonzero(exps)
            if len(nz):
                col = np.ascontiguousarray(powers[:, :, i])
                mono[nz] *= col[exps[nz]]
        out = self._coeffs.T @ mono  # (k, m)
        out = out.T
        if self._single:
            out = out[:, 0]
            return float(out[0]) if single_pt else out
        return out[0] if single_pt else out


#: memoized compilations, LRU-evicted; keyed on the exact coefficient
#: structure so two structurally identical fields share one compilation
_COMPILE_CACHE: "OrderedDict[tuple, CompiledPolynomial]" = OrderedDict()
_COMPILE_CACHE_MAX = 256
_COMPILE_CACHE_ENABLED = [True]


def _field_key(field: Sequence[Polynomial]) -> tuple:
    return tuple(
        (p.n_vars, tuple(sorted(p.coeffs.items()))) for p in field
    )


def set_compile_cache_enabled(enabled: bool) -> bool:
    """Toggle :func:`compile_field` memoization; returns the old value."""
    old = _COMPILE_CACHE_ENABLED[0]
    _COMPILE_CACHE_ENABLED[0] = bool(enabled)
    return old


def clear_compile_cache() -> None:
    _COMPILE_CACHE.clear()


def compile_field(field: Sequence[Polynomial]) -> CompiledPolynomial:
    """Compile a polynomial vector field for batched right-hand sides.

    Compilations are memoized on the field's coefficient structure —
    ``Polynomial`` is immutable, so the learner's per-epoch
    ``field_values`` calls reuse one :class:`CompiledPolynomial` per
    CEGIS round instead of recompiling every epoch.  Cache hits/misses
    are counted in the telemetry metrics registry
    (``poly.compile_cache.hits`` / ``.misses``).
    """
    field = list(field)
    if not _COMPILE_CACHE_ENABLED[0]:
        return CompiledPolynomial(field)
    from repro.telemetry import get_telemetry

    key = _field_key(field)
    cached = _COMPILE_CACHE.get(key)
    tel = get_telemetry()
    if cached is not None:
        _COMPILE_CACHE.move_to_end(key)
        if tel.enabled:
            tel.metrics.inc("poly.compile_cache.hits")
        return cached
    if tel.enabled:
        tel.metrics.inc("poly.compile_cache.misses")
    compiled = CompiledPolynomial(field)
    _COMPILE_CACHE[key] = compiled
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
    return compiled
