"""In-memory span tracing for the ledger benchmark.

The benchmark installs a wrapper around each layer boundary of the
``repro`` pipeline, runs one pass, and restores the originals.  Every
wrapper patches the name its caller actually resolves (a module global
for the functions ``SNBC`` and ``SOSVerifier`` call by bare name, the
class attribute for methods), so a call can never bypass it.

Spans record name, start, end, parent and pass, plus a few attributes
read from the wrapped call's return value (SDP sub-phase times and
block sizes from the ``SDPResult``, Gram sizes from the certificate
bundle).  They stay in memory; :func:`layer_metrics` reduces them to
the per-layer numbers the ledger prints.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Spans of one process, kept in memory in start order."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.pass_index = 0

    def open(self, name: str, **attrs: Any) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_index,
            "attrs": attrs,
        })
        self._stack.append(idx)
        return idx

    def close(self, idx: int, **attrs: Any) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["attrs"].update(attrs)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        idx = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(idx)


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are merged as intervals (clipped to the parent), so
    overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out


# -- what each wrapper reads from its call ---------------------------------

_IPM_PHASES = ("z_factor", "schur_assembly", "schur_factor", "line_search")


def _sdp_attrs(results: Sequence[Any]) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {
        "solves": len(results),
        "ipm_iterations": 0,
        "max_block_dim": 0,
        "recovered": 0,
        "warm_started": 0,
    }
    for phase in _IPM_PHASES:
        attrs[phase] = 0.0
    for res in results:
        attrs["ipm_iterations"] += int(res.iterations)
        attrs["recovered"] += int(res.recovery_rung != "base")
        attrs["warm_started"] += int(bool(res.warm_started))
        for X in res.X:
            attrs["max_block_dim"] = max(attrs["max_block_dim"], int(X.shape[0]))
        for rec in res.ipm_trace:
            for phase in _IPM_PHASES:
                value = rec.get(f"t_{phase}")
                if value is not None and not math.isnan(value):
                    attrs[phase] += float(value)
    return attrs


def _gram_dim(args: Tuple[Any, ...]) -> Dict[str, Any]:
    bundle = getattr(args[1], "certificate", None)
    dims = [0]
    for cond in getattr(bundle, "conditions", ()):
        dims.append(len(cond.slack_basis))
        dims.extend(len(m.basis) for m in cond.multipliers)
    return {"max_gram_dim": max(dims)}


def _cex_points(result: Any) -> Dict[str, Any]:
    return {"points": sum(len(c.points) for c in result)}


#: (module, attribute path, span name, reads (args, result) -> attrs)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.cegis.snbc", "polynomial_inclusion", "controllers.inclusion", None),
    ("repro.cegis.snbc", "check_verification", "soundness.recheck",
     lambda args, res: _gram_dim(args)),
    ("repro.learner", "BarrierLearner.fit", "learner.fit", None),
    ("repro.verifier", "SOSVerifier.verify", "verifier.verify",
     lambda args, res: {"ok": bool(res.ok)}),
    ("repro.cegis", "CounterexampleGenerator.generate", "cegis.cex",
     lambda args, res: _cex_points(res)),
    ("repro.verifier.sos_verifier", "solve_sdp_resilient", "sdp.solve",
     lambda args, res: _sdp_attrs([res])),
    ("repro.verifier.sos_verifier", "solve_sdp_batch_resilient", "sdp.solve",
     lambda args, res: _sdp_attrs(res)),
    ("repro.service", "CertificationService.submit", "service.submit", None),
    ("repro.service", "CertificateCache.get", "service.cache_get", None),
    ("repro.service", "CertificateCache.put", "service.cache_put", None),
    ("repro.service", "JobJournal.append", "service.journal_append", None),
)


class TraceInstallError(RuntimeError):
    """A wrapper target no longer exists under the name the ledger
    patches: the layer would silently report zeros."""


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceInstallError(f"{module_name}.{path}: no {part!r}")
    name = parts[-1]
    # patch where the attribute is defined, so restoring cannot leave a
    # shadowing copy on a subclass
    if name not in vars(owner):
        raise TraceInstallError(f"{module_name}.{path} is not defined there")
    return owner, name


def _wrap(recorder: SpanRecorder, original: Callable, span_name: str,
          reads: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = recorder.open(span_name)
        attrs: Dict[str, Any] = {}
        try:
            result = original(*args, **kwargs)
            if reads is not None:
                attrs = reads(args, result)
            return result
        finally:
            recorder.close(idx, **attrs)

    wrapper.__ledger_wrapper__ = True
    return wrapper


class Tracer:
    """Installs the :data:`TARGETS` wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder,
                 targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = TARGETS):
        self.recorder = recorder
        self.targets = tuple(targets)
        self._originals: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        resolved = [
            (_resolve(module, path), span_name, reads)
            for module, path, span_name, reads in self.targets
        ]
        for (owner, name), span_name, reads in resolved:
            original = vars(owner)[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, _wrap(self.recorder, original, span_name, reads))

    def restore(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def unrestored() -> List[str]:
    """Targets still bound to a ledger wrapper (empty after a clean
    :meth:`Tracer.restore`)."""
    out = []
    for module, path, _span, _reads in TARGETS:
        owner, name = _resolve(module, path)
        if getattr(vars(owner)[name], "__ledger_wrapper__", False):
            out.append(f"{module}.{path}")
    return out


# -- reduction to layer metrics ---------------------------------------------

#: span name -> (self-time metric, call-count metric)
_LAYER_SPANS = {
    "soundness.recheck": ("soundness.recheck_s", "soundness.rechecks"),
    "sdp.solve": ("sdp.solve_s", None),
    "verifier.verify": ("sos.assembly_s", "verifier.verify_calls"),
    "cegis.cex": ("cegis.cex_s", "cegis.cex_calls"),
    "learner.fit": ("learner.fit_s", "learner.fit_calls"),
    "controllers.inclusion": ("controllers.inclusion_s", "controllers.inclusion_calls"),
    "service.submit": ("service.submit_s", None),
    "service.cache_get": ("service.cache_get_s", None),
    "service.cache_put": ("service.cache_put_s", None),
    "service.journal_append": ("service.journal_append_s", None),
}

#: root spans the benchmark opens around each item; their self time is
#: the work no wrapped layer accounts for
ITEM_SPAN = "item"


def layer_metrics(spans: Sequence[Dict[str, Any]],
                  pass_wall_s: float) -> Dict[str, float]:
    """Per-layer self times, counts and SDP sub-phases of ``spans``, and
    the share of the pass (``pass_wall_s`` long) the layers cover."""
    out: Dict[str, float] = {}
    for metric, count in _LAYER_SPANS.values():
        out[metric] = 0.0
        if count:
            out[count] = 0
    for key in ("sdp.solves", "sdp.ipm_iterations", "sdp.recovered",
                "sdp.warm_started", "sdp.max_block_dim",
                "soundness.max_gram_dim", "cegis.cex_points",
                "service.retries", "service.redeliveries"):
        out[key] = 0
    for phase in _IPM_PHASES:
        out[f"sdp.{phase}_s"] = 0.0
    out["verifier.verify_s"] = 0.0
    out["trace.unattributed_s"] = 0.0
    accepted = 0
    attributed = 0.0
    selfs = self_times(spans)
    for span, self_s in zip(spans, selfs):
        name, attrs = span["name"], span["attrs"]
        if name == ITEM_SPAN:
            out["trace.unattributed_s"] += self_s
            continue
        attributed += self_s
        metric, count = _LAYER_SPANS[name]
        out[metric] += self_s
        if count:
            out[count] += 1
        if name == "sdp.solve":
            for key in ("solves", "ipm_iterations", "recovered", "warm_started"):
                out[f"sdp.{key}"] += attrs.get(key, 0)
            out["sdp.max_block_dim"] = max(
                out["sdp.max_block_dim"], attrs.get("max_block_dim", 0)
            )
            for phase in _IPM_PHASES:
                out[f"sdp.{phase}_s"] += attrs.get(phase, 0.0)
        elif name == "verifier.verify":
            out["verifier.verify_s"] += span["end"] - span["start"]
            accepted += int(bool(attrs.get("ok")))
        elif name == "soundness.recheck":
            out["soundness.max_gram_dim"] = max(
                out["soundness.max_gram_dim"], attrs.get("max_gram_dim", 0)
            )
        elif name == "cegis.cex":
            out["cegis.cex_points"] += attrs.get("points", 0)
    out["sdp.unattributed_s"] = out["sdp.solve_s"] - sum(
        out[f"sdp.{phase}_s"] for phase in _IPM_PHASES
    )
    calls = out["verifier.verify_calls"]
    out["verifier.accept_ratio"] = accepted / calls if calls else 0.0
    out["trace.coverage"] = attributed / pass_wall_s
    return out


def item_layers(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Layer self times per item span: which layer owns each item."""
    selfs = self_times(spans)
    root_of: List[Optional[int]] = []
    for span in spans:
        parent = span["parent"]
        if span["name"] == ITEM_SPAN:
            root_of.append(len(root_of))
        else:
            root_of.append(root_of[parent] if parent is not None else None)
    rows: Dict[int, Dict[str, Any]] = {}
    for idx, span in enumerate(spans):
        root = root_of[idx]
        if root is None:
            continue
        row = rows.setdefault(root, {
            "item": spans[root]["attrs"].get("label", ""),
            "pass": spans[root]["pass"],
            "wall_s": spans[root]["end"] - spans[root]["start"],
            "self_s": {},
        })
        name = "unattributed" if span["name"] == ITEM_SPAN else span["name"]
        row["self_s"][name] = row["self_s"].get(name, 0.0) + selfs[idx]
    return [rows[k] for k in sorted(rows)]
