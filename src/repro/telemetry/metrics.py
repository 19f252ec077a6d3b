"""Counters, gauges, and histograms with percentile summaries.

A :class:`MetricsRegistry` is an ordinary object — construct as many as
you like — but most instrumentation points use the registry attached to
the process-default :class:`~repro.telemetry.runtime.Telemetry`.  When
the registry is disabled every recording call returns immediately, so
hot loops (per-epoch, per-IPM-iteration) can record unconditionally.

Histograms keep raw observations (these runs record at most a few
thousand values per metric); ``summary()`` derives count/mean/min/max and
linearly-interpolated p50/p95/p99 without numpy, keeping the telemetry
package stdlib-only.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted list,
    matching ``numpy.percentile``'s default method."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    pos = (q / 100.0) * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed value."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._histograms.setdefault(name, []).append(float(value))

    # -- reading --------------------------------------------------------
    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram_values(self, name: str) -> List[float]:
        with self._lock:
            return list(self._histograms.get(name, []))

    def summary(self) -> Dict[str, Any]:
        """Snapshot of everything recorded, histograms summarized."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {k: list(v) for k, v in self._histograms.items()}
        hist_summaries: Dict[str, Dict[str, float]] = {}
        for name, values in histograms.items():
            values.sort()
            n = len(values)
            hist_summaries[name] = {
                "count": n,
                "mean": sum(values) / n,
                "min": values[0],
                "max": values[-1],
                "p50": percentile(values, 50.0),
                "p95": percentile(values, 95.0),
                "p99": percentile(values, 99.0),
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": hist_summaries,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready export — identical to :meth:`summary`; the name the
        diagnostics reports consume."""
        return self.summary()

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
