"""Analysis utilities: simulation, certification checks, figures, tables.

* :mod:`repro.analysis.simulate` — closed-loop trajectory integration
  (scipy RK45) and empirical safety checking;
* :mod:`repro.analysis.phase_portrait` — the data behind Figure 3:
  trajectories from Theta, the zero level set of ``B``, counterexample
  points;
* :mod:`repro.analysis.tables` — Table 1-style result assembly and ASCII
  rendering for the benchmark harness.
"""

from repro.analysis.simulate import SimulationResult, check_empirical_safety, simulate
from repro.analysis.phase_portrait import PhasePortraitData, phase_portrait
from repro.analysis.tables import Table, format_table

__all__ = [
    "simulate",
    "SimulationResult",
    "check_empirical_safety",
    "phase_portrait",
    "PhasePortraitData",
    "Table",
    "format_table",
]
