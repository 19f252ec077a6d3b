"""Shape comparison between measured results and the paper's Table 1.

Absolute timings are incomparable across hardware/solvers; what a
reproduction can check mechanically are the *qualitative signatures*.
:func:`check_table1_shape` takes the ``rows`` of a ``BENCH_table1`` document
(written by ``python -m repro.analysis.report``) and evaluates each
signature, returning a scorecard used by EXPERIMENTS.md and the summary
bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Mapping, Sequence

from repro.benchmarks.paper_values import PAPER_TABLE1
from repro.benchmarks.systems import get_benchmark


@dataclass
class ShapeCheck:
    """One qualitative signature of Table 1."""

    name: str
    passed: bool
    detail: str


def check_table1_shape(systems: Mapping[str, Mapping]) -> List[ShapeCheck]:
    """Evaluate the paper's qualitative signatures on measured rows.

    ``systems`` maps system names (any subset of C1..C14) to BENCH rows;
    ``n_x`` comes from the benchmark registry.  Checks that need several
    solved rows are left out when there are too few.
    """
    rows = [
        SimpleNamespace(
            name=name,
            n_x=get_benchmark(name).n_x,
            success=row["outcome"] == "success",
            d_b=row["d_B"],
            t_learn=row["timings"]["T_l"],
            t_verify=row["timings"]["T_v"],
            t_total=row["timings"]["T_e"],
        )
        for name, row in systems.items()
    ]
    checks: List[ShapeCheck] = []

    # 1. universal solvability with degree-2 certificates
    solved = [r for r in rows if r.success]
    checks.append(
        ShapeCheck(
            "all_solved",
            len(solved) == len(rows),
            f"{len(solved)}/{len(rows)} systems solved",
        )
    )
    checks.append(
        ShapeCheck(
            "degree_2_everywhere",
            all(r.d_b == 2 for r in solved),
            f"degrees: {sorted({r.d_b for r in solved})}",
        )
    )

    # 2. verification dominates total time in the highest dimension measured
    if solved:
        top = max(solved, key=lambda r: r.n_x)
        frac = top.t_verify / max(top.t_total, 1e-9)
        paper_frac = (
            PAPER_TABLE1[top.name].snbc_t_verify
            / PAPER_TABLE1[top.name].snbc_t_total
            if top.name in PAPER_TABLE1
            else None
        )
        checks.append(
            ShapeCheck(
                "verification_dominates_high_dim",
                frac > 0.5 or top.n_x < 9,
                f"{top.name}: T_v/T_e = {frac:.2f}"
                + (f" (paper {paper_frac:.2f})" if paper_frac else ""),
            )
        )

    # 3. T_v grows with dimension (rank correlation sign)
    if len(solved) >= 3:
        ordered = sorted(solved, key=lambda r: (r.n_x, r.name))
        n = len(ordered)
        concordant = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if (ordered[j].n_x - ordered[i].n_x)
            * (ordered[j].t_verify - ordered[i].t_verify)
            > 0
        )
        pairs = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if ordered[j].n_x != ordered[i].n_x
        )
        tau = concordant / max(pairs, 1)
        checks.append(
            ShapeCheck(
                "t_verify_grows_with_dimension",
                tau > 0.6,
                f"concordance of (n_x, T_v): {tau:.2f}",
            )
        )

    # 4. learning time stays within a narrow band (not dimension-dominated)
    if len(solved) >= 3:
        t_ls = [r.t_learn for r in solved]
        spread = max(t_ls) / max(min(t_ls), 1e-9)
        t_vs_spread = max(r.t_verify for r in solved) / max(
            min(r.t_verify for r in solved), 1e-9
        )
        checks.append(
            ShapeCheck(
                "learning_flatter_than_verification",
                spread < t_vs_spread,
                f"T_l spread {spread:.1f}x vs T_v spread {t_vs_spread:.1f}x",
            )
        )

    return checks


def format_scorecard(checks: Sequence[ShapeCheck]) -> str:
    """Human-readable scorecard."""
    lines = ["Table 1 shape scorecard:"]
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name}: {c.detail}")
    return "\n".join(lines)
