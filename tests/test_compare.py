"""Tests for the Table 1 shape scorecard."""

from repro.analysis.report import run_row
from repro.benchmarks import get_benchmark
from repro.benchmarks.compare import check_table1_shape, format_scorecard


def row(name, success=True, d_b=2, t_l=1.0, t_v=None, t_e=None):
    """A ``BENCH_table1`` row; ``n_x`` comes from the registry."""
    t_v = t_v if t_v is not None else 0.1 * get_benchmark(name).n_x ** 2
    t_e = t_e if t_e is not None else t_l + t_v
    return {
        "outcome": "success" if success else "failure",
        "iterations": 1,
        "stalled": False,
        "d_B": d_b if success else None,
        "timings": {"T_l": t_l, "T_c": 0.0, "T_v": t_v, "T_e": t_e,
                    "inclusion": 0.0},
        "audit": None,
    }


def good_rows():
    return {
        "C1": row("C1"),
        "C6": row("C6"),
        "C9": row("C9"),
        "C12": row("C12"),
        "C14": row("C14", t_v=100.0, t_e=101.5),
    }


def test_good_shape_all_pass():
    checks = check_table1_shape(good_rows())
    assert all(c.passed for c in checks), format_scorecard(checks)
    names = {c.name for c in checks}
    assert "all_solved" in names
    assert "t_verify_grows_with_dimension" in names


def test_failure_detected():
    rows = good_rows()
    rows["C9"] = row("C9", success=False)
    checks = {c.name: c for c in check_table1_shape(rows)}
    assert not checks["all_solved"].passed


def test_wrong_degree_detected():
    rows = good_rows()
    rows["C1"] = row("C1", d_b=4)
    checks = {c.name: c for c in check_table1_shape(rows)}
    assert not checks["degree_2_everywhere"].passed


def test_inverted_scaling_detected():
    rows = {
        "C1": row("C1", t_v=100.0),
        "C6": row("C6", t_v=10.0),
        "C9": row("C9", t_v=1.0),
        "C12": row("C12", t_v=0.1),
    }
    checks = {c.name: c for c in check_table1_shape(rows)}
    assert not checks["t_verify_grows_with_dimension"].passed


def test_scorecard_format():
    text = format_scorecard(check_table1_shape(good_rows()))
    assert "PASS" in text
    assert "scorecard" in text


def test_measured_smoke_rows_pass_shape(tmp_path):
    """Integration: real measured rows satisfy the paper's signatures."""
    rows = {
        name: run_row(name, "smoke", trace_dir=str(tmp_path))
        for name in ("C1", "C6", "C9", "C12")
    }
    checks = check_table1_shape(rows)
    assert all(c.passed for c in checks), format_scorecard(checks)
