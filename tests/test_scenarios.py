"""Scenario factory + BENCH_scenarios conformance.

The factory is a pure function of the seed, so rows (minus wall-clock
fields) must be reproducible; the BENCH_scenarios document and its
regress gate must hold the batch invariants hard.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.diagnostics.bench import bench_document, load_bench, write_bench
from repro.diagnostics.regress import compare
from repro.soundness.scenarios import (
    INFEASIBLE_STRIDE,
    TERMINAL_OUTCOMES,
    batch_invariants,
    bench_rows,
    make_scenario,
    run_batch,
    run_scenario,
)


def _strip_timings(row: dict) -> dict:
    out = copy.deepcopy(row)
    out.pop("elapsed_seconds", None)
    for cond in out.get("conditions", []):
        cond.pop("elapsed_seconds", None)
    return out


class TestFactory:
    def test_scenario_is_pure_function_of_seed(self):
        a = make_scenario(17)
        b = make_scenario(17)
        assert a.params == b.params
        assert a.psi_spec == b.psi_spec
        assert a.barrier.coeffs == b.barrier.coeffs
        assert a.psi_spec.canonical_key() == b.psi_spec.canonical_key()

    def test_distinct_seeds_distinct_geometry(self):
        keys = {make_scenario(s).psi_spec.canonical_key() for s in range(20)}
        assert len(keys) == 20

    def test_infeasible_stride_marks_expectation(self):
        assert make_scenario(INFEASIBLE_STRIDE - 1).expected == "infeasible"
        assert make_scenario(INFEASIBLE_STRIDE).expected == "certifiable"

    def test_problem_shapes(self):
        scenario = make_scenario(3)
        problem = scenario.problem
        assert problem.n_vars == 2
        assert len(problem.xi.decompose()) == scenario.params["n_obstacles"]
        assert len(problem.psi.decompose()) >= 1
        # theta stays clear of every obstacle
        theta_pts = problem.theta.sample(100)
        assert not problem.xi.contains(theta_pts).any()

    def test_row_is_deterministic(self):
        row_a = _strip_timings(run_scenario(2))
        row_b = _strip_timings(run_scenario(2))
        assert row_a == row_b

    def test_certified_row_has_exact_recheck(self):
        row = run_scenario(0)
        assert row["outcome"] == "certified"
        assert row["soundness_ok"] is True
        assert row["n_exact_conditions"] == sum(row["cells"].values())

    def test_falsified_row(self):
        row = run_scenario(INFEASIBLE_STRIDE - 1)
        assert row["outcome"] == "falsified"
        assert row["soundness_ok"] is None

    def test_batch_invariants_hold(self):
        rows = run_batch(0, 12)
        inv = batch_invariants(rows)
        assert inv == {
            "all_terminal": True,
            "no_soundness_failures": True,
            "expectations_met": True,
        }
        assert all(r["outcome"] in TERMINAL_OUTCOMES for r in rows)

    def test_error_rows_fail_all_terminal(self):
        rows = [{"seed": 0, "outcome": "error", "expected": "certifiable"}]
        assert not batch_invariants(rows)["all_terminal"]

    def test_unsound_rows_fail_soundness_invariant(self):
        rows = [{"seed": 0, "outcome": "unsound", "expected": "certifiable"}]
        assert not batch_invariants(rows)["no_soundness_failures"]


class TestBenchDoc:
    def _doc(self, rows):
        return bench_document(
            "BENCH_scenarios",
            "smoke",
            bench_rows(rows),
            config={"base_seed": 0, "count": len(rows),
                    "time_budget_s": 30.0},
            invariants=batch_invariants(rows),
        )

    def test_doc_write_load_round_trip(self, tmp_path):
        rows = run_batch(0, 6)
        doc = self._doc(rows)
        path = tmp_path / "BENCH_scenarios.json"
        write_bench(str(path), doc)
        loaded = load_bench(str(path))
        assert loaded["kind"] == "BENCH_scenarios"
        assert len(loaded["rows"]) == 6
        assert loaded["rows"] == json.loads(json.dumps(doc["rows"]))

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"kind": "BENCH_table1"}')
        with pytest.raises(ValueError):
            load_bench(str(path))
        path.write_text('{"kind": "BENCH_unknown", "schema_version": 2, '
                        '"rows": {}, "invariants": {}}')
        with pytest.raises(ValueError):
            load_bench(str(path))

    def test_identical_docs_pass_gate(self):
        rows = run_batch(0, 6)
        doc = self._doc(rows)
        outcome = compare(doc, doc)
        assert outcome["regressions"] == []

    def test_outcome_flip_gates_hard(self):
        rows = run_batch(0, 6)
        old = self._doc(rows)
        new = copy.deepcopy(old)
        seed = next(iter(new["rows"]))
        new["rows"][seed]["outcome"] = "falsified"
        outcome = compare(old, new)
        assert any("outcome flipped" in r for r in outcome["regressions"])

    def test_spec_hash_drift_gates_hard(self):
        rows = run_batch(0, 6)
        old = self._doc(rows)
        new = copy.deepcopy(old)
        seed = next(iter(new["rows"]))
        new["rows"][seed]["psi_spec_key"] = "0" * 16
        outcome = compare(old, new)
        assert any("psi_spec_key changed" in r for r in outcome["regressions"])

    def test_broken_invariant_gates_hard(self):
        rows = run_batch(0, 6)
        old = self._doc(rows)
        new = copy.deepcopy(old)
        new["invariants"]["no_soundness_failures"] = False
        outcome = compare(old, new)
        assert any("no_soundness_failures" in r for r in outcome["regressions"])

    def test_missing_seed_warns_when_allowed(self):
        rows = run_batch(0, 6)
        old = self._doc(rows)
        new = self._doc(rows[:-1])
        hard = compare(old, new)
        soft = compare(old, new, allow_missing=True)
        assert any("missing" in r for r in hard["regressions"])
        assert not soft["regressions"]
        assert any("missing" in w for w in soft["warnings"])

    def test_regress_cli_dispatch(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as cli_main

        rows = run_batch(0, 5)
        doc = self._doc(rows)
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        write_bench(str(old_path), doc)
        bad = copy.deepcopy(doc)
        seed = next(iter(bad["rows"]))
        bad["rows"][seed]["outcome"] = "error"
        bad["invariants"]["all_terminal"] = False
        write_bench(str(new_path), bad)

        assert cli_main(["regress", str(old_path), str(old_path)]) == 0
        assert cli_main(["regress", str(old_path), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "outcome flips: 1" in out
