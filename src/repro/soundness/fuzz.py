"""Randomized soundness fuzzing CLI.

    python -m repro.soundness.fuzz                    # quick pass, seed 0
    python -m repro.soundness.fuzz --seed 1234        # replay a CI seed
    python -m repro.soundness.fuzz --suite autodiff   # one suite only
    REPRO_FUZZ_LONG=1 python -m repro.soundness.fuzz  # 20x examples
    python -m repro.soundness.fuzz --rounds 0         # loop forever

Each round runs the property suites below with a printed seed (so any
failure is replayable with ``REPRO_PROPERTY_SEED=<seed>`` or
``--seed``); a failing property greedily shrinks its counterexample and
dumps a JSON repro under ``results/soundness_repros/`` before exiting
nonzero.

Suites
------
``exact``     rational LDL^T / Gram-expansion invariants of the exact
              checker's arithmetic core, and ``find_psd_shift``'s
              witnesses vs the LDL^T-only shift ladder.
``autodiff``  Tape replay vs naive backward on random small networks
              (bitwise agreement).
``verifier``  SOS verifier vs interval branch-and-prune on random
              quadratic candidates over a decaying system family
              (one-sided: an SOS proof must never be refuted by a
              concrete interval witness).
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from repro.soundness import strategies as st
from repro.soundness.rational import (
    find_psd_shift,
    gram_polynomial,
    ldlt_psd,
    ldlt_psd_shift,
    rationalize_matrix,
)

#: a positive scale with a 102-bit denominator: multiplying a Gram by it
#: keeps its PSD-ness and makes it wider than the positive witness's grid
WIDEN = Fraction(3**64 + 1, 3**64)


# ----------------------------------------------------------------------
# suite: exact arithmetic core
# ----------------------------------------------------------------------
def _prop_ldlt_accepts_psd(Q) -> None:
    R = rationalize_matrix(np.array(Q, dtype=float), None)
    assert ldlt_psd(R), "exact LDL^T rejected a PSD-by-construction matrix"


def _prop_ldlt_rejects_shifted(Q) -> None:
    Qf = np.array(Q, dtype=float)
    # push the matrix strictly indefinite: subtract more than its largest
    # eigenvalue on one diagonal entry
    shift = float(np.linalg.eigvalsh(Qf)[-1]) + 1.0
    Qf[0, 0] -= shift
    R = rationalize_matrix(Qf, None)
    assert not ldlt_psd(R), "exact LDL^T accepted an indefinite matrix"


def _prop_gram_expansion_matches_float(Q) -> None:
    from repro.poly.monomials import monomials_upto

    size = len(Q)
    n_vars = 2
    basis = monomials_upto(n_vars, 2)[:size]
    R = rationalize_matrix(np.array(Q, dtype=float), None)
    p = gram_polynomial(basis, R, n_vars)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(16, n_vars))
    mono = np.stack(
        [np.prod(pts**np.array(a, dtype=float), axis=1) for a in basis]
    )
    want = np.einsum("ik,ij,jk->k", mono, np.array(Q, dtype=float), mono)
    got = p.to_polynomial()(pts)
    assert np.allclose(got, want, atol=1e-8), (
        f"gram expansion drifted from float evaluation "
        f"(max {np.max(np.abs(got - want))})"
    )


def _near_singular_case() -> st.Strategy:
    # (PD source, rank kept, diagonal offset): offsets straddle the
    # float noise of a rank-deficient product, so draws land on exactly
    # PD, tiny-negativity (one ladder rung) and hopeless matrices
    return st.tuples(
        st.psd_matrices(4),
        st.integers(1, 4),
        st.sampled_from([0.0, 1e-13, -1e-15, -1e-12, -1e-9, -1e-6, -10.0]),
    )


def _prop_psd_witness_agrees(case) -> None:
    Q, rank, offset = case
    A = np.array(Q, dtype=float)[:, :rank]
    R = rationalize_matrix(A @ A.T + offset * np.eye(len(Q)), None)
    R = [[q * WIDEN for q in row] for row in R]
    got, want = find_psd_shift(R), ldlt_psd_shift(R)
    assert got == want, (
        f"find_psd_shift returned {got}, the LDL^T-only ladder {want}"
    )


def run_exact_suite(seed: int, n_examples: int) -> int:
    grams = st.psd_matrices(3)
    total = 0
    total += st.run_property(
        "exact-ldlt-accepts-psd", grams, _prop_ldlt_accepts_psd,
        n_examples=n_examples, seed=seed,
    )
    total += st.run_property(
        "exact-ldlt-rejects-indefinite", grams, _prop_ldlt_rejects_shifted,
        n_examples=n_examples, seed=seed + 1,
    )
    total += st.run_property(
        "exact-gram-expansion", grams, _prop_gram_expansion_matches_float,
        n_examples=n_examples, seed=seed + 2,
    )
    total += st.run_property(
        "exact-psd-witness-agrees", _near_singular_case(),
        _prop_psd_witness_agrees, n_examples=n_examples, seed=seed + 3,
    )
    return total


# ----------------------------------------------------------------------
# suite: tape vs naive autodiff
# ----------------------------------------------------------------------
def _network_case() -> st.Strategy:
    # (n_in, n_hidden, batch, activation index, scale)
    return st.tuples(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(0, 3),
        st.floats(0.1, 2.0),
    )


def _prop_tape_matches_naive(case) -> None:
    from repro.autodiff import Tensor
    from repro.soundness.oracles import compare_tape_gradients

    n_in, n_hidden, batch, act, scale = case
    rng = np.random.default_rng(abs(hash(case)) % (2**32))
    W1 = Tensor(scale * rng.normal(size=(n_in, n_hidden)), requires_grad=True)
    b1 = Tensor(rng.normal(size=(1, n_hidden)), requires_grad=True)
    W2 = Tensor(rng.normal(size=(n_hidden, 1)), requires_grad=True)
    X = Tensor(rng.normal(size=(batch, n_in)))

    def build():
        h = X @ W1 + b1
        h = (h.tanh(), h.sigmoid(), h.relu(), h.exp())[act]
        return ((h @ W2) ** 2.0).mean()

    dis = compare_tape_gradients(build, [W1, b1, W2], dump=False)
    assert not dis, "; ".join(str(d) for d in dis)


def run_autodiff_suite(seed: int, n_examples: int) -> int:
    return st.run_property(
        "tape-vs-naive", _network_case(), _prop_tape_matches_naive,
        n_examples=n_examples, seed=seed,
    )


# ----------------------------------------------------------------------
# suite: SOS vs interval verifier
# ----------------------------------------------------------------------
def _quadratic_case() -> st.Strategy:
    # (PD quadratic Gram over [1, x, y], decay rate)
    return st.tuples(st.psd_matrices(2), st.floats(0.2, 2.0))


def _prop_sos_never_refuted(case) -> None:
    from repro.dynamics import CCDS, ControlAffineSystem
    from repro.poly import Polynomial
    from repro.sets import Box
    from repro.soundness.oracles import compare_verifiers
    from repro.verifier.interval_verifier import IntervalVerifierConfig
    from repro.verifier.sos_verifier import VerifierConfig

    Q, rate = case
    x, y = Polynomial.variables(2)
    system = ControlAffineSystem.autonomous([-rate * x, -rate * y])
    prob = CCDS(
        system,
        theta=Box.cube(2, -0.3, 0.3, name="theta"),
        psi=Box.cube(2, -2.0, 2.0, name="psi"),
        xi=Box.cube(2, 1.5, 2.0, name="xi"),
        name="fuzz-decay",
    )
    # candidate: 1 - x^T Q x / q(1.2, 1.2) — nonnegative near the origin,
    # negative on the unsafe corner box; SOS accepts many but not all
    q = (
        Q[0][0] * x * x + (Q[0][1] + Q[1][0]) * x * y + Q[1][1] * y * y
    )
    level = float(q(np.array([[1.2, 1.2]]))[0])
    if level <= 0.0:
        return  # degenerate draw; nothing to check
    B = Polynomial.constant(2, 1.0) - q * (1.0 / level)
    cmp = compare_verifiers(
        prob,
        B,
        sos_config=VerifierConfig(),
        interval_config=IntervalVerifierConfig(
            max_boxes_per_check=5000, time_limit_per_check=10.0
        ),
        dump=False,
    )
    assert cmp.ok, "; ".join(str(d) for d in cmp.disagreements)


def run_verifier_suite(seed: int, n_examples: int) -> int:
    return st.run_property(
        "sos-vs-interval", _quadratic_case(), _prop_sos_never_refuted,
        n_examples=n_examples, seed=seed,
    )


SUITES = {
    "exact": run_exact_suite,
    "autodiff": run_autodiff_suite,
    "verifier": run_verifier_suite,
}

#: per-suite quick example counts (scaled by REPRO_FUZZ_LONG)
QUICK_EXAMPLES = {"exact": 25, "autodiff": 25, "verifier": 5}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.soundness.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--suite", choices=["all", *SUITES], default="all",
        help="which suite to run (default all)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help=f"base seed (default: ${st.SEED_ENV} or 0)",
    )
    parser.add_argument(
        "--examples", type=int, default=None,
        help="examples per property (default: per-suite quick count, "
             f"x20 under ${st.FUZZ_LONG_ENV})",
    )
    parser.add_argument(
        "--rounds", type=int, default=1,
        help="fuzz rounds; each round advances the seed (0 = loop forever)",
    )
    args = parser.parse_args(argv)

    base_seed = st.resolve_seed(0) if args.seed is None else args.seed
    names = list(SUITES) if args.suite == "all" else [args.suite]

    round_index = 0
    while True:
        seed = base_seed + 1000 * round_index
        for name in names:
            n = (
                args.examples
                if args.examples is not None
                else st.fuzz_examples(QUICK_EXAMPLES[name])
            )
            print(f"[fuzz] suite={name} seed={seed} examples={n} "
                  f"(replay: {st.SEED_ENV}={seed})", flush=True)
            try:
                ran = SUITES[name](seed, n)
            except st.PropertyFailure as exc:
                print(f"[fuzz] FAILED\n{exc}", file=sys.stderr)
                return 1
            print(f"[fuzz] suite={name} ok ({ran} examples)", flush=True)
        round_index += 1
        if args.rounds and round_index >= args.rounds:
            break
    print(f"[fuzz] all suites passed ({round_index} round(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
