"""Acceptance gate: eleven criteria, each printing one pass/fail line.

Every criterion pins a documented tolerance and runtime budget.  The line
prints through the capture so the verdicts appear in plain pytest output;
the assertions after each line are what actually gate the suite.
"""

import json
import math
import time

import numpy as np
import pytest

from eoflab import (
    Case1Spec,
    EofOptions,
    case1_suite,
    check_case1,
    check_case2,
    check_flagged_identity,
    check_ssa,
    check_strong_concavity,
    check_weak_additivity,
    classical_spec,
    eof_minimize,
    eof_pure,
    eof_wootters_2q,
    hjw_ensemble,
    mix,
    probe_question1,
    probe_question2,
    reevaluate_argmin,
    spectral_entropy,
    superadditivity_probe,
    two_block_spec,
    werner_state,
)
from eoflab.statezoo import random_density_dims, random_isometry, random_pure


def report(capsys, number, label, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPT {number:02d} {label}: {verdict} "
              f"({detail}, {elapsed:.1f}s < {budget:.0f}s)")


def note(capsys, number, text):
    with capsys.disabled():
        print(f"ACCEPT {number:02d} note: {text}")


def test_criterion_01_flagged_identity(capsys):
    t0 = time.perf_counter()
    rep = check_flagged_identity(samples=100, dims=(2, 3, 4), members=(2, 3, 4),
                                 seed=0)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.max_abs_residual < 1e-9 and dt < 5.0
    report(capsys, 1, "flagged-identity", ok,
           f"max|residual|={rep.max_abs_residual:.2e}", dt, 5)
    assert ok


def test_criterion_02_strong_concavity(capsys):
    t0 = time.perf_counter()
    rep = check_strong_concavity(samples=100, seed=0)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.min_gap >= -1e-9 and dt < 10.0
    report(capsys, 2, "strong-concavity", ok, f"min_gap={rep.min_gap:.2e}",
           dt, 10)
    assert ok


def test_criterion_03_strong_subadditivity(capsys):
    t0 = time.perf_counter()
    rep = check_ssa(samples=100, dims=(2, 2, 2), seed=0)
    dt = time.perf_counter() - t0
    eq = rep.extra["product_equality_residual"]
    ok = rep.passed and rep.min_gap >= -1e-9 and eq <= 1e-9 and dt < 10.0
    report(capsys, 3, "strong-subadditivity", ok,
           f"min_gap={rep.min_gap:.2e}, product-equality={eq:.2e}", dt, 10)
    assert ok


def test_criterion_04_ensemble_round_trip(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng([40, k])
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(4, d) + 1))
        m = int(rng.integers(rank, 13))
        rho = random_density_dims((d,), rank, rng)
        ens = hjw_ensemble(rho, random_isometry(m, rank, rng))
        worst = max(worst, float(np.abs(mix(ens).mat - rho.mat).max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 5.0
    report(capsys, 4, "ensemble-round-trip", ok, f"max error={worst:.2e}", dt, 5)
    assert ok


def test_criterion_05_two_qubit_oracle(capsys):
    t0 = time.perf_counter()
    states = [werner_state(2, phi) for phi in (-1.0, -0.5, -0.2, 0.0)]
    for k in range(21):
        rng = np.random.default_rng([50, k])
        states.append(random_density_dims((2, 2), int(rng.integers(2, 5)), rng))
    worst = 0.0
    for k, rho in enumerate(states):
        est = eof_minimize(rho, (0,), EofOptions(restarts=20, ensemble_size=8,
                                                 seed=k))
        worst = max(worst, abs(est.value - eof_wootters_2q(rho)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 300.0
    report(capsys, 5, "two-qubit-oracle", ok,
           f"25 states, worst |minimize-closed|={worst:.2e}", dt, 300)
    assert ok


def test_criterion_06_rank_one_matches_pure(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng([60, k])
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        psi = random_pure((d1, d2), rng)
        est = eof_minimize(psi.to_density(), (0,), EofOptions(restarts=2, seed=k))
        worst = max(worst, abs(est.value - eof_pure(psi, (0,))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 5.0
    report(capsys, 6, "rank-one-pure", ok, f"worst deviation={worst:.2e}", dt, 5)
    assert ok


def test_criterion_07_doubled_schmidt_suite(capsys):
    t0 = time.perf_counter()
    suite = case1_suite(samples=20, shapes=((2, 2), (2, 3), (3, 2), (3, 3)),
                        seed=0, slack=1e-3)
    bell = check_case1(Case1Spec(np.full((2, 2), 0.25)))
    classical = check_case1(Case1Spec(np.diag([0.5, 0.5])))
    dt = time.perf_counter() - t0
    landmarks = (
        abs(bell.extra["entropy_pair"] - 2.0) < 1e-9
        and abs(bell.extra["eof_ab"] - 1.0) < 1e-9
        and abs(bell.extra["eof_a_prime_b_prime"] - 1.0) < 1e-9
        and abs(classical.extra["entropy_pair"] - 1.0) < 1e-9
        and abs(classical.extra["eof_ab"]) < 1e-9
        and abs(classical.extra["eof_a_prime_b_prime"]) < 1e-9
    )
    ok = (suite.passed and suite.max_abs_residual < 1e-9
          and suite.min_gap >= -1e-3 and landmarks and dt < 600.0)
    report(capsys, 7, "doubled-schmidt-suite", ok,
           f"20 specs, max|identity residual|={suite.max_abs_residual:.2e}, "
           f"min_gap={suite.min_gap:.2e}, landmarks 2=1+1 and 1=1+0", dt, 600)
    assert ok


def test_criterion_08_flagged_mixture_suite(capsys):
    t0 = time.perf_counter()
    example = check_case2(two_block_spec(0.5, 3), two_block_spec(0.5, 3),
                          opts=EofOptions(restarts=6, ensemble_size=8, seed=5),
                          decomposition_samples=20, members=8,
                          member_slack=2e-3, slack=2e-2, seed=0)
    analogue = check_case2(classical_spec([0.5, 0.5]), classical_spec([0.5, 0.5]),
                           opts=EofOptions(restarts=6, ensemble_size=8, seed=5),
                           decomposition_samples=20, members=8,
                           member_slack=2e-3, slack=2e-2, seed=0)
    dt = time.perf_counter() - t0
    ok = (example.passed and example.min_gap >= -2e-3
          and abs(example.extra["additivity_residual"]) <= 2e-2
          and analogue.passed
          and abs(analogue.extra["additivity_residual"]) <= 2e-2
          and dt < 1800.0)
    report(capsys, 8, "flagged-mixture-suite", ok,
           f"member min_gap={example.min_gap:.2e}, additivity residual "
           f"example={example.extra['additivity_residual']:.2e} "
           f"analogue={analogue.extra['additivity_residual']:.2e}", dt, 1800)
    assert ok


def test_criterion_09_weak_additivity(capsys):
    t0 = time.perf_counter()
    rep = check_weak_additivity(pairs=10, seed=0, slack=2e-3)
    dt = time.perf_counter() - t0
    # the factor terms are the closed forms of the pairs the check draws,
    # and the warm start achieves their sum, so no gap is below rounding
    closed_form = True
    for entry in rep.per_sample:
        rng = np.random.default_rng([0, entry["sample"]])
        rho_a, rho_b = random_density_dims((2, 2), 2, rng), random_density_dims((2, 2), 2, rng)
        closed_form &= (entry["eof_a"] == eof_wootters_2q(rho_a)
                        and entry["eof_b"] == eof_wootters_2q(rho_b))
    ok = rep.passed and rep.min_gap >= -1e-12 and closed_form and dt < 1800.0
    report(capsys, 9, "weak-additivity", ok,
           f"10 pairs, closed-form terms, min(sum - product)={rep.min_gap:.2e}", dt, 1800)
    assert ok


def test_criterion_10_probes(capsys):
    t0 = time.perf_counter()
    spec = two_block_spec(0.5, 3)
    structured = [
        superadditivity_probe(source="case1", trials=100, seed=0),
        probe_question1(spec, spec, trials=100, members=8, seed=0),
        probe_question2(spec, spec, trials=100, members=8, seed=0),
    ]
    deterministic = (
        superadditivity_probe(source="case1", trials=100, seed=0).to_json()
        == structured[0].to_json())
    redone = reevaluate_argmin(json.loads(structured[0].to_json())["argmin"])
    reproducible = abs(redone - structured[0].min_gap) < 1e-9

    random_runs = [
        superadditivity_probe(source="random", trials=100, seed=0),
        probe_question1(trials=100, members=8, seed=0),
        probe_question2(trials=100, members=8, seed=0),
    ]
    dt = time.perf_counter() - t0
    ok = (all(not r.violation_found for r in structured)
          and deterministic and reproducible
          and all(abs(reevaluate_argmin(r.argmin) - r.min_gap) < 1e-9
                  for r in random_runs)
          and dt < 1800.0)
    report(capsys, 10, "probes", ok,
           "structured inputs clean, reports deterministic, argmins reproduce",
           dt, 1800)
    for r in random_runs:
        if r.violation_found:
            note(capsys, 10,
                 f"finding: {r.name} violated on random inputs "
                 f"(min_gap={r.min_gap:.3f}, reproducible from argmin) - "
                 "reported, not a failure")
    assert ok


def test_criterion_11_werner_family(capsys):
    # Vollbrecht & Werner, PRA 64, 062307 (2001): for flip expectation
    # phi < 0, E_f = h((1 - sqrt(1 - phi^2)) / 2), the first exact check past
    # two qubits.  The full-rank states at d = 4 and 5 need the auto
    # ensemble size above rank (m = 32 and 50).
    t0 = time.perf_counter()
    worst = 0.0
    for d in (3, 4, 5):
        for phi in (-1.0, -0.6, -0.3):
            est = eof_minimize(werner_state(d, phi), (0,), EofOptions(restarts=4, seed=0))
            x = (1.0 - math.sqrt(1.0 - phi * phi)) / 2.0
            exact = spectral_entropy([x, 1.0 - x], floor=0.0)
            worst = max(worst, abs(est.value - exact))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 60.0
    report(capsys, 11, "werner-family", ok,
           f"d=3,4,5 x phi=-1,-0.6,-0.3, worst |minimize-closed|={worst:.2e}", dt, 60)
    assert ok
