"""End-to-end acceptance checks at their stated tolerances.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import math
import time

import numpy as np

from helpers import random_instance
from nlocalnet import (build_chain, build_star, build_tree, closed_form_S,
                       closed_form_smax, evaluate_S, lhv_best_S, sweep, validate)
from oracles import (concurrence, correlator_factorized, correlator_statevector,
                     distribution_correlator, joint_distribution, lhv_evaluate_S,
                     vertex_model)

PI = math.pi
SQRT2 = math.sqrt(2.0)


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"{name}{suffix}"


def test_criterion_1_maximal_violation():
    layouts = {
        "chain(2)": build_chain(2),
        "chain(4)": build_chain(4),
        "star(3)": build_star(3),
        "star(5)": build_star(5),
        "tree(15,3)": build_tree(15, 3),
    }
    passed = True
    details = []
    for name, config in layouts.items():
        start = time.perf_counter()
        result = evaluate_S(config, [PI / 4] * config.n, [PI / 4] * config.p)
        elapsed = time.perf_counter() - start
        ok = (abs(result.s - SQRT2) <= 1e-9 and result.violated
              and elapsed < 1.0)
        passed = passed and ok
        details.append(f"{name}: S={result.s:.12f} in {elapsed:.3f}s")
    _report("1 maximal violation sqrt(2) on five layouts", passed,
            "; ".join(details))


def test_criterion_2_no_violation_without_entanglement():
    config = build_chain(2)
    start = time.perf_counter()
    rows = sweep(config, [0.0, PI / 8, PI / 4])
    elapsed = time.perf_counter() - start
    checked = 0
    passed = elapsed < 1.0
    for combo, _, smax, violated in rows:
        if any(t == 0.0 for t in combo):
            checked += 1
            passed = passed and abs(smax - 1.0) <= 1e-9 and not violated
    passed = passed and checked > 0
    _report("2 no violation without entanglement", passed,
            f"{checked} grid rows with a product source, {elapsed:.3f}s")


def _random_instances(count):
    rng = np.random.default_rng(20250809)
    return [random_instance(rng) for _ in range(count)]


def test_criterion_3_oracle_equivalence():
    instances = _random_instances(220)
    start = time.perf_counter()
    worst = 0.0
    for config, thetas, alphas, assignment in instances:
        fast = correlator_factorized(config, thetas, alphas, assignment)
        exact = correlator_statevector(config, thetas, alphas, assignment)
        born = distribution_correlator(
            joint_distribution(config, thetas, alphas, assignment))
        worst = max(worst, abs(fast - exact), abs(fast - born),
                    abs(exact - born))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 30.0
    _report("3 oracle equivalence on 220 random instances", passed,
            f"worst pairwise gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_4_closed_form_match():
    instances = _random_instances(220)
    worst = 0.0
    for config, thetas, alphas, _ in instances:
        result = evaluate_S(config, thetas, alphas)
        worst = max(worst, abs(result.s - closed_form_S(thetas, alphas,
                                                        config.p)))
    passed = worst <= 1e-10
    _report("4 closed-form witness match on 220 random instances", passed,
            f"worst gap {worst:.3e}")


def test_criterion_5_stationarity_and_grid():
    rng = np.random.default_rng(991)
    grid = np.arange(0.0, 2 * PI, 1e-4)
    abs_cos = np.abs(np.cos(grid))
    abs_sin = np.abs(np.sin(grid))
    worst_derivative = 0.0
    worst_shortfall = 0.0
    configs = [build_chain(2), build_chain(3), build_star(3), build_tree(5, 3)]
    for trial in range(50):
        config = configs[trial % len(configs)]
        thetas = rng.uniform(0.0, 2 * PI, size=config.n).tolist()
        smax, alpha_star = closed_form_smax(thetas, config.p)

        def profile(alpha):
            return evaluate_S(config, thetas, [alpha] * config.p).s

        h = 1e-6
        derivative = abs(profile(alpha_star + h) - profile(alpha_star - h)) / (2 * h)
        worst_derivative = max(worst_derivative, derivative)

        k = abs(math.prod(math.sin(2 * t) for t in thetas)) ** (1.0 / config.p)
        grid_best = float(np.max(abs_cos + k * abs_sin))
        worst_shortfall = max(worst_shortfall, grid_best - smax)
    passed = worst_derivative < 1e-4 and worst_shortfall <= 1e-6
    _report("5 stationarity and grid-search dominance on 50 draws", passed,
            f"worst |dS/da| {worst_derivative:.2e}, "
            f"worst shortfall {worst_shortfall:.2e}")


def test_criterion_6_classical_bound_certification():
    passed = True
    details = []
    for name, config in (("chain(2)", build_chain(2)),
                         ("star(3)", build_star(3))):
        start = time.perf_counter()
        best = lhv_best_S(config)
        elapsed = time.perf_counter() - start
        reached = lhv_evaluate_S(config, vertex_model(config))
        ok = best == 1.0 and (reached.i0, reached.i1) == (1.0, 0.0) and elapsed < 300.0
        passed = passed and ok
        details.append(f"{name}: bestS={best:.9f} in {elapsed:.1f}s")
    _report("6 classical bound reached by the vertex model", passed,
            "; ".join(details))


def test_criterion_7_violation_iff_all_sources_entangled():
    config = build_chain(3)
    grid = [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2]
    start = time.perf_counter()
    rows = sweep(config, grid)
    elapsed = time.perf_counter() - start
    passed = len(rows) == 125 and elapsed < 10.0
    for combo, _, _, violated in rows:
        entangled = all(concurrence(t) > 1e-12 for t in combo)
        passed = passed and (violated == entangled)
    _report("7 violation iff every source is entangled", passed,
            f"125 grid rows, {elapsed:.2f}s")


def test_criterion_8_topology_arithmetic():
    checks = [
        (build_chain(2), 1, 2),
        (build_chain(4), 3, 2),
        (build_star(3), 1, 3),
        (build_star(5), 1, 5),
        (build_tree(15, 3), 7, 9),
    ]
    passed = True
    for config, expect_l, expect_p in checks:
        passed = passed and config.l == expect_l and config.p == expect_p
        passed = passed and validate(config) == []
    _report("8 constructor counts and clean validation", passed,
            "chain l=n-1, star l=1, tree(15,3) p=9 l=7")
