import csv
import inspect
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlocalnet import (VIOLATION_TOLERANCE, InvalidParameterError,
                       NetworkConfig, ResourceLimitError, build_chain,
                       build_star, build_tree, closed_form_S,
                       closed_form_smax, evaluate_S, sweep)
from nlocalnet.inequality import MAX_SWEEP_ROWS

PI = math.pi


def equal_angle_profile(config, thetas):
    def profile(alpha):
        return evaluate_S(config, thetas, [alpha] * config.p).s
    return profile


def test_equal_angle_matches_fine_grid():
    rng = np.random.default_rng(31)
    alphas = np.arange(0.0, 2 * PI, 1e-4)
    for _ in range(10):
        thetas = rng.uniform(0, 2 * PI, size=3)
        smax, _ = closed_form_smax(thetas, 2)
        k = abs(np.prod(np.sin(2 * thetas))) ** 0.5
        grid_best = float(np.max(np.abs(np.cos(alphas))
                                 + k * np.abs(np.sin(alphas))))
        assert abs(smax - grid_best) < 1e-6
        assert smax >= grid_best - 1e-6


def test_stationarity_at_equal_angle_optimum():
    config = build_chain(2)
    thetas = [0.9, 0.4]
    _, alpha_star = closed_form_smax(thetas, config.p)
    profile = equal_angle_profile(config, thetas)
    h = 1e-6
    derivative = (profile(alpha_star + h) - profile(alpha_star - h)) / (2 * h)
    assert abs(derivative) < 1e-4


angles = st.floats(-10.0, 10.0, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(layout=st.sampled_from([build_chain(2), build_chain(5), build_chain(8),
                               build_star(3), build_star(6), build_tree(5, 3),
                               build_tree(7, 4)]),
       data=st.data())
def test_equal_angle_optimum_bounds_every_per_node_choice(layout, data):
    # Hoelder: no choice of per-node extremal angles beats the common angle.
    thetas = data.draw(st.lists(angles, min_size=layout.n, max_size=layout.n))
    alphas = data.draw(st.lists(angles, min_size=layout.p, max_size=layout.p))
    smax, alpha_star = closed_form_smax(thetas, layout.p)
    assert closed_form_S(thetas, alphas, layout.p) <= smax + 1e-12
    assert evaluate_S(layout, thetas, alphas).s <= smax + 1e-12
    assert evaluate_S(layout, thetas, [alpha_star] * layout.p).s \
        == pytest.approx(smax, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda: closed_form_smax([math.nan, 0.3], 2),
    lambda: closed_form_S([0.3, 0.4], [math.inf, 0.2], 2),
    lambda: sweep(build_chain(2), [math.nan]),
    # finite angles whose 2 theta overflows inside sin(2 theta)
    lambda: closed_form_smax([0.3, 1e308], 2),
    lambda: closed_form_S([-1e308, 0.4], [0.1, 0.2], 2),
    lambda: sweep(build_chain(2), [0.1, 1e308]),
], ids=["closed_form_smax", "closed_form_S", "sweep", "closed_form_smax-1e308",
        "closed_form_S-1e308", "sweep-1e308"])
def test_library_entry_points_reject_non_finite_angles(call):
    with pytest.raises(InvalidParameterError, match="finite"):
        call()


def test_closed_forms_refuse_a_network_with_no_source():
    # An empty product is 1, which would read as a violation: sqrt(2) and 1.409.
    with pytest.raises(InvalidParameterError, match="at least one source angle"):
        closed_form_smax([], 2)
    with pytest.raises(InvalidParameterError, match="at least one source angle"):
        closed_form_S([], [0.7, 0.7], 2)


def test_sweep_returns_the_table_and_takes_no_sink():
    assert list(inspect.signature(sweep).parameters) == ["config", "theta_grid"]


def test_sweep_row_cap_accepts_the_benchmark_size_and_rejects_more():
    grid = [0.1 * k for k in range(10)]
    with pytest.raises(ResourceLimitError, match=r"needs 10\^10 rows"):
        sweep(build_star(10), grid)
    assert 10 ** 10 > MAX_SWEEP_ROWS
    assert len(sweep(build_star(5), grid[:9])) == 9 ** 5


def test_sweep_rows_and_csv():
    config = build_chain(2)
    grid = [0.0, PI / 8, PI / 4]
    sink = io.StringIO()
    rows = sweep(config, grid)
    rows.write(sink)
    assert len(rows) == 9
    by_combo = {combo: (alpha, smax, violated)
                for combo, alpha, smax, violated in rows}
    alpha, smax, violated = by_combo[(PI / 4, PI / 4)]
    assert smax == pytest.approx(math.sqrt(2), abs=1e-12)
    assert violated
    _, smax0, violated0 = by_combo[(0.0, 0.0)]
    assert smax0 == 1.0 and not violated0
    for combo, alpha, smax, violated in rows:
        expected_smax, expected_alpha = closed_form_smax(combo, config.p)
        assert smax == pytest.approx(expected_smax, abs=1e-12)
        assert alpha == pytest.approx(expected_alpha, abs=1e-12)
    text = sink.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "theta_1,theta_2,alpha_star,smax,violated"
    assert len(lines) == 10
    assert lines[1] == "0,0,0,1,false"


def test_sweep_row_order_is_grid_order():
    config = build_chain(2)
    rows = sweep(config, [0.1, 0.2])
    combos = [combo for combo, *_ in rows]
    assert combos == [(0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.2, 0.2)]
    # an array, which has no truth value, is a grid as well
    assert list(sweep(config, np.array([0.1, 0.2]))) == list(rows)


# A float zero and a negative zero, negative angles, pi/4, a repeated value
# and a Python int.  tree(7, 3) takes five of them, since 8^7 rows are above
# the cap.
EXACT_GRID = [0.0, -0.0, -0.3, -1.1, PI / 4, 0.7, 0.7, 2]
TREE7_GRID = [0.0, -0.0, -1.1, 0.7, 2]
# A sine of 1e-200: products of heads fall below 2^-1022, so the rows are
# keyed by the exact (mantissa, exponent) of each product.
TINY_GRID = EXACT_GRID + [5e-201]


def permuted_heads_differ(grid):
    """Whether some three sines from the grid multiply to another last bit
    once sorted, so that a sweep keyed by the sorted head would be wrong."""
    sines = [math.sin(2.0 * t) for t in grid]
    return any(math.prod(head) != math.prod(sorted(head))
               for head in itertools.product(sines, repeat=3))


@pytest.mark.parametrize("config, grid", [
    (build_chain(3), EXACT_GRID), (build_star(4), EXACT_GRID),
    (build_tree(5, 3), EXACT_GRID), (build_tree(7, 3), TREE7_GRID),
    (build_star(4), TINY_GRID),
], ids=["chain3", "star4", "tree5_3", "tree7_3", "star4-tiny"])
def test_sweep_is_closed_form_smax_row_by_row(config, grid):
    assert permuted_heads_differ(grid)
    sink = io.StringIO()
    rows = sweep(config, grid)
    rows.write(sink)
    expected = []
    for combo in itertools.product(grid, repeat=config.n):
        smax, alpha = closed_form_smax(combo, config.p)
        expected.append((combo, alpha, smax, smax > 1.0 + VIOLATION_TOLERANCE))
    assert list(rows) == expected  # exact float equality, not approx
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow([f"theta_{r}" for r in range(1, config.n + 1)]
                    + ["alpha_star", "smax", "violated"])
    for combo, alpha, smax, violated in expected:
        writer.writerow([f"{x:.9g}" for x in combo]
                        + [f"{alpha:.9g}", f"{smax:.9g}", "true" if violated else "false"])
    assert sink.getvalue() == reference.getvalue()


class CountingSink:
    """A sink that keeps only the number of writes and characters."""

    def __init__(self):
        self.writes = 0
        self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        return len(text)


def test_sweep_holds_no_table_and_writes_in_blocks():
    config, grid = build_chain(5), [0.1 * k for k in range(10)]
    rows = sweep(config, grid)
    assert len(rows) == 10 ** 5  # before any row is made
    assert list(rows) == list(rows)
    sink = CountingSink()
    tracemalloc.start()
    try:
        sweep(config, grid).write(sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert sink.writes <= 10 ** 5 // 1000 + 2
    text = io.StringIO()
    sweep(config, grid).write(text)
    assert sink.chars == len(text.getvalue())


@pytest.mark.parametrize("config, grid, error", [
    (build_chain(3), [0.2, math.nan, 0.4], InvalidParameterError),
    (build_chain(3), [0.2, 0.3, -math.inf], InvalidParameterError),
    (build_chain(3), [], InvalidParameterError),
    (NetworkConfig(n=2, m=2, p=0, edges={}), [0.2], InvalidParameterError),
    (NetworkConfig(n=0, m=2, p=2, edges={}), [0.1], InvalidParameterError),
    (NetworkConfig(n=3, m=2, p=1, edges={}), [0.1], InvalidParameterError),
    (build_chain(6), [0.1 * k for k in range(11)], ResourceLimitError),
], ids=["nan", "inf", "empty", "p0", "n0", "no-edges", "cap"])
def test_sweep_checks_before_the_first_byte(config, grid, error):
    """sweep runs every check before it returns the table, so nothing can
    fail once a caller opens a file to write the table to."""
    with pytest.raises(error):
        sweep(config, grid)
