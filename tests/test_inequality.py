import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_config, random_instance, run_fresh
from nlocalnet import (InvalidParameterError, NetworkConfig, NodeId,
                       ResourceLimitError, build_chain, build_star, build_tree,
                       closed_form_S, closed_form_smax, evaluate_S, parse_config,
                       sweep, validate)
from nlocalnet.cli import main
from nlocalnet.topology import EXTREMAL, INTERMEDIATE, MAX_SOURCES
from oracles import (ENUMERATION_MAX_EXTREMAL, correlator_factorized,
                     evaluate_S_from_correlator, signed_y_average)

PI = math.pi
angles = st.floats(min_value=0.0, max_value=2 * PI,
                   allow_nan=False, allow_infinity=False)


def test_I0_is_product_of_cosines():
    for config in (build_chain(3), build_star(3), build_tree(5, 3)):
        thetas = [0.3 + 0.2 * r for r in range(config.n)]
        alphas = [0.4 + 0.3 * j for j in range(config.p)]
        value = evaluate_S(config, thetas, alphas).i0
        expected = math.prod(math.cos(a) for a in alphas)
        assert value == pytest.approx(expected, abs=1e-12)


def test_I1_is_product_of_sines():
    for config in (build_chain(3), build_star(4)):
        thetas = [0.2 + 0.25 * r for r in range(config.n)]
        alphas = [0.5 + 0.2 * j for j in range(config.p)]
        value = evaluate_S(config, thetas, alphas).i1
        expected = (math.prod(math.sin(a) for a in alphas)
                    * math.prod(math.sin(2 * t) for t in thetas))
        assert value == pytest.approx(expected, abs=1e-12)


def test_I1_vanishes_for_zero_alphas():
    config = build_chain(2)
    alphas = [0.0, 0.0]
    assert evaluate_S(config, [0.8, 1.7], alphas).i1 == 0.0

    def corr(assignment):
        return correlator_factorized(config, [0.8, 1.7], alphas, assignment)

    # the mixed input x = 0 under the I1 sign, through the oracle
    assert signed_y_average(corr, config, 1, (0,)) == 0.0


def test_maximal_violation_chain2():
    config = build_chain(2)
    result = evaluate_S(config, [PI / 4, PI / 4], [PI / 4, PI / 4])
    assert result.s == pytest.approx(math.sqrt(2), abs=1e-12)
    assert result.violated
    assert result.s == pytest.approx(
        abs(result.i0) ** 0.5 + abs(result.i1) ** 0.5, abs=1e-12)


def test_no_violation_with_product_source():
    config = build_star(3)
    result = evaluate_S(config, [0.0, PI / 4, PI / 4], [0.3, 0.9, 1.2])
    assert result.s <= 1.0
    assert not result.violated


def test_star3_closed_form_value():
    # S at the optimal common angle atan(sqrt(3)/2) for three pi/6 sources
    config = build_star(3)
    alpha = math.atan(math.sqrt(3) / 2)
    result = evaluate_S(config, [PI / 6] * 3, [alpha] * 3)
    expected = math.sqrt(1 + (3 * math.sqrt(3) / 8) ** (2 / 3))
    assert expected == pytest.approx(math.sqrt(7) / 2, abs=1e-12)
    assert result.s == pytest.approx(expected, abs=1e-10)


def test_closed_form_S_examples():
    assert closed_form_S([0.7, 1.1], [0.0, 0.0], 2) == 1.0
    assert closed_form_S([PI / 4] * 3, [PI / 4] * 3, 3) \
        == pytest.approx(math.sqrt(2), abs=1e-12)
    assert closed_form_S([PI / 6, PI / 6], [PI / 3, PI / 3], 2) \
        == pytest.approx(1.25, abs=1e-12)
    with pytest.raises(InvalidParameterError,
                       match="need exactly p = 2 extremal angles, got 3"):
        closed_form_S([0.7, 1.1], [0.0, 0.0, 0.0], 2)


def test_closed_form_smax_examples():
    smax, alpha = closed_form_smax([PI / 4, PI / 4], 2)
    assert smax == pytest.approx(math.sqrt(2), abs=1e-12)
    assert alpha == pytest.approx(PI / 4, abs=1e-12)
    smax, alpha = closed_form_smax([0.0, 1.2, 0.4], 2)
    assert smax == 1.0 and alpha == 0.0
    smax, alpha = closed_form_smax([PI / 6, PI / 6], 2)
    assert smax == pytest.approx(math.sqrt(7) / 2, abs=1e-12)
    assert alpha == pytest.approx(math.atan(math.sqrt(3) / 2), abs=1e-12)
    for p in (0, -1):
        with pytest.raises(InvalidParameterError,
                           match=f"extremal node count p must be positive, got {p}$"):
            closed_form_smax([PI / 4, PI / 4], p)


def test_evaluate_matches_closed_form_on_random_instances():
    rng = np.random.default_rng(1905)
    for _ in range(40):
        config, thetas, alphas, _ = random_instance(rng)
        result = evaluate_S(config, thetas, alphas)
        assert result.s == closed_form_S(thetas, alphas, config.p)


def test_evaluate_matches_closed_form_six_sources():
    rng = np.random.default_rng(66)
    for config in (build_chain(6), build_star(6), build_tree(6, 2)):
        thetas = rng.uniform(0, 2 * PI, size=config.n).tolist()
        alphas = rng.uniform(0, 2 * PI, size=config.p).tolist()
        result = evaluate_S(config, thetas, alphas)
        assert result.s == closed_form_S(thetas, alphas, config.p)


@given(angles, angles, angles, angles)
@settings(max_examples=60, deadline=None)
def test_chain2_evaluate_matches_closed_form(t1, t2, a1, a2):
    config = build_chain(2)
    result = evaluate_S(config, [t1, t2], [a1, a2])
    assert result.s == closed_form_S([t1, t2], [a1, a2], 2)


def test_equal_angle_optimum_dominates_random_angles():
    rng = np.random.default_rng(77)
    thetas = [0.5, 1.0]
    smax, alpha_star = closed_form_smax(thetas, 2)
    best_random = max(closed_form_S(thetas, [a, a], 2)
                      for a in rng.uniform(0, 2 * PI, size=1000))
    assert smax >= best_random - 1e-12
    config = build_chain(2)
    assert evaluate_S(config, thetas, [alpha_star, alpha_star]).s \
        == pytest.approx(smax, abs=1e-10)


def test_smax_iff_entangled_and_monotone():
    grid = [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2]
    for t1 in grid:
        for t2 in grid:
            smax, _ = closed_form_smax([t1, t2], 2)
            entangled = min(abs(math.sin(2 * t1)), abs(math.sin(2 * t2))) > 1e-12
            assert (smax > 1.0 + 1e-9) == entangled
            assert smax >= 1.0
    # monotone in each |sin 2 theta| with the other fixed
    values = [closed_form_smax([t, 0.6], 2)[0] for t in (0.1, 0.2, 0.3, PI / 4)]
    assert values == sorted(values)


def test_factorized_route_matches_enumeration_oracle():
    # Random extremal angles and sources on chains, stars and trees: each
    # kind of per-source factor is exercised.
    rng = np.random.default_rng(2016)
    layouts = ([build_chain(n) for n in range(2, 8)]
               + [build_star(n) for n in range(2, 8)]
               + [build_tree(n, m) for n, m in
                  ((4, 2), (5, 3), (4, 4), (6, 2), (7, 3), (7, 4))])
    for _ in range(100):
        config = layouts[int(rng.integers(0, len(layouts)))]
        thetas = rng.uniform(0.0, 2.0 * PI, size=config.n).tolist()
        alphas = rng.uniform(0.0, 2.0 * PI, size=config.p).tolist()

        def corr(assignment):
            return correlator_factorized(config, thetas, alphas, assignment)

        fast = evaluate_S(config, thetas, alphas)
        slow = evaluate_S_from_correlator(corr, config)
        assert abs(fast.i0 - slow.i0) <= 1e-12
        assert abs(fast.i1 - slow.i1) <= 1e-12
        assert abs(fast.s - slow.s) <= 1e-12
        assert fast.violated == slow.violated


def test_enumeration_oracle_is_capped():
    config = build_star(25)
    assert config.p > ENUMERATION_MAX_EXTREMAL

    def never(assignment):
        raise AssertionError("the oracle enumerated past its cap")

    for k in (0, 1):
        with pytest.raises(ResourceLimitError):
            signed_y_average(never, config, k, (k,))
    with pytest.raises(InvalidParameterError, match="sign exponent k must be 0 or 1, got 2"):
        signed_y_average(never, config, 2, (0,))
    with pytest.raises(ResourceLimitError):
        evaluate_S_from_correlator(never, config)


@pytest.mark.parametrize("config", [build_star(200), build_chain(1000),
                                    build_tree(199, 3)],
                         ids=["star200", "chain1000", "tree199_3"])
def test_evaluate_S_scales_to_large_layouts(config):
    rng = np.random.default_rng(config.n)
    thetas = rng.uniform(0.1, PI / 2 - 0.1, size=config.n).tolist()
    alphas = rng.uniform(0.1, PI / 2 - 0.1, size=config.p).tolist()
    start = time.perf_counter()
    result = evaluate_S(config, thetas, alphas)
    elapsed = time.perf_counter() - start
    assert result.s == pytest.approx(closed_form_S(thetas, alphas, config.p),
                                     abs=1e-10)
    assert elapsed < 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_evaluate_rejects_non_finite_angles(bad):
    config = build_chain(2)
    alphas = [0.3, 0.4]
    with pytest.raises(InvalidParameterError):
        evaluate_S(config, [0.5, bad], alphas)
    with pytest.raises(InvalidParameterError):
        evaluate_S(config, [bad, 0.5], alphas)
    # finite, but 2 theta overflows inside sin(2 theta)
    with pytest.raises(InvalidParameterError, match="not finite"):
        evaluate_S(config, [0.5, 1e308], alphas)
    with pytest.raises(InvalidParameterError, match="need 2 source angles, got 3"):
        evaluate_S(config, [0.5, 0.6, bad], alphas)
    with pytest.raises(InvalidParameterError, match="extremal angles must be finite"):
        evaluate_S(config, [0.5, 0.6], [0.3, bad])
    for count in (1, 3):
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"need one extremal angle per extremal node (2), got {count}")):
            evaluate_S(config, [0.5, 0.6], [0.3] * count)


@pytest.mark.parametrize("label, call", [
    ("source", lambda: evaluate_S(build_chain(3), [10 ** 400, 0.2, 0.3], [0.1, 0.2])),
    ("extremal", lambda: evaluate_S(build_chain(3), [0.1, 0.2, 0.3], [10 ** 400, 0.2])),
    ("extremal", lambda: closed_form_S([0.1], [10 ** 400], 1)),
    ("source", lambda: closed_form_smax([-10 ** 400], 2)),
    ("source", lambda: sweep(build_chain(3), [10 ** 400])),
], ids=["evaluate_S-theta", "evaluate_S-alpha", "closed_form_S", "closed_form_smax",
        "sweep"])
def test_an_int_too_large_for_a_double_is_not_a_finite_angle(label, call):
    with pytest.raises(InvalidParameterError, match=re.escape(
            f"{label} angles must be finite, got a value too large for a double")):
        call()


@pytest.mark.parametrize("kind, args", [("star", (5,)), ("tree", (7, 3))],
                         ids=["star5", "tree7_3"])
def test_evaluate_S_builds_no_observable(kind, args):
    """The closed form is plain arithmetic: evaluate_S loads no numpy,
    and its answer is the closed form's."""
    code = """if True:
        import sys
        import nlocalnet
        config = getattr(nlocalnet, "build_" + sys.argv[1])(*map(int, sys.argv[2:]))
        result = nlocalnet.evaluate_S(config, [0.4] * config.n, [0.3] * config.p)
        s = nlocalnet.closed_form_S([0.4] * config.n, [0.3] * config.p, config.p)
        print(result.s == s,
              sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
    """
    done = run_fresh(code, kind, *map(str, args))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True []"


# float.hex of (I0, I1, S) per layout; a reordered product changes them.
PINNED_BITS = {
    "chain3": ("-0x1.8a0423a83c833p-5", "0x1.2543137642902p-2",
               "0x1.8249353e04caep-1"),
    "star4": ("-0x1.80cd63b403bb1p-4", "0x1.efa3ed35ca5a0p-10",
              "0x1.86390ec617a9fp-1"),
    "tree7_3": ("-0x1.d697c16336df3p-8", "0x1.32780b7029376p-11",
                "0x1.3247d19f41debp-1"),
}


@pytest.mark.parametrize("name, config", [("chain3", build_chain(3)),
                                          ("star4", build_star(4)),
                                          ("tree7_3", build_tree(7, 3))],
                         ids=["chain3", "star4", "tree7_3"])
def test_evaluate_S_bits_are_pinned(name, config):
    """Exact bits, so a reordered product shows even where rounding hides it."""
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, 2.0 * PI, size=config.n).tolist()
    alphas = rng.uniform(0.0, 2.0 * PI, size=config.p).tolist()
    result = evaluate_S(config, thetas, alphas)
    assert (result.i0.hex(), result.i1.hex(), result.s.hex()) == PINNED_BITS[name]
    assert not result.violated


# A tree(7, 3) written through `generate custom` with its sources, A's and
# B's renumbered and some endpoints swapped: B_j no longer meets source j.
RELABELLED_EDGES = [
    {"source": 1, "ends": ["A1", "B4"]}, {"source": 2, "ends": ["A2", "B3"]},
    {"source": 3, "ends": ["A2", "A3"]}, {"source": 4, "ends": ["A3", "B2"]},
    {"source": 5, "ends": ["A1", "A2"]}, {"source": 6, "ends": ["B1", "A1"]},
    {"source": 7, "ends": ["B5", "A3"]}]
RELABELLED_BITS = ("-0x1.d697c16336df3p-8", "0x1.32780b7029376p-11",
                   "0x1.3247d19f41debp-1")


def test_evaluate_S_bits_are_pinned_on_a_relabelled_layout(tmp_path):
    """The layout enters only through its validity and p: these bits are
    tree7_3's in PINNED_BITS."""
    topo = tmp_path / "relabelled.json"
    assert main(["generate", "custom", "--n", "7", "--m", "3", "--p", "5",
                 "--edges", json.dumps(RELABELLED_EDGES), "--output", str(topo)]) == 0
    config = parse_config(topo.read_text())
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, 2.0 * PI, size=config.n).tolist()
    alphas = rng.uniform(0.0, 2.0 * PI, size=config.p).tolist()
    result = evaluate_S(config, thetas, alphas)
    assert (result.i0.hex(), result.i1.hex(), result.s.hex()) == RELABELLED_BITS
    assert not result.violated


def relabelled(config, rng):
    """config with its sources, A's and B's renumbered at random and the two
    ends of about half its sources swapped."""
    sources = (rng.permutation(config.n) + 1).tolist()
    labels = {INTERMEDIATE: (rng.permutation(config.l) + 1).tolist(),
              EXTREMAL: (rng.permutation(config.p) + 1).tolist()}
    edges = {}
    for r, ends in config.edges.items():
        ends = tuple(NodeId(node.kind, labels[node.kind][node.index - 1])
                     for node in ends)
        edges[sources[r - 1]] = ends[::-1] if rng.integers(2) else ends
    return config._replace(edges=edges)


# tree(7, 3) joins its three A's at A3; here they form a path A1 - A2 - A3.
PATH_7_3_5 = NetworkConfig(n=7, m=3, p=5, edges={
    1: (NodeId.extremal(1), NodeId.intermediate(1)),
    2: (NodeId.extremal(2), NodeId.intermediate(1)),
    3: (NodeId.intermediate(1), NodeId.intermediate(2)),
    4: (NodeId.extremal(3), NodeId.intermediate(2)),
    5: (NodeId.intermediate(2), NodeId.intermediate(3)),
    6: (NodeId.extremal(4), NodeId.intermediate(3)),
    7: (NodeId.extremal(5), NodeId.intermediate(3))})


def test_evaluate_S_is_the_closed_form_on_every_layout():
    """On a valid layout, evaluate_S is closed_form_S bit for bit, and two
    layouts with the same n and p give the same bits: relabelled copies of
    random layouts, and tree(7, 3) against a layout of another shape."""
    rng = np.random.default_rng(2012)
    pairs = [(build_tree(7, 3), PATH_7_3_5)]
    for _ in range(100):
        config = random_config(rng, max_n=6)
        pairs.append((config, relabelled(config, rng)))
    for config, other in pairs:
        assert validate(other) == []
        assert (other.n, other.p) == (config.n, config.p)
        for _ in range(3):
            thetas = rng.uniform(-2.0 * PI, 2.0 * PI, size=config.n).tolist()
            alphas = rng.uniform(-2.0 * PI, 2.0 * PI, size=config.p).tolist()
            result = evaluate_S(config, thetas, alphas)
            assert result.s == closed_form_S(thetas, alphas, config.p)
            assert ([x.hex() for x in evaluate_S(other, thetas, alphas)[:3]]
                    == [x.hex() for x in result[:3]])


# Layouts whose I0 and I1 fall far below the double range (2^-1022).
@pytest.mark.parametrize("build, args, theta, alpha", [
    (build_star, (3000,), PI / 4, PI / 4),
    (build_star, (MAX_SOURCES,), 0.2 * PI, 0.3),
    (build_chain, (MAX_SOURCES,), 0.2 * PI, 0.3),
    (build_tree, (MAX_SOURCES - 1, 3), 0.2 * PI, 0.3),
], ids=["star3000", "star_max", "chain_max", "tree_max_3"])
def test_equal_angle_identity_holds_below_the_double_range(build, args, theta, alpha):
    """With theta on every source and alpha on every extremal node, I0 is
    cos(alpha)^p and I1 is sin(alpha)^p sin(2 theta)^n, so S is one power
    of sin(2 theta), with no product of factors."""
    config = build(*args)
    expected = (abs(math.cos(alpha))
                + abs(math.sin(alpha)) * abs(math.sin(2 * theta)) ** (config.n / config.p))
    thetas, alphas = [theta] * config.n, [alpha] * config.p
    result = evaluate_S(config, thetas, alphas)
    assert result.s == pytest.approx(expected, rel=1e-12)
    assert result.violated is (expected > 1.0 + 1e-9)
    assert closed_form_S(thetas, alphas, config.p) == pytest.approx(expected, rel=1e-12)
    smax, alpha_star = closed_form_smax(thetas, config.p)
    k_value = abs(math.sin(2 * theta)) ** (config.n / config.p)
    assert smax == pytest.approx(math.sqrt(1 + k_value ** 2), rel=1e-12)
    assert alpha_star == pytest.approx(math.atan(k_value), rel=1e-12)


@pytest.mark.parametrize("p", [2747, 2759])
def test_subnormal_ingredients_are_the_exact_power_rounded(p):
    """On star(p) at alpha = 0.7, I0 = cos(0.7)^p is a subnormal of a few
    bits, far coarser than the rounding of the factors: the reported I0 is
    the exact power rounded to a double, and I1 = sin(0.7)^p rounds to 0.0."""
    result = evaluate_S(build_star(p), [PI / 4] * p, [0.7] * p)
    assert 0.0 < result.i0 < 2.0 ** -1060
    assert result.i0 == float(Fraction(math.cos(0.7)) ** p)
    assert result.i1 == float(Fraction(math.sin(0.7)) ** p) == 0.0
    assert result.s == pytest.approx(math.cos(0.7) + math.sin(0.7), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_no_layout_exceeds_the_quantum_bound(seed):
    """S <= sqrt(2) on every layout and every angle choice (Hoelder), here
    on stars and trees of random size up to MAX_SOURCES sources, so up to
    about 10^5 extremal nodes, with random angles near pi/4, where S comes
    close to the bound and every factor is above 1/2."""
    rng = np.random.default_rng(seed)
    n = 2 * int(rng.integers(1000, MAX_SOURCES // 2)) - 1  # odd, as tree(n, 3) needs
    config = build_tree(n, 3) if seed % 2 else build_star(n)
    thetas = rng.uniform(0.2 * PI, 0.3 * PI, size=config.n).tolist()
    alphas = rng.uniform(0.2 * PI, 0.3 * PI, size=config.p).tolist()
    assert evaluate_S(config, thetas, alphas).s <= math.sqrt(2) + 1e-12
    assert closed_form_S(thetas, alphas, config.p) <= math.sqrt(2) + 1e-12
