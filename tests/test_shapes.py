"""Every acyclic shape with at most 5 intermediate nodes of 2 to 5 particles:
the paper's (n, m, p) configuration covers centerless and asymmetric
networks, not only the chain, star and layered tree that the builders make.
"""

import itertools
import math

import networkx as nx
import numpy as np
import pytest

from helpers import acyclic_shapes, incidence_graph, relabelled
from nlocalnet import (InvalidParameterError, NodeId, closed_form_S, closed_form_smax,
                       evaluate_S, lhv_best_S, sweep, validate)
from nlocalnet.inequality import violates
from nlocalnet.topology import EXTREMAL, INTERMEDIATE, check_layout
from oracles import (STATEVECTOR_MAX_SOURCES, SettingAssignment, correlator_factorized,
                     correlator_statevector, input_correlators, lhv_evaluate_S,
                     vertex_model)

SHAPES = acyclic_shapes()
SHAPE_IDS = []
for _config in SHAPES:
    _same = [other for other in SHAPES[:len(SHAPE_IDS)]
             if (other.l, other.m) == (_config.l, _config.m)]
    SHAPE_IDS.append(f"l{_config.l}-m{_config.m}-{len(_same) + 1}")


def issues_from_networkx(config) -> list[str]:
    """The issues validate should report on a layout with valid counts whose
    ends are all intermediate or extremal nodes, derived from networkx."""
    graph = incidence_graph(config)
    issues = []
    if set(config.edges) != set(range(1, config.n + 1)):
        issues.append("edge map must assign exactly the sources 1..n")
    nodes = sorted({node for ends in config.edges.values() for node in ends})
    for kind, count, letter in ((INTERMEDIATE, config.l, "A"), (EXTREMAL, config.p, "B")):
        found = [node.name for node in nodes if node.kind == kind]
        if found != [f"{letter}{i}" for i in range(1, count + 1)]:
            issues.append(f"{kind} nodes must be exactly {letter}1..{letter}{count}, "
                          f"found {found}")
    for node in nodes:
        want = config.m if node.kind == INTERMEDIATE else 1
        if graph.degree(node.name) != want:
            issues.append(f"node {node.name} touches {graph.degree(node.name)} sources, "
                          f"expected {want}")
    if not nx.is_forest(graph):
        issues.append("the node/source incidence graph contains a cycle")
    components = nx.number_connected_components(graph)
    if components > 1:
        issues.append(f"the network is disconnected ({components} components)")
    return issues


def test_the_shapes_are_every_tree_up_to_five_intermediate_nodes():
    assert len(SHAPES) == 28
    assert sum(config.n <= 8 for config in SHAPES) == 11
    assert STATEVECTOR_MAX_SOURCES == 6
    assert sum(config.n <= 6 for config in SHAPES) == 9
    assert max(config.p for config in SHAPES) == 17
    for config in SHAPES:
        assert config.n == config.l * (config.m - 1) + 1
        assert config.p == config.l * (config.m - 2) + 2
    # no two shapes with the same m are isomorphic
    graphs = [(config.m, nx.Graph(incidence_graph(config))) for config in SHAPES]
    for i, (m, graph) in enumerate(graphs):
        assert not any(m == other_m and nx.is_isomorphic(graph, other)
                       for other_m, other in graphs[:i])


@pytest.mark.parametrize("index", range(len(SHAPES)), ids=SHAPE_IDS)
def test_every_shape_is_a_valid_layout_with_the_closed_form_witness(index):
    rng = np.random.default_rng(index)
    config = relabelled(SHAPES[index], rng)
    assert validate(config) == []
    check_layout(config)
    assert nx.is_tree(incidence_graph(config))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=config.n).tolist()
    alphas = rng.uniform(0.0, 2.0 * np.pi, size=config.p).tolist()
    result = evaluate_S(config, thetas, alphas)
    assert result.s == closed_form_S(thetas, alphas, config.p)
    # The enumeration over the 2^p extremal inputs: all-0 intermediate
    # inputs give I0, all-1 inputs I1 with the sign (-1)^(sum of y).
    inputs = np.arange(2 ** config.p)
    signs = 1.0 - 2.0 * (sum(inputs >> j for j in range(config.p)) & 1)
    for x_bit, ingredient, sign in ((0, result.i0, 1.0), (1, result.i1, signs)):
        values = input_correlators(config, thetas, alphas, x_bit)
        assert abs(float(np.mean(sign * values)) - ingredient) <= 1e-12
        for i in rng.integers(0, 2 ** config.p, size=4):
            y_bits = [int(i) >> (config.p - j) & 1 for j in range(1, config.p + 1)]
            assignment = SettingAssignment.from_bits(config, [x_bit] * config.l, y_bits)
            assert values[i] == correlator_factorized(config, thetas, alphas, assignment)


# A shape's sweep has at most this many rows: a grid of k points has k^n.
SWEEP_ROWS = 1024


@pytest.mark.parametrize("index", range(len(SHAPES)), ids=SHAPE_IDS)
def test_every_shape_sweeps_to_the_closed_form_row_by_row(index):
    rng = np.random.default_rng([index, 1])
    config = relabelled(SHAPES[index], rng)
    points = max(k for k in range(1, SWEEP_ROWS + 1) if k ** config.n <= SWEEP_ROWS)
    grid = rng.uniform(-math.pi, math.pi, size=points).tolist()
    if points > 1:
        grid[0] = 0.0  # so that some rows do not violate the bound
    rows = list(sweep(config, grid))
    combos = list(itertools.product(grid, repeat=config.n))
    assert len(rows) == len(combos)
    for row, combo in zip(rows, combos):
        smax, alpha_star = closed_form_smax(combo, config.p)
        # repr tells -0.0 from 0.0, so the row matches bit for bit
        assert repr(row) == repr((combo, alpha_star, smax, violates(smax)))


@pytest.mark.parametrize("index", range(len(SHAPES)), ids=SHAPE_IDS)
def test_every_shape_has_the_classical_bound_that_the_vertex_model_reaches(index):
    config = relabelled(SHAPES[index], np.random.default_rng([index, 2]))
    assert lhv_best_S(config) == 1.0
    reached = lhv_evaluate_S(config, vertex_model(config))
    assert (reached.i0, reached.i1) == (1.0, 0.0)


SMALL = [index for index, config in enumerate(SHAPES)
         if config.n <= STATEVECTOR_MAX_SOURCES]


@pytest.mark.parametrize("index", SMALL, ids=[SHAPE_IDS[index] for index in SMALL])
def test_every_small_shape_has_the_statevector_correlators(index):
    rng = np.random.default_rng([index, 3])
    config = relabelled(SHAPES[index], rng)
    for _ in range(4):
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=config.n).tolist()
        alphas = rng.uniform(0.0, 2.0 * np.pi, size=config.p).tolist()
        assignment = SettingAssignment.from_bits(
            config, rng.integers(0, 2, size=config.l).tolist(),
            rng.integers(0, 2, size=config.p).tolist())
        assert abs(correlator_statevector(config, thetas, alphas, assignment)
                   - correlator_factorized(config, thetas, alphas, assignment)) <= 1e-12


def damaged(config, damage: str, rng: np.random.Generator):
    edges = dict(config.edges)
    leaves = [r for r, ends in edges.items() if any(node.kind == EXTREMAL for node in ends)]
    if damage == "extremal end moved":
        # onto an intermediate node other than the leaf's own: that node
        # gains a source and the extremal node is gone
        r = leaves[int(rng.integers(0, len(leaves)))]
        own = next(node for node in edges[r] if node.kind == INTERMEDIATE)
        others = [NodeId.intermediate(i) for i in range(1, config.l + 1)
                  if NodeId.intermediate(i) != own]
        target = others[int(rng.integers(0, len(others)))]
        edges[r] = tuple(target if node.kind == EXTREMAL else node for node in edges[r])
    elif damage == "source added":
        nodes = sorted({node for ends in edges.values() for node in ends})
        u, v = rng.choice(len(nodes), size=2, replace=False)
        edges[config.n + 1] = (nodes[u], nodes[v])
    else:
        del edges[int(rng.integers(1, config.n + 1))]
    return config._replace(edges=edges)


DAMAGED = [(index, damage) for index, config in enumerate(SHAPES)
           for damage in ("extremal end moved", "source added", "source dropped")
           if damage != "extremal end moved" or config.l > 1]


@pytest.mark.parametrize("index, damage", DAMAGED,
                         ids=[f"{SHAPE_IDS[index]}-{damage}" for index, damage in DAMAGED])
def test_every_damaged_shape_reports_what_networkx_sees(index, damage):
    # The star (l = 1) has no other intermediate node to move an end to.
    rng = np.random.default_rng([index, len(damage)])
    config = damaged(relabelled(SHAPES[index], rng), damage, rng)
    issues = validate(config)
    assert issues
    assert issues == issues_from_networkx(config)
    with pytest.raises(InvalidParameterError) as excinfo:
        check_layout(config)
    assert str(excinfo.value) == "invalid network layout: " + "; ".join(issues)
