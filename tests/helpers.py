"""Shared test helpers: builders for randomized instances, and a runner for
code in a fresh interpreter."""

import itertools
import os
import subprocess
import sys

import networkx as nx
import numpy as np

from nlocalnet import (NetworkConfig, NodeId, build_chain, build_star, build_tree,
                       extremal_nodes, intermediate_nodes)
from oracles import LHVModel, SettingAssignment, attachments, lhv_evaluate_S

# Valid (n, m) tree parameters with n <= 5.
TREE_CHOICES = [(4, 2), (5, 2), (5, 3), (3, 3), (4, 4)]


def run_fresh(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run code with args in a fresh interpreter that sees this one's sys.path.

    Extra keyword arguments are set in the child's environment; stdout and
    stderr are captured as text, and the child is killed after 60 s.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def bits(array) -> tuple[bytes, ...]:
    """A 0/1 array of shape (2, width) as an LHVModel table of bytes rows."""
    return tuple(bytes(row) for row in np.asarray(array, dtype=np.uint8))


def random_config(rng: np.random.Generator, max_n: int = 5):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return build_chain(int(rng.integers(2, max_n + 1)))
    if kind == 1:
        return build_star(int(rng.integers(2, max_n + 1)))
    n, m = TREE_CHOICES[int(rng.integers(0, len(TREE_CHOICES)))]
    return build_tree(n, m)


def incidence_graph(config) -> nx.MultiGraph:
    """Nodes and sources as vertices, each labelled with its kind, and each
    source joined to its two ends; a MultiGraph keeps both edges of a source
    whose ends are one node."""
    graph = nx.MultiGraph()
    for r, ends in config.edges.items():
        graph.add_node(("S", r), kind="source")
        for node in ends:
            graph.add_node(node.name, kind=node.kind)
            graph.add_edge(("S", r), node.name)
    return graph


def acyclic_shapes(max_l: int = 5, max_m: int = 5) -> list[NetworkConfig]:
    """One layout of every shape with l <= max_l and 2 <= m <= max_m.

    With m fixed, a layout is fixed up to isomorphism by the tree that its l
    intermediate nodes form: a node of degree d in that tree gets m - d
    extremal leaves, so n = l(m - 1) + 1 and p = l(m - 2) + 2.  l = 1 is the
    star.  Sources between intermediate nodes come first, then the leaves.
    """
    shapes = []
    for l in range(1, max_l + 1):
        trees = list(nx.nonisomorphic_trees(l)) if l > 1 else [nx.empty_graph(1)]
        for m in range(2, max_m + 1):
            for tree in trees:
                if max(degree for _, degree in tree.degree) > m:
                    continue
                node = {u: NodeId.intermediate(u + 1) for u in tree}
                ends = [(node[u], node[v]) for u, v in sorted(tree.edges)]
                leaves = [node[u] for u in sorted(tree) for _ in range(m - tree.degree(u))]
                ends += [(NodeId.extremal(j), a) for j, a in enumerate(leaves, start=1)]
                shapes.append(NetworkConfig(n=len(ends), m=m, p=len(leaves),
                                            edges=dict(enumerate(ends, start=1))))
    return shapes


def relabelled(config: NetworkConfig, rng: np.random.Generator) -> NetworkConfig:
    """The layout with its sources, intermediate nodes and extremal nodes each
    renumbered at random, each source's ends in random order, and the edge
    map in random key order."""
    rename = {}
    for make, count in ((NodeId.intermediate, config.l), (NodeId.extremal, config.p)):
        rename.update({make(old): make(int(new))
                       for old, new in enumerate(rng.permutation(count) + 1, start=1)})
    numbers = rng.permutation(config.n) + 1
    edges = {}
    for r in rng.permutation(config.n) + 1:
        ends = [rename[node] for node in config.edges[int(r)]]
        edges[int(numbers[r - 1])] = tuple(ends[::-1] if rng.integers(0, 2) else ends)
    return config._replace(edges=edges)


def random_instance(rng: np.random.Generator, max_n: int = 5):
    """A random layout with random angles and input assignment."""
    config = random_config(rng, max_n)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=config.n).tolist()
    alphas = rng.uniform(0.0, 2.0 * np.pi, size=config.p).tolist()
    x_bits = [int(b) for b in rng.integers(0, 2, size=config.l)]
    y_bits = [int(b) for b in rng.integers(0, 2, size=config.p)]
    assignment = SettingAssignment.from_bits(config, x_bits, y_bits)
    return config, thetas, alphas, assignment


def random_lhv_model(rng: np.random.Generator, config, c: int,
                     partial: bool = False) -> LHVModel:
    """Dirichlet source weights (some set to 0 if partial) and random tables."""
    weights = {}
    for r in range(1, config.n + 1):
        w = rng.dirichlet(np.ones(c))
        if partial:
            w[rng.permutation(c)[:int(rng.integers(0, c))]] = 0.0
            w /= w.sum()
        weights[r] = tuple(float(v) for v in w)
    attach = attachments(config)
    inter = {node: bits(rng.integers(0, 2, size=(2, c ** len(attach[node])),
                                     dtype=np.uint8))
             for node in intermediate_nodes(config)}
    extr = {node: bits(rng.integers(0, 2, size=(2, c), dtype=np.uint8))
            for node in extremal_nodes(config)}
    return LHVModel(alphabet_size=c, weights=weights, intermediate=inter,
                    extremal=extr)


def brute_force_best_I(config, model: LHVModel) -> tuple[float, float]:
    """Largest |I0| and |I1| of the model over every intermediate table.

    The weights and extremal tables stay fixed.  Each candidate puts the same
    bit pattern in both rows of a table; the input-0 rows enter only I0 and
    the input-1 rows only I1, so the two maxima are taken independently.
    """
    inter = intermediate_nodes(config)
    patterns = [list(itertools.product((0, 1), repeat=len(model.intermediate[node][0])))
                for node in inter]
    best0 = best1 = 0.0
    for combo in itertools.product(*patterns):
        tables = {node: bits([row, row]) for node, row in zip(inter, combo)}
        result = lhv_evaluate_S(config, LHVModel(
            alphabet_size=model.alphabet_size, weights=model.weights,
            intermediate=tables, extremal=model.extremal))
        best0 = max(best0, abs(result.i0))
        best1 = max(best1, abs(result.i1))
    return best0, best1
