"""Shared builders for randomized test instances."""

import numpy as np

from nlocalnet import (BlochObservable, MeasurementPlan, SettingAssignment,
                       build_chain, build_star, build_tree, canonical_plan,
                       extremal_nodes, intermediate_nodes)

# Valid (n, m) tree parameters with n <= 5.
TREE_CHOICES = [(4, 2), (5, 2), (5, 3), (3, 3), (4, 4)]


def random_config(rng: np.random.Generator, max_n: int = 5):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return build_chain(int(rng.integers(2, max_n + 1)))
    if kind == 1:
        return build_star(int(rng.integers(2, max_n + 1)))
    n, m = TREE_CHOICES[int(rng.integers(0, len(TREE_CHOICES)))]
    return build_tree(n, m)


def random_instance(rng: np.random.Generator, max_n: int = 5):
    """A random layout with random angles, plan, and input assignment."""
    config = random_config(rng, max_n)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=config.n).tolist()
    alphas = rng.uniform(0.0, 2.0 * np.pi, size=config.p).tolist()
    plan = canonical_plan(config, alphas)
    x_bits = [int(b) for b in rng.integers(0, 2, size=config.l)]
    y_bits = [int(b) for b in rng.integers(0, 2, size=config.p)]
    assignment = SettingAssignment.from_bits(config, x_bits, y_bits)
    return config, thetas, alphas, plan, assignment


def random_bloch(rng: np.random.Generator) -> BlochObservable:
    v = rng.normal(size=3)
    return BlochObservable(*(v / np.linalg.norm(v)).tolist())


def random_plan(rng: np.random.Generator, config) -> MeasurementPlan:
    """A plan with a random unit Bloch direction for every intermediate factor."""
    inter = {node: tuple(tuple(random_bloch(rng) for _ in range(config.m))
                         for _ in range(2))
             for node in intermediate_nodes(config)}
    alphas = {node: float(a) for node, a in
              zip(extremal_nodes(config), rng.uniform(0.0, 2.0 * np.pi, size=config.p))}
    return MeasurementPlan(intermediate=inter, alphas=alphas)
