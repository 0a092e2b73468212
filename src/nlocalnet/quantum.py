"""Bloch-vector observables, measurement plans and input assignments.

Pure Python: the Pauli-measurement value needs no matrices.  The oracles'
matrices and source amplitudes are in correlators (bloch_matrix, source_state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError, InvalidParameterError
from .topology import NetworkConfig, NodeId, extremal_nodes, intermediate_nodes


@dataclass(frozen=True)
class BlochObservable:
    """A dichotomic observable v . sigma for a unit 3-vector v (eigenvalues +1, -1)."""

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        norm_sq = self.vx * self.vx + self.vy * self.vy + self.vz * self.vz
        if not abs(norm_sq - 1.0) <= 1e-12:  # also rejects a NaN component
            raise InvalidParameterError(
                f"Bloch vector must have unit length, got |v|^2 = {norm_sq!r}")


PAULI_X = BlochObservable(1.0, 0.0, 0.0)
PAULI_Z = BlochObservable(0.0, 0.0, 1.0)


def concurrence(theta: float) -> float:
    """Entanglement of the source state, |sin 2 theta|: 0 product, 1 maximal."""
    return abs(math.sin(2.0 * theta))


def extremal_observable(alpha: float, y: int) -> BlochObservable:
    """Single-qubit setting cos(alpha) sigma_z + (-1)^y sin(alpha) sigma_x."""
    sign = -1.0 if y & 1 else 1.0
    return BlochObservable(sign * math.sin(alpha), 0.0, math.cos(alpha))


def pair_expectation(theta: float, first: BlochObservable,
                     second: BlochObservable) -> float:
    """Expectation of first (x) second on the source state of angle theta.

    Equals the trace of the 4x4 product observable against the source
    projector; reduces to vz.vz + sin(2 theta) (vx.vx - vy.vy) because the
    state is supported on the 00/11 plane.
    """
    return (first.vz * second.vz
            + math.sin(2.0 * theta) * (first.vx * second.vx - first.vy * second.vy))


@dataclass(frozen=True)
class MeasurementPlan:
    """Per-node settings for one experiment.

    intermediate maps a node to its two product observables (input 0, input 1),
    each a tuple with one single-qubit factor per attached source in ascending
    source order.  alphas maps an extremal node to the angle of its setting
    family: input y measures cos(alpha) sigma_z + (-1)^y sin(alpha) sigma_x.
    """

    intermediate: Mapping[NodeId, tuple[tuple[BlochObservable, ...],
                                        tuple[BlochObservable, ...]]]
    alphas: Mapping[NodeId, float]


@dataclass(frozen=True)
class SettingAssignment:
    """Chosen input bit for every node."""

    x: Mapping[NodeId, int]
    y: Mapping[NodeId, int]

    @classmethod
    def from_bits(cls, config: NetworkConfig, x_bits: Sequence[int],
                  y_bits: Sequence[int]) -> "SettingAssignment":
        inter = intermediate_nodes(config)
        extr = extremal_nodes(config)
        if len(x_bits) != len(inter) or len(y_bits) != len(extr):
            raise ConfigurationError(
                f"assignment needs {len(inter)} intermediate and "
                f"{len(extr)} extremal input bits")
        for bit in (*x_bits, *y_bits):
            if bit not in (0, 1):
                raise ConfigurationError(f"input bits must be 0 or 1, got {bit!r}")
        return cls(x={node: int(b) for node, b in zip(inter, x_bits)},
                   y={node: int(b) for node, b in zip(extr, y_bits)})

    def check(self, config: NetworkConfig) -> None:
        """Raise ConfigurationError unless every node has an input bit."""
        for nodes, bits in ((intermediate_nodes(config), self.x),
                            (extremal_nodes(config), self.y)):
            missing = [node.name for node in nodes if node not in bits]
            if missing:
                raise ConfigurationError(f"assignment lacks an input for {missing[0]}")


def check_finite(label: str, values: Iterable[float]) -> None:
    """Raise InvalidParameterError if any of the angles is infinite or NaN."""
    for value in values:
        if not math.isfinite(value):
            raise InvalidParameterError(f"{label} angles must be finite, got {value!r}")


def canonical_plan(config: NetworkConfig, alphas: Sequence[float]) -> MeasurementPlan:
    """The standard plan: all-sigma_z products for input 0, all-sigma_x for input 1.

    The layout may be unvalidated; an m above n (no valid layout has one)
    is refused before any node's m factors are built.
    """
    if len(alphas) != config.p:
        raise InvalidParameterError(
            f"need one extremal angle per extremal node ({config.p}), got {len(alphas)}")
    if config.m > config.n:
        raise ConfigurationError(
            f"particles per intermediate node m={config.m} exceeds source count n={config.n}")
    check_finite("extremal", alphas)
    zs = (PAULI_Z,) * config.m
    xs = (PAULI_X,) * config.m
    inter = {node: (zs, xs) for node in intermediate_nodes(config)}
    alpha_map = {node: float(a) for node, a in zip(extremal_nodes(config), alphas)}
    return MeasurementPlan(intermediate=inter, alphas=alpha_map)


def check_plan(config: NetworkConfig, plan: MeasurementPlan) -> None:
    """Raise ConfigurationError unless the plan covers the layout exactly."""
    for node in intermediate_nodes(config):
        if node not in plan.intermediate:
            raise ConfigurationError(f"plan lacks observables for node {node.name}")
        pair = plan.intermediate[node]
        if len(pair) != 2 or any(len(factors) != config.m for factors in pair):
            raise ConfigurationError(
                f"node {node.name} needs {config.m} observable factors per input")
    for node in extremal_nodes(config):
        if node not in plan.alphas:
            raise ConfigurationError(f"plan lacks an angle for node {node.name}")
