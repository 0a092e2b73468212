"""Bloch-vector observables, the Pauli settings and input assignments.

The settings are fixed but for p angles.  Every qubit of an intermediate
node is measured in sigma_z for input 0 and in sigma_x for input 1, so the
node measures the all-sigma_z or the all-sigma_x product.  Extremal node B_j
measures cos(alpha_j) sigma_z + (-1)^y sin(alpha_j) sigma_x for input y, so
the extremal angles alpha_1..alpha_p, listed B1..Bp, are the whole
measurement choice.

Pure Python: the Pauli-measurement value needs no matrices.  The oracles'
matrices and source amplitudes are in correlators (bloch_matrix, source_state).
inequality.evaluate_S builds none of these objects: it has each source's
factor in closed form, so only the oracles and the tests load this module.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError
from .topology import NetworkConfig, NodeId, extremal_nodes, intermediate_nodes


class _BlochVector(NamedTuple):
    vx: float
    vy: float
    vz: float


class BlochObservable(_BlochVector):
    """A dichotomic observable v . sigma for a unit 3-vector v (eigenvalues +1, -1).

    A named tuple (vx, vy, vz) whose every constructor, _make and _replace
    included, checks that v has unit length.
    """

    __slots__ = ()

    def __new__(cls, vx: float, vy: float, vz: float) -> "BlochObservable":
        norm_sq = vx * vx + vy * vy + vz * vz
        if not abs(norm_sq - 1.0) <= 1e-12:  # also rejects a NaN component
            raise InvalidParameterError(
                f"Bloch vector must have unit length, got |v|^2 = {norm_sq!r}")
        return tuple.__new__(cls, (vx, vy, vz))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> "BlochObservable":
        return cls(*iterable)  # the inherited _make, which _replace calls, skips __new__


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


class SettingAssignment(NamedTuple):
    """Chosen input bit for every node."""

    x: Mapping[NodeId, int]
    y: Mapping[NodeId, int]

    @classmethod
    def from_bits(cls, config: NetworkConfig, x_bits: Sequence[int],
                  y_bits: Sequence[int]) -> "SettingAssignment":
        inter = intermediate_nodes(config)
        extr = extremal_nodes(config)
        if len(x_bits) != len(inter) or len(y_bits) != len(extr):
            raise InvalidParameterError(
                f"assignment needs {len(inter)} intermediate and "
                f"{len(extr)} extremal input bits")
        for bit in (*x_bits, *y_bits):
            if bit not in (0, 1):
                raise InvalidParameterError(f"input bits must be 0 or 1, got {bit!r}")
        return cls(x={node: int(b) for node, b in zip(inter, x_bits)},
                   y={node: int(b) for node, b in zip(extr, y_bits)})

    def check(self, config: NetworkConfig) -> None:
        """Raise InvalidParameterError unless every node has an input bit."""
        for nodes, bits in ((intermediate_nodes(config), self.x),
                            (extremal_nodes(config), self.y)):
            missing = [node.name for node in nodes if node not in bits]
            if missing:
                raise InvalidParameterError(f"assignment lacks an input for {missing[0]}")

