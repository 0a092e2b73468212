"""Correlators of the product of all node outcomes: the numpy oracle module.

Three routes to the same number: a per-source factorized product (fast, any
size), a full statevector expectation (oracle, capped at 6 sources), and a
Born-rule outcome distribution whose signed sum recovers the correlator.
The global qubit convention is fixed by the layout: source r owns qubits
2(r-1) and 2(r-1)+1, assigned to its first and second edge endpoint.

Only this module imports numpy, for the two oracles and their matrices
(bloch_matrix, source_state); `import nlocalnet` and the CLI never load it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, ResourceLimitError
from .quantum import (BlochObservable, MeasurementPlan, SettingAssignment,
                      check_plan, extremal_observable, pair_expectation)
from .topology import (INTERMEDIATE, AttachmentMap, NetworkConfig, NodeId,
                       attachments, extremal_nodes, intermediate_nodes)

STATEVECTOR_MAX_SOURCES = 6


def bloch_matrix(obs: BlochObservable) -> np.ndarray:
    """2x2 Hermitian matrix of v . sigma in the computational basis."""
    return np.array(
        [[obs.vz, obs.vx - 1j * obs.vy],
         [obs.vx + 1j * obs.vy, -obs.vz]],
        dtype=complex)


def source_state(theta: float) -> np.ndarray:
    """Amplitudes (cos theta, 0, 0, sin theta) over the basis 00, 01, 10, 11."""
    return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)


def _require_inputs(config: NetworkConfig, thetas: Sequence[float],
                    plan: MeasurementPlan,
                    assignment: SettingAssignment) -> AttachmentMap:
    attach = attachments(config)  # validates the layout
    if len(thetas) != config.n:
        raise ConfigurationError(f"need {config.n} source angles, got {len(thetas)}")
    check_plan(config, plan)
    assignment.check(config)
    return attach


def _qubit_observable(plan: MeasurementPlan, attach: AttachmentMap,
                      assignment: SettingAssignment, node: NodeId,
                      source: int) -> BlochObservable:
    if node.kind == INTERMEDIATE:
        factors = plan.intermediate[node][assignment.x[node]]
        slot = attach.intermediate[node].index(source)
        return factors[slot]
    return extremal_observable(plan.alphas[node], assignment.y[node])


def correlator_factorized(config: NetworkConfig, thetas: Sequence[float],
                          plan: MeasurementPlan,
                          assignment: SettingAssignment) -> float:
    """Product over sources of the two-qubit expectation each source contributes."""
    attach = _require_inputs(config, thetas, plan, assignment)
    value = 1.0
    for r in range(1, config.n + 1):
        u, v = config.edges[r]
        obs_u = _qubit_observable(plan, attach, assignment, u, r)
        obs_v = _qubit_observable(plan, attach, assignment, v, r)
        value *= pair_expectation(thetas[r - 1], obs_u, obs_v)
    return value


def _check_statevector_size(config: NetworkConfig) -> None:
    if config.n > STATEVECTOR_MAX_SOURCES:
        raise ResourceLimitError(
            f"statevector route supports at most {STATEVECTOR_MAX_SOURCES} "
            f"sources, got {config.n}")


def _full_state(config: NetworkConfig, thetas: Sequence[float]) -> np.ndarray:
    psi = np.array([1.0 + 0.0j])
    for r in range(1, config.n + 1):
        psi = np.kron(psi, source_state(thetas[r - 1]))
    return psi


def _qubit_owners(config: NetworkConfig) -> list[NodeId]:
    owners: list[NodeId] = []
    for r in range(1, config.n + 1):
        owners.extend(config.edges[r])
    return owners


def _apply_single_qubit(op: np.ndarray, psi: np.ndarray, position: int,
                        qubits: int) -> np.ndarray:
    tensor = psi.reshape((2,) * qubits)
    tensor = np.tensordot(op, tensor, axes=([1], [position]))
    return np.moveaxis(tensor, 0, position).reshape(-1)


def correlator_statevector(config: NetworkConfig, thetas: Sequence[float],
                           plan: MeasurementPlan,
                           assignment: SettingAssignment) -> float:
    """Expectation of the full product observable on the 2n-qubit state."""
    _check_statevector_size(config)
    attach = _require_inputs(config, thetas, plan, assignment)
    qubits = 2 * config.n
    psi = _full_state(config, thetas)
    phi = psi
    for g, node in enumerate(_qubit_owners(config)):
        obs = _qubit_observable(plan, attach, assignment, node, g // 2 + 1)
        phi = _apply_single_qubit(bloch_matrix(obs), phi, g, qubits)
    return float(np.vdot(psi, phi).real)


def joint_distribution(config: NetworkConfig, thetas: Sequence[float],
                       plan: MeasurementPlan,
                       assignment: SettingAssignment
                       ) -> dict[tuple[int, ...], float]:
    """Born-rule distribution over node outcome bits, intermediate nodes first.

    Every qubit is measured in the eigenbasis of its single-qubit factor; an
    intermediate node reports the parity of its qubit outcomes (the eigenvalue
    of its product observable, encoded as a bit), an extremal node its single
    outcome.  Keys run over all {0,1}^(l+p) tuples (a_1..a_l, b_1..b_p).
    """
    _check_statevector_size(config)
    attach = _require_inputs(config, thetas, plan, assignment)
    qubits = 2 * config.n
    phi = _full_state(config, thetas)
    owners = _qubit_owners(config)
    for g, node in enumerate(owners):
        obs = _qubit_observable(plan, attach, assignment, node, g // 2 + 1)
        _, eigvecs = np.linalg.eigh(bloch_matrix(obs))
        basis = eigvecs[:, ::-1]  # column 0 holds the +1 eigenvector (outcome bit 0)
        phi = _apply_single_qubit(basis.conj().T, phi, g, qubits)
    probs = np.abs(phi) ** 2

    nodes = intermediate_nodes(config) + extremal_nodes(config)
    positions: dict[NodeId, list[int]] = {node: [] for node in nodes}
    for g, node in enumerate(owners):
        positions[node].append(g)
    index = np.arange(probs.size)
    outcome_index = np.zeros(probs.size, dtype=np.int64)
    for node in nodes:
        bit = np.zeros(probs.size, dtype=np.int64)
        for g in positions[node]:
            bit ^= (index >> (qubits - 1 - g)) & 1
        outcome_index = (outcome_index << 1) | bit
    width = len(nodes)
    masses = np.bincount(outcome_index, weights=probs, minlength=2 ** width)
    return {
        tuple((code >> (width - 1 - k)) & 1 for k in range(width)): float(masses[code])
        for code in range(2 ** width)
    }


def distribution_correlator(distribution: Mapping[tuple[int, ...], float]) -> float:
    """Signed sum (-1)^(number of 1 outcomes) over a joint outcome distribution."""
    return sum((-1.0) ** sum(outcome) * mass
               for outcome, mass in distribution.items())
