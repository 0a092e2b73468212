"""The correctness oracles that the tests hold the package to: the Pauli
settings, three correlator routes, the enumeration average, and a classical
model's checker, contraction and outcome distribution.  They use only public
names of nlocalnet, and no code of the closed-form contractions they check.

The settings are fixed but for p angles.  Every qubit of an intermediate
node is measured in sigma_z for input 0 and in sigma_x for input 1, so the
node measures the all-sigma_z or the all-sigma_x product.  Extremal node B_j
measures cos(alpha_j) sigma_z + (-1)^y sin(alpha_j) sigma_x for input y, so
the extremal angles alpha_1..alpha_p, listed B1..Bp, are the whole
measurement choice.  A SettingAssignment picks the input bit of every node.

Three routes give the product correlator of one assignment: a per-source
factorized product (any size), a full statevector expectation (capped at 6
sources), and a Born-rule outcome distribution whose signed sum recovers
the correlator.  The global qubit convention is fixed by the layout: source
r owns qubits 2(r-1) and 2(r-1)+1, assigned to its first and second edge
endpoint.  signed_y_average and evaluate_S_from_correlator enumerate the 2^p
extremal inputs of any correlator, quantum or classical (lhv_distribution);
the tests check inequality.evaluate_S against them.

The classical side holds the model checker validate_model and
lhv_evaluate_S, the factorized classical contraction of the lhv module
docstring: it sums one product per symbol tuple instead of enumerating the
inputs, and the tests check it against the enumeration of lhv_distribution.
Both visit only symbols of nonzero weight, under one cap on the symbol
tuples, MAX_SUPPORT_TUPLES.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from nlocalnet import (EvaluationResult, InvalidParameterError, LHVModel,
                       NetworkConfig, NodeId, ResourceLimitError, attachments,
                       extremal_nodes, intermediate_nodes)
from nlocalnet.inequality import check_angles
from nlocalnet.topology import INTERMEDIATE

STATEVECTOR_MAX_SOURCES = 6
# The enumeration oracle visits 2^p extremal inputs; refuse layouts beyond this.
ENUMERATION_MAX_EXTREMAL = 20
# Outcome bits l + p that lhv_distribution may key: it holds 2^(l+p) masses.
MAX_OUTCOME_BITS = 16
# Symbol tuples lhv_evaluate_S and lhv_distribution may sum over: the
# product of the support sizes.
MAX_SUPPORT_TUPLES = 2 ** 20


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


Correlator = Callable[[SettingAssignment], float]


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
                    alphas: Sequence[float], assignment: SettingAssignment) -> None:
    attachments(config)  # validates the layout
    check_angles(config, thetas, alphas)
    assignment.check(config)


def _qubit_observable(alphas: Sequence[float], assignment: SettingAssignment,
                      node: NodeId) -> BlochObservable:
    if node.kind == INTERMEDIATE:
        return PAULI_X if assignment.x[node] else PAULI_Z
    return extremal_observable(alphas[node.index - 1], assignment.y[node])


def correlator_factorized(config: NetworkConfig, thetas: Sequence[float],
                          alphas: Sequence[float],
                          assignment: SettingAssignment) -> float:
    """Product over sources of the two-qubit expectation each source contributes."""
    _require_inputs(config, thetas, alphas, assignment)
    value = 1.0
    for r in range(1, config.n + 1):
        u, v = config.edges[r]
        obs_u = _qubit_observable(alphas, assignment, u)
        obs_v = _qubit_observable(alphas, assignment, v)
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
                           alphas: Sequence[float],
                           assignment: SettingAssignment) -> float:
    """Expectation of the full product observable on the 2n-qubit state."""
    _check_statevector_size(config)
    _require_inputs(config, thetas, alphas, assignment)
    qubits = 2 * config.n
    psi = _full_state(config, thetas)
    phi = psi
    for g, node in enumerate(_qubit_owners(config)):
        obs = _qubit_observable(alphas, assignment, node)
        phi = _apply_single_qubit(bloch_matrix(obs), phi, g, qubits)
    return float(np.vdot(psi, phi).real)


def joint_distribution(config: NetworkConfig, thetas: Sequence[float],
                       alphas: Sequence[float],
                       assignment: SettingAssignment
                       ) -> dict[tuple[int, ...], float]:
    """Born-rule distribution over node outcome bits, intermediate nodes first.

    Every qubit is measured in the eigenbasis of its single-qubit factor; an
    intermediate node reports the parity of its qubit outcomes (the eigenvalue
    of its product observable, encoded as a bit), an extremal node its single
    outcome.  Keys run over all {0,1}^(l+p) tuples (a_1..a_l, b_1..b_p).
    """
    _check_statevector_size(config)
    _require_inputs(config, thetas, alphas, assignment)
    qubits = 2 * config.n
    phi = _full_state(config, thetas)
    owners = _qubit_owners(config)
    for g, node in enumerate(owners):
        obs = _qubit_observable(alphas, assignment, node)
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


def validate_model(config: NetworkConfig,
                   model: LHVModel) -> dict[NodeId, tuple[int, ...]]:
    """Raise InvalidParameterError unless the model matches the layout, and
    return attachments(config)."""
    attach = attachments(config)
    c = model.alphabet_size
    if c < 1:
        raise InvalidParameterError(f"alphabet size must be at least 1, got {c}")
    for r in range(1, config.n + 1):
        weights = model.weights.get(r)
        if weights is None or len(weights) != c:
            raise InvalidParameterError(
                f"source {r} needs a weight vector of length {c}")
        # Written so that a NaN weight fails both comparisons.
        if not (min(weights) >= -1e-12 and abs(sum(weights) - 1.0) <= 1e-12):
            raise InvalidParameterError(
                f"source {r} weights must form a probability vector")
    # Every intermediate node of a valid layout holds m sources.
    expected = [(model.intermediate, node, c ** config.m)
                for node in intermediate_nodes(config)]
    expected += [(model.extremal, node, c) for node in extremal_nodes(config)]
    for tables, node, width in expected:
        table = tables.get(node)
        if not (isinstance(table, tuple) and len(table) == 2
                and all(isinstance(row, bytes) and len(row) == width
                        for row in table)):
            raise InvalidParameterError(
                f"node {node.name} needs a table of two bytes rows of length {width}")
        # count() scans a row in place; a 2^23-cell hub row is never copied.
        if any(row.count(0) + row.count(1) != width for row in table):
            raise InvalidParameterError(f"node {node.name} table entries must be bits")
    return attach


def _supports(config: NetworkConfig, model: LHVModel) -> list[list[int]]:
    """Each source's symbols of nonzero weight; raises ResourceLimitError when
    they span more than MAX_SUPPORT_TUPLES symbol tuples."""
    supports = [[s for s, w in enumerate(model.weights[r]) if w != 0.0]
                for r in range(1, config.n + 1)]
    tuple_bits = sum(math.log2(len(support)) for support in supports)
    if tuple_bits > math.log2(MAX_SUPPORT_TUPLES):
        raise ResourceLimitError(
            f"the source weights span 2^{tuple_bits:.6g} symbol tuples, above "
            f"the cap 2^{math.log2(MAX_SUPPORT_TUPLES):.6g}")
    return supports


def _symbol_code(sources: tuple[int, ...], symbols: Sequence[int], c: int) -> int:
    code = 0
    for r in sources:
        code = code * c + symbols[r - 1]
    return code


def lhv_evaluate_S(config: NetworkConfig, model: LHVModel) -> EvaluationResult:
    """Witness of a classical model, contracted per symbol tuple.

    Sums the product of the lhv module docstring over the weight supports,
    with all intermediate inputs k in I_k.  Agrees to rounding with
    evaluate_S_from_correlator on lhv_distribution, which enumerates every
    symbol tuple and input.  Raises ResourceLimitError before the sum when
    the supports span more than MAX_SUPPORT_TUPLES symbol tuples.
    """
    attach = validate_model(config, model)
    c = model.alphabet_size
    supports = _supports(config, model)
    # factors[r][s] = (g_0j, g_1j) = (1 - b0 - b1, b1 - b0) at source r's end j.
    factors = {attach[node][0]: [(1 - b0 - b1, b1 - b0)
                                 for b0, b1 in zip(*model.extremal[node])]
               for node in extremal_nodes(config)}
    inter = [(model.intermediate[node], attach[node])
             for node in intermediate_nodes(config)]
    totals = [0.0, 0.0]
    for symbols in itertools.product(*supports):
        weight = math.prod(model.weights[r][symbols[r - 1]]
                           for r in range(1, config.n + 1))
        for k in (0, 1):
            value = weight
            for table, sources in inter:
                if table[k][_symbol_code(sources, symbols, c)]:
                    value = -value
            for r, g in factors.items():
                value *= g[symbols[r - 1]][k]
            totals[k] += value
    return EvaluationResult.from_ingredients(config.p, (totals[0], 0), (totals[1], 0))


def lhv_distribution(config: NetworkConfig, model: LHVModel,
                     assignment: SettingAssignment
                     ) -> dict[tuple[int, ...], float]:
    """Outcome distribution of a classical model, summed over every tuple of
    nonzero-weight symbols; keys run over {0,1}^(l+p), intermediate nodes
    first.  Raises ResourceLimitError before storing a mass when l + p exceeds
    MAX_OUTCOME_BITS or the supports exceed MAX_SUPPORT_TUPLES tuples."""
    attach = validate_model(config, model)
    assignment.check(config)
    outcome_bits = config.l + config.p
    if outcome_bits > MAX_OUTCOME_BITS:
        raise ResourceLimitError(
            f"the distribution has 2^{outcome_bits} outcomes, above the cap "
            f"2^{MAX_OUTCOME_BITS}")
    supports = _supports(config, model)
    c = model.alphabet_size
    # (row of the node's table for its input, sources indexing the row)
    rows = [(model.intermediate[node][assignment.x[node]], attach[node])
            for node in intermediate_nodes(config)]
    rows += [(model.extremal[node][assignment.y[node]], attach[node])
             for node in extremal_nodes(config)]
    masses = dict.fromkeys(itertools.product((0, 1), repeat=outcome_bits), 0.0)
    for symbols in itertools.product(*supports):
        weight = math.prod(model.weights[r][symbols[r - 1]]
                           for r in range(1, config.n + 1))
        outcome = tuple(row[sum(symbols[r - 1] * c ** (len(sources) - 1 - k)
                                for k, r in enumerate(sources))]
                        for row, sources in rows)
        masses[outcome] += weight
    return masses


def distribution_correlator(distribution: Mapping[tuple[int, ...], float]) -> float:
    """Signed sum (-1)^(number of 1 outcomes) over a joint outcome distribution."""
    return sum((-1.0) ** sum(outcome) * mass
               for outcome, mass in distribution.items())


def signed_y_average(correlator: Correlator, config: NetworkConfig, k: int,
                     x_bits: Sequence[int]) -> float:
    """Average correlators over all extremal inputs with sign (-1)^(k sum y).

    The enumeration oracle: it calls the correlator 2^p times, so layouts
    with more than ENUMERATION_MAX_EXTREMAL extremal nodes raise
    ResourceLimitError before any call.  Terms are accumulated in
    lexicographic input order so repeated runs are bit-identical.
    """
    if k not in (0, 1):
        raise InvalidParameterError(f"sign exponent k must be 0 or 1, got {k}")
    if config.p > ENUMERATION_MAX_EXTREMAL:
        raise ResourceLimitError(
            f"enumerating the 2^{config.p} extremal inputs exceeds the cap of "
            f"2^{ENUMERATION_MAX_EXTREMAL}")
    x_bits = tuple(x_bits)
    total = 0.0
    for y_bits in itertools.product((0, 1), repeat=config.p):
        assignment = SettingAssignment.from_bits(config, x_bits, y_bits)
        sign = -1.0 if k and (sum(y_bits) & 1) else 1.0
        total += sign * correlator(assignment)
    return total / 2.0 ** config.p


def evaluate_S_from_correlator(correlator: Correlator,
                               config: NetworkConfig) -> EvaluationResult:
    """Witness from any correlator source (quantum engine, classical model, ...).

    Enumerates the extremal inputs through signed_y_average.
    """
    i0 = signed_y_average(correlator, config, 0, (0,) * config.l)
    i1 = signed_y_average(correlator, config, 1, (1,) * config.l)
    return EvaluationResult.from_ingredients(config.p, (i0, 0), (i1, 0))
