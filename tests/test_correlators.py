import itertools
import math

import numpy as np
import pytest

from helpers import random_instance
from nlocalnet import (InvalidParameterError, NetworkConfig, ResourceLimitError,
                       build_chain, build_star)
from oracles import (SettingAssignment, correlator_factorized, correlator_statevector,
                     distribution_correlator, joint_distribution)

PI = math.pi


def trace_oracle_chain2(thetas, bloch_vectors):
    """Independent 16x16 expectation for a two-source chain.

    bloch_vectors lists the single-qubit observables for qubits
    (B1, A1-slot1, A1-slot2, B2) as 3-vectors.
    """
    def mat(v):
        return np.array([[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]])

    def state(theta):
        return np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)

    psi = np.kron(state(thetas[0]), state(thetas[1]))
    op = mat(bloch_vectors[0])
    for v in bloch_vectors[1:]:
        op = np.kron(op, mat(v))
    return float(np.vdot(psi, op @ psi).real)


def test_all_z_settings_give_unit_correlator():
    config = build_chain(2)
    alphas = [0.0, 0.0]
    assignment = SettingAssignment.from_bits(config, [0], [0, 0])
    value = correlator_factorized(config, [PI / 4, PI / 4], alphas, assignment)
    assert value == pytest.approx(1.0, abs=1e-12)
    oracle = trace_oracle_chain2([PI / 4, PI / 4],
                                 [(0, 0, 1)] * 4)
    assert value == pytest.approx(oracle, abs=1e-12)


def test_all_z_unit_correlator_for_any_theta():
    config = build_chain(3)
    alphas = [0.0, 0.0]
    assignment = SettingAssignment.from_bits(config, [0, 0], [0, 0])
    value = correlator_factorized(config, [0.3, 1.1, 5.0], alphas, assignment)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_all_x_settings_give_product_of_sines():
    thetas = [0.3, 1.2]
    config = build_chain(2)
    alphas = [PI / 2, PI / 2]
    assignment = SettingAssignment.from_bits(config, [1], [0, 0])
    value = correlator_factorized(config, thetas, alphas, assignment)
    expected = math.sin(2 * thetas[0]) * math.sin(2 * thetas[1])
    assert value == pytest.approx(expected, abs=1e-12)
    oracle = trace_oracle_chain2(thetas, [(1, 0, 0)] * 4)
    assert value == pytest.approx(oracle, abs=1e-12)


def test_mixed_angles_match_hand_value():
    # sin(pi/3) * sin(2pi/3) = 3/4
    config = build_chain(2)
    alphas = [PI / 2, PI / 2]
    assignment = SettingAssignment.from_bits(config, [1], [0, 0])
    value = correlator_factorized(config, [PI / 6, PI / 3], alphas, assignment)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert correlator_statevector(config, [PI / 6, PI / 3], alphas, assignment) \
        == pytest.approx(0.75, abs=1e-10)


def test_statevector_star3_all_zero_inputs():
    # every extremal setting at pi/4 against sigma_z: cos(pi/4)^3 = 2^(-3/2)
    config = build_star(3)
    assignment = SettingAssignment.from_bits(config, [0], [0, 0, 0])
    value = correlator_statevector(config, [PI / 4] * 3, [PI / 4] * 3, assignment)
    assert abs(value - 2 ** -1.5) <= 1e-12


def test_statevector_rejects_seven_sources():
    config = build_chain(7)
    alphas = [0.0, 0.0]
    assignment = SettingAssignment.from_bits(config, [0] * 6, [0, 0])
    with pytest.raises(ResourceLimitError):
        correlator_statevector(config, [0.0] * 7, alphas, assignment)
    with pytest.raises(ResourceLimitError):
        joint_distribution(config, [0.0] * 7, alphas, assignment)


def test_joint_distribution_maximal_chain():
    config = build_chain(2)
    alphas = [0.0, 0.0]
    assignment = SettingAssignment.from_bits(config, [0], [0, 0])
    dist = joint_distribution(config, [PI / 4, PI / 4], alphas, assignment)
    # outcome tuples are (a1, b1, b2); all mass sits where a1 = b1 xor b2
    for outcome, mass in dist.items():
        a1, b1, b2 = outcome
        if a1 == b1 ^ b2:
            assert mass == pytest.approx(0.25, abs=1e-10)
        else:
            assert mass == pytest.approx(0.0, abs=1e-12)
    assert dist[(0, 0, 0)] == pytest.approx(0.25, abs=1e-10)


def test_joint_distribution_product_state():
    config = build_chain(2)
    alphas = [0.0, 0.0]
    assignment = SettingAssignment.from_bits(config, [0], [0, 0])
    dist = joint_distribution(config, [0.0, 0.0], alphas, assignment)
    assert dist[(0, 0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_oracle_triangle_on_random_instances():
    rng = np.random.default_rng(424242)
    for _ in range(60):
        config, thetas, alphas, assignment = random_instance(rng)
        fast = correlator_factorized(config, thetas, alphas, assignment)
        exact = correlator_statevector(config, thetas, alphas, assignment)
        dist = joint_distribution(config, thetas, alphas, assignment)
        born = distribution_correlator(dist)
        assert abs(fast - exact) < 1e-10
        assert abs(fast - born) < 1e-10
        assert abs(fast) <= 1.0 + 1e-12
        assert abs(sum(dist.values()) - 1.0) < 1e-10
        assert all(mass >= -1e-12 for mass in dist.values())


def test_correlator_invariant_under_source_relabeling():
    config = build_chain(3)
    thetas = [0.4, 1.3, 2.2]
    alphas = [0.7, 1.9]
    # relabel sources 1,2,3 -> 2,3,1 and permute thetas to match
    relabel = {1: 2, 2: 3, 3: 1}
    edges = {relabel[r]: ends for r, ends in config.edges.items()}
    permuted = NetworkConfig(n=3, m=2, p=2, edges=edges)
    thetas_permuted = [0.0] * 3
    for old, new in relabel.items():
        thetas_permuted[new - 1] = thetas[old - 1]
    for x_bits, y_bits in itertools.product([(0, 0), (1, 0), (1, 1)],
                                            [(0, 0), (0, 1), (1, 1)]):
        a1 = SettingAssignment.from_bits(config, x_bits, y_bits)
        v1 = correlator_factorized(config, thetas, alphas, a1)
        v2 = correlator_factorized(permuted, thetas_permuted, alphas, a1)
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_assignment_validation():
    config = build_chain(2)
    with pytest.raises(InvalidParameterError):
        SettingAssignment.from_bits(config, [0, 0], [0, 0])
    with pytest.raises(InvalidParameterError):
        SettingAssignment.from_bits(config, [0], [0, 2])
    alphas = [0.0, 0.0]
    good = SettingAssignment.from_bits(config, [0], [0, 0])
    with pytest.raises(InvalidParameterError):
        correlator_factorized(config, [0.1], alphas, good)  # wrong theta count
    incomplete = SettingAssignment(x={}, y=good.y)
    with pytest.raises(InvalidParameterError):
        correlator_factorized(config, [0.1, 0.2], alphas, incomplete)
