import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlocalnet import (BlochObservable, InvalidParameterError, PAULI_X, PAULI_Z,
                       concurrence, extremal_observable, pair_expectation)
from nlocalnet.correlators import bloch_matrix, source_state

angles = st.floats(min_value=-20.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)


def test_source_state_examples():
    assert np.allclose(source_state(0.0), [1, 0, 0, 0])
    assert np.allclose(source_state(math.pi / 4),
                       [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    assert np.allclose(source_state(math.pi / 6), [math.sqrt(3) / 2, 0, 0, 0.5])


def test_concurrence_examples():
    assert concurrence(math.pi / 4) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(0.0) == 0.0
    assert concurrence(math.pi / 6) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_extremal_observable_examples():
    obs = extremal_observable(0.0, 0)
    assert (obs.vx, obs.vy, obs.vz) == (0.0, 0.0, 1.0)
    obs = extremal_observable(math.pi / 2, 1)
    assert obs.vx == pytest.approx(-1.0, abs=1e-12)
    assert obs.vz == pytest.approx(0.0, abs=1e-12)
    obs = extremal_observable(math.pi / 4, 0)
    assert obs.vx == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert obs.vz == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_bloch_observable_rejects_non_unit_vector():
    with pytest.raises(InvalidParameterError):
        BlochObservable(1.0, 1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            BlochObservable(bad, 0.0, 0.0)


@pytest.mark.parametrize("vector", [(2.0, 0.0, 0.0), (math.nan, 0.0, 1.0)],
                         ids=["non-unit", "nan"])
def test_make_and_replace_check_the_norm(vector):
    # A named tuple's _make and _replace skip __new__, where the check lives.
    with pytest.raises(InvalidParameterError):
        BlochObservable._make(vector)
    with pytest.raises(InvalidParameterError):
        PAULI_X._replace(vx=vector[0], vz=vector[2])
    assert PAULI_X._replace(vx=0.0, vz=1.0) == PAULI_Z
    assert type(BlochObservable._make([0.0, 1.0, 0.0])) is BlochObservable


@given(angles)
@settings(max_examples=100)
def test_source_state_norm_and_stabilizer(theta):
    psi = source_state(theta)
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12
    zz = np.kron(bloch_matrix(PAULI_Z), bloch_matrix(PAULI_Z))
    assert abs(np.vdot(psi, zz @ psi).real - 1.0) < 1e-12


@given(angles)
@settings(max_examples=100)
def test_xx_expectation_matches_concurrence(theta):
    psi = source_state(theta)
    xx = np.kron(bloch_matrix(PAULI_X), bloch_matrix(PAULI_X))
    value = np.vdot(psi, xx @ psi).real
    assert abs(value - math.sin(2 * theta)) < 1e-12
    assert abs(abs(value) - concurrence(theta)) < 1e-12


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=100)
def test_observable_squares_to_identity(vx, vy, vz):
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if norm < 1e-6:
        return
    obs = BlochObservable(vx / norm, vy / norm, vz / norm)
    square = bloch_matrix(obs) @ bloch_matrix(obs)
    assert np.max(np.abs(square - np.eye(2))) < 1e-12


@given(angles, angles, angles)
@settings(max_examples=100)
def test_pair_expectation_matches_trace(theta, alpha, beta):
    first = extremal_observable(alpha, 0)
    second = extremal_observable(beta, 1)
    psi = source_state(theta)
    matrix = np.kron(bloch_matrix(first), bloch_matrix(second))
    exact = np.vdot(psi, matrix @ psi).real
    assert abs(pair_expectation(theta, first, second) - exact) < 1e-12


def test_pair_expectation_with_y_components():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vecs = rng.normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        first = BlochObservable(*vecs[0])
        second = BlochObservable(*vecs[1])
        theta = rng.uniform(0, 2 * math.pi)
        psi = source_state(theta)
        exact = np.vdot(psi, np.kron(bloch_matrix(first), bloch_matrix(second)) @ psi).real
        assert abs(pair_expectation(theta, first, second) - exact) < 1e-12
