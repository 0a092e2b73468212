"""The nonlinear witness built from input-averaged correlators.

For a layout with p extremal nodes, two ingredients average the full product
correlator over all 2^p extremal input choices: I0 plainly, with all
intermediate inputs 0, and I1 signed by the parity of the extremal inputs,
with all intermediate inputs 1.  The witness S = |I0|^(1/p) + |I1|^(1/p)
stays at or below 1 for every source-factorized classical model, while
entangled sources with tuned settings push it up to sqrt(2).

evaluate_S never enumerates the 2^p inputs.  It relies on an invariant of
valid layouts (connected, acyclic, n >= 2): every extremal node touches
exactly one source, and no source touches two extremal nodes.  The quantum
correlator is a product of per-source pair expectations E_r, and the sign
(-1)^(k sum y) splits into one factor per extremal node, so the average is a
product over sources, with input k at every intermediate end:

    I_k = prod_{r between two intermediate nodes} E_r(k)
          * prod_{r with an extremal end} 1/2 sum_y (-1)^(k y) E_r(k, y).

S then costs 2n + 2p pair expectations, where the enumeration costs
n 2^(p+1).  Both ingredients are contracted in one pass over the sources.
An intermediate end measures sigma_z in I0 and sigma_x in I1 (the fixed
settings of quantum), and each extremal node's two settings are built once
and serve both I0 and I1.  signed_y_average is the enumeration oracle for any
correlator: the tests compare evaluate_S with it, and lhv_evaluate_S with it
over lhv_distribution.  Each contraction agrees with it to rounding (within
1e-12), not bit for bit, because the arithmetic is done in a different order.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .quantum import (PAULI_X, PAULI_Z, BlochObservable, SettingAssignment,
                      _check_angles, _check_source_angles, check_finite,
                      extremal_observable, pair_expectation)
from .topology import AttachmentMap, NetworkConfig, attachments

VIOLATION_TOLERANCE = 1e-9
# The enumeration oracle visits 2^p extremal inputs; refuse layouts beyond this.
ENUMERATION_MAX_EXTREMAL = 20

Correlator = Callable[[SettingAssignment], float]


class EvaluationResult(NamedTuple):
    """Witness value, its two ingredients, and whether it exceeds the bound 1."""

    i0: float
    i1: float
    s: float
    violated: bool


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


def _witness(config: NetworkConfig, i0: float, i1: float) -> EvaluationResult:
    root = 1.0 / config.p
    s = abs(i0) ** root + abs(i1) ** root
    return EvaluationResult(i0=i0, i1=i1, s=s,
                            violated=s > 1.0 + VIOLATION_TOLERANCE)


def evaluate_S_from_correlator(correlator: Correlator,
                               config: NetworkConfig) -> EvaluationResult:
    """Witness from any correlator source (quantum engine, classical model, ...).

    Enumerates the extremal inputs through signed_y_average.
    """
    i0 = signed_y_average(correlator, config, 0, (0,) * config.l)
    i1 = signed_y_average(correlator, config, 1, (1,) * config.l)
    return _witness(config, i0, i1)


def _contract(config: NetworkConfig, thetas: Sequence[float],
              alphas: Sequence[float], attach: AttachmentMap) -> tuple[float, float]:
    """(I0, I1) in one pass, each a product of one factor per source.

    extremal[r - 1] holds the two settings of source r's extremal end, built
    once for both; a source without one joins two intermediate nodes.
    """
    extremal: list[tuple[BlochObservable, BlochObservable] | None] = [None] * config.n
    for node, r in attach.extremal.items():
        alpha = alphas[node.index - 1]
        extremal[r - 1] = (extremal_observable(alpha, 0), extremal_observable(alpha, 1))
    i0 = i1 = 1.0
    for theta, outer in zip(thetas, extremal):
        if outer is None:  # both ends intermediate
            i0 *= pair_expectation(theta, PAULI_Z, PAULI_Z)
            i1 *= pair_expectation(theta, PAULI_X, PAULI_X)
        else:  # one extremal end: a valid layout has no source with two
            up, down = outer
            i0 *= 0.5 * (pair_expectation(theta, PAULI_Z, up)
                         + pair_expectation(theta, PAULI_Z, down))
            i1 *= 0.5 * (pair_expectation(theta, PAULI_X, up)
                         - pair_expectation(theta, PAULI_X, down))
    return i0, i1


def evaluate_S(config: NetworkConfig, thetas: Sequence[float],
               alphas: Sequence[float]) -> EvaluationResult:
    """Witness with all-zero intermediate inputs in I0 and all-one in I1.

    alphas lists the extremal angles of B1..Bp.  Validates the layout, then
    checks the angles, then contracts I0 and I1 in one pass (see the module
    docstring): linear in the number of sources.  Agrees with
    evaluate_S_from_correlator over correlator_factorized to rounding.
    """
    attach = attachments(config)  # validates the layout
    _check_angles(config, thetas, alphas)
    return _witness(config, *_contract(config, thetas, alphas, attach))


def closed_form_S(thetas: Sequence[float], alphas: Sequence[float],
                  p: int) -> float:
    """Witness by direct arithmetic.

    |prod cos(alpha_j)|^(1/p) + |prod sin(alpha_j) prod sin(2 theta_r)|^(1/p);
    must agree with evaluate_S.
    """
    if p < 1 or len(alphas) != p:
        raise InvalidParameterError(
            f"need exactly p = {p} extremal angles, got {len(alphas)}")
    _check_source_angles(thetas)
    check_finite("extremal", alphas)
    cos_term = math.prod(math.cos(a) for a in alphas)
    sin_term = (math.prod(math.sin(a) for a in alphas)
                * math.prod(math.sin(2.0 * t) for t in thetas))
    root = 1.0 / p
    return abs(cos_term) ** root + abs(sin_term) ** root


def closed_form_smax(thetas: Sequence[float], p: int) -> tuple[float, float]:
    """Best equal-angle witness and the angle attaining it.

    With K = |prod sin(2 theta_r)|^(1/p) the equal-angle witness is
    |cos a| + K |sin a|, stationary at tan(a) = K with value sqrt(1 + K^2).
    Returns (smax, alpha_star).
    """
    root = _smax_root(p)
    _check_source_angles(thetas)
    product = math.prod(math.sin(2.0 * t) for t in thetas)
    return _smax_at(abs(product) ** root)


def _smax_root(p: int) -> float:
    """The exponent 1/p of K; p must be positive."""
    if p < 1:
        raise InvalidParameterError(f"extremal node count p must be positive, got {p}")
    return 1.0 / p


def _smax_at(k_value: float) -> tuple[float, float]:
    """(smax, alpha_star) = (sqrt(1 + K^2), atan(K)): the one copy of the
    formula, shared by closed_form_smax and optimize.sweep."""
    return math.sqrt(1.0 + k_value * k_value), math.atan(k_value)
