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

Each factor has a closed form in s = sin(2 theta_r), as in Branciard et al.,
PRA 85, 032119 (2012).  An intermediate end measures sigma_z in I0 and
sigma_x in I1 (the fixed settings of quantum), so a source between two
intermediate nodes gives 1 to I0 and s to I1, and a source at B_j gives
cos(alpha_j) to I0 and s sin(alpha_j) to I1.  Both ingredients are
contracted in one pass over the sources, with no observable built.
signed_y_average is the enumeration oracle for any correlator: the tests
compare evaluate_S with it, and lhv_evaluate_S with it over
lhv_distribution.  Each contraction agrees with it to rounding (within
1e-12), not bit for bit, because the arithmetic is done in a different order.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .topology import AttachmentMap, NetworkConfig, attachments

if TYPE_CHECKING:
    from .quantum import SettingAssignment

VIOLATION_TOLERANCE = 1e-9
# The enumeration oracle visits 2^p extremal inputs; refuse layouts beyond this.
ENUMERATION_MAX_EXTREMAL = 20

Correlator = Callable[["SettingAssignment"], float]


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
    from .quantum import SettingAssignment

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

    extremal[r - 1] holds the angle of source r's extremal end; a source
    without one joins two intermediate nodes.  The I1 factors keep the
    operation order of the pair expectations they stand for, so a zero
    factor keeps its sign; the I0 factor cos(alpha), which is never zero,
    equals that order's 1/2 (cos(alpha) + cos(alpha)) exactly.
    """
    extremal: list[float | None] = [None] * config.n
    for node, r in attach.extremal.items():
        extremal[r - 1] = alphas[node.index - 1]
    i0 = i1 = 1.0
    for theta, alpha in zip(thetas, extremal):
        s = math.sin(2.0 * theta)
        if alpha is None:  # both ends intermediate; the I0 factor is 1
            i1 *= 0.0 + s
        else:  # one extremal end: a valid layout has no source with two
            c = math.cos(alpha)
            z = 0.0 * c
            q = s * math.sin(alpha)
            i0 *= c
            i1 *= 0.5 * ((z + q) - (z - q))
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


def check_finite(label: str, values: Iterable[float]) -> None:
    """Raise InvalidParameterError if any of the angles is infinite or NaN."""
    for value in values:
        if not math.isfinite(value):
            raise InvalidParameterError(f"{label} angles must be finite, got {value!r}")


def _check_source_angles(thetas: Sequence[float]) -> None:
    """check_finite for source angles, which also refuses a theta whose
    2 theta overflows: sin(2 theta) would raise a bare ValueError on it."""
    check_finite("source", thetas)
    for theta in thetas:
        if not math.isfinite(2.0 * theta):
            raise InvalidParameterError(
                f"source angle {theta!r} is too large: 2 theta is not finite")


def _check_angles(config: NetworkConfig, thetas: Sequence[float],
                  alphas: Sequence[float]) -> None:
    """Raise InvalidParameterError unless thetas holds n source angles and
    alphas p extremal angles, all finite (2 theta included)."""
    if len(thetas) != config.n:
        raise InvalidParameterError(f"need {config.n} source angles, got {len(thetas)}")
    _check_source_angles(thetas)
    if len(alphas) != config.p:
        raise InvalidParameterError(
            f"need one extremal angle per extremal node ({config.p}), got {len(alphas)}")
    check_finite("extremal", alphas)
