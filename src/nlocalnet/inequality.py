"""The nonlinear witness built from input-averaged correlators: the answer path.

This module holds evaluate_S, the closed forms, sweep, the angle checks and
the verdict rule; the oracles that check them are in tests/oracles.py.

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
sigma_x in I1, and extremal node B_j measures cos(alpha_j) sigma_z +
(-1)^y sin(alpha_j) sigma_x for input y, so a source between two
intermediate nodes gives 1 to I0 and s to I1, and a source at B_j gives
cos(alpha_j) to I0 and s sin(alpha_j) to I1.  The product therefore
regroups into

    I0 = prod_j cos(alpha_j),    I1 = prod_j sin(alpha_j) * prod_r sin(2 theta_r):

the layout enters only through its validity and p.  evaluate_S validates
the layout, checks the angles and returns this closed form, the arithmetic
of closed_form_S, so the two agree bit for bit, and valid layouts with the
same n and p give the same bits.  The tests compare evaluate_S, and the
classical contraction lhv_evaluate_S of tests/oracles.py, with an oracle
there that enumerates the 2^p inputs of a correlator; each agrees with it
to rounding (within 1e-12).
"""

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .topology import NetworkConfig, attachments

if TYPE_CHECKING:
    from .table import Table

VIOLATION_TOLERANCE = 1e-9
MAX_SWEEP_ROWS = 1_000_000
_LN2 = math.log(2.0)
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double

Product = tuple[float, int]  # (m, e), worth m * 2**e


def violates(s: float) -> bool:
    """The verdict on a witness value: True when s exceeds the n-local
    bound 1 by more than VIOLATION_TOLERANCE."""
    return s > 1.0 + VIOLATION_TOLERANCE


def exact_product(factors: Sequence[float], exponent: int = 0) -> Product:
    """2**exponent times the product of factors, each of magnitude at most 1,
    as (m, e); outside this module, an opaque key: equal keys, equal products.

    No partial product is smaller than the whole, so a normal math.prod lost
    nothing to underflow and is returned as it is.  Only when it is zero or
    subnormal and no factor is zero is the product redone with math.frexp
    splitting each factor and partial product, so no step leaves the normal
    range.
    """
    product = math.prod(factors)
    if abs(product) >= _NORMAL_MIN or 0.0 in factors:
        return product, exponent
    m, e = 1.0, exponent
    for factor in factors:
        fm, fe = math.frexp(factor)
        m, k = math.frexp(m * fm)
        e += fe + k
    return m, e


def _root(product: Product, p: int) -> float:
    """|m * 2**e|^(1/p): abs(m) ** (1/p) when e is 0, else from the log of m
    split again by math.frexp, so equal products give equal bits."""
    m, e = product
    if not (e and m):
        return abs(m) ** (1.0 / p)
    m, k = math.frexp(m)
    return math.exp((math.log(abs(m)) + (e + k) * _LN2) / p)


class EvaluationResult(NamedTuple):
    """Witness value, its two ingredients, and whether it exceeds the bound 1."""

    i0: float
    i1: float
    s: float
    violated: bool

    @classmethod
    def from_ingredients(cls, p: int, i0: Product, i1: Product) -> "EvaluationResult":
        """The result on p extremal nodes of I0 and I1 given as (m, e); a double
        x is (x, 0).  I0 and I1 are rounded to doubles, S is not."""
        s = _root(i0, p) + _root(i1, p)
        return cls(i0=math.ldexp(*i0), i1=math.ldexp(*i1), s=s,
                   violated=violates(s))


def _witness(thetas: Sequence[float], alphas: Sequence[float],
             p: int) -> EvaluationResult:
    """The result from I0 = prod cos(alpha_j) and
    I1 = prod sin(alpha_j) * prod sin(2 theta_r), each an exact_product."""
    i0 = exact_product([math.cos(a) for a in alphas])
    sin_alpha = exact_product([math.sin(a) for a in alphas])
    sin_theta = exact_product([math.sin(2.0 * t) for t in thetas])
    i1 = exact_product((sin_alpha[0], sin_theta[0]), sin_alpha[1] + sin_theta[1])
    return EvaluationResult.from_ingredients(p, i0, i1)


def evaluate_S(config: NetworkConfig, thetas: Sequence[float],
               alphas: Sequence[float]) -> EvaluationResult:
    """Witness with all-zero intermediate inputs in I0 and all-one in I1.

    alphas lists the extremal angles of B1..Bp.  Validates the layout, then
    checks the angles, then returns the closed form (see the module
    docstring): linear in the number of sources.  Agrees to rounding with
    the tests' oracle, which enumerates the 2^p extremal inputs.
    """
    attachments(config)  # validates the layout
    check_angles(config, thetas, alphas)
    return _witness(thetas, alphas, config.p)


def closed_form_S(thetas: Sequence[float], alphas: Sequence[float],
                  p: int) -> float:
    """Witness by direct arithmetic, with no layout.

    |prod cos(alpha_j)|^(1/p) + |prod sin(alpha_j) prod sin(2 theta_r)|^(1/p);
    evaluate_S(config, thetas, alphas).s on any valid layout with p extremal
    nodes, bit for bit.
    """
    if p < 1 or len(alphas) != p:
        raise InvalidParameterError(
            f"need exactly p = {p} extremal angles, got {len(alphas)}")
    _check_source_angles(thetas)
    check_finite("extremal", alphas)
    return _witness(thetas, alphas, p).s


def closed_form_smax(thetas: Sequence[float], p: int) -> tuple[float, float]:
    """Best equal-angle witness and the angle attaining it.

    With K = |prod sin(2 theta_r)|^(1/p) the equal-angle witness is
    |cos a| + K |sin a|, stationary at tan(a) = K with value sqrt(1 + K^2).
    It is the optimum over per-node angles as well: Hoelder's inequality gives
    (prod |cos a_j|)^(1/p) + (prod K |sin a_j|)^(1/p)
    <= prod (|cos a_j| + K |sin a_j|)^(1/p) <= sqrt(1 + K^2).
    Returns (smax, alpha_star).
    """
    if p < 1:
        raise InvalidParameterError(f"extremal node count p must be positive, got {p}")
    _check_source_angles(thetas)
    return _smax_at(_root(exact_product([math.sin(2.0 * t) for t in thetas]), p))


def _smax_at(k_value: float) -> tuple[float, float]:
    """(smax, alpha_star) = (sqrt(1 + K^2), atan(K)): the one copy of the
    formula, shared by closed_form_smax and smax_rows."""
    return math.sqrt(1.0 + k_value * k_value), math.atan(k_value)


def smax_rows(head: Product, sines: Sequence[float],
              p: int) -> list[tuple[float, float, bool]]:
    """(alpha_star, smax, violated) of the sweep row whose head of n - 1 angles
    has the exact_product head of sines, for each last sine: closed_form_smax
    on that row, bit for bit."""
    m, e = head
    values = []
    for s in sines:
        smax, alpha_star = _smax_at(_root(exact_product((m, s), e), p))
        values.append((alpha_star, smax, violates(smax)))
    return values


def sweep(config: NetworkConfig, theta_grid: Sequence[float]) -> "Table":
    """Tabulate the best equal-angle witness over a Cartesian grid of source angles.

    Returns a sized, re-iterable table of rows in grid order (odometer order,
    last angle fastest): len() is len(theta_grid) ** n before any row is
    made, and each iteration makes the rows again; for a list, use
    list(sweep(...)).  A row holds the source-angle tuple, the optimal common
    extremal angle, the witness value, and whether it clears the bound, and
    equals closed_form_smax on its angle tuple, bit for bit.  The table's
    write(sink) writes it as CSV, with the header
    theta_1,...,theta_n,alpha_star,smax,violated and every number as "%.9g".

    Every check runs before sweep returns, so a caller that opens a file for
    the table's write opens none for a failed sweep: an invalid layout, an
    empty grid or a non-finite angle raise InvalidParameterError, and more
    than MAX_SWEEP_ROWS combinations raise ResourceLimitError.
    """
    attachments(config)  # validates the layout
    n = config.n
    if len(theta_grid) ** n > MAX_SWEEP_ROWS:
        raise ResourceLimitError(
            f"sweep of {len(theta_grid)} grid points over {n} sources "
            f"needs {len(theta_grid)}^{n} rows, above the cap "
            f"{MAX_SWEEP_ROWS}")
    _check_source_angles(theta_grid)
    from .table import Table

    return Table(theta_grid, n, config.p)


def check_finite(label: str, values: Iterable[float]) -> None:
    """Raise InvalidParameterError if any of the angles is infinite or NaN,
    or an int too large for a double."""
    for value in values:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise InvalidParameterError(
                f"{label} angles must be finite, got a value too large for a double"
            ) from None
        if not finite:
            raise InvalidParameterError(f"{label} angles must be finite, got {value!r}")


def _check_source_angles(thetas: Sequence[float]) -> None:
    """check_finite for source angles that also refuses no angle at all and
    a theta whose 2 theta overflows, where sin(2 theta) raises ValueError."""
    if len(thetas) == 0:
        raise InvalidParameterError("need at least one source angle, got none")
    check_finite("source", thetas)
    for theta in thetas:
        if not math.isfinite(2.0 * theta):
            raise InvalidParameterError(
                f"source angle {theta!r} is too large: 2 theta is not finite")


def check_angles(config: NetworkConfig, thetas: Sequence[float],
                 alphas: Sequence[float]) -> None:
    """Raise InvalidParameterError unless thetas holds n source angles and
    alphas p extremal angles, all finite (2 theta included).  Used by
    evaluate_S, and by the tests' correlator oracles."""
    if len(thetas) != config.n:
        raise InvalidParameterError(f"need {config.n} source angles, got {len(thetas)}")
    _check_source_angles(thetas)
    if len(alphas) != config.p:
        raise InvalidParameterError(
            f"need one extremal angle per extremal node ({config.p}), got {len(alphas)}")
    check_finite("extremal", alphas)
