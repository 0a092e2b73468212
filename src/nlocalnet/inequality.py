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
cos(alpha_j) to I0 and s sin(alpha_j) to I1.  Both ingredients are
contracted in one pass over the sources, with no observable built.  The
tests compare evaluate_S, and lhv_evaluate_S, with an oracle that
enumerates the 2^p inputs of a correlator (tests/oracles.py).  Each
contraction agrees with it to rounding (within 1e-12), not bit for bit,
because the arithmetic is done in a different order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import InvalidParameterError, ResourceLimitError
from .topology import AttachmentMap, NetworkConfig, attachments

VIOLATION_TOLERANCE = 1e-9
MAX_SWEEP_ROWS = 1_000_000
# Rows gathered into one write to a sweep's sink.
_BLOCK_ROWS = 8192
_LN2 = math.log(2.0)
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double

Product = tuple[float, int]  # (m, e), worth m * 2**e


def violates(s: float) -> bool:
    """The verdict on a witness value: True when s exceeds the n-local
    bound 1 by more than VIOLATION_TOLERANCE."""
    return s > 1.0 + VIOLATION_TOLERANCE


def _product(factors: Sequence[float], exponent: int = 0) -> Product:
    """2**exponent times the product of factors, each of magnitude at most 1.

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
    def from_ingredients(cls, p: int, i0: Product, i1: Product) -> EvaluationResult:
        """The result on p extremal nodes of I0 and I1 given as (m, e); a double
        x is (x, 0).  I0 and I1 are rounded to doubles, S is not."""
        s = _root(i0, p) + _root(i1, p)
        return cls(i0=math.ldexp(*i0), i1=math.ldexp(*i1), s=s,
                   violated=violates(s))


def _contract(config: NetworkConfig, thetas: Sequence[float],
              alphas: Sequence[float], attach: AttachmentMap) -> tuple[Product, Product]:
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
    i0: list[float] = []  # the factors of I0 and of I1
    i1: list[float] = []
    for theta, alpha in zip(thetas, extremal):
        s = math.sin(2.0 * theta)
        if alpha is None:  # both ends intermediate; the I0 factor is 1
            i1.append(0.0 + s)
        else:  # one extremal end: a valid layout has no source with two
            c = math.cos(alpha)
            z = 0.0 * c
            q = s * math.sin(alpha)
            i0.append(c)
            i1.append(0.5 * ((z + q) - (z - q)))
    return _product(i0), _product(i1)


def evaluate_S(config: NetworkConfig, thetas: Sequence[float],
               alphas: Sequence[float]) -> EvaluationResult:
    """Witness with all-zero intermediate inputs in I0 and all-one in I1.

    alphas lists the extremal angles of B1..Bp.  Validates the layout, then
    checks the angles, then contracts I0 and I1 in one pass (see the module
    docstring): linear in the number of sources.  Agrees to rounding with
    the tests' oracle, which enumerates the 2^p extremal inputs.
    """
    attach = attachments(config)  # validates the layout
    check_angles(config, thetas, alphas)
    return EvaluationResult.from_ingredients(
        config.p, *_contract(config, thetas, alphas, attach))


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
    cos_term = _product([math.cos(a) for a in alphas])
    sin_alpha = _product([math.sin(a) for a in alphas])
    sin_theta = _product([math.sin(2.0 * t) for t in thetas])
    sin_term = _product((sin_alpha[0], sin_theta[0]), sin_alpha[1] + sin_theta[1])
    return _root(cos_term, p) + _root(sin_term, p)


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
    return _smax_at(_root(_product([math.sin(2.0 * t) for t in thetas]), p))


def _smax_at(k_value: float) -> tuple[float, float]:
    """(smax, alpha_star) = (sqrt(1 + K^2), atan(K)): the one copy of the
    formula, shared by closed_form_smax and sweep."""
    return math.sqrt(1.0 + k_value * k_value), math.atan(k_value)


class _Table:
    """The rows of a sweep, in grid order; each iteration makes them again.

    A row's first n - 1 angles, its head, reach it only through the product
    of their sines, so the rows of each distinct product are made once, keyed
    by _product's exact (m, e): permuted heads can multiply to another last bit.
    """

    def __init__(self, grid: Sequence[float], n: int, p: int) -> None:
        self.grid = tuple(grid)
        self.n = n
        self.p = p
        self.sines = [math.sin(2.0 * t) for t in self.grid]

    def __len__(self) -> int:
        return len(self.grid) ** self.n

    def __iter__(self) -> Iterator[tuple[tuple[float, ...], float, float, bool]]:
        last = [(t,) for t in self.grid]
        heads = itertools.product(self.grid, repeat=self.n - 1)
        for head, values in self._by_product(heads, self._values):
            for t, (alpha_star, smax, violated) in zip(last, values):
                yield head + t, alpha_star, smax, violated

    def _values(self, head: Product) -> list[tuple[float, float, bool]]:
        """(alpha_star, smax, violated) of the rows whose head has this product."""
        m, e = head
        p = self.p
        values = []
        for s in self.sines:
            smax, alpha_star = _smax_at(_root(_product((m, s), e), p))
            values.append((alpha_star, smax, violates(smax)))
        return values

    def _by_product(self, heads: Iterable, make: Callable[[Product], list]
                    ) -> Iterator[tuple]:
        """Pair each head, in grid order, with make(the product of its sines).

        make runs once per distinct product, and its result is kept only
        until the last head with that product.  0.0 and -0.0 share a key,
        harmless as a row reads only |product * last sine|.
        """
        left = Counter(map(_product, itertools.product(self.sines, repeat=self.n - 1)))
        made: dict[Product, list] = {}
        products = map(_product, itertools.product(self.sines, repeat=self.n - 1))
        for head, product in zip(heads, products):
            result = made.get(product)
            if result is None:
                result = made[product] = make(product)
            left[product] -= 1
            if not left[product]:
                del made[product]
            yield head, result

    def write(self, sink: TextIO) -> None:
        """Write the header, then the rows as CSV, each write but the last
        holding _BLOCK_ROWS rows or more.  A head's text is joined from its
        n - 1 fields: prefix texts would cost n^2 on a one-point grid."""
        sink.write(",".join([f"theta_{r}" for r in range(1, self.n + 1)]
                            + ["alpha_star", "smax", "violated"]) + "\n")
        fields = [f"{t:.9g}," for t in self.grid]

        def tails(product: Product) -> list[str]:
            return [f"{field}{alpha_star:.9g},{smax:.9g},"
                    f"{'true' if violated else 'false'}\n"
                    for field, (alpha_star, smax, violated)
                    in zip(fields, self._values(product))]

        texts = map("".join, itertools.product(fields, repeat=self.n - 1))
        heads = (text + text.join(row_tails)
                 for text, row_tails in self._by_product(texts, tails))
        heads_per_block = math.ceil(_BLOCK_ROWS / len(fields))
        for block in iter(lambda: "".join(itertools.islice(heads, heads_per_block)), ""):
            sink.write(block)


def sweep(config: NetworkConfig, theta_grid: Sequence[float],
          sink: TextIO | None = None) -> _Table:
    """Tabulate the best equal-angle witness over a Cartesian grid of source angles.

    Returns a sized, re-iterable table of rows in grid order (odometer order,
    last angle fastest): len() is len(theta_grid) ** n before any row is
    made, and each iteration makes the rows again; for a list, use
    list(sweep(...)).  A row holds the source-angle tuple, the optimal common
    extremal angle, the witness value, and whether it clears the bound, and
    equals closed_form_smax on its angle tuple, bit for bit.  A sink, if
    given, gets the table as CSV before sweep returns, with the header
    theta_1,...,theta_n,alpha_star,smax,violated and every number as "%.9g".

    Every check comes before the header: an invalid layout, an empty grid or
    a non-finite angle raise InvalidParameterError, and a grid of more than
    MAX_SWEEP_ROWS combinations raises ResourceLimitError, with nothing
    written to the sink.
    """
    attachments(config)  # validates the layout
    if not theta_grid:
        raise InvalidParameterError("theta grid must not be empty")
    n = config.n
    if len(theta_grid) ** n > MAX_SWEEP_ROWS:
        raise ResourceLimitError(
            f"sweep of {len(theta_grid)} grid points over {n} sources "
            f"needs {len(theta_grid)}^{n} rows, above the cap "
            f"{MAX_SWEEP_ROWS}")
    _check_source_angles(theta_grid)
    table = _Table(theta_grid, n, config.p)
    if sink is not None:
        table.write(sink)
    return table


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
