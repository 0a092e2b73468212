"""The maximized witness tabulated over a grid of source angles.

Each row takes its optimum from inequality.closed_form_smax.  That
equal-angle closed form is the optimum over per-node angles as well: with
K = |prod sin(2 theta_r)|^(1/p), Hoelder's inequality gives
(prod |cos a_j|)^(1/p) + (prod K |sin a_j|)^(1/p)
<= prod (|cos a_j| + K |sin a_j|)^(1/p) <= sqrt(1 + K^2), attained at a_j = atan(K).

sweep visits the grid in odometer order, that of itertools.product (last
angle fastest).  sin(2 theta) and the "%.9g" text of each grid point are
made once, and so are the product of sines and the CSV text of each head,
the first n - 1 angles shared by len(grid) consecutive rows; a row then
costs one multiplication, the closed form and one formatted line.  The
product runs left to right from 1, as math.prod does, so every row and
every CSV byte equal closed_form_smax and "%.9g" row by row.  A head is
built from its n - 1 angles, not extended from a shorter prefix: per-level
prefix texts would cost n^2 on a one-point grid, and n may reach MAX_SOURCES.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, TextIO

from .errors import InvalidParameterError, ResourceLimitError
from .inequality import VIOLATION_TOLERANCE, _smax_at, _smax_root
from .quantum import check_finite
from .topology import NetworkConfig

MAX_SWEEP_ROWS = 1_000_000


def sweep(config: NetworkConfig, theta_grid: Sequence[float],
          sink: TextIO | None = None
          ) -> list[tuple[tuple[float, ...], float, float, bool]]:
    """Tabulate the best equal-angle witness over a Cartesian grid of source angles.

    Rows come in grid order (odometer order, last angle fastest); each holds
    the source-angle tuple, the optimal common extremal angle, the witness
    value, and whether it clears the bound.  Every row equals
    closed_form_smax on its angle tuple, bit for bit (see the module
    docstring).  When a sink is given the table is also written as CSV, one
    write per line, each row as soon as it is made, with the header
    theta_1,...,theta_n,alpha_star,smax,violated and every number as "%.9g".

    Every check comes before the header: an empty grid, a non-finite angle or
    p < 1 raise InvalidParameterError, and a grid of more than
    MAX_SWEEP_ROWS combinations raises ResourceLimitError, with nothing
    written to the sink.
    """
    if not theta_grid:
        raise InvalidParameterError("theta grid must not be empty")
    n = config.n
    if len(theta_grid) ** n > MAX_SWEEP_ROWS:
        raise ResourceLimitError(
            f"sweep of {len(theta_grid)} grid points over {n} sources "
            f"needs {len(theta_grid)}^{n} rows, above the cap "
            f"{MAX_SWEEP_ROWS}")
    root = _smax_root(config.p)
    check_finite("source", theta_grid)
    threshold = 1.0 + VIOLATION_TOLERANCE
    sines = [math.sin(2.0 * t) for t in theta_grid]
    fields = [f"{t:.9g}," for t in theta_grid]
    last = list(zip([(t,) for t in theta_grid], sines, fields))
    # The first n - 1 angles of a row, as the tuple, their sines and their
    # CSV fields, each in odometer order; one head serves len(theta_grid) rows.
    heads = zip(itertools.product(theta_grid, repeat=n - 1),
                itertools.product(sines, repeat=n - 1),
                itertools.product(fields, repeat=n - 1))
    if sink is not None:
        sink.write(",".join([f"theta_{r}" for r in range(1, n + 1)]
                            + ["alpha_star", "smax", "violated"]) + "\n")
    rows = []
    for combo, head_sines, head_fields in heads:
        product = math.prod(head_sines)
        text = "".join(head_fields)
        for t, s, field in last:
            smax, alpha_star = _smax_at(abs(product * s) ** root)
            violated = smax > threshold
            rows.append((combo + t, alpha_star, smax, violated))
            if sink is not None:
                sink.write(f"{text}{field}{alpha_star:.9g},{smax:.9g},"
                           f"{'true' if violated else 'false'}\n")
    return rows
