"""The maximized witness tabulated over a grid of source angles.

Each row takes its optimum from inequality.closed_form_smax.  That
equal-angle closed form is the optimum over per-node angles as well: with
K = |prod sin(2 theta_r)|^(1/p), Hoelder's inequality gives
(prod |cos a_j|)^(1/p) + (prod K |sin a_j|)^(1/p)
<= prod (|cos a_j| + K |sin a_j|)^(1/p) <= sqrt(1 + K^2), attained at a_j = atan(K).
"""

from __future__ import annotations

import csv
import itertools
from typing import Sequence, TextIO

from .errors import InvalidParameterError, ResourceLimitError
from .inequality import VIOLATION_TOLERANCE, closed_form_smax
from .topology import NetworkConfig

MAX_SWEEP_ROWS = 1_000_000


def sweep(config: NetworkConfig, theta_grid: Sequence[float],
          sink: TextIO | None = None
          ) -> list[tuple[tuple[float, ...], float, float, bool]]:
    """Tabulate the best equal-angle witness over a Cartesian grid of source angles.

    Rows come in grid order; each holds the source-angle tuple, the optimal
    common extremal angle, the witness value, and whether it clears the bound.
    When a sink is given the table is also written as CSV with the header
    theta_1,...,theta_n,alpha_star,smax,violated.  A grid of more than
    MAX_SWEEP_ROWS combinations raises ResourceLimitError before any row is built.
    """
    if not theta_grid:
        raise InvalidParameterError("theta grid must not be empty")
    row_count = len(theta_grid) ** config.n
    if row_count > MAX_SWEEP_ROWS:
        raise ResourceLimitError(
            f"sweep of {len(theta_grid)} grid points over {config.n} sources "
            f"needs {len(theta_grid)}^{config.n} rows, above the cap "
            f"{MAX_SWEEP_ROWS}", size=row_count)
    rows = []
    for combo in itertools.product(theta_grid, repeat=config.n):
        smax, alpha_star = closed_form_smax(combo, config.p)
        rows.append((combo, alpha_star, smax, smax > 1.0 + VIOLATION_TOLERANCE))
    if sink is not None:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow([f"theta_{r}" for r in range(1, config.n + 1)]
                        + ["alpha_star", "smax", "violated"])
        for combo, alpha_star, smax, violated in rows:
            writer.writerow([f"{t:.9g}" for t in combo]
                            + [f"{alpha_star:.9g}", f"{smax:.9g}",
                               "true" if violated else "false"])
    return rows
