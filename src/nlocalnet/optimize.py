"""The maximized witness tabulated over a grid of source angles.

Each row takes its optimum from inequality.closed_form_smax.  That
equal-angle closed form is the optimum over per-node angles as well: with
K = |prod sin(2 theta_r)|^(1/p), Hoelder's inequality gives
(prod |cos a_j|)^(1/p) + (prod K |sin a_j|)^(1/p)
<= prod (|cos a_j| + K |sin a_j|)^(1/p) <= sqrt(1 + K^2), attained at a_j = atan(K).

sweep visits the grid in odometer order, that of itertools.product (last
angle fastest).  The first n - 1 angles of a row, its head, are shared by
len(grid) consecutive rows, and they reach the row only through the product
of their sines; heads that permute each other mostly share that product.
So the products of all heads are counted first, and the len(grid) rows of
each distinct product are made once (their values, or for the CSV their
tails "theta_n,alpha_star,smax,violated\\n") and dropped after the last head
with that product.  The key is the exact float: permuted products can differ
in the last bit, so a key built from the sorted head would give such a head
its neighbour's rows.  0.0 and -0.0 share a key, which is harmless because a
row reads the product only through abs(product * sin(2 theta_n)).  Each
product runs left to right from 1, as math.prod does, so every row and every
CSV byte equal closed_form_smax and "%.9g" row by row.

The CSV goes to the sink in blocks of at least _BLOCK_ROWS rows (the last
may be shorter), each head written as its text joined to its tails.  A
head's text is built from its n - 1 fields, not extended from a shorter
prefix: per-level prefix texts would cost n^2 on a one-point grid, and n may
reach MAX_SOURCES.  sweep returns a _Table, which has its length before any
row is made and makes the rows again on each iteration, so no caller holds
the whole table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import InvalidParameterError, ResourceLimitError
from .inequality import (VIOLATION_TOLERANCE, _check_source_angles, _smax_at,
                         _smax_root)
from .topology import NetworkConfig

MAX_SWEEP_ROWS = 1_000_000
# Rows gathered into one write to the sink.
_BLOCK_ROWS = 8192


class _Table:
    """The rows of a sweep, in grid order; each iteration makes them again."""

    def __init__(self, grid: Sequence[float], n: int, root: float) -> None:
        self.grid = tuple(grid)
        self.n = n
        self.root = root
        self.sines = [math.sin(2.0 * t) for t in self.grid]

    def __len__(self) -> int:
        return len(self.grid) ** self.n

    def __iter__(self) -> Iterator[tuple[tuple[float, ...], float, float, bool]]:
        last = [(t,) for t in self.grid]
        heads = itertools.product(self.grid, repeat=self.n - 1)
        for head, values in self._by_product(heads, self._values):
            for t, (alpha_star, smax, violated) in zip(last, values):
                yield head + t, alpha_star, smax, violated

    def _values(self, product: float) -> list[tuple[float, float, bool]]:
        """(alpha_star, smax, violated) of the rows whose head has this product."""
        root, threshold = self.root, 1.0 + VIOLATION_TOLERANCE
        values = []
        for s in self.sines:
            smax, alpha_star = _smax_at(abs(product * s) ** root)
            values.append((alpha_star, smax, smax > threshold))
        return values

    def _by_product(self, heads: Iterable, make: Callable[[float], list]
                    ) -> Iterator[tuple]:
        """Pair each head, in grid order, with make(the product of its sines).

        make runs once per distinct product, and its result is kept only
        until the last head with that product.
        """
        repeat = self.n - 1
        left = Counter(map(math.prod, itertools.product(self.sines, repeat=repeat)))
        made: dict[float, list] = {}
        for head, head_sines in zip(heads, itertools.product(self.sines, repeat=repeat)):
            product = math.prod(head_sines)
            result = made.get(product)
            if result is None:
                result = made[product] = make(product)
            left[product] -= 1
            if not left[product]:
                del made[product]
            yield head, result

    def write(self, sink: TextIO) -> None:
        """Write the header, then the rows as CSV, each write but the last
        holding _BLOCK_ROWS rows or more."""
        sink.write(",".join([f"theta_{r}" for r in range(1, self.n + 1)]
                            + ["alpha_star", "smax", "violated"]) + "\n")
        fields = [f"{t:.9g}," for t in self.grid]

        def tails(product: float) -> list[str]:
            return [f"{field}{alpha_star:.9g},{smax:.9g},"
                    f"{'true' if violated else 'false'}\n"
                    for field, (alpha_star, smax, violated)
                    in zip(fields, self._values(product))]

        texts = map("".join, itertools.product(fields, repeat=self.n - 1))
        heads_per_block = math.ceil(_BLOCK_ROWS / len(fields))
        block: list[str] = []
        for text, row_tails in self._by_product(texts, tails):
            block.append(text + text.join(row_tails))
            if len(block) == heads_per_block:
                sink.write("".join(block))
                block.clear()
        if block:
            sink.write("".join(block))


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
    _check_source_angles(theta_grid)
    table = _Table(theta_grid, n, root)
    if sink is not None:
        table.write(sink)
    return table
