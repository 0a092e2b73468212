"""The table that sweep returns, loaded only once sweep's checks pass.  The
products that key it are made and read by inequality; here they are opaque."""

import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .inequality import Product, exact_product, smax_rows

# Rows gathered into one write to a sweep's sink.
_BLOCK_ROWS = 8192


class Table:
    """The rows of a sweep, in grid order; each iteration makes them again.

    A row's first n - 1 angles, its head, reach it only through the product
    of their sines, so the rows of each distinct product are made once, keyed
    by its exact_product: permuted heads can multiply to another last bit.
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
        rows = self._by_product(heads, lambda head: smax_rows(head, self.sines, self.p))
        for head, values in rows:
            for t, (alpha_star, smax, violated) in zip(last, values):
                yield head + t, alpha_star, smax, violated

    def _by_product(self, heads: Iterable, make: Callable[[Product], list]
                    ) -> Iterator[tuple]:
        """Pair each head, in grid order, with make(the product of its sines).

        make runs once per distinct product, and its result is kept only
        until the last head with that product.  0.0 and -0.0 share a key,
        harmless as a row reads only |product * last sine|.
        """
        left = Counter(map(exact_product, itertools.product(self.sines, repeat=self.n - 1)))
        made: dict[Product, list] = {}
        products = map(exact_product, itertools.product(self.sines, repeat=self.n - 1))
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
                    in zip(fields, smax_rows(product, self.sines, self.p))]

        texts = map("".join, itertools.product(fields, repeat=self.n - 1))
        heads = (text + text.join(row_tails)
                 for text, row_tails in self._by_product(texts, tails))
        heads_per_block = math.ceil(_BLOCK_ROWS / len(fields))
        for block in iter(lambda: "".join(itertools.islice(heads, heads_per_block)), ""):
            sink.write(block)
