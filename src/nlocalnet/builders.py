"""Layout constructors and the JSON writer.  Of the commands, only
`nlocalnet generate` loads this module."""

import json

from .errors import InvalidParameterError
from .topology import NetworkConfig, NodeId, check_source_count


def build_chain(n: int) -> NetworkConfig:
    """Chain layout (n, 2, 2): B1 - A1 - ... - A(n-1) - B2, one source per link.

    Source r joins the r-th and (r+1)-th node of that path.
    """
    if n < 2:
        raise InvalidParameterError(f"chain needs at least 2 sources, got {n}")
    check_source_count(n)
    path = [NodeId.extremal(1), *map(NodeId.intermediate, range(1, n)), NodeId.extremal(2)]
    edges = {r: (path[r - 1], path[r]) for r in range(1, n + 1)}
    return NetworkConfig(n=n, m=2, p=2, edges=edges)


def build_star(n: int) -> NetworkConfig:
    """Star layout (n, n, n): one hub holding a qubit of every source; the
    tree with m = n."""
    if n < 2:
        raise InvalidParameterError(f"star needs at least 2 sources, got {n}")
    return build_tree(n, n)


def build_tree(n: int, m: int) -> NetworkConfig:
    """Layered tree layout (n, m, p) with p = n - (n-m)/(m-1), built leaves-first.

    The l = (2n - p)/m intermediate nodes fill layer by layer: A1..A(l-1)
    each hold m - 1 sources from below and one fresh source to a later
    node, and the root Al holds the last m.  Source r's lower end is the
    r-th of B1..Bp, A1..A(l-1), and its upper end is A(ceil(r/(m-1))),
    capped at the root Al.  For m = 2 this reproduces the chain shape, for
    m = n the star.
    """
    if m < 2:
        raise InvalidParameterError(f"tree needs m >= 2, got {m}")
    if n < m:
        raise InvalidParameterError(f"tree needs n >= m, got n={n}, m={m}")
    if (n - m) % (m - 1) != 0:
        raise InvalidParameterError(
            f"tree needs (n - m) divisible by (m - 1); got n={n}, m={m}")
    check_source_count(n)
    p = n - (n - m) // (m - 1)
    l = (2 * n - p) // m
    nodes = [*map(NodeId.extremal, range(1, p + 1)),
             *map(NodeId.intermediate, range(1, l + 1))]
    edges = {r: (nodes[r - 1], nodes[p + min((r - 1) // (m - 1), l - 1)])
             for r in range(1, n + 1)}
    return NetworkConfig(n=n, m=m, p=p, edges=edges)


def serialize_config(config: NetworkConfig) -> str:
    """Render the layout as JSON with a fixed key order, for diff-stable files."""
    doc = {
        "n": config.n,
        "m": config.m,
        "p": config.p,
        "edges": [
            {"source": r,
             "ends": [config.edges[r][0].name, config.edges[r][1].name]}
            for r in sorted(config.edges)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
