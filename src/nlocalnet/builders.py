"""Layout constructors and the JSON writer.  Of the commands, only
`nlocalnet generate` loads this module."""

import json
from collections import deque

from .errors import InvalidParameterError
from .topology import NetworkConfig, NodeId, check_source_count


def build_chain(n: int) -> NetworkConfig:
    """Chain layout (n, 2, 2): B1 - A1 - ... - A(n-1) - B2, one source per link."""
    if n < 2:
        raise InvalidParameterError(f"chain needs at least 2 sources, got {n}")
    check_source_count(n)
    edges: dict[int, tuple[NodeId, NodeId]] = {}
    left = NodeId.extremal(1)
    for r in range(1, n):
        right = NodeId.intermediate(r)
        edges[r] = (left, right)
        left = right
    edges[n] = (left, NodeId.extremal(2))
    return NetworkConfig(n=n, m=2, p=2, edges=edges)


def build_star(n: int) -> NetworkConfig:
    """Star layout (n, n, n): one hub holding a qubit of every source; the
    tree with m = n."""
    if n < 2:
        raise InvalidParameterError(f"star needs at least 2 sources, got {n}")
    return build_tree(n, n)


def build_tree(n: int, m: int) -> NetworkConfig:
    """Layered tree layout (n, m, n - (n-m)/(m-1)), built leaves-first.

    Extremal leaves B1..Bp hold one end of sources 1..p.  Each intermediate
    node consumes the m-1 oldest dangling source ends plus one fresh source
    whose far end dangles for a later layer; the root consumes the last m.
    For m = 2 this reproduces the chain shape, for m = n the star.
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
    lower_end = {r: NodeId.extremal(r) for r in range(1, p + 1)}
    dangling = deque(range(1, p + 1))
    edges: dict[int, tuple[NodeId, NodeId]] = {}
    for t in range(1, l):
        node = NodeId.intermediate(t)
        for _ in range(m - 1):
            r = dangling.popleft()
            edges[r] = (lower_end[r], node)
        fresh = p + t
        lower_end[fresh] = node
        dangling.append(fresh)
    root = NodeId.intermediate(l)
    while dangling:
        r = dangling.popleft()
        edges[r] = (lower_end[r], root)
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
