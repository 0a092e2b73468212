"""Acyclic network layouts with two-particle sources.

A layout couples n two-particle sources to l intermediate nodes holding m
particles each and p extremal nodes holding a single particle, with
l = (2n - p) / m.  The node/source incidence structure must form a tree:
every source bridges exactly two nodes, extremal nodes touch one source,
intermediate nodes touch m of them, and the whole picture is connected
with no cycles.  validate checks the tree in its one pass over the edge
map: each source joins its two nodes in a union-find over the nodes, the
remaining components show whether the network is connected, and it has a
cycle exactly when n exceeds the node count minus the component count.

Node names follow the "A<i>" / "B<j>" convention of the JSON topology
files: intermediate nodes are A1..Al, extremal nodes B1..Bp.  Edge
endpoint order is meaningful downstream: the first listed endpoint of a
source receives qubit 0 of that source's pair.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import ConfigurationError, InvalidParameterError, ResourceLimitError

INTERMEDIATE = "intermediate"
EXTREMAL = "extremal"

_NODE_NAME = re.compile(r"([AB])([1-9][0-9]*)")

# Largest source count accepted from a file or a constructor, checked before
# anything of size n is allocated.
MAX_SOURCES = 100_000


class NodeId(NamedTuple):
    """A network party; intermediate nodes hold m particles, extremal nodes one.

    A named tuple equal to (kind, index), so it hashes, compares and sorts
    as that tuple does: extremal nodes sort before intermediate ones, and
    each kind by index.
    """

    kind: str
    index: int

    @classmethod
    def intermediate(cls, index: int) -> "NodeId":
        return cls(INTERMEDIATE, index)

    @classmethod
    def extremal(cls, index: int) -> "NodeId":
        return cls(EXTREMAL, index)

    @classmethod
    def parse(cls, name: str) -> "NodeId":
        match = _NODE_NAME.fullmatch(name.strip()) if isinstance(name, str) else None
        if match is None:
            raise InvalidParameterError(
                f"node name {name!r} must look like 'A3' or 'B1'")
        kind = INTERMEDIATE if match.group(1) == "A" else EXTREMAL
        try:
            index = int(match.group(2))
        except ValueError:  # more digits than int() converts
            raise InvalidParameterError(
                f"node name index has {len(match.group(2))} digits, too many to read"
            ) from None
        return cls(kind, index)

    @property
    def name(self) -> str:
        prefix = "A" if self.kind == INTERMEDIATE else "B"
        return f"{prefix}{self.index}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NetworkConfig:
    """An (n, m, p) layout; the edge map sends each source to its two endpoints.

    Values are treated as immutable once built.  Endpoint order fixes the
    qubit assignment: qubit 0 of a source's pair sits at the first listed
    endpoint.
    """

    n: int
    m: int
    p: int
    edges: Mapping[int, tuple[NodeId, NodeId]]

    @property
    def l(self) -> int:
        """Intermediate node count (2n - p) / m; meaningful for valid layouts."""
        if self.m < 1:
            raise ConfigurationError(
                f"particles per intermediate node m must be at least 1, got {self.m}")
        return (2 * self.n - self.p) // self.m


@dataclass(frozen=True)
class AttachmentMap:
    """Which sources reach each node; intermediate lists sorted by source index."""

    intermediate: Mapping[NodeId, tuple[int, ...]]
    extremal: Mapping[NodeId, int]


def intermediate_nodes(config: NetworkConfig) -> list[NodeId]:
    return [NodeId.intermediate(i) for i in range(1, config.l + 1)]


def extremal_nodes(config: NetworkConfig) -> list[NodeId]:
    return [NodeId.extremal(j) for j in range(1, config.p + 1)]


def _check_source_count(n: int) -> None:
    if n > MAX_SOURCES:
        raise ResourceLimitError(
            f"layout has {n} sources, above the cap {MAX_SOURCES}")


def build_chain(n: int) -> NetworkConfig:
    """Chain layout (n, 2, 2): B1 - A1 - ... - A(n-1) - B2, one source per link."""
    if n < 2:
        raise InvalidParameterError(f"chain needs at least 2 sources, got {n}")
    _check_source_count(n)
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
    _check_source_count(n)
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


def validate(config: NetworkConfig) -> list[str]:
    """Describe every violated layout invariant; an empty list means valid.

    The tree test treats each source as an edge between its two nodes and
    unions the nodes it joins: the layout is connected when one component
    remains, and acyclic when every source merged two components, that is
    when n equals the node count minus the component count.
    """
    return _walk(config)[0]


def _walk(config: NetworkConfig) -> tuple[list[str], dict[NodeId, list[int]]]:
    # One pass over the edge map: the issues, and each node's sources in
    # ascending order (the order attachments promises).
    issues: list[str] = []
    n, m, p = config.n, config.m, config.p
    if n < 2:
        issues.append(f"source count n must be at least 2, got {n}")
    if m < 2:
        issues.append(f"particles per intermediate node m must be at least 2, got {m}")
    if p < 2:
        issues.append(f"extremal node count p must be at least 2, got {p}")
    if p > n:
        issues.append(f"extremal node count p={p} exceeds source count n={n}")

    l = None
    if m >= 1:
        if (2 * n - p) % m == 0:
            l = (2 * n - p) // m
        else:
            issues.append(
                f"2n - p = {2 * n - p} is not divisible by m = {m}; "
                "the intermediate node count is not an integer")

    # Each range below is built only when its size matches a count of
    # objects already in memory, never from a size read from a file.
    if len(config.edges) != n or set(config.edges) != set(range(1, n + 1)):
        issues.append("edge map must assign exactly the sources 1..n")

    # Nodes get positions 0, 1, ... in order of first sight; parent is a
    # union-find forest over the positions, and each source joins its ends.
    position: dict[NodeId, int] = {}
    sources: list[list[int]] = []
    parent = list(range(2 * len(config.edges)))
    merges = 0
    for r in sorted(config.edges):
        u, v = config.edges[r]
        i, j = position.setdefault(u, len(position)), position.setdefault(v, len(position))
        if i == j:
            issues.append(f"source {r} has both particles at node {u.name}")
        for k in (i, j):
            if k == len(sources):
                sources.append([])
            sources[k].append(r)
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            merges += 1

    seen_inter = sorted(nd.index for nd in position if nd.kind == INTERMEDIATE)
    seen_extr = sorted(nd.index for nd in position if nd.kind == EXTREMAL)
    if l is not None and (len(seen_inter) != max(l, 0)
                          or seen_inter != list(range(1, l + 1))):
        issues.append(
            f"intermediate nodes must be exactly A1..A{l}, found "
            f"{[f'A{i}' for i in seen_inter]}")
    if len(seen_extr) != max(p, 0) or seen_extr != list(range(1, p + 1)):
        issues.append(
            f"extremal nodes must be exactly B1..B{p}, found "
            f"{[f'B{j}' for j in seen_extr]}")

    for node in sorted(position):
        want = m if node.kind == INTERMEDIATE else 1
        degree = len(sources[position[node]])
        if degree != want:
            issues.append(f"node {node.name} touches {degree} sources, expected {want}")

    if len(config.edges) > merges:
        issues.append("the node/source incidence graph contains a cycle")
    components = len(position) - merges
    if components > 1:
        issues.append(f"the network is disconnected ({components} components)")
    return issues, {node: sources[i] for node, i in position.items()}


def attachments(config: NetworkConfig) -> AttachmentMap:
    """Sources reaching each node, for a valid layout."""
    issues, sources = _walk(config)
    if issues:
        raise ConfigurationError("invalid network layout: " + "; ".join(issues))
    return AttachmentMap(
        intermediate={node: tuple(rs) for node, rs in sources.items()
                      if node.kind == INTERMEDIATE},
        extremal={node: rs[0] for node, rs in sources.items()
                  if node.kind == EXTREMAL})


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


def parse_config(text: str) -> NetworkConfig:
    """Inverse of serialize_config; structural problems raise InvalidParameterError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or too many digits
        raise InvalidParameterError(f"topology document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError("topology document must be a JSON object")
    missing = {"n", "m", "p", "edges"} - set(doc)
    if missing:
        raise InvalidParameterError(f"topology document lacks keys: {sorted(missing)}")
    for key in ("n", "m", "p"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise InvalidParameterError(f"topology key {key!r} must be an integer")
    _check_source_count(doc["n"])
    if not isinstance(doc["edges"], list):
        raise InvalidParameterError("topology key 'edges' must be a list")
    edges: dict[int, tuple[NodeId, NodeId]] = {}
    for entry in doc["edges"]:
        if not isinstance(entry, dict) or "source" not in entry or "ends" not in entry:
            raise InvalidParameterError("each edge needs 'source' and 'ends' keys")
        r = entry["source"]
        if not isinstance(r, int) or isinstance(r, bool) or r in edges:
            raise InvalidParameterError(f"edge source {r!r} must be a unique integer")
        ends = entry["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise InvalidParameterError(f"edge for source {r} needs exactly two ends")
        edges[r] = (NodeId.parse(ends[0]), NodeId.parse(ends[1]))
    return NetworkConfig(n=doc["n"], m=doc["m"], p=doc["p"], edges=edges)
