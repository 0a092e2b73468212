"""Acyclic network layouts with two-particle sources.

A layout couples n two-particle sources to l intermediate nodes holding m
particles each and p extremal nodes holding a single particle, with
l = (2n - p) / m.  The node/source incidence structure must form a tree:
every source bridges exactly two nodes, extremal nodes touch one source,
intermediate nodes touch m of them, and the whole picture is connected
with no cycles.  validate lists what breaks these rules and check_layout
raises on them, both from one pass over the edge map: it counts each
node's sources, and each source joins its two nodes in a union-find over
the nodes; the remaining components show whether the network is connected,
and it has a cycle exactly when n exceeds the node count minus the
component count.

Node names follow the "A<i>" / "B<j>" convention of the JSON topology
files: intermediate nodes are A1..Al, extremal nodes B1..Bp.  Edge endpoint
order matters only to the tests' statevector oracle, where the first listed
endpoint of a source receives qubit 0 of that source's pair; the package's
answers ignore it.
"""

import json
from operator import index
from typing import Mapping, NamedTuple

from .errors import InvalidParameterError, ResourceLimitError

INTERMEDIATE = "intermediate"
EXTREMAL = "extremal"

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
        text = name.strip() if isinstance(name, str) else ""
        digits = text[1:]
        if not (text[:1] in ("A", "B") and digits.isascii() and digits.isdigit()
                and digits[0] != "0"):
            raise InvalidParameterError(
                f"node name {name!r} must look like 'A3' or 'B1'")
        kind = INTERMEDIATE if text[0] == "A" else EXTREMAL
        try:
            index = int(digits)
        except ValueError:  # more digits than int() converts
            raise InvalidParameterError(
                f"node name index has {len(digits)} digits, too many to read"
            ) from None
        return cls(kind, index)

    @property
    def name(self) -> str:
        """'A<index>' or 'B<index>'; a node of any other kind is named by
        the repr of its kind, as 'weird':1, so it never reads as either."""
        kind = self.kind
        prefix = "A" if kind == INTERMEDIATE else "B" if kind == EXTREMAL else f"{kind!r}:"
        return f"{prefix}{decimal_text(self.index)}"


class NetworkConfig(NamedTuple):
    """An (n, m, p) layout; the edge map sends each source to its two endpoints.

    Values are treated as immutable once built.  Endpoint order matters only
    to the tests' statevector oracle, which puts qubit 0 of a source's pair
    at the first listed endpoint; the package's answers ignore it.
    """

    n: int
    m: int
    p: int
    edges: Mapping[int, tuple[NodeId, NodeId]]

    @property
    def l(self) -> int:
        """Intermediate node count (2n - p) / m; meaningful for valid layouts."""
        if self.m < 1:
            raise InvalidParameterError(
                f"particles per intermediate node m must be at least 1, got {self.m}")
        return (2 * self.n - self.p) // self.m


def intermediate_nodes(config: NetworkConfig) -> list[NodeId]:
    return [NodeId.intermediate(i) for i in range(1, config.l + 1)]


def extremal_nodes(config: NetworkConfig) -> list[NodeId]:
    return [NodeId.extremal(j) for j in range(1, config.p + 1)]


def check_source_count(n: int) -> None:
    """Raise ResourceLimitError when a layout of n sources is above MAX_SOURCES."""
    if n > MAX_SOURCES:
        raise ResourceLimitError(
            f"layout has {n} sources, above the cap {MAX_SOURCES}")


def validate(config: NetworkConfig) -> list[str]:
    """Describe every violated layout invariant; an empty list means valid.

    The tree test treats each source as an edge between its two nodes and
    unions the nodes it joins: the layout is connected when one component
    remains, and acyclic when every source merged two components, that is
    when n equals the node count minus the component count.  A count or a
    node index that is not an integer, or a source that does not map to two
    NodeId ends, raises TypeError.
    """
    return _walk(config)


def check_layout(config: NetworkConfig) -> None:
    """Raise InvalidParameterError naming every issue validate reports; the
    answer path's one check of a layout."""
    issues = _walk(config)
    if issues:
        raise InvalidParameterError("invalid network layout: " + "; ".join(issues))


def decimal_text(value: int) -> str:
    """str(value), or '<k-bit integer>' (signed) past str()'s digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def _walk(config: NetworkConfig) -> list[str]:
    # One pass over the edge map, counting each node's sources.
    issues: list[str] = []
    n, m, p = map(index, (config.n, config.m, config.p))
    if n < 2:
        issues.append(f"source count n must be at least 2, got {decimal_text(n)}")
    if m < 2:
        issues.append(
            f"particles per intermediate node m must be at least 2, got {decimal_text(m)}")
    if p < 2:
        issues.append(f"extremal node count p must be at least 2, got {decimal_text(p)}")
    if p > n:
        issues.append(f"extremal node count p={decimal_text(p)} exceeds source count "
                      f"n={decimal_text(n)}")

    l = None
    if m >= 1:
        if (2 * n - p) % m == 0:
            l = (2 * n - p) // m
        else:
            issues.append(
                f"2n - p = {decimal_text(2 * n - p)} is not divisible by "
                f"m = {decimal_text(m)}; the intermediate node count is not an integer")

    # Each range below is built only when its size matches a count of
    # objects already in memory, never from a size read from a file.
    if len(config.edges) != n or set(config.edges) != set(range(1, n + 1)):
        issues.append("edge map must assign exactly the sources 1..n")

    # Nodes get positions 0, 1, ... in order of first sight; parent is a
    # union-find forest over the positions, and each source joins its ends.
    position: dict[NodeId, int] = {}
    parent = list(range(2 * len(config.edges)))
    degrees = [0] * len(parent)
    merges = 0
    for r in sorted(config.edges):
        try:
            u, v = config.edges[r]
        except (TypeError, ValueError):  # not two ends
            u = v = None
        if not (isinstance(u, NodeId) and isinstance(v, NodeId)):
            raise TypeError(f"source {decimal_text(r)} must map to two NodeId ends")
        i, j = position.setdefault(u, len(position)), position.setdefault(v, len(position))
        if i == j:
            issues.append(f"source {decimal_text(r)} has both particles at node {u.name}")
        degrees[i] += 1
        degrees[j] += 1
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            merges += 1

    nodes = sorted(position)
    for kind, count in ((INTERMEDIATE, l), (EXTREMAL, p)):
        seen = [node.index for node in nodes if node.kind == kind]
        if count is not None and (len(seen) != max(count, 0)
                                  or seen != list(range(1, count + 1))):
            issues.append(
                f"{kind} nodes must be exactly {NodeId(kind, 1).name}.."
                f"{NodeId(kind, count).name}, found {[NodeId(kind, i).name for i in seen]}")

    for node in nodes:
        index(node.index)  # once per node: a wrong type raises TypeError
        if node.kind not in (INTERMEDIATE, EXTREMAL):
            issues.append(f"node of kind {node.kind!r} and index {decimal_text(node.index)} "
                          f"is neither {INTERMEDIATE} nor {EXTREMAL}")
            continue
        want = m if node.kind == INTERMEDIATE else 1
        degree = degrees[position[node]]
        if degree != want:
            issues.append(
                f"node {node.name} touches {degree} sources, expected {decimal_text(want)}")

    if len(config.edges) > merges:
        issues.append("the node/source incidence graph contains a cycle")
    components = len(position) - merges
    if components > 1:
        issues.append(f"the network is disconnected ({components} components)")
    return issues


def parse_config(text: str) -> NetworkConfig:
    """Inverse of serialize_config; structural problems raise InvalidParameterError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or too many digits
        raise InvalidParameterError(f"topology document is not valid JSON: {exc}") from None
    return config_from_doc(doc)


def config_from_doc(doc: object) -> NetworkConfig:
    """parse_config on the decoded document; the CLI builds custom layouts with it."""
    if not isinstance(doc, dict):
        raise InvalidParameterError("topology document must be a JSON object")
    missing = {"n", "m", "p", "edges"} - set(doc)
    if missing:
        raise InvalidParameterError(f"topology document lacks keys: {sorted(missing)}")
    for key in ("n", "m", "p"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise InvalidParameterError(f"topology key {key!r} must be an integer")
    check_source_count(doc["n"])
    if not isinstance(doc["edges"], list):
        raise InvalidParameterError("topology key 'edges' must be a list")
    check_source_count(len(doc["edges"]))  # before any node name is parsed
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
