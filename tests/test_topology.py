import hashlib
import json
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlocalnet.topology
from helpers import incidence_graph, random_config, run_fresh
from nlocalnet import (InvalidParameterError, NetworkConfig, NodeId,
                       ResourceLimitError, build_chain, build_star, build_tree,
                       extremal_nodes, intermediate_nodes, parse_config,
                       serialize_config, validate)
from nlocalnet.cli import main
from nlocalnet.topology import EXTREMAL, INTERMEDIATE, MAX_SOURCES, check_layout
from oracles import attachments, evaluate_S_from_correlator


def test_chain_two_matches_documented_edges():
    config = build_chain(2)
    assert (config.n, config.m, config.p, config.l) == (2, 2, 2, 1)
    assert config.edges == {
        1: (NodeId.extremal(1), NodeId.intermediate(1)),
        2: (NodeId.intermediate(1), NodeId.extremal(2)),
    }


def test_chain_endpoints_and_counts():
    config = build_chain(3)
    assert config.l == 2
    attach = attachments(config)
    assert attach[NodeId.intermediate(1)] == (1, 2)
    assert attach[NodeId.intermediate(2)] == (2, 3)
    assert attach[NodeId.extremal(1)] == (1,)
    assert attach[NodeId.extremal(2)] == (3,)


def test_chain_rejects_single_source():
    with pytest.raises(InvalidParameterError):
        build_chain(1)


def test_star_counts_and_attachments():
    config = build_star(3)
    assert (config.n, config.m, config.p, config.l) == (3, 3, 3, 1)
    attach = attachments(config)
    assert attach[NodeId.intermediate(1)] == (1, 2, 3)
    config4 = build_star(4)
    assert config4.l == (2 * 4 - 4) // 4 == 1


def test_star_two_has_chain_shape():
    a = incidence_graph(build_star(2))
    b = incidence_graph(build_chain(2))
    assert nx.is_isomorphic(a, b, node_match=lambda x, y: x["kind"] == y["kind"])


def test_star_rejects_single_source():
    with pytest.raises(InvalidParameterError, match="star needs at least 2 sources, got 1"):
        build_star(1)


def test_tree_fifteen_three():
    config = build_tree(15, 3)
    assert (config.p, config.l) == (9, 7)
    assert validate(config) == []


def test_tree_five_three():
    config = build_tree(5, 3)
    assert (config.p, config.l) == (4, 2)
    assert validate(config) == []


def test_tree_rejects_bad_divisibility():
    with pytest.raises(InvalidParameterError, match="divisible"):
        build_tree(6, 3)


def test_built_layouts_match_their_pinned_sha256():
    # The numbering and endpoint order that build_tree and build_chain
    # write, for every (n, m) up to 60 and for tree(99999, 3).  A layout
    # with every source's ends swapped is still valid.
    digest = hashlib.sha256()
    for n in range(2, 61):
        for m in range(2, n + 1):
            if (n - m) % (m - 1) == 0:
                digest.update(serialize_config(build_tree(n, m)).encode())
    for n in range(2, 61):
        digest.update(serialize_config(build_chain(n)).encode())
    assert digest.hexdigest() == \
        "e6e9877fe994b1cb7b9c9009ca07b59d67a5f4f514f8f9f49f2d833a353866ea"
    edges = repr(sorted(build_tree(99999, 3).edges.items())).encode()
    assert hashlib.sha256(edges).hexdigest() == \
        "d924ee8d8ba0d6a89ffaaa2b67fedda86b11c99c7f8618de11d2d999e04e3575"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tree_arity_two_is_chain_shaped(n):
    a = incidence_graph(build_tree(n, 2))
    b = incidence_graph(build_chain(n))
    assert nx.is_isomorphic(a, b, node_match=lambda x, y: x["kind"] == y["kind"])


@given(st.integers(2, 12))
@settings(max_examples=30)
def test_chain_invariants(n):
    config = build_chain(n)
    assert validate(config) == []
    assert config.l * config.m + config.p == 2 * config.n
    assert config.l == n - 1


@given(st.integers(2, 8))
@settings(max_examples=30)
def test_star_invariants(n):
    config = build_star(n)
    assert validate(config) == []
    assert config.l == 1
    assert config.l * config.m + config.p == 2 * config.n


@given(st.integers(2, 4), st.integers(0, 4))
@settings(max_examples=40)
def test_tree_invariants(m, layers):
    n = m + layers * (m - 1)
    config = build_tree(n, m)
    assert validate(config) == []
    assert config.l * config.m + config.p == 2 * config.n
    assert config.p <= config.n
    graph = incidence_graph(config)
    assert nx.is_connected(graph)
    assert nx.is_tree(graph)
    # handshake: 2n incidences over l + p + n vertices
    assert graph.number_of_edges() == 2 * n
    assert graph.number_of_nodes() == config.l + config.p + config.n


NODES = st.builds(NodeId, st.sampled_from([INTERMEDIATE, EXTREMAL]), st.integers(1, 3))


@given(st.lists(st.tuples(NODES, NODES), min_size=1, max_size=7))
@settings(max_examples=300)
def test_tree_verdict_agrees_with_networkx(ends):
    # Few node names, so self-loops, parallel sources and several
    # components all occur.
    edges = dict(enumerate(ends, start=1))
    config = NetworkConfig(n=len(edges), m=2, p=2, edges=edges)
    graph = incidence_graph(config)
    issues = validate(config)
    has_cycle = "the node/source incidence graph contains a cycle" in issues
    assert has_cycle == (not nx.is_forest(graph))
    components = nx.number_connected_components(graph)
    disconnected = [issue for issue in issues if "disconnected" in issue]
    assert disconnected == ([f"the network is disconnected ({components} components)"]
                            if components > 1 else [])


@given(st.integers(2, 8))
@settings(max_examples=20)
def test_serialization_round_trip(n):
    config = build_tree(n, 2) if n % 2 else build_chain(n)
    assert parse_config(serialize_config(config)) == config


def test_serialized_key_order():
    text = serialize_config(build_chain(2))
    assert text.index('"n"') < text.index('"m"') < text.index('"p"') < text.index('"edges"')
    assert text.index('"source"') < text.index('"ends"')


def test_each_source_appears_twice_in_attachments():
    for config in (build_chain(4), build_star(5), build_tree(7, 3)):
        attach = attachments(config)
        counts = {r: 0 for r in range(1, config.n + 1)}
        for sources in attach.values():
            for r in sources:
                counts[r] += 1
        assert all(count == 2 for count in counts.values())


def test_validate_reports_divisibility():
    config = NetworkConfig(n=5, m=3, p=2, edges=build_chain(5).edges)
    issues = validate(config)
    assert any("divisible" in issue for issue in issues)


def test_validate_reports_cycle():
    edges = {
        1: (NodeId.intermediate(1), NodeId.intermediate(2)),
        2: (NodeId.intermediate(1), NodeId.intermediate(2)),
    }
    issues = validate(NetworkConfig(n=2, m=2, p=2, edges=edges))
    assert any("cycle" in issue for issue in issues)


def test_validate_reports_disconnected():
    # two separate two-source chains declared as one (4, 2, 4) layout
    edges = {
        1: (NodeId.extremal(1), NodeId.intermediate(1)),
        2: (NodeId.intermediate(1), NodeId.extremal(2)),
        3: (NodeId.extremal(3), NodeId.intermediate(2)),
        4: (NodeId.intermediate(2), NodeId.extremal(4)),
    }
    issues = validate(NetworkConfig(n=4, m=2, p=4, edges=edges))
    assert any("disconnected" in issue for issue in issues)


def test_validate_reports_bad_degree():
    edges = dict(build_chain(3).edges)
    edges[3] = (NodeId.extremal(1), NodeId.extremal(2))  # B1 now touches 2 sources
    issues = validate(NetworkConfig(n=3, m=2, p=2, edges=edges))
    assert any("touches" in issue for issue in issues)


def test_validate_reports_degrees_extremal_first_then_by_index():
    # Nodes are first seen as A4, B2, A1, B1; the degree issues come in
    # NodeId order instead: extremal before intermediate, each by index.
    a, b = NodeId.intermediate, NodeId.extremal
    edges = {1: (a(4), b(2)), 2: (b(2), a(1)), 3: (a(1), a(4)),
             4: (a(4), b(1)), 5: (b(1), a(1))}
    assert validate(NetworkConfig(n=5, m=2, p=2, edges=edges)) == [
        "intermediate nodes must be exactly A1..A4, found ['A1', 'A4']",
        "node B1 touches 2 sources, expected 1",
        "node B2 touches 2 sources, expected 1",
        "node A1 touches 3 sources, expected 2",
        "node A4 touches 3 sources, expected 2",
        "the node/source incidence graph contains a cycle",
    ]


def test_attachments_rejects_invalid_config():
    config = NetworkConfig(n=5, m=3, p=2, edges=build_chain(5).edges)
    with pytest.raises(InvalidParameterError):
        check_layout(config)
    # the counting conditions that no other layout here breaks
    edges = build_chain(3).edges
    for (n, m, p), fragment in (
            ((1, 2, 2), "source count n must be at least 2, got 1"),
            ((3, 1, 2), "particles per intermediate node m must be at least 2, got 1"),
            ((3, 2, 1), "extremal node count p must be at least 2, got 1"),
            ((4, 2, 2), "edge map must assign exactly the sources 1..n")):
        with pytest.raises(InvalidParameterError, match=re.escape(fragment)):
            check_layout(NetworkConfig(n=n, m=m, p=p, edges=edges))


def test_validate_names_a_node_of_neither_kind():
    # NodeId.parse makes only the two kinds; a program can build any other
    weird = NodeId("weird", 1)
    b1, b2 = NodeId.extremal(1), NodeId.extremal(2)
    config = NetworkConfig(n=2, m=2, p=2, edges={1: (b1, weird), 2: (weird, b2)})
    issues = ["intermediate nodes must be exactly A1..A1, found []",
              "node of kind 'weird' and index 1 is neither intermediate nor extremal"]
    assert validate(config) == issues
    with pytest.raises(InvalidParameterError) as excinfo:
        check_layout(config)
    assert str(excinfo.value) == "invalid network layout: " + "; ".join(issues)
    # and a message about such a node names it by the repr of its kind, never
    # as an extremal node B1
    config = NetworkConfig(n=2, m=2, p=2, edges={1: (weird, weird), 2: (b1, b2)})
    assert validate(config) == [
        "source 1 has both particles at node 'weird':1",
        "intermediate nodes must be exactly A1..A1, found []",
        "node of kind 'weird' and index 1 is neither intermediate nor extremal",
        "the node/source incidence graph contains a cycle",
        "the network is disconnected (2 components)"]
    assert weird.name == "'weird':1"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["intact", "end moved", "source dropped"]))
def test_check_layout_raises_exactly_when_validate_reports(seed, damage):
    rng = np.random.default_rng(seed)
    config = random_config(rng)
    edges = dict(config.edges)
    r = int(rng.integers(1, config.n + 1))
    if damage == "end moved":
        # to any other node of the layout: the node it leaves loses a source
        nodes = sorted({node for ends in edges.values() for node in ends} - {edges[r][0]})
        edges[r] = (nodes[int(rng.integers(0, len(nodes)))], edges[r][1])
    elif damage == "source dropped":
        del edges[r]
    config = config._replace(edges=edges)
    issues = validate(config)
    assert bool(issues) == (damage != "intact")
    if issues:
        message = "invalid network layout: " + "; ".join(issues)
        for check in (check_layout, attachments):
            with pytest.raises(InvalidParameterError) as excinfo:
                check(config)
            assert str(excinfo.value) == message
        return
    assert check_layout(config) is None
    attach = attachments(config)
    assert sorted(attach) == sorted(intermediate_nodes(config) + extremal_nodes(config))
    assert sorted(source for sources in attach.values() for source in sources) \
        == sorted(2 * list(range(1, config.n + 1)))
    assert all(len(sources) == (config.m if node.kind == INTERMEDIATE else 1)
               for node, sources in attach.items())
    assert all(list(sources) == sorted(sources) for sources in attach.values())


@pytest.mark.parametrize("call", [
    intermediate_nodes,
    lambda config: evaluate_S_from_correlator(lambda assignment: 1.0, config),
], ids=["intermediate_nodes", "evaluate_S_from_correlator"])
def test_zero_particles_per_node_is_an_invalid_parameter(call):
    config = NetworkConfig(n=2, m=0, p=2, edges=build_chain(2).edges)
    with pytest.raises(InvalidParameterError):
        call(config)


def test_parse_config_rejects_garbage(tmp_path, capsys):
    with pytest.raises(InvalidParameterError):
        parse_config("not json")
    with pytest.raises(InvalidParameterError):
        parse_config('{"n": 2, "m": 2}')
    with pytest.raises(InvalidParameterError):
        parse_config('{"n": 2, "m": 2, "p": 2, "edges": [{"source": 1, "ends": ["Q1", "A1"]}]}')
    head = '{"n": 2, "m": 2, "p": 2, "edges": '
    topo = tmp_path / "bad.json"
    for edges, fragment in (
            ('{}', "topology key 'edges' must be a list"),
            ('[{"source": 1}]', "each edge needs 'source' and 'ends' keys"),
            ('[{"source": 1, "ends": ["B1"]}]', "edge for source 1 needs exactly two ends")):
        with pytest.raises(InvalidParameterError, match=re.escape(fragment)):
            parse_config(head + edges + "}")
        # through the command line: exit 2 and one line on stderr
        topo.write_text(head + edges + "}")
        assert main(["validate", "--topology", str(topo)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and fragment in err


def test_node_id_parse_and_name():
    assert NodeId.parse("A3") == NodeId.intermediate(3)
    assert NodeId.parse("B1") == NodeId.extremal(1)
    assert NodeId.intermediate(7).name == "A7"
    with pytest.raises(InvalidParameterError):
        NodeId.parse("A0")
    with pytest.raises(InvalidParameterError):
        NodeId.parse("C2")


@settings(derandomize=True, max_examples=500)
@given(st.text(st.sampled_from("AB019 \t\n\u00a0\u0662\u00b2C"), max_size=6))
def test_node_id_parse_accepts_what_the_name_pattern_accepts(name):
    """The grammar NodeId.parse had as a regular expression: A or B, then
    ASCII digits with no leading zero, once whitespace is stripped."""
    match = re.fullmatch(r"([AB])([1-9][0-9]*)", name.strip())
    if match:
        assert NodeId.parse(name).name == match.group(1) + str(int(match.group(2)))
    else:
        with pytest.raises(InvalidParameterError, match="must look like 'A3' or 'B1'"):
            NodeId.parse(name)


@pytest.mark.parametrize("build", [
    build_chain, build_star, lambda n: build_tree(n, n),
], ids=["chain", "star", "tree"])
def test_constructors_cap_the_source_count(build):
    assert build(MAX_SOURCES).n == MAX_SOURCES
    with pytest.raises(ResourceLimitError):
        build(10 ** 9)


def test_parse_config_caps_the_source_count():
    with pytest.raises(ResourceLimitError):
        parse_config('{"n": 1000000000000, "m": 2, "p": 2, "edges": []}')


def test_parse_config_caps_the_edge_count_before_parsing_a_node_name(monkeypatch):
    parsed = []
    real_parse = NodeId.parse.__func__

    def counting_parse(cls, name):
        parsed.append(name)
        return real_parse(cls, name)

    monkeypatch.setattr(NodeId, "parse", classmethod(counting_parse))
    monkeypatch.setattr(nlocalnet.topology, "MAX_SOURCES", 3)
    edges = [{"source": r, "ends": ["B1", "A1"]} for r in range(1, 5)]
    text = json.dumps({"n": 2, "m": 2, "p": 2, "edges": edges})
    with pytest.raises(ResourceLimitError, match="layout has 4 sources, above the cap 3"):
        parse_config(text)
    assert parsed == []
    # at the cap, every name is parsed and the layout is left to validate
    assert len(parse_config(json.dumps({"n": 2, "m": 2, "p": 2,
                                        "edges": edges[:3]})).edges) == 3
    assert len(parsed) == 6


# -(10**4300 - 1): the most negative p that int() reads; 2n - p then has 4301
# digits, one more than str() converts.
HUGE_P = -int("9" * 4300)


def test_validate_describes_integers_too_long_to_print():
    edges = build_chain(3).edges
    assert validate(NetworkConfig(n=3, m=2, p=HUGE_P, edges=edges)) == [
        f"extremal node count p must be at least 2, got {HUGE_P}",
        "2n - p = <14285-bit integer> is not divisible by m = 2; "
        "the intermediate node count is not an integer",
        "extremal nodes must be exactly B1..B" + str(HUGE_P) + ", found ['B1', 'B2']",
    ]
    assert ("intermediate nodes must be exactly A1..A<14285-bit integer>, found "
            "['A1', 'A2']") in validate(NetworkConfig(n=3, m=1, p=HUGE_P, edges=edges))
    # counts a program passes in, beyond what int() reads from text
    assert validate(NetworkConfig(n=10 ** 5000, m=-10 ** 5000, p=10 ** 5001,
                                  edges=edges)) == [
        "particles per intermediate node m must be at least 2, got -<16610-bit integer>",
        "extremal node count p=<16613-bit integer> exceeds source count "
        "n=<16610-bit integer>",
        "edge map must assign exactly the sources 1..n",
        "extremal nodes must be exactly B1..B<16613-bit integer>, found ['B1', 'B2']",
        "node A1 touches 2 sources, expected -<16610-bit integer>",
        "node A2 touches 2 sources, expected -<16610-bit integer>",
    ]
    # a node index a program passes in
    huge = NodeId.intermediate(10 ** 5000)
    assert huge.name == "A<16610-bit integer>"
    ends = (NodeId.extremal(1), huge), (huge, NodeId.extremal(2))
    assert validate(NetworkConfig(n=2, m=2, p=2, edges=dict(enumerate(ends, 1)))) == [
        "intermediate nodes must be exactly A1..A1, found ['A<16610-bit integer>']"]
    # one digit fewer: printed in full, as before
    p = -int("9" * 4299)
    assert (f"2n - p = {6 - p} is not divisible by m = 2; the intermediate node "
            "count is not an integer") in validate(NetworkConfig(n=3, m=2, p=p, edges=edges))


def test_a_source_number_too_long_to_print_is_named_by_its_bit_length():
    # str() of the source number raised a bare ValueError from inside validate
    a1, b1 = NodeId.intermediate(1), NodeId.extremal(1)
    config = NetworkConfig(n=2, m=2, p=2, edges={10 ** 5000: (a1, a1), 1: (b1, a1)})
    assert validate(config) == [
        "edge map must assign exactly the sources 1..n",
        "source <16610-bit integer> has both particles at node A1",
        "extremal nodes must be exactly B1..B2, found ['B1']",
        "node A1 touches 3 sources, expected 2",
        "the node/source incidence graph contains a cycle",
    ]
    with pytest.raises(InvalidParameterError,
                       match="; source <16610-bit integer> has both particles at node A1;"):
        check_layout(config)


@pytest.mark.parametrize("config, issues", [
    (NetworkConfig(n=2, m=2, p=6, edges={1: (NodeId.extremal(1), NodeId.extremal(2)),
                                         2: (NodeId.extremal(3), NodeId.extremal(4))}),
     ["extremal node count p=6 exceeds source count n=2",
      "extremal nodes must be exactly B1..B6, found ['B1', 'B2', 'B3', 'B4']",
      "the network is disconnected (2 components)"]),
    (NetworkConfig(n=2, m=2, p=-1, edges={1: (NodeId.intermediate(1), NodeId.intermediate(2)),
                                          2: (NodeId.intermediate(2), NodeId.intermediate(1))}),
     ["extremal node count p must be at least 2, got -1",
      "2n - p = 5 is not divisible by m = 2; the intermediate node count is not an integer",
      "the node/source incidence graph contains a cycle"]),
], ids=["l-1", "p-1"])
def test_a_negative_count_with_no_node_of_its_kind_is_no_range_issue(config, issues):
    # l = -1 with no A node, and p = -1 with no B node: A1..A-1 and B1..B-1
    # are empty ranges, and no node of the kind was found.
    assert validate(config) == issues


@pytest.mark.parametrize("config", [
    build_chain(2)._replace(m=2.5),
    NetworkConfig(n=2, m=2, p=2, edges={
        1: (NodeId.extremal(1), NodeId("intermediate", "1")),
        2: (NodeId("intermediate", "1"), NodeId.extremal(2))}),
], ids=["m-2.5", "node-index-str"])
def test_validate_refuses_a_count_or_node_index_of_a_wrong_type(config):
    # Read as numbers, these gave issues that contradict themselves: "node A1
    # touches 2 sources, expected 2.5" and "intermediate nodes must be exactly
    # A1..A1, found ['A1']".  Each goes through operator.index.
    with pytest.raises(TypeError):
        validate(config)


@pytest.mark.parametrize("ends", [
    (NodeId.intermediate(1), NodeId.intermediate(2), NodeId.extremal(1)),
    ("A1", "A2"),
    None,
], ids=["three-ends", "str-ends", "none"])
def test_validate_names_a_source_that_does_not_map_to_two_node_ids(ends):
    # These raised ValueError and AttributeError from inside the walk.
    edges = {**build_chain(3).edges, 2: ends}
    with pytest.raises(TypeError, match="^source 2 must map to two NodeId ends$"):
        validate(NetworkConfig(n=3, m=2, p=2, edges=edges))


def test_validate_allocates_nothing_of_a_size_read_from_the_layout():
    # n, p and l far above the edge map would need terabytes as ranges; the
    # child's address space is capped at 1 GiB so a regression fails fast.
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from nlocalnet import NetworkConfig, build_chain, validate\n"
        "edges = build_chain(2).edges\n"
        "for n, p in ((10**12, 2), (2, 10**12), (10**12, 10**12)):\n"
        "    assert validate(NetworkConfig(n=n, m=2, p=p, edges=edges))\n")
    done = run_fresh(code, OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
