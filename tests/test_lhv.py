import io
import itertools
import json
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import bits, brute_force_best_I, random_lhv_model
from nlocalnet import (InvalidParameterError, NetworkConfig, NodeId, ResourceLimitError,
                       build_chain, build_star, build_tree, extremal_nodes,
                       intermediate_nodes, lhv_best_S, parse_config)
from nlocalnet.lhv import write_vertex_model
from oracles import (MAX_OUTCOME_BITS, MAX_SUPPORT_TUPLES, LHVModel, SettingAssignment,
                     attachments, distribution_correlator, evaluate_S_from_correlator,
                     lhv_distribution, lhv_evaluate_S, model_to_jsonable, validate_model,
                     vertex_model)


def point_mass_model(config, symbol=0, c=2):
    """All sources on one symbol, every response 0."""
    weights = {r: tuple(1.0 if k == symbol else 0.0 for k in range(c))
               for r in range(1, config.n + 1)}
    inter = {NodeId.intermediate(i): bits(np.zeros((2, c ** config.m)))
             for i in range(1, config.l + 1)}
    extr = {NodeId.extremal(j): bits(np.zeros((2, c)))
            for j in range(1, config.p + 1)}
    return LHVModel(alphabet_size=c, weights=weights,
                    intermediate=inter, extremal=extr)


def xor_chain2_model():
    """Uniform binary sources; hub reports the symbol parity, leaves the symbol."""
    copy_table = bits([[0, 1], [0, 1]])
    xor_table = bits([[0, 1, 1, 0], [0, 1, 1, 0]])
    return LHVModel(
        alphabet_size=2,
        weights={1: (0.5, 0.5), 2: (0.5, 0.5)},
        intermediate={NodeId.intermediate(1): xor_table},
        extremal={NodeId.extremal(1): copy_table,
                  NodeId.extremal(2): copy_table})


def test_point_mass_distribution():
    config = build_chain(2)
    model = point_mass_model(config)
    assignment = SettingAssignment.from_bits(config, [0], [0, 0])
    dist = lhv_distribution(config, model, assignment)
    assert dist[(0, 0, 0)] == 1.0
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_xor_model_distribution():
    config = build_chain(2)
    model = xor_chain2_model()
    assignment = SettingAssignment.from_bits(config, [1], [0, 1])
    dist = lhv_distribution(config, model, assignment)
    for (a1, b1, b2), mass in dist.items():
        expected = 0.25 if a1 == b1 ^ b2 else 0.0
        assert mass == pytest.approx(expected, abs=1e-12)


def test_distribution_normalization_random_weights():
    config = build_star(3)
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 1.0, size=(3, 2))
    weights = {r: tuple(row / row.sum()) for r, row in enumerate(raw, start=1)}
    model = LHVModel(
        alphabet_size=2, weights=weights,
        intermediate={NodeId.intermediate(1):
                      bits(rng.integers(0, 2, size=(2, 8)))},
        extremal={NodeId.extremal(j):
                  bits(rng.integers(0, 2, size=(2, 2)))
                  for j in (1, 2, 3)})
    assignment = SettingAssignment.from_bits(config, [0], [1, 0, 1])
    dist = lhv_distribution(config, model, assignment)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_model_correlators_are_signs():
    config = build_chain(3)
    rng = np.random.default_rng(11)
    model = LHVModel(
        alphabet_size=2,
        weights={1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 0.0)},
        intermediate={NodeId.intermediate(i):
                      bits(rng.integers(0, 2, size=(2, 4)))
                      for i in (1, 2)},
        extremal={NodeId.extremal(j):
                  bits(rng.integers(0, 2, size=(2, 2)))
                  for j in (1, 2)})
    for x_bits in itertools.product((0, 1), repeat=2):
        for y_bits in itertools.product((0, 1), repeat=2):
            assignment = SettingAssignment.from_bits(config, x_bits, y_bits)
            corr = distribution_correlator(
                lhv_distribution(config, model, assignment))
            assert corr in (-1.0, 1.0)


def test_validate_model_rejects_bad_shapes_and_weights():
    config = build_chain(2)
    model = point_mass_model(config)
    validate_model(config, model)
    bad_weights = LHVModel(alphabet_size=2,
                           weights={1: (0.7, 0.7), 2: (0.5, 0.5)},
                           intermediate=model.intermediate,
                           extremal=model.extremal)
    with pytest.raises(InvalidParameterError):
        validate_model(config, bad_weights)
    with pytest.raises(InvalidParameterError, match="alphabet size must be at least 1, got 0"):
        validate_model(config, model._replace(alphabet_size=0))
    short = model._replace(weights={1: (1.0,), 2: (1.0, 0.0)})
    with pytest.raises(InvalidParameterError,
                       match="source 1 needs a weight vector of length 2"):
        validate_model(config, short)
    nan, inf = math.nan, math.inf
    for weights in ((nan, nan), (1.0, nan), (nan, 1.0), (inf, 0.0),
                    (inf, -inf), (-inf, 1.0)):
        non_finite = LHVModel(alphabet_size=2,
                              weights={1: weights, 2: (0.5, 0.5)},
                              intermediate=model.intermediate,
                              extremal=model.extremal)
        with pytest.raises(InvalidParameterError):
            validate_model(config, non_finite)
    # wrong width, a cell that is not a bit, a short row, a list of rows and
    # a numpy array instead of a tuple of two bytes rows
    for table in (bits(np.zeros((2, 3))), (bytes(4), b"\x00\x02\x00\x00"),
                  (bytes(4), bytes(3)), [bytes(4), bytes(4)],
                  np.zeros((2, 4), dtype=np.uint8)):
        bad_table = LHVModel(alphabet_size=2, weights=model.weights,
                             intermediate={NodeId.intermediate(1): table},
                             extremal=model.extremal)
        with pytest.raises(InvalidParameterError):
            validate_model(config, bad_table)


def test_best_S_chain2_reaches_the_bound():
    best = lhv_best_S(build_chain(2))
    assert type(best) is float and best == 1.0
    # self-consistency: the vertex model reproduces the returned value
    assert lhv_evaluate_S(build_chain(2), vertex_model(build_chain(2))).s == best
    # the layout is still checked first: a chain(2) with a third source
    broken = build_chain(2)
    broken = broken._replace(edges={**broken.edges, 3: broken.edges[1]})
    with pytest.raises(InvalidParameterError, match="^invalid network layout: "):
        lhv_best_S(broken)


def test_best_S_never_exceeds_bound_on_small_layouts():
    for config in (build_chain(2), build_chain(3), build_star(3), build_tree(3, 3)):
        best, model = lhv_best_S(config), vertex_model(config)
        assert best <= 1.0 + 1e-12
        assert abs(lhv_evaluate_S(config, model).s - best) <= 1e-12
        for weights in model.weights.values():
            for w in weights:
                assert w in (0.0, 1.0)


def test_best_S_single_symbol_alphabet():
    # the vertex model: one symbol, weight (1.0,) per source, and every table
    # row the one cell 0, on every node of the layout
    for config in (build_chain(2), build_star(5), build_tree(15, 3)):
        best, model = lhv_best_S(config), vertex_model(config)
        assert best == 1.0
        assert model.alphabet_size == 1
        assert model.weights == {r: (1.0,) for r in range(1, config.n + 1)}
        zeros = (b"\x00", b"\x00")
        assert model.intermediate == dict.fromkeys(intermediate_nodes(config), zeros)
        assert model.extremal == dict.fromkeys(extremal_nodes(config), zeros)
        validate_model(config, model)
        result = lhv_evaluate_S(config, model)
        assert (result.i0, result.i1) == (1.0, 0.0)


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_best_S_builds_no_table_wider_than_one_cell():
    # a hub row of c^m cells would take 2^23 bytes on star(23) at c = 2; the
    # bound and the written one-symbol models of star(23) and star(1000) stay
    # under 1 MB
    for n in (23, 1000):
        config = build_star(n)
        assert traced_peak(lambda: (lhv_best_S(config),
                                    write_vertex_model(config, io.StringIO()))) < 2 ** 20


def test_best_S_is_exactly_one_on_larger_layouts():
    for config in (build_star(12), build_star(23), build_tree(15, 3),
                   build_chain(1000)):
        best, model = lhv_best_S(config), vertex_model(config)
        assert best == 1.0
        result = lhv_evaluate_S(config, model)
        assert (result.i0, result.i1) == (1.0, 0.0)


def written_model(config: NetworkConfig) -> str:
    """The text write_vertex_model writes, checked to come in three writes."""
    writes = []
    write_vertex_model(config, SimpleNamespace(write=writes.append))
    assert len(writes) == 3
    return "".join(writes)


def test_best_S_deterministic_across_runs():
    first = lhv_best_S(build_chain(2)), written_model(build_chain(2))
    second = lhv_best_S(build_chain(2)), written_model(build_chain(2))
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_write_vertex_model_writes_the_json_of_the_vertex_model():
    # chain(3) relabelled: its file names A2 before A1, so the written names
    # come from the node lists, not from the file
    relabelled = parse_config(json.dumps({"n": 3, "m": 2, "p": 2, "edges": [
        {"source": 1, "ends": ["A2", "B2"]}, {"source": 2, "ends": ["A1", "A2"]},
        {"source": 3, "ends": ["B1", "A1"]}]}))
    for config in (build_chain(2), build_chain(3), build_star(4), build_tree(7, 3),
                   build_tree(15, 3), relabelled):
        assert written_model(config) == json.dumps(
            model_to_jsonable(vertex_model(config)), indent=2) + "\n"


def test_model_json_round_shape():
    model = vertex_model(build_chain(2))
    doc = model_to_jsonable(model)
    assert set(doc) == {"alphabet_size", "weights", "intermediate", "extremal"}
    assert set(doc["weights"]) == {"1", "2"}
    assert doc["intermediate"]["A1"] and doc["extremal"]["B1"]
    assert len(doc["intermediate"]["A1"]) == 2


def test_best_S_equals_naive_enumeration_single_symbol():
    # c=1 keeps the raw model space tiny (4 tables per node, fixed weights),
    # so the closed form can be checked against plain enumeration
    config = build_chain(2)
    best = lhv_best_S(config)
    naive_best = -1.0
    tables = [bits([[b0], [b1]]) for b0 in (0, 1) for b1 in (0, 1)]
    for hub in tables:
        for left in tables:
            for right in tables:
                model = LHVModel(alphabet_size=1,
                                 weights={1: (1.0,), 2: (1.0,)},
                                 intermediate={NodeId.intermediate(1): hub},
                                 extremal={NodeId.extremal(1): left,
                                           NodeId.extremal(2): right})
                naive_best = max(naive_best,
                                 lhv_evaluate_S(config, model).s)
    assert best == pytest.approx(naive_best, abs=1e-12)


def test_best_S_dominates_random_raw_models():
    # raw models with grid weights can never beat the closed-form bound
    rng = np.random.default_rng(1234)
    for config in (build_chain(2), build_star(3)):
        best = lhv_best_S(config)
        hub_width = 2 ** config.m
        for _ in range(250):
            levels = rng.integers(0, 11, size=config.n)
            weights = {r: (levels[r - 1] / 10.0, 1.0 - levels[r - 1] / 10.0)
                       for r in range(1, config.n + 1)}
            model = LHVModel(
                alphabet_size=2,
                weights=weights,
                intermediate={NodeId.intermediate(1):
                              bits(rng.integers(0, 2, size=(2, hub_width)))},
                extremal={NodeId.extremal(j):
                          bits(rng.integers(0, 2, size=(2, 2)))
                          for j in range(1, config.p + 1)})
            assert lhv_evaluate_S(config, model).s <= best + 1e-12


def test_lhv_evaluate_S_point_mass():
    config = build_chain(2)
    result = lhv_evaluate_S(config, point_mass_model(config))
    # all responses 0: every correlator is +1, so I0 = 1 and I1 averages to 0
    assert result.i0 == pytest.approx(1.0, abs=1e-12)
    assert result.i1 == pytest.approx(0.0, abs=1e-12)
    assert result.s == pytest.approx(1.0, abs=1e-12)
    assert not result.violated


def test_closed_form_is_the_brute_force_maximum():
    # Dirichlet weights lie off any grid; for fixed weights and extremal
    # tables the best |I_k| over all intermediate tables is the product of
    # P_j(g_kj != 0), and the witness never passes 1
    rng = np.random.default_rng(2012)
    for config in (build_chain(2), build_chain(3), build_star(3)):
        attach = attachments(config)
        root = 1.0 / config.p
        for _ in range(12):
            model = random_lhv_model(rng, config, 2)
            # P_j(g_0j != 0) = 1 - q_j and P_j(g_1j != 0) = q_j, summed
            # directly so that no rounding makes 1 - q_j negative
            mass = [[0.0, 0.0] for _ in extremal_nodes(config)]
            for j, node in enumerate(extremal_nodes(config)):
                table = model.extremal[node]
                for s, w in enumerate(model.weights[attach[node][0]]):
                    mass[j][int(table[0][s] != table[1][s])] += w
            prod0 = math.prod(m[0] for m in mass)
            prod1 = math.prod(m[1] for m in mass)
            best0, best1 = brute_force_best_I(config, model)
            assert best0 == pytest.approx(prod0, abs=1e-12)
            assert best1 == pytest.approx(prod1, abs=1e-12)
            best_s = best0 ** root + best1 ** root
            assert best_s == pytest.approx(prod0 ** root + prod1 ** root, abs=1e-12)
            assert best_s <= 1.0 + 1e-12


def test_lhv_evaluate_S_matches_the_enumeration_oracle():
    # I0 and I1, not S: the 1/p root magnifies rounding near 0
    rng = np.random.default_rng(2016)
    layouts = (build_chain(2), build_chain(3), build_chain(4), build_star(3),
               build_tree(3, 3), build_tree(5, 3))
    for config in layouts:
        for c in (1, 2, 3):
            for partial in (False, True):
                model = random_lhv_model(rng, config, c, partial)
                fast = lhv_evaluate_S(config, model)
                oracle = evaluate_S_from_correlator(
                    lambda a: distribution_correlator(
                        lhv_distribution(config, model, a)), config)
                assert fast.i0 == pytest.approx(oracle.i0, abs=1e-12)
                assert fast.i1 == pytest.approx(oracle.i1, abs=1e-12)


def test_lhv_evaluate_S_support_cap():
    # 21 binary sources with full support: 2^21 symbol tuples
    config = build_star(21)
    model = LHVModel(
        alphabet_size=2, weights={r: (0.5, 0.5) for r in range(1, 22)},
        intermediate={NodeId.intermediate(1): (bytes(2 ** 21),) * 2},
        extremal={node: bits(np.zeros((2, 2)))
                  for node in extremal_nodes(config)})
    assert 2 ** 21 > MAX_SUPPORT_TUPLES
    with pytest.raises(ResourceLimitError):
        lhv_evaluate_S(config, model)
    # chain(8) with eight equally weighted symbols: 8^8 = 2^24 tuples, refused
    # by the contraction and by the distribution oracle alike
    chain8 = build_chain(8)
    uniform = point_mass_model(chain8, c=8)._replace(
        weights={r: (1 / 8,) * 8 for r in range(1, 9)})
    assignment = SettingAssignment.from_bits(chain8, [0] * chain8.l, [0, 0])
    for call in (lambda: lhv_evaluate_S(chain8, uniform),
                 lambda: lhv_distribution(chain8, uniform, assignment)):
        with pytest.raises(ResourceLimitError, match="2\\^24 symbol tuples"):
            call()


def test_lhv_distribution_cap_fires_before_it_allocates():
    # chain(30) has l + p = 31 outcome bits, 2^31 masses; the refusal must be
    # quick and stay under 1 MB.  chain(15), at l + p = 16, is still served.
    def one_symbol(config):
        zeros = SettingAssignment.from_bits(config, [0] * config.l, [0] * config.p)
        return vertex_model(config), zeros

    config = build_chain(30)
    model, assignment = one_symbol(config)
    assert config.l + config.p > MAX_OUTCOME_BITS

    def refuse():
        with pytest.raises(ResourceLimitError, match="2\\^31 outcomes"):
            lhv_distribution(config, model, assignment)

    start = time.perf_counter()
    assert traced_peak(refuse) < 2 ** 20
    assert time.perf_counter() - start < 0.1
    chain15 = build_chain(15)
    assert chain15.l + chain15.p == MAX_OUTCOME_BITS
    masses = lhv_distribution(chain15, *one_symbol(chain15))
    assert len(masses) == 2 ** 16 and masses[(0,) * 16] == 1.0
