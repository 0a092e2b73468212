import itertools

import numpy as np
import pytest

from nlocalnet import (ConfigurationError, LHVModel, NodeId,
                       ResourceLimitError, SettingAssignment, build_chain,
                       build_star, build_tree, distribution_correlator,
                       lhv_best_S, lhv_distribution, lhv_evaluate_S,
                       model_to_jsonable, validate_model)


def point_mass_model(config, symbol=0, c=2):
    """All sources on one symbol, every response 0."""
    weights = {r: tuple(1.0 if k == symbol else 0.0 for k in range(c))
               for r in range(1, config.n + 1)}
    inter = {NodeId.intermediate(i): np.zeros((2, c ** config.m), dtype=np.uint8)
             for i in range(1, config.l + 1)}
    extr = {NodeId.extremal(j): np.zeros((2, c), dtype=np.uint8)
            for j in range(1, config.p + 1)}
    return LHVModel(alphabet_size=c, weights=weights,
                    intermediate=inter, extremal=extr)


def xor_chain2_model():
    """Uniform binary sources; hub reports the symbol parity, leaves the symbol."""
    copy_table = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    xor_table = np.array([[0, 1, 1, 0], [0, 1, 1, 0]], dtype=np.uint8)
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
                      rng.integers(0, 2, size=(2, 8)).astype(np.uint8)},
        extremal={NodeId.extremal(j):
                  rng.integers(0, 2, size=(2, 2)).astype(np.uint8)
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
                      rng.integers(0, 2, size=(2, 4)).astype(np.uint8)
                      for i in (1, 2)},
        extremal={NodeId.extremal(j):
                  rng.integers(0, 2, size=(2, 2)).astype(np.uint8)
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
    with pytest.raises(ConfigurationError):
        validate_model(config, bad_weights)
    bad_table = LHVModel(alphabet_size=2, weights=model.weights,
                         intermediate={NodeId.intermediate(1):
                                       np.zeros((2, 3), dtype=np.uint8)},
                         extremal=model.extremal)
    with pytest.raises(ConfigurationError):
        validate_model(config, bad_table)


def test_best_S_chain2_reaches_the_bound():
    best, model = lhv_best_S(build_chain(2), alphabet_size=2,
                             weight_grid_steps=5)
    assert 1.0 - 1e-6 <= best <= 1.0 + 1e-6
    # self-consistency: the returned model reproduces the returned value
    assert abs(lhv_evaluate_S(build_chain(2), model).s - best) <= 1e-12


def test_best_S_never_exceeds_bound_on_small_layouts():
    # chain(3) at 2, 3 and 5 steps: any move off the grid there only lifts S
    # by one rounding step above the bound
    for config, c, steps in ((build_chain(2), 2, 7), (build_chain(2), 3, 4),
                             (build_chain(3), 2, 2), (build_chain(3), 2, 3),
                             (build_chain(3), 2, 5), (build_star(3), 2, 3),
                             (build_tree(3, 3), 2, 5), (build_tree(3, 3), 1, 2)):
        best, model = lhv_best_S(config, alphabet_size=c,
                                 weight_grid_steps=steps)
        assert best <= 1.0 + 1e-12
        assert abs(lhv_evaluate_S(config, model).s - best) <= 1e-12
        for weights in model.weights.values():
            for w in weights:
                assert w == round(w * (steps - 1)) / (steps - 1)


def test_best_S_single_symbol_alphabet():
    best, model = lhv_best_S(build_chain(2), alphabet_size=1,
                             weight_grid_steps=3)
    assert best == pytest.approx(1.0, abs=1e-9)
    result = lhv_evaluate_S(build_chain(2), model)
    assert abs(result.i0) in (0.0, 1.0) and abs(result.i1) in (0.0, 1.0)


def test_best_S_resource_cap():
    with pytest.raises(ResourceLimitError) as excinfo:
        lhv_best_S(build_tree(15, 3))
    assert excinfo.value.size is not None and excinfo.value.size > 0
    with pytest.raises(ResourceLimitError):
        lhv_best_S(build_chain(3), max_work=10)


def test_best_S_cap_fires_before_the_grid_is_built(monkeypatch):
    def unexpected(*args):
        raise AssertionError("weight grid built before the cap check")

    monkeypatch.setattr("nlocalnet.lhv._simplex_points", unexpected)
    with pytest.raises(ResourceLimitError):
        lhv_best_S(build_chain(2), weight_grid_steps=200_000, max_work=10)
    # star(12): 2^4095 canonical hub tables, far beyond a float
    with pytest.raises(ResourceLimitError) as excinfo:
        lhv_best_S(build_star(12))
    assert isinstance(excinfo.value.size, int) and excinfo.value.size > 0
    assert "2^" in str(excinfo.value)


def test_best_S_deterministic_across_runs():
    first = lhv_best_S(build_chain(2), weight_grid_steps=5)
    second = lhv_best_S(build_chain(2), weight_grid_steps=5)
    assert first[0] == second[0]
    assert model_to_jsonable(first[1]) == model_to_jsonable(second[1])


def test_model_json_round_shape():
    _, model = lhv_best_S(build_chain(2), weight_grid_steps=3)
    doc = model_to_jsonable(model)
    assert set(doc) == {"alphabet_size", "weights", "intermediate", "extremal"}
    assert set(doc["weights"]) == {"1", "2"}
    assert doc["intermediate"]["A1"] and doc["extremal"]["B1"]
    assert len(doc["intermediate"]["A1"]) == 2


def test_best_S_equals_naive_enumeration_single_symbol():
    # c=1 keeps the raw model space tiny (4 tables per node, fixed weights),
    # so the reorganized search can be checked against plain enumeration
    config = build_chain(2)
    best, _ = lhv_best_S(config, alphabet_size=1, weight_grid_steps=2)
    naive_best = -1.0
    tables = [np.array([[b0], [b1]], dtype=np.uint8)
              for b0 in (0, 1) for b1 in (0, 1)]
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
    # raw models with grid weights can never beat the exhaustive search
    rng = np.random.default_rng(1234)
    for config in (build_chain(2), build_star(3)):
        best, _ = lhv_best_S(config, alphabet_size=2, weight_grid_steps=11)
        hub_width = 2 ** config.m
        for _ in range(250):
            levels = rng.integers(0, 11, size=config.n)
            weights = {r: (levels[r - 1] / 10.0, 1.0 - levels[r - 1] / 10.0)
                       for r in range(1, config.n + 1)}
            model = LHVModel(
                alphabet_size=2,
                weights=weights,
                intermediate={NodeId.intermediate(1):
                              rng.integers(0, 2, size=(2, hub_width)
                                           ).astype(np.uint8)},
                extremal={NodeId.extremal(j):
                          rng.integers(0, 2, size=(2, 2)).astype(np.uint8)
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
