"""Classical hidden-variable models and the closed-form classical bound.

A model gives each source a probability vector over a finite symbol alphabet
and each node a deterministic binary response table.  The joint outcome
distribution factorizes over sources.

lhv_evaluate_S is the classical twin of inequality.evaluate_S.  Every
extremal node touches one source and no source touches two of them, so the
signed average over extremal inputs factorizes per symbol tuple lam:

    I_k = sum_lam P(lam) prod_{intermediate i} (-1)^(T_i(k, lam))
                         prod_{extremal j} g_kj(lam),
    g_kj(lam) = 1/2 sum_y (-1)^(k y) (-1)^(b_j(y, lam)),

summed over the product of the weight supports.  The tests check it
against an oracle that enumerates every tuple and input (tests/oracles.py).

The best classical witness has a closed form, so lhv_best_S returns the model
that reaches it instead of searching.  Fix the weights and extremal tables.
Per symbol exactly one of g_0j, g_1j is nonzero, and it is +1 or -1.  The far
end of an extremal node's source is an intermediate node, free per column,
so the intermediate tables can match the sign of every product of extremal
factors: the largest |I_k| over them is prod_j P_j(g_kj != 0), with P_j the
weight of the source at extremal node j.  Input-0 rows enter only I0 and
input-1 rows only I1, so with q_j = P_j(g_1j != 0) the best witness is
(prod (1 - q_j))^(1/p) + (prod q_j)^(1/p) <= 1 by the inequality of arithmetic
and geometric means (the Hoelder step of closed_form_smax), with equality when
the q_j are equal.  The vertex model, mass 1 on symbol 0 and all-zero tables,
has q_j = 0: I0 = 1, I1 = 0 and S = 1 exactly on every layout and alphabet.
This is the argument of Branciard, Rosset, Gisin, Pironio, PRA 85, 032119
(2012) for the bilocal chain, Tavakoli, Skrzypczyk, Cavalcanti, Acin, PRA 90,
062109 (2014) for the star and Rosset et al., PRL 116, 010403 (2016) for
acyclic networks.  lhv_best_S is neither a search nor a proof by enumeration;
the tests check the product formula against a brute-force maximum over
intermediate tables on small layouts.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .inequality import EvaluationResult
from .topology import (AttachmentMap, NetworkConfig, NodeId, attachments,
                       extremal_nodes, intermediate_nodes)

# Response-table cells a model built by lhv_best_S may hold: the intermediate
# tables, 2 * c**m cells each, grow exponentially in m.
MAX_MODEL_CELLS = 20_000_000
# Symbol tuples _symbol_tuples may yield: the product of the support sizes.
MAX_SUPPORT_TUPLES = 2 ** 20
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # table bits -> "0"/"1" text


class LHVModel(NamedTuple):
    """Source symbol weights plus deterministic response tables.

    A table is two bytes rows, one per input bit, of one output bit (0 or 1)
    per cell.  An intermediate row has c**m cells, indexed by the mixed-radix
    code of the symbols reaching the node (ascending source order, first
    source most significant); an extremal row has c, indexed by the symbol.
    """

    alphabet_size: int
    weights: Mapping[int, tuple[float, ...]]
    intermediate: Mapping[NodeId, tuple[bytes, bytes]]
    extremal: Mapping[NodeId, tuple[bytes, bytes]]


def validate_model(config: NetworkConfig, model: LHVModel) -> AttachmentMap:
    """Raise InvalidParameterError unless the model matches the layout."""
    attach = attachments(config)
    c = model.alphabet_size
    if c < 1:
        raise InvalidParameterError(f"alphabet size must be at least 1, got {c}")
    for r in range(1, config.n + 1):
        weights = model.weights.get(r)
        if weights is None or len(weights) != c:
            raise InvalidParameterError(
                f"source {r} needs a weight vector of length {c}")
        # Written so that a NaN weight fails both comparisons.
        if not (min(weights) >= -1e-12 and abs(sum(weights) - 1.0) <= 1e-12):
            raise InvalidParameterError(
                f"source {r} weights must form a probability vector")
    expected = [(model.intermediate, node, c ** len(attach.intermediate[node]))
                for node in intermediate_nodes(config)]
    expected += [(model.extremal, node, c) for node in extremal_nodes(config)]
    for tables, node, width in expected:
        table = tables.get(node)
        if not (isinstance(table, tuple) and len(table) == 2
                and all(isinstance(row, bytes) and len(row) == width
                        for row in table)):
            raise InvalidParameterError(
                f"node {node.name} needs a table of two bytes rows of length {width}")
        # count() scans a row in place; a 2^23-cell hub row is never copied.
        if any(row.count(0) + row.count(1) != width for row in table):
            raise InvalidParameterError(f"node {node.name} table entries must be bits")
    return attach


def _symbol_code(sources: tuple[int, ...], symbols: Sequence[int], c: int) -> int:
    code = 0
    for r in sources:
        code = code * c + symbols[r - 1]
    return code


def _symbol_tuples(config: NetworkConfig,
                   model: LHVModel) -> Iterator[tuple[int, ...]]:
    """Every tuple of nonzero-weight symbols, one per source, in lexicographic
    order; ResourceLimitError first if there are more than MAX_SUPPORT_TUPLES."""
    supports = [[s for s, w in enumerate(model.weights[r]) if w != 0.0]
                for r in range(1, config.n + 1)]
    tuple_bits = sum(math.log2(len(support)) for support in supports)
    if tuple_bits > math.log2(MAX_SUPPORT_TUPLES):
        raise ResourceLimitError(
            f"the source weights span 2^{tuple_bits:.6g} symbol tuples, above "
            f"the cap 2^{math.log2(MAX_SUPPORT_TUPLES):.6g}")
    return itertools.product(*supports)


def lhv_evaluate_S(config: NetworkConfig, model: LHVModel) -> EvaluationResult:
    """Witness of a classical model, contracted per symbol tuple.

    Sums the product of the module docstring over the weight supports, with
    all intermediate inputs k in I_k.  Agrees to rounding with the tests'
    oracle, which enumerates every symbol tuple and input.  Raises
    ResourceLimitError before the sum when the supports span more than
    MAX_SUPPORT_TUPLES symbol tuples.
    """
    return _contract(config, model, validate_model(config, model))


def _contract(config: NetworkConfig, model: LHVModel,
              attach: AttachmentMap) -> EvaluationResult:
    """lhv_evaluate_S on a model already checked against the layout."""
    c = model.alphabet_size
    tuples = _symbol_tuples(config, model)
    # factors[r][s] = (g_0j, g_1j) = (1 - b0 - b1, b1 - b0) at source r's end j.
    factors = {attach.extremal[node]: [(1 - b0 - b1, b1 - b0)
                                       for b0, b1 in zip(*model.extremal[node])]
               for node in extremal_nodes(config)}
    inter = [(model.intermediate[node], attach.intermediate[node])
             for node in intermediate_nodes(config)]
    totals = [0.0, 0.0]
    for symbols in tuples:
        weight = math.prod(model.weights[r][symbols[r - 1]]
                           for r in range(1, config.n + 1))
        for k in (0, 1):
            value = weight
            for table, sources in inter:
                if table[k][_symbol_code(sources, symbols, c)]:
                    value = -value
            for r, g in factors.items():
                value *= g[symbols[r - 1]][k]
            totals[k] += value
    return EvaluationResult.from_ingredients(config.p, (totals[0], 0), (totals[1], 0))


def lhv_best_S(config: NetworkConfig,
               alphabet_size: int = 2) -> tuple[float, LHVModel]:
    """The best classical witness, S = 1, and the vertex model that reaches it.

    Not a search: the bound has the closed form derived in the module
    docstring, and the vertex model reaches it on every layout and alphabet.
    Every source puts weight (1, 0, ..., 0) on the alphabet and every
    response table is all zeros, so I0 = 1 and I1 = 0.  The witness is
    recomputed from the returned model by lhv_evaluate_S's contraction.  The
    layout is validated once, first; the model is built to match it and is
    not checked again.

    Raises ResourceLimitError before any table or weight vector is built
    when the intermediate tables would hold more than MAX_MODEL_CELLS cells.
    """
    attach = attachments(config)  # the only validation of the layout
    c = alphabet_size
    if c < 1:
        raise InvalidParameterError(f"alphabet size must be at least 1, got {c}")
    # Every intermediate node holds m sources, so the l tables hold
    # 2 * l * c**m cells; the exponent is finite for any Python int c.
    cell_bits = 1 + math.log2(config.l) + config.m * math.log2(c)
    cap_bits = math.log2(MAX_MODEL_CELLS)
    if cell_bits > cap_bits:
        raise ResourceLimitError(
            f"the classical model needs 2^{cell_bits:.6g} response-table "
            f"cells, above the cap 2^{cap_bits:.6g}")
    model = LHVModel(
        alphabet_size=c,
        weights={r: (1.0,) + (0.0,) * (c - 1) for r in range(1, config.n + 1)},
        intermediate={node: (bytes(c ** config.m),) * 2
                      for node in intermediate_nodes(config)},
        extremal={node: (bytes(c),) * 2 for node in extremal_nodes(config)})
    return _contract(config, model, attach).s, model


def model_to_jsonable(model: LHVModel) -> dict:
    """JSON-friendly rendering of a model (weights plus response tables).

    A table becomes two strings, one per input bit, of one "0"/"1" per cell.
    """
    def rows(tables: Mapping[NodeId, tuple[bytes, bytes]]) -> dict:
        return {node.name: [row.translate(_DIGITS).decode() for row in tables[node]]
                for node in sorted(tables)}

    return {
        "alphabet_size": model.alphabet_size,
        "weights": {str(r): list(model.weights[r]) for r in sorted(model.weights)},
        "intermediate": rows(model.intermediate),
        "extremal": rows(model.extremal),
    }
