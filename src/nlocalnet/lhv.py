"""Classical hidden-variable models and the closed-form classical bound.

A model gives each source a probability vector over a finite symbol alphabet
and each node a deterministic binary response table.  The joint outcome
distribution factorizes over sources.  Every extremal node touches one
source and no source touches two of them, so the signed average over
extremal inputs factorizes per symbol tuple lam, summed over the product of
the weight supports:

    I_k = sum_lam P(lam) prod_{intermediate i} (-1)^(T_i(k, lam))
                         prod_{extremal j} g_kj(lam),
    g_kj(lam) = 1/2 sum_y (-1)^(k y) (-1)^(b_j(y, lam)).

The best classical witness has a closed form, so lhv_best_S returns it, with
the model that reaches it, instead of searching.  Fix the weights and extremal
tables.  Per symbol exactly one of g_0j, g_1j is nonzero, and it is +1 or -1.
The far end of an extremal node's source is an intermediate node, free per
column, so the intermediate tables can match the sign of every product of
extremal factors: the largest |I_k| over them is prod_j P_j(g_kj != 0), with
P_j the weight of the source at extremal node j.  Input-0 rows enter only I0
and input-1 rows only I1, so with q_j = P_j(g_1j != 0) the best witness is
(prod (1 - q_j))^(1/p) + (prod q_j)^(1/p) <= 1 by the inequality of arithmetic
and geometric means (the Hoelder step of closed_form_smax), with equality when
the q_j are equal.  The bound holds on every alphabet, and the vertex model
reaches it on one symbol: every source on symbol 0 and every table all zeros
gives q_j = 0, so I0 = 1, I1 = 0 and S = 1 exactly on every layout.
This is the argument of Branciard, Rosset, Gisin, Pironio, PRA 85, 032119
(2012) for the bilocal chain, Tavakoli, Skrzypczyk, Cavalcanti, Acin, PRA 90,
062109 (2014) for the star and Rosset et al., PRL 116, 010403 (2016) for
acyclic networks.  lhv_best_S is neither a search nor a proof by enumeration,
and it does not contract the model it returns: the tests check the product
formula against a brute-force maximum over intermediate tables on small
layouts, and that the sum above, lhv_evaluate_S in tests/oracles.py, gives
I0 = 1, I1 = 0 on the vertex model.
"""

from typing import Mapping, NamedTuple

from .topology import (NetworkConfig, NodeId, check_layout, extremal_nodes,
                       intermediate_nodes)

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


def lhv_best_S(config: NetworkConfig) -> tuple[float, LHVModel]:
    """The best classical witness, S = 1, and the vertex model that reaches it.

    Not a search: the bound has the closed form derived in the module
    docstring, and it holds on every alphabet.  The vertex model reaches it
    on one symbol: every weight is (1.0,) and every table row is one cell
    holding 0, so I0 = 1 and I1 = 0, and the model holds 2 * (l + p)
    cells.  The proved bound 1.0 is returned as it is; the model is not
    contracted here (lhv_evaluate_S in tests/oracles.py gives (1.0, 0.0) on
    it).  The layout is validated once, first; the model is built to match
    it and is not checked again.
    """
    check_layout(config)  # the only validation of the layout
    zeros = (b"\x00", b"\x00")
    model = LHVModel(
        alphabet_size=1,
        weights={r: (1.0,) for r in range(1, config.n + 1)},
        intermediate=dict.fromkeys(intermediate_nodes(config), zeros),
        extremal=dict.fromkeys(extremal_nodes(config), zeros))
    return 1.0, model


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
