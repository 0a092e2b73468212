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

The best classical witness has a closed form, so lhv_best_S returns it
instead of searching, and write_vertex_model writes the model that reaches it.
Fix the weights and extremal tables.  Per symbol exactly one of g_0j, g_1j is
nonzero, and it is +1 or -1.
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
and nothing here contracts a model: the models of any alphabet, LHVModel, and
the sum above, lhv_evaluate_S, are test code in tests/oracles.py.  The tests
check the product formula against a brute-force maximum over intermediate
tables on small layouts, and that the sum gives I0 = 1, I1 = 0 on the vertex
model.
"""

from typing import Iterable, TextIO

from .topology import NetworkConfig, check_layout, extremal_nodes, intermediate_nodes

_ZEROS = '      "0",\n      "0"'  # a table row of one cell, 0, for each input bit


def lhv_best_S(config: NetworkConfig) -> float:
    """The best classical witness, S = 1, after the layout is validated.

    Not a search: the bound has the closed form derived in the module
    docstring, and it holds on every alphabet.  write_vertex_model writes
    the model that reaches it.
    """
    check_layout(config)  # the only validation of the layout
    return 1.0


def write_vertex_model(config: NetworkConfig, sink: TextIO) -> None:
    """Write the vertex model of a valid layout to sink as indented JSON.

    The model has one symbol: every source has weight [1.0] and every table
    row, one string per input bit, is the one cell "0", so I0 = 1 and
    I1 = 0.  The text is json.dump(..., indent=2) of the keys alphabet_size,
    weights (by source), intermediate and extremal (by node name), plus a
    newline, written in one sink.write per section.  The layout is not
    checked here; lhv_best_S checks it.
    """
    def section(key: str, names: Iterable[object], rows: str, end: str) -> str:
        items = ",\n".join(f'    "{name}": [\n{rows}\n    ]' for name in names)
        return f'  "{key}": {{\n{items}\n  }}{end}\n'

    sink.write('{\n  "alphabet_size": 1,\n'
               + section("weights", range(1, config.n + 1), "      1.0", ","))
    sink.write(section("intermediate", (node.name for node in intermediate_nodes(config)),
                       _ZEROS, ","))
    sink.write(section("extremal", (node.name for node in extremal_nodes(config)),
                       _ZEROS, "\n}"))
