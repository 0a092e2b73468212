"""Classical hidden-variable models and the brute-force bound certification.

A model gives each source a probability vector over a finite symbol alphabet
and each node a deterministic binary response table.  The joint outcome
distribution factorizes over sources, so correlators and the witness follow
by enumerating symbol tuples.

lhv_best_S maximizes the witness exhaustively over every deterministic
response-table combination and a simplex grid of source weights, with no
search off the grid.  The enumeration is reorganized, without losing any
table, around two exact observations:

* I0 sees only the input-0 rows of intermediate tables and I1 only the
  input-1 rows, so for fixed weights and extremal tables the two row sets
  are maximized independently;
* flipping every output of one node negates correlators and leaves |I0| and
  |I1| unchanged, so tables are enumerated in a canonical output polarity
  (first entry of each row set fixed to 0, first extremal sign positive).

The grid always holds a model on the bound: a vertex weight (one symbol with
mass 1) and all-zero tables give I0 = 1, I1 = 0, S = 1.  The bound S <= 1 is
proved by Branciard, Rosset, Gisin, Pironio, PRA 85, 032119 (2012) for the
bilocal chain, Tavakoli, Skrzypczyk, Cavalcanti, Acin, PRA 90, 062109 (2014)
for the star and Rosset et al., PRL 116, 010403 (2016) for acyclic networks.
The search is numerical evidence consistent with these proofs, over the
enumerated tables and weight grid only; it does not replace them.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .correlators import SettingAssignment, distribution_correlator
from .errors import ConfigurationError, InvalidParameterError, ResourceLimitError
from .inequality import EvaluationResult, evaluate_S_from_correlator
from .topology import (AttachmentMap, NetworkConfig, NodeId, attachments,
                       extremal_nodes, intermediate_nodes)

DEFAULT_MAX_WORK = int(2e10)
_MAX_ARRAY_CELL_BITS = math.log2(2e7)

# Per-symbol extremal choice o = 2*b(y=0) + b(y=1).  The plain and signed
# input averages it induces are g0 = ((-1)^b0 + (-1)^b1) / 2 and
# g1 = ((-1)^b0 - (-1)^b1) / 2; exactly one of them is nonzero.
_OPTION_G0 = np.array((1.0, 0.0, 0.0, -1.0))
_OPTION_G1 = np.array((0.0, 1.0, -1.0, 0.0))


@dataclass(frozen=True, eq=False)
class LHVModel:
    """Source symbol weights plus deterministic response tables.

    Intermediate tables have shape (2, c**m): row = input bit, column = the
    mixed-radix code of the symbols reaching the node (ascending source
    order, first source most significant).  Extremal tables have shape
    (2, c): row = input bit, column = the symbol of the attached source.
    """

    alphabet_size: int
    weights: Mapping[int, tuple[float, ...]]
    intermediate: Mapping[NodeId, np.ndarray]
    extremal: Mapping[NodeId, np.ndarray]


def validate_model(config: NetworkConfig, model: LHVModel) -> AttachmentMap:
    """Raise ConfigurationError unless the model matches the layout."""
    attach = attachments(config)
    c = model.alphabet_size
    if c < 1:
        raise ConfigurationError(f"alphabet size must be at least 1, got {c}")
    for r in range(1, config.n + 1):
        weights = model.weights.get(r)
        if weights is None or len(weights) != c:
            raise ConfigurationError(
                f"source {r} needs a weight vector of length {c}")
        if min(weights) < -1e-12 or abs(sum(weights) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"source {r} weights must form a probability vector")
    for node in intermediate_nodes(config):
        table = model.intermediate.get(node)
        want = (2, c ** len(attach.intermediate[node]))
        if table is None or table.shape != want:
            raise ConfigurationError(
                f"node {node.name} needs a response table of shape {want}")
        if not np.isin(table, (0, 1)).all():
            raise ConfigurationError(f"node {node.name} table entries must be bits")
    for node in extremal_nodes(config):
        table = model.extremal.get(node)
        if table is None or table.shape != (2, c):
            raise ConfigurationError(
                f"node {node.name} needs a response table of shape (2, {c})")
        if not np.isin(table, (0, 1)).all():
            raise ConfigurationError(f"node {node.name} table entries must be bits")
    return attach


def _symbol_code(sources: tuple[int, ...], symbols: Sequence[int], c: int) -> int:
    code = 0
    for r in sources:
        code = code * c + symbols[r - 1]
    return code


def lhv_distribution(config: NetworkConfig, model: LHVModel,
                     assignment: SettingAssignment
                     ) -> dict[tuple[int, ...], float]:
    """Outcome distribution of the model, factorized over independent sources.

    Keys run over all {0,1}^(l+p) outcome tuples, intermediate nodes first.
    """
    attach = validate_model(config, model)
    inter = intermediate_nodes(config)
    extr = extremal_nodes(config)
    for node in inter:
        if node not in assignment.x:
            raise ConfigurationError(f"assignment lacks an input for {node.name}")
    for node in extr:
        if node not in assignment.y:
            raise ConfigurationError(f"assignment lacks an input for {node.name}")
    c = model.alphabet_size
    width = len(inter) + len(extr)
    masses = {bits: 0.0 for bits in itertools.product((0, 1), repeat=width)}
    for symbols in itertools.product(range(c), repeat=config.n):
        weight = math.prod(model.weights[r][symbols[r - 1]]
                           for r in range(1, config.n + 1))
        if weight == 0.0:
            continue
        bits = []
        for node in inter:
            code = _symbol_code(attach.intermediate[node], symbols, c)
            bits.append(int(model.intermediate[node][assignment.x[node], code]))
        for node in extr:
            symbol = symbols[attach.extremal[node] - 1]
            bits.append(int(model.extremal[node][assignment.y[node], symbol]))
        masses[tuple(bits)] += weight
    return masses


def lhv_evaluate_S(config: NetworkConfig, model: LHVModel) -> EvaluationResult:
    """Witness of a classical model via its outcome distributions."""
    def corr(assignment: SettingAssignment) -> float:
        return distribution_correlator(lhv_distribution(config, model, assignment))
    return evaluate_S_from_correlator(corr, config)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _simplex_points(c: int, steps: int) -> list[tuple[float, ...]]:
    """Probability vectors with entries on a grid of `steps` levels per slot."""
    if c == 1:
        return [(1.0,)]
    return [tuple(k / (steps - 1) for k in comp)
            for comp in _compositions(steps - 1, c)]


def lhv_best_S(config: NetworkConfig, alphabet_size: int = 2,
               weight_grid_steps: int = 11, *,
               max_work: int = DEFAULT_MAX_WORK) -> tuple[float, LHVModel]:
    """Best witness over all deterministic response tables and gridded weights.

    Exhausts the canonical response tables described in the module docstring
    against every weight-grid combination, so each returned weight is
    k / (weight_grid_steps - 1) for an integer k.  The grid's vertex models
    reach S = 1.  Returns the achieved witness, recomputed from the returned
    model so the pair is self-consistent, and the model itself.  Ties are
    broken toward the lexicographically smallest table encoding by
    enumeration order.

    Raises ResourceLimitError before building anything when the work would
    exceed max_work or an array 2e7 cells; its size is log2 of the work.
    """
    c = alphabet_size
    if c < 1:
        raise InvalidParameterError(f"alphabet size must be at least 1, got {c}")
    if weight_grid_steps < 2 and c > 1:
        raise InvalidParameterError(
            f"weight grid needs at least 2 steps, got {weight_grid_steps}")
    attach = attachments(config)
    n, p = config.n, config.p
    inter = intermediate_nodes(config)
    extr = extremal_nodes(config)

    # Base-2 exponents: the exact counts, 2**(c**m - 1) tables for a node and
    # comb(steps + c - 2, c - 1) grid points, can be too large to compute.
    # When c and steps both exceed 65 the grid count is taken at its lower
    # bound comb(steps + c - 2, 64) > 2**120, far above any cap.
    width_bits = [len(attach.intermediate[node]) * math.log2(c) for node in inter]
    widths = [2.0 ** bits if bits < 1024 else math.inf for bits in width_bits]
    lam_bits = n * math.log2(c)
    branch_bits = sum(width - 1 for width in widths)
    side = min(c, weight_grid_steps, 65) - 1
    point_count = math.comb(weight_grid_steps + c - 2, side) if c > 1 else 1
    weight_bits = n * math.log2(point_count)
    work_bits = p * (2 * c - 1) + 1 + branch_bits + lam_bits + weight_bits
    cell_bits = max(branch_bits + lam_bits, weight_bits + lam_bits,
                    branch_bits + weight_bits)
    cap_bits = math.log2(max(max_work, 1))
    if work_bits > cap_bits or cell_bits > _MAX_ARRAY_CELL_BITS:
        raise ResourceLimitError(
            f"classical search needs 2^{2 * sum(widths) + 2 * c * p:.4g} "
            f"response-table combinations, about 2^{work_bits:.4g} grid "
            f"operations (cap 2^{cap_bits:.4g}) and 2^{cell_bits:.4g} array "
            f"cells (cap 2^{_MAX_ARRAY_CELL_BITS:.4g})",
            size=math.ceil(work_bits) if math.isfinite(work_bits) else sys.maxsize)

    lam_count = c ** n
    table_widths = [c ** len(attach.intermediate[node]) for node in inter]
    branch_sizes = [2 ** (width - 1) for width in table_widths]
    points = _simplex_points(c, weight_grid_steps)
    weight_total = len(points) ** n

    lam_grid = np.array(list(itertools.product(range(c), repeat=n)),
                        dtype=np.int64).reshape(lam_count, n)

    # Sign matrix over canonical intermediate tables: one row per joint table,
    # one column per symbol tuple.
    sign_matrix = np.ones((1, lam_count))
    for node, width, branch in zip(inter, table_widths, branch_sizes):
        codes = np.zeros(lam_count, dtype=np.int64)
        for r in attach.intermediate[node]:
            codes = codes * c + lam_grid[:, r - 1]
        tables = np.arange(branch, dtype=np.int64)[:, None]
        bits = (tables >> (width - 1 - np.arange(width)[None, :])) & 1
        node_signs = (1.0 - 2.0 * bits)[:, codes]
        sign_matrix = (sign_matrix[:, None, :]
                       * node_signs[None, :, :]).reshape(-1, lam_count)

    # Per-node extremal choices, first symbol's sign fixed positive.
    extremal_options = list(itertools.product(range(2), *[range(4)] * (c - 1)))
    option_codes = np.array(extremal_options)
    extremal_codes = [option_codes[:, lam_grid[:, attach.extremal[node] - 1]]
                      for node in extr]
    node_g0 = [_OPTION_G0[codes] for codes in extremal_codes]
    node_g1 = [_OPTION_G1[codes] for codes in extremal_codes]

    point_table = np.array(points, dtype=np.float64)
    weight_matrix = np.ones((1, lam_count))
    for r in range(1, n + 1):
        factor = point_table[:, lam_grid[:, r - 1]]
        weight_matrix = (weight_matrix[:, None, :]
                         * factor[None, :, :]).reshape(-1, lam_count)
    weight_t = weight_matrix.T

    inv_p = 1.0 / p
    columns = np.arange(weight_total)
    best_s = -math.inf
    best: tuple | None = None
    for combo in itertools.product(range(len(extremal_options)), repeat=p):
        g0 = np.ones(lam_count)
        g1 = np.ones(lam_count)
        for j in range(p):
            g0 = g0 * node_g0[j][combo[j]]
            g1 = g1 * node_g1[j][combo[j]]
        abs_i0 = np.abs((sign_matrix * g0) @ weight_t)
        abs_i1 = np.abs((sign_matrix * g1) @ weight_t)
        t0 = abs_i0.argmax(axis=0)
        t1 = abs_i1.argmax(axis=0)
        s_values = abs_i0[t0, columns] ** inv_p + abs_i1[t1, columns] ** inv_p
        v = int(s_values.argmax())
        s = float(s_values[v])
        if s > best_s:
            best_s = s
            best = (combo, int(t0[v]), int(t1[v]), v)

    combo, t0_joint, t1_joint, v_joint = best
    model = _assemble_model(config, inter, extr, c, table_widths, branch_sizes,
                            extremal_options, combo, t0_joint, t1_joint,
                            _decode_weights(v_joint, points, n))
    return lhv_evaluate_S(config, model).s, model


def _decode_weights(v_joint: int, points: list[tuple[float, ...]],
                    n: int) -> dict[int, tuple[float, ...]]:
    weights: dict[int, tuple[float, ...]] = {}
    remainder = v_joint
    for r in range(n, 0, -1):
        remainder, idx = divmod(remainder, len(points))
        weights[r] = points[idx]
    return weights


def _assemble_model(config: NetworkConfig, inter: list[NodeId],
                    extr: list[NodeId], c: int, table_widths: list[int],
                    branch_sizes: list[int], extremal_options: list[tuple],
                    combo: tuple[int, ...], t0_joint: int, t1_joint: int,
                    weights: Mapping[int, tuple[float, ...]]) -> LHVModel:
    inter_tables: dict[NodeId, np.ndarray] = {}
    rem0, rem1 = t0_joint, t1_joint
    for node, width, branch in reversed(list(zip(inter, table_widths,
                                                 branch_sizes))):
        rem0, code0 = divmod(rem0, branch)
        rem1, code1 = divmod(rem1, branch)
        shifts = width - 1 - np.arange(width)
        row0 = (code0 >> shifts) & 1
        row1 = (code1 >> shifts) & 1
        inter_tables[node] = np.stack([row0, row1]).astype(np.uint8)
    extr_tables: dict[NodeId, np.ndarray] = {}
    for j, node in enumerate(extr):
        options = extremal_options[combo[j]]
        extr_tables[node] = np.array([[o >> 1 for o in options],
                                      [o & 1 for o in options]], dtype=np.uint8)
    return LHVModel(alphabet_size=c,
                    weights={r: tuple(float(w) for w in weights[r])
                             for r in sorted(weights)},
                    intermediate=inter_tables, extremal=extr_tables)


def model_to_jsonable(model: LHVModel) -> dict:
    """JSON-friendly rendering of a model (weights plus response tables)."""
    return {
        "alphabet_size": model.alphabet_size,
        "weights": {str(r): list(model.weights[r]) for r in sorted(model.weights)},
        "intermediate": {node.name: model.intermediate[node].tolist()
                         for node in sorted(model.intermediate,
                                            key=lambda nd: nd.index)},
        "extremal": {node.name: model.extremal[node].tolist()
                     for node in sorted(model.extremal,
                                        key=lambda nd: nd.index)},
    }
