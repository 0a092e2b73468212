"""Acyclic quantum network layouts and their n-local correlation inequalities.

Build chain, star, tree, or custom layouts of two-particle sources, evaluate
the nonlinear witness S = |I0|^(1/p) + |I1|^(1/p) for entangled two-qubit
sources under Pauli-plane measurements, maximize it over measurement angles,
and evaluate classical hidden-variable models, including the vertex model
that reaches the proved classical bound S <= 1.

The statevector and Born-rule oracles live in nlocalnet.correlators, which
neither this package nor its command line imports.
"""

from .errors import (ConfigurationError, InvalidParameterError, NlocalError,
                     ResourceLimitError)
from .inequality import (VIOLATION_TOLERANCE, EvaluationResult, closed_form_S,
                         closed_form_smax, evaluate_S,
                         evaluate_S_from_correlator)
from .lhv import (LHVModel, lhv_best_S, lhv_distribution, lhv_evaluate_S,
                  model_to_jsonable, validate_model)
from .optimize import sweep
from .quantum import (PAULI_X, PAULI_Z, BlochObservable, MeasurementPlan,
                      SettingAssignment, canonical_plan, check_plan,
                      concurrence, extremal_observable, pair_expectation)
from .topology import (AttachmentMap, NetworkConfig, NodeId, attachments,
                       build_chain, build_star, build_tree, extremal_nodes,
                       intermediate_nodes, parse_config, serialize_config,
                       validate)

__version__ = "0.1.0"

__all__ = [
    "AttachmentMap",
    "BlochObservable",
    "ConfigurationError",
    "EvaluationResult",
    "InvalidParameterError",
    "LHVModel",
    "MeasurementPlan",
    "NetworkConfig",
    "NlocalError",
    "NodeId",
    "PAULI_X",
    "PAULI_Z",
    "ResourceLimitError",
    "SettingAssignment",
    "VIOLATION_TOLERANCE",
    "attachments",
    "build_chain",
    "build_star",
    "build_tree",
    "canonical_plan",
    "check_plan",
    "closed_form_S",
    "closed_form_smax",
    "concurrence",
    "evaluate_S",
    "evaluate_S_from_correlator",
    "extremal_nodes",
    "extremal_observable",
    "intermediate_nodes",
    "lhv_best_S",
    "lhv_distribution",
    "lhv_evaluate_S",
    "model_to_jsonable",
    "pair_expectation",
    "parse_config",
    "serialize_config",
    "sweep",
    "validate",
    "validate_model",
]
