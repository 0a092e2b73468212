"""Acyclic quantum network layouts and their n-local correlation inequalities.

Build chain, star, tree, or custom layouts of two-particle sources, evaluate
the nonlinear witness S = |I0|^(1/p) + |I1|^(1/p) for entangled two-qubit
sources under Pauli-plane measurements, maximize it over measurement angles,
and build the classical hidden-variable model that reaches the proved
classical bound S <= 1.

`import nlocalnet` loads no submodule: each public name is imported from its
home module on first use.  The package needs nothing outside the standard
library; the correctness oracles the tests compare it with are in
tests/oracles.py.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_PUBLIC = {
    "builders": ("build_chain", "build_star", "build_tree", "serialize_config"),
    "errors": ("InvalidParameterError", "NlocalError", "ResourceLimitError"),
    "inequality": ("VIOLATION_TOLERANCE", "EvaluationResult", "closed_form_S",
                   "closed_form_smax", "evaluate_S", "sweep"),
    "lhv": ("LHVModel", "lhv_best_S", "model_to_jsonable"),
    "topology": ("NetworkConfig", "NodeId", "attachments", "extremal_nodes",
                 "intermediate_nodes", "parse_config", "validate"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
