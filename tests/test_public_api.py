import ast
import importlib
import inspect
import json
import pickle
from pathlib import Path

import pytest

import nlocalnet
from helpers import run_fresh
from nlocalnet import (EvaluationResult, LHVModel, NetworkConfig, build_chain,
                       evaluate_S, lhv_best_S)
from oracles import PAULI_X, BlochObservable, SettingAssignment

# The public names, by the module that defines them.
HOMES = {
    "builders": ["build_chain", "build_star", "build_tree", "serialize_config"],
    "errors": ["InvalidParameterError", "NlocalError", "ResourceLimitError"],
    "inequality": ["EvaluationResult", "VIOLATION_TOLERANCE", "closed_form_S",
                   "closed_form_smax", "evaluate_S", "sweep"],
    "lhv": ["LHVModel", "lhv_best_S", "model_to_jsonable"],
    "topology": ["NetworkConfig", "NodeId", "attachments", "extremal_nodes",
                 "intermediate_nodes", "parse_config", "validate"],
}
PUBLIC = sorted(name for names in HOMES.values() for name in names)


def test_all_lists_the_pinned_public_names():
    assert len(PUBLIC) == 23
    assert sorted(nlocalnet.__all__) == PUBLIC


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items()
                                        for name in names])
def test_each_public_name_is_the_object_of_its_home_module(home, name):
    value = getattr(nlocalnet, name)
    assert value is getattr(importlib.import_module(f"nlocalnet.{home}"), name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == f"nlocalnet.{home}"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from nlocalnet import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(nlocalnet, name) for name in PUBLIC)


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        nlocalnet.no_such_name
    assert not hasattr(nlocalnet, "_walk")


def test_import_loads_a_submodule_only_on_first_use():
    code = """if True:
        import json, sys
        import nlocalnet
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("nlocalnet."))
        steps = [loaded()]
        nlocalnet.NodeId
        steps.append(loaded())
        import nlocalnet.topology
        steps.append(nlocalnet.topology._walk.__name__)
        print(json.dumps(steps))
    """
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [], ["nlocalnet.errors", "nlocalnet.topology"], "_walk"]


def _instances() -> dict:
    """One value of each pinned type; BlochObservable and SettingAssignment
    are the value types of the tests' oracles."""
    config = build_chain(3)
    return {
        NetworkConfig: (config, ("n", "m", "p", "edges")),
        BlochObservable: (PAULI_X, ("vx", "vy", "vz")),
        SettingAssignment: (SettingAssignment.from_bits(config, [0, 1], [1, 0]),
                            ("x", "y")),
        EvaluationResult: (evaluate_S(config, [0.5, 0.6, 0.7], [0.3, 0.4]),
                           ("i0", "i1", "s", "violated")),
        LHVModel: (lhv_best_S(config)[1],
                   ("alphabet_size", "weights", "intermediate", "extremal")),
    }


@pytest.mark.parametrize("kind", [
    NetworkConfig, BlochObservable, SettingAssignment,
    EvaluationResult, LHVModel], ids=lambda kind: kind.__name__)
def test_value_types_stay_frozen_with_their_fields_repr_and_pickle(kind):
    value, fields = _instances()[kind]
    assert type(value) is kind
    with pytest.raises(AttributeError):
        setattr(value, fields[0], getattr(value, fields[0]))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert kind(**{f: getattr(value, f) for f in fields}) == value
    assert repr(value) == (f"{kind.__name__}("
                           + ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
                           + ")")
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is kind and copy == value


def test_no_module_imports_a_private_name_of_another():
    """Each private name stays in its module: no `from .x import _y`."""
    package = Path(nlocalnet.__file__).parent
    crossings = [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").split(".")[0] == "nlocalnet")
                 for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_no_module_imports_numpy():
    """The package runs on the standard library alone; only the tests'
    oracles use numpy."""
    package = Path(nlocalnet.__file__).parent
    imports = [f"{path.name}: {name}"
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for name in ([alias.name for alias in node.names]
                            if isinstance(node, ast.Import) else [node.module or ""])
               if name.split(".")[0] == "numpy"]
    assert imports == []
