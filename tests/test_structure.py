"""Structural rules of the package source, checked on its syntax tree."""

import ast
import pathlib

import graphentropy

PACKAGE = pathlib.Path(graphentropy.__file__).parent


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def test_no_module_imports_a_private_name_of_another():
    # `from . import _kernel` (the module itself) is allowed, `from ._kernel
    # import _mean` is not
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                offenders += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_cli_optim_keys_are_the_config_fields():
    keys = None
    for node in _tree("cli").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "OPTIM_MINIMUM" for t in node.targets):
            keys = set(ast.literal_eval(node.value))
    fields = set()
    for node in _tree("optimize").body:
        if isinstance(node, ast.ClassDef) and node.name == "OptimConfig":
            fields = {stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
    assert fields
    assert keys == fields - {"warm_start"}
