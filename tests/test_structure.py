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


def test_no_module_imports_scipy():
    # the package runs on numpy alone; _kernel has the scalar searches
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
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


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _invariants_named(nodes):
    return {node.attr for node in nodes if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "invariants"}


def test_verify_runs_checks_it_does_not_define():
    # every check body lives in graphentropy.invariants, none in the CLI
    verify = _function(_tree("cli"), "_cmd_verify")
    nested = [node.lineno for node in ast.walk(verify) if node is not verify
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []
    assert _invariants_named(ast.walk(verify)) == {
        node.name for node in _tree("invariants").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_acceptance_suite_calls_every_verify_check():
    verify = _function(_tree("cli"), "_cmd_verify")
    suite = pathlib.Path(__file__).with_name("test_acceptance.py")
    calls = [node.func for node in ast.walk(ast.parse(suite.read_text()))
             if isinstance(node, ast.Call)]
    assert _invariants_named(ast.walk(verify)) <= _invariants_named(calls)


def _defines(tree, name):
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.walk(tree))


def _calls(tree, name):
    return any(isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)
        for node in ast.walk(tree))


def test_every_march_starts_in_phase():
    # continuation_march is defined and called only in phase, and the solver
    # module knows nothing of its drivers
    modules = {path.stem: ast.parse(path.read_text(), filename=path.name)
               for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, tree in modules.items()
            if _defines(tree, "continuation_march")] == ["phase"]
    assert [name for name, tree in modules.items()
            if _calls(tree, "continuation_march")] == ["phase"]
    imported = []
    for node in ast.walk(modules["optimize"]):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert [name for name in imported if name.split(".")[-1] == "phase"] == []
