"""Structural rules of the package source, checked on its syntax tree."""

import ast
import pathlib
import sys

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


def _absolute_names(path):
    """The absolute module names a module imports (`from a import b` gives
    `a` and `a.b`) and the `name.attribute` pairs it reads."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append(f"{node.value.id}.{node.attr}")
    return names


def test_no_module_imports_scipy():
    # the package runs on numpy alone; _kernel has the scalar searches
    offenders = [f"{path.name}: {n}" for path in sorted(PACKAGE.glob("*.py"))
                 for n in _absolute_names(path) if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_numpy_is_imported_in_one_module():
    # every other module takes np from _numpy, so none can load numpy around
    # its OpenBLAS thread rule
    importers = {path.name for path in sorted(PACKAGE.glob("*.py"))
                 for n in _absolute_names(path) if n.split(".")[0] == "numpy"}
    assert importers == {"_numpy.py"}


def test_no_module_names_numpy_random():
    # the random starts come from _random, which loads neither numpy.random
    # nor the hashing modules its seeding imports
    offenders = [f"{path.name}: {n}" for path in sorted(PACKAGE.glob("*.py"))
                 for n in _absolute_names(path)
                 if n in ("np.random", "numpy.random") or n.startswith("numpy.random.")]
    assert offenders == []


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


def test_one_continuation_march():
    # the scan is the one march: crease_scan runs phase_diagram_scan, so
    # continuation_march has a single call site in the package
    sites = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
             if _call_name(node) == "continuation_march"]
    assert len(sites) == 1, sites


def _call_name(node):
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def test_every_spg_box_objective_comes_from_the_kernel():
    # spg_box minimizes only the kernel's one objective, the augmented
    # Lagrangian (the ERGM free energy is it at zero penalty), so one
    # evaluation protocol (value, then the gradient at accepted steps) serves
    # every solve
    makers = {"AugmentedLagrangian"}
    calls, offenders = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            built = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                     and _call_name(node.value) in makers
                     for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if _call_name(node) == "spg_box":
                    arg = node.args[1] if len(node.args) > 1 else None
                    calls.append(f"{path.stem}.{func.name}")
                    if not (isinstance(arg, ast.Name) and arg.id in built
                            or _call_name(arg) in makers):
                        offenders.append(f"{path.stem}.{func.name}:{node.lineno}")
    assert {"ergm.psi_full", "optimize._solve_constrained"} <= set(calls)
    assert offenders == []


def test_one_motif_dispatch():
    # density_gradient alone chooses a motif's kernel, and the public density
    # and gradient go through it, so no second dispatch can drift from it
    kernel = _tree("_kernel")
    readers = {func.name for func in kernel.body if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Attribute)
               and node.attr in ("is_triangle", "is_star")}
    assert readers == {"density_gradient"}
    assert not any(isinstance(node, ast.Attribute) and node.attr in ("is_triangle", "is_star")
                   for stmt in kernel.body if not isinstance(stmt, ast.FunctionDef)
                   for node in ast.walk(stmt))
    graphon = _tree("graphon")
    for name in ("motif_density", "motif_gradient"):
        assert _calls(_function(graphon, name), "density_gradient"), name


def _defaulted_parameters(tree):
    """(function, parameter, position in a call or None) for every parameter
    with a default; a method's position does not count self or cls."""
    out = []
    for owner in ast.walk(tree):
        if not isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            continue
        for func in owner.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            shift = int(isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list))
            first = len(positional) - len(args.defaults)
            out += [(func.name, arg.arg, i - shift)
                    for i, arg in enumerate(positional[first:], start=first)]
            out += [(func.name, arg.arg, None)
                    for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, func, param, position):
    """Whether the call passes param of func, directly or through a wrapper
    such as the bench's tracer.call(label, func, *args) that forwards the
    arguments after func."""
    if _call_name(call) == func:
        args = call.args
    else:
        at = [i for i, arg in enumerate(call.args)
              if (arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", None)) == func]
        if not at:
            return False
        args = call.args[at[0] + 1:]
    return (any(k.arg == param for k in call.keywords)
            or position is not None and len(args) > position
            or any(isinstance(arg, ast.Starred) for arg in args))


def _none_defaulted(func):
    """The names of func's parameters whose default is None."""
    args = func.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += zip(args.kwonlyargs, args.kw_defaults)
    return {arg.arg for arg, d in pairs if isinstance(d, ast.Constant) and d.value is None}


def _name_tested_is_none(test):
    """The name that `test` compares with `is None`, else None."""
    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left.id
    return None


def _assigned_names(stmts):
    return {target.id for stmt in stmts if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name)}


def test_no_function_replaces_a_none_default():
    # a default is written once, in the signature: `def f(p=None)` followed by
    # `if p is None: p = ...` (or `p = ... if p is None else p`) states it twice
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = _none_defaulted(func)
            for node in ast.walk(func):
                if isinstance(node, ast.If):
                    name, assigned = _name_tested_is_none(node.test), _assigned_names(node.body)
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.IfExp):
                    name = _name_tested_is_none(node.value.test)
                    assigned = _assigned_names([node])
                else:
                    continue
                if name in params and name in assigned:
                    offenders.append(f"{path.stem}.{func.name}({name}):{node.lineno}")
    assert offenders == []


def test_every_defaulted_parameter_has_a_caller():
    # an option that only the tests set is a constant in disguise: some call
    # in the package or the bench must pass each defaulted parameter
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    sources = sorted(PACKAGE.glob("*.py")) + sorted(bench.glob("*.py"))
    calls = [node for path in sources for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    params = [(path.stem, *p) for path in sorted(PACKAGE.glob("*.py"))
              for p in _defaulted_parameters(ast.parse(path.read_text()))]
    assert params
    unused = [f"{module}.{func}({param}=)" for module, func, param, position in params
              if not any(_passes(call, func, param, position) for call in calls)]
    assert unused == []


def _module_level_imports(tree):
    """Names imported outside any function body and any `if TYPE_CHECKING:`
    block, relative ones with their dots; `from . import x` gives `.x`."""
    def run_at_import(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                    and child.test.id == "TYPE_CHECKING"):
                continue
            yield child
            yield from run_at_import(child)

    imported = []
    for node in run_at_import(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            imported += ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + node.module)
    return imported


def test_cli_imports_only_the_standard_library_and_errors_at_module_level():
    # each command handler imports the modules it runs, so a process pays
    # only for its command and `region` runs without numpy
    imported = _module_level_imports(_tree("cli"))
    assert imported
    offenders = [name for name in imported if name != ".errors"
                 and name.split(".")[0] not in sys.stdlib_module_names]
    assert offenders == []


def test_the_entry_path_to_the_region_precheck_loads_no_numpy():
    # the CLI reads a config, parses a motif and rejects an out-of-region
    # target through these modules alone; each imports only the standard
    # library and the others at module level
    numpy_free = ("errors", "region", "problem", "cli")
    offenders = [f"{name}: {imported}" for name in numpy_free
                 for imported in _module_level_imports(_tree(name))
                 if not (imported[1:] in numpy_free if imported.startswith(".")
                         else imported.split(".")[0] in sys.stdlib_module_names)]
    assert offenders == []


def test_ergm_imports_nothing_from_the_solver_module():
    # ergm takes the solver constants and OptimConfig from problem, so
    # `ergm --curve` does not load the constrained solver
    imported = []
    for node in ast.walk(_tree("ergm")):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert "problem" in imported
    assert [name for name in imported if name.split(".")[-1] == "optimize"] == []


def _scopes(tree):
    """Each node's enclosing classes and functions, as a dotted prefix."""
    scopes = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            scopes[child] = prefix
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, f"{prefix}.{child.name}" if named else prefix)

    visit(tree, "")
    return scopes


def _raise_sites(names):
    """`module.scope:Error` for each `raise` of an exception in names."""
    raised = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        scopes = _scopes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name in names:
                    raised.append(f"{path.stem}{scopes[node]}:{name}")
    return sorted(raised)


def test_the_motif_edge_rules_have_one_home():
    # a loop and a repeated edge are named by Motif's one pass over its
    # edges, which parsed, named and directly built motifs all go through
    assert _raise_sites(("LoopEdge", "DuplicateEdge")) == [
        "problem.Motif.__post_init__:DuplicateEdge", "problem.Motif.__post_init__:LoopEdge"]


def test_the_region_precheck_has_one_definition():
    modules = {path.stem: ast.parse(path.read_text(), filename=path.name)
               for path in sorted(PACKAGE.glob("*.py"))}
    assert not _defines(modules["optimize"], "_region_precheck")
    assert [name for name, tree in modules.items()
            if _defines(tree, "region_precheck")] == ["problem"]


def test_a_motifs_proven_bounds_have_one_home():
    # region.motif_bounds writes each motif's bound formulas: the precheck
    # reads them there, for the triangle as for every other motif, so in
    # problem only Motif.name asks whether a motif is a star or a triangle,
    # the precheck takes nothing else from region (no classify, no
    # RegionClass) and raises in one place; the heatmap and verify's
    # region_geometry take the triangle's curves from motif_bounds alone; the
    # envelope e(2e - 1) is written only as the region table's column, and
    # no name is left of it or of its touch points
    problem = _tree("problem")
    scopes = _scopes(problem)
    for shape in ("is_star", "is_triangle"):
        assert {scopes[node] for node in ast.walk(problem)
                if isinstance(node, ast.Attribute) and node.attr == shape} == {".Motif.name"}
    precheck = _function(problem, "region_precheck")
    assert _calls(precheck, "motif_bounds")
    assert _region_names(precheck) == {"motif_bounds"}
    assert {node.id for node in ast.walk(precheck) if isinstance(node, ast.Name)}.isdisjoint(
        {"classify", "RegionClass"})
    assert [site for site in _raise_sites(("Infeasible",))
            if site.startswith("problem.")] == ["problem.region_precheck:Infeasible"]
    figures = _tree("figures")
    relative = {f"{node.module}.{alias.name}" for node in ast.walk(figures)
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    assert relative == {"errors.EmptyTable", "region.motif_bounds"}
    geometry = _function(_tree("invariants"), "region_geometry")
    assert _calls(geometry, "motif_bounds")
    assert _region_names(geometry) == {"motif_bounds", "classify", "RegionClass", "er_curve"}
    envelopes, names = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        scopes = _scopes(tree)
        envelopes += [f"{path.stem}{scopes[node]}" for node in ast.walk(tree)
                      if _is_envelope(node)]
        names += [name for node in ast.walk(tree) for name in _names_bound(node)
                  if "envelope" in name.lower() or "touch_point" in name.lower()]
    assert envelopes == ["region.boundary_table"]
    assert names == []


def _region_names(func):
    """The `region.name` attributes func reads."""
    return {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "region"}


def _is_envelope(node):
    """Whether node is x * (2x - 1), in either order of each product."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for x, factor in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(x, ast.Name) and isinstance(factor, ast.BinOp)
                and isinstance(factor.op, ast.Sub) and _is_number(factor.right, 1)
                and isinstance(factor.left, ast.BinOp) and isinstance(factor.left.op, ast.Mult)):
            pair = (factor.left.left, factor.left.right)
            if any(_is_number(two, 2) and isinstance(y, ast.Name) and y.id == x.id
                   for two, y in (pair, pair[::-1])):
                return True
    return False


def _names_bound(node):
    """The names node defines or reads: functions, classes, arguments,
    variables, attributes and imported aliases."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.asname or node.name]
    return []


def test_cli_imports_no_numpy_module():
    # the CLI hands numbers to the modules it runs; `ergm --grid` takes its
    # parameters from ergm.parameter_grid
    imported = []
    for node in ast.walk(_tree("cli")):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert [name for name in imported if name.split(".")[-1] in ("_numpy", "numpy")] == []


def _raised_range_checks(tree, is_range):
    """The functions with an `if` that raises and tests a comparison chain
    is_range matches."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.If)
                    and any(isinstance(n, ast.Raise) for b in node.body for n in ast.walk(b))
                    and any(isinstance(n, ast.Compare) and is_range(n)
                            for n in ast.walk(node.test))):
                found.add(func.name)
    return found


def _is_number(node, value):
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


def _is_unit_range(chain):
    return (len(chain.ops) == 2 and _is_number(chain.left, 0)
            and _is_number(chain.comparators[-1], 1))


def _is_clamp_box(chain):
    return isinstance(chain.left, ast.Name) and chain.left.id == "CLAMP"


def test_each_density_domain_rule_has_one_home():
    # a scalar in [0, 1] is errors.check_unit, and a crease's e in the box
    # [CLAMP, 1 - CLAMP] is optimize.check_crease_e; every other module calls them
    unit, box = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        unit += [f"{path.stem}.{f}" for f in _raised_range_checks(tree, _is_unit_range)]
        box += [f"{path.stem}.{f}" for f in _raised_range_checks(tree, _is_clamp_box)]
    assert unit == ["errors.check_unit"]
    assert box == ["optimize.check_crease_e"]


def test_one_function_decides_symmetry():
    # a graphon and a spectral kernel are square and symmetric by
    # errors.check_symmetric alone, at its one tolerance; no module compares
    # arrays with allclose
    assert _raise_sites(("AsymmetricMatrix",)) == ["errors.check_symmetric:AsymmetricMatrix"] * 2
    allclose = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
                if "allclose" in (getattr(node, "attr", None), getattr(node, "id", None))]
    assert allclose == []


def test_one_function_opens_files():
    # every file, from the CLI or the library, is opened by errors.open_path,
    # so a path no file can have is ValueOutOfRange everywhere
    opened = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        scopes = _scopes(tree)
        opened += [f"{path.stem}{scopes[node]}" for node in ast.walk(tree)
                   if _call_name(node) == "open"]
    assert opened == ["errors.open_path"]


def test_one_function_decides_a_size_cap():
    # census n, the resolution m and every point count meet their caps in
    # errors.check_integer, with one message
    assert _raise_sites(("TooLarge",)) == ["errors.check_integer:TooLarge"]


def test_every_open_call_names_its_encoding():
    # files are read and written as UTF-8 whatever the locale
    offenders = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "open"
                 and "encoding" not in {k.arg for k in node.keywords}]
    assert offenders == []
