"""Start-up contract: a process loads only what it uses.

`import graphentropy` and `import graphentropy.cli` load no numpy, the package
resolves its public names on first access, and the command-line entry point
pins OpenBLAS to one thread unless the user has chosen otherwise.
"""

import importlib
import os
import subprocess
import sys

import pytest

import graphentropy
from graphentropy import cli

# the public names of the package: its nine modules and what they export
PUBLIC_NAMES = [
    "BipodalSolution", "CensusTable", "ConvexityReport", "CreaseScanResult", "DensityPair",
    "EntropyResult", "ErgmParams", "FreeEnergyResult", "GraphEntropyError", "Graphon",
    "Infeasible", "Motif", "NoTransitionFound", "OptimConfig", "RegionClass", "ScanSpec",
    "SpectralReport", "TooLarge", "bipodal_graphon", "census", "classify", "closed_form_half",
    "closed_form_upper", "compare_to_variational", "constant_graphon", "convexity_report",
    "crease_report", "crease_scan", "delta_t_decomposition", "edge_density", "el_residual",
    "empirical_entropy", "enumerate_census", "er_curve", "ergm", "errors",
    "estimate_multipliers", "f_minus", "find_transition", "graphon", "graphon_distance",
    "kernel_operator_spectrum", "lower_boundary", "lower_envelope", "maximize_entropy",
    "motif_density", "motif_gradient", "optimize", "phase", "phase_diagram_scan",
    "problem", "psi_constant", "psi_full", "rate_function", "rate_value", "read_graphon",
    "region", "render_svg", "resample", "spectral", "trace_power", "transition_curve",
    "upper_boundary", "verify_t_le_e_cubed", "verify_trace_inequality", "write_graphon",
]
SUBMODULES = {"census", "ergm", "errors", "graphon", "optimize", "phase", "problem", "region",
              "spectral"}


def _fresh_process(code):
    """`code` run to completion in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)


def _fresh(code):
    """stdout lines of `code` run in a new interpreter that imports this checkout."""
    return _fresh_process(code).stdout.splitlines()


def test_import_loads_no_numpy_and_no_submodule():
    assert _fresh(
        "import sys, graphentropy\n"
        "print(sorted(n for n in sys.modules if n == 'numpy' or n.startswith('graphentropy.')))"
    ) == ["[]"]


def test_public_names_resolve_to_what_their_modules_define():
    assert len(PUBLIC_NAMES) == 66
    assert graphentropy.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(graphentropy, name)
        if name in SUBMODULES:
            assert obj is importlib.import_module(f"graphentropy.{name}"), name
        else:
            assert obj.__module__.startswith("graphentropy."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(PUBLIC_NAMES) <= set(dir(graphentropy))
    with pytest.raises(AttributeError, match="no_such_name"):
        graphentropy.no_such_name  # noqa: B018


def test_verify_runs_without_the_free_energy_module(tmp_path):
    # the e = 1/2 slice's convexity checks live beside its closed form in optimize
    out = tmp_path / "verify.txt"
    assert _fresh(
        "import sys, graphentropy.cli as cli\n"
        f"code = cli.run(['verify', '--seed', '1', '--out', {str(out)!r}])\n"
        "print(code, 'graphentropy.ergm' in sys.modules)"
    ) == [f"{cli.EXIT_OK} False"]


def test_region_runs_without_numpy(tmp_path):
    out = tmp_path / "region.csv"
    assert _fresh(
        "import sys, graphentropy.cli as cli\n"
        f"code = cli.run(['region', '--samples', '3', '--out', {str(out)!r}])\n"
        "print(code, 'numpy' in sys.modules)"
    ) == [f"{cli.EXIT_OK} False"]
    assert out.read_text().splitlines()[0] == "e,upper,er,envelope"


def test_census_runs_without_the_solver_modules(tmp_path):
    out = tmp_path / "census.csv"
    heavy = ["graphentropy.optimize", "graphentropy.graphon", "graphentropy.phase"]
    assert _fresh(
        "import sys, graphentropy.cli as cli\n"
        f"code = cli.run(['census', '--n', '3', '--out', {str(out)!r}])\n"
        f"print(code, [m for m in {heavy!r} if m in sys.modules])"
    ) == [f"{cli.EXIT_OK} []"]
    assert out.read_text().splitlines()[-1] == "3,3,1,1"


def _run_reports_loaded(argv, modules):
    """The exit code of cli.run(argv) in a fresh interpreter, which of
    `modules` it loaded, and its stderr."""
    proc = _fresh_process(
        "import sys, graphentropy.cli as cli\n"
        f"code = cli.run({argv!r})\n"
        f"print(code, [m for m in {modules!r} if m in sys.modules])"
    )
    return proc.stdout.splitlines(), proc.stderr


def test_entropy_rejects_an_out_of_region_target_without_numpy():
    out, err = _run_reports_loaded(["entropy", "--e", "0.5", "--t", "0.4"],
                                   ["numpy", "graphentropy.optimize"])
    assert out == [f"{cli.EXIT_INFEASIBLE} []"]
    assert err == "infeasible: target (0.5,0.4) classified OutsideUpper for the triangle model\n"


def test_entropy_checks_the_config_before_the_region(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"version": 1, "optim": {"m": 0}}')
    out, err = _run_reports_loaded(
        ["entropy", "--e", "0.5", "--t", "0.4", "--config", str(config)], ["numpy"])
    assert out == [f"{cli.EXIT_USAGE} []"]
    assert err.startswith("invalid input: m must be an integer >= 1")


def test_ergm_curve_runs_without_the_solver_module(tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["ergm", "--curve", "--beta2-min", "1.0", "--beta2-max", "2.0", "--steps", "2",
            "--out", str(out)]
    assert _run_reports_loaded(argv, ["graphentropy.optimize"])[0] == [f"{cli.EXIT_OK} []"]
    assert len(out.read_text().splitlines()) == 3


def _main_sees(monkeypatch):
    """OPENBLAS_NUM_THREADS as cli.run sees it when cli.main calls it."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")))
    with pytest.raises(SystemExit):
        cli.main()
    return seen


def test_main_pins_openblas_to_one_thread_only_when_unset(monkeypatch):
    # set first so that the teardown restores the variable's original state
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert _main_sees(monkeypatch) == ["1"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _main_sees(monkeypatch) == ["2"]


def test_run_leaves_the_environment_alone(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    before = dict(os.environ)
    assert cli.run(["region", "--samples", "3", "--out", str(tmp_path / "r.csv")]) == cli.EXIT_OK
    assert dict(os.environ) == before
