"""Start-up contract: a process loads only what it uses.

`import graphentropy` and `import graphentropy.cli` load no numpy, the package
resolves its public names on first access, and the package loads numpy on one
OpenBLAS thread unless the user has chosen otherwise.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import graphentropy
from graphentropy import cli
from graphentropy._numpy import THREAD_VARIABLES

# the public names of the package: its ten modules and what they export
PUBLIC_NAMES = [
    "BipodalSolution", "CensusTable", "ConvexityReport", "CreaseScanResult", "DensityPair",
    "EntropyResult", "ErgmParams", "FreeEnergyResult", "GraphEntropyError", "Graphon",
    "Infeasible", "Motif", "NoTransitionFound", "OptimConfig", "RegionClass", "ScanSpec",
    "SpectralReport", "TooLarge", "bipodal_graphon", "census", "classify", "closed_form_half",
    "closed_form_upper", "compare_to_variational", "constant_graphon", "convexity_report",
    "crease_report", "crease_scan", "delta_t_decomposition", "edge_density", "el_residual",
    "empirical_entropy", "enumerate_census", "er_curve", "ergm", "errors",
    "estimate_multipliers", "f_minus", "figures", "find_transition", "graphon",
    "graphon_distance", "heatmap_svg", "kernel_operator_spectrum", "lower_boundary",
    "maximize_entropy", "motif_density", "motif_gradient", "optimize", "phase",
    "phase_diagram_scan", "problem", "psi_constant", "psi_full", "rate_function",
    "rate_value", "read_graphon", "region", "resample", "spectral", "trace_power",
    "transition_curve", "transition_curve_svg", "upper_boundary", "verify_t_le_e_cubed",
    "verify_trace_inequality", "write_graphon",
]
SUBMODULES = {"census", "ergm", "errors", "figures", "graphon", "optimize", "phase", "problem",
              "region", "spectral"}


def _fresh_process(code, **variables):
    """`code` run to completion in a new interpreter that imports this checkout,
    with each of `variables` set in its environment, or unset where None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)


def _fresh(code, **variables):
    """stdout lines of `code` run in a new interpreter that imports this checkout."""
    return _fresh_process(code, **variables).stdout.splitlines()


def test_import_loads_no_numpy_and_no_submodule():
    assert _fresh(
        "import sys, graphentropy\n"
        "print(sorted(n for n in sys.modules if n == 'numpy' or n.startswith('graphentropy.')))"
    ) == ["[]"]


def test_public_names_resolve_to_what_their_modules_define():
    assert len(PUBLIC_NAMES) == 67
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


def test_the_figures_module_loads_no_numpy():
    assert _fresh("import sys, graphentropy.figures\n"
                  "print('numpy' in sys.modules)") == ["False"]


def test_region_memory_does_not_grow_with_the_sample_count(tmp_path):
    # each row is written as it is made; with the row list held whole, the
    # Python heap of 100,000 samples peaked about 15 MiB above that of 101
    out = str(tmp_path / "region.csv")
    peaks = []
    for samples in ("101", "100000"):
        code, peak = _fresh(
            "import tracemalloc, graphentropy.cli as cli\n"
            "tracemalloc.start()\n"
            f"code = cli.run(['region', '--samples', {samples!r}, '--out', {out!r}])\n"
            "print(code, tracemalloc.get_traced_memory()[1])")[0].split()
        assert int(code) == cli.EXIT_OK
        peaks.append(int(peak))
    assert peaks[1] - peaks[0] < 2 ** 20
    with open(out) as fh:
        assert sum(1 for _ in fh) == 100_001


def test_census_runs_without_the_solver_modules(tmp_path):
    out = tmp_path / "census.csv"
    heavy = ["graphentropy.optimize", "graphentropy.graphon", "graphentropy.phase"]
    assert _fresh(
        "import sys, graphentropy.cli as cli\n"
        f"code = cli.run(['census', '--n', '3', '--out', {str(out)!r}])\n"
        f"print(code, [m for m in {heavy!r} if m in sys.modules])"
    ) == [f"{cli.EXIT_OK} []"]
    assert out.read_text().splitlines()[-1] == "3,3,1,1"


def test_importing_the_free_energy_module_builds_no_grid():
    assert _fresh("from graphentropy import ergm\n"
                  "print(ergm._grid.cache_info().currsize)") == ["0"]


def test_psi_constant_builds_the_grid_once_and_gives_the_same_bits():
    assert _fresh(
        "from graphentropy import ergm\n"
        "p = ergm.ErgmParams(0.3, 0.8)\n"
        "a, b = ergm.psi_constant(p), ergm.psi_constant(p)\n"
        "bits = lambda r: [r['psi_er'].hex()] + [u.hex() for u in r['u_star']]\n"
        "print(bits(a) == bits(b), ergm._grid.cache_info().misses)"
    ) == ["True 1"]


@pytest.mark.parametrize("argv", [["verify", "--seed", "5"],
                                  ["census", "--n", "5", "--threads", "1"]], ids=["verify", "census"])
def test_one_worker_loads_no_thread_pool(tmp_path, argv):
    out, _ = _run_reports_loaded([*argv, "--out", str(tmp_path / "out")], ["concurrent.futures"])
    assert out == [f"{cli.EXIT_OK} []"]


def test_a_one_worker_census_makes_no_executor_and_counts_as_two_do():
    assert _fresh(
        "import sys\n"
        "from graphentropy.census import enumerate_census\n"
        "one = [enumerate_census(n, threads=1).counts for n in range(1, 7)]\n"
        "loaded = 'concurrent.futures' in sys.modules\n"
        "print(loaded, one == [enumerate_census(n, threads=2).counts for n in range(1, 7)])"
    ) == ["False True"]


def _run_reports_loaded(argv, modules):
    """The exit code of cli.run(argv) in a fresh interpreter, which of
    `modules` it loaded, and its stderr."""
    proc = _fresh_process(
        "import sys, graphentropy.cli as cli\n"
        f"code = cli.run({argv!r})\n"
        f"print(code, [m for m in {modules!r} if m in sys.modules])"
    )
    return proc.stdout.splitlines(), proc.stderr


def test_entropy_rejects_an_out_of_region_target_without_numpy(tmp_path):
    out, err = _run_reports_loaded(["entropy", "--e", "0.5", "--t", "0.4"],
                                   ["numpy", "graphentropy.optimize"])
    assert out == [f"{cli.EXIT_INFEASIBLE} []"]
    assert err == ("infeasible: target (0.5,0.4) outside g3(e) <= t <= e^(3/2)"
                   " for the triangle model\n")
    # a star centred at vertex 2 is the 2-star, with the 2-star's bounds
    motif = tmp_path / "path.txt"
    motif.write_text("motif v1 ell=3\n1 2\n2 3\n")
    out, err = _run_reports_loaded(["entropy", "--e", "0.5", "--t", "0.6", "--motif", str(motif)],
                                   ["numpy", "graphentropy.optimize"])
    assert out == [f"{cli.EXIT_INFEASIBLE} []"]
    assert err == "infeasible: target (0.5,0.6) outside e^2 <= t <= e for the star:2 model\n"


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


def test_ergm_curve_svg_runs_without_the_scan_and_solver_modules(tmp_path):
    svg = tmp_path / "curve.svg"
    argv = ["ergm", "--curve", "--steps", "2", "--svg", str(svg), "--out", str(tmp_path / "c")]
    out, _ = _run_reports_loaded(argv, ["graphentropy.phase", "graphentropy.optimize"])
    assert out == [f"{cli.EXIT_OK} []"]
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("argv", [
    ["entropy", "--e", "0.5", "--t", "0.124", "--config", {"m": 4, "multistart_count": 2}],
    ["scan", "--spec", {"e_grid": [0.5], "t_grid": [0.1],
                        "optim": {"m": 4, "multistart_count": 2}}],
    ["verify", "--seed", "1"],
    ["ergm", "--verify-thm5", "--config", {"m": 4, "multistart_count": 4}],
], ids=["entropy", "scan", "verify", "ergm-thm5"])
def test_solving_commands_load_no_numpy_random(tmp_path, argv):
    # the random starts come from graphentropy._random, so numpy.random and
    # the hashing modules behind its seeding (secrets, hmac, _hashlib) stay out
    run = []
    for flag, arg in zip([None, *argv], argv):
        if isinstance(arg, dict):
            path = tmp_path / f"{len(run)}.json"
            path.write_text(json.dumps(arg if flag == "--spec" else {"version": 1, "optim": arg}))
            arg = str(path)
        run.append(arg)
    out, _ = _run_reports_loaded([*run, "--out", str(tmp_path / "out")],
                                 ["numpy", "numpy.random", "secrets"])
    assert out == [f"{cli.EXIT_OK} ['numpy']"]


def _openblas_is_threaded():
    """Whether this machine can show OpenBLAS's thread pool: OS threads are
    listed in /proc, the process may run on 2 CPUs or more, and numpy's BLAS
    is OpenBLAS."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (os.path.isdir("/proc/self/task") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and "openblas" in blas["name"].lower())


def _threads_after(imports, name="OPENBLAS_NUM_THREADS", value=None):
    """The OS threads and the variable `name` of a fresh interpreter after
    `imports`, started with `name` set to `value` (None: unset) and the other
    variables OpenBLAS reads for its thread count unset."""
    variables = dict.fromkeys(THREAD_VARIABLES)
    variables[name] = value
    out = _fresh(f"import os, {imports}\n"
                 "print(len(os.listdir('/proc/self/task')), "
                 f"os.environ.get({name!r}))", **variables)
    threads, variable = out[0].split()
    return int(threads), variable


threaded = pytest.mark.skipif(not _openblas_is_threaded(),
                              reason="needs /proc, 2 CPUs and numpy on OpenBLAS")


@threaded
def test_the_package_loads_numpy_on_one_openblas_thread_and_unsets_the_variable():
    assert _threads_after("graphentropy.optimize") == (1, "None")


@threaded
def test_a_chosen_openblas_thread_count_wins():
    assert _threads_after("graphentropy.optimize", value="2") == (2, "2")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_any_variable_openblas_reads_for_its_thread_count_is_left_to_numpy(name):
    assert _threads_after("graphentropy.optimize", name, "2") == _threads_after("numpy", name, "2")


@threaded
def test_a_numpy_loaded_first_is_left_alone():
    threads, variable = _threads_after("numpy")
    assert threads >= 2
    assert _threads_after("numpy, graphentropy.optimize") == (threads, variable)


def test_results_at_m_101_do_not_depend_on_the_openblas_thread_count():
    # above m = 100, threaded OpenBLAS sums some matrix products in another
    # order; with every thread variable unset the package loads numpy on one
    # thread, so both runs give the one-thread bits
    code = ("import hashlib\n"
            "from graphentropy import Graphon, Motif, motif_gradient\n"
            "from graphentropy._random import Generator\n"
            "u = Generator(101).uniform(0.05, 0.95, (101, 101))\n"
            "g = Graphon(values=(u + u.T) / 2)\n"
            "print(hashlib.sha256(motif_gradient(g, Motif.triangle()).tobytes()).hexdigest())")
    unset = dict.fromkeys(THREAD_VARIABLES)
    assert _fresh(code, **unset) == _fresh(code, **{**unset, "OPENBLAS_NUM_THREADS": "1"})


def test_the_module_runs_as_the_command(capsys):
    # `python -m graphentropy.cli` (runpy's run_module as __main__) calls main,
    # as the installed command does
    proc = _fresh_process(
        "import runpy, sys\n"
        "sys.argv = ['graphentropy.cli', 'region', '--samples', '3']\n"
        "runpy.run_module('graphentropy.cli', run_name='__main__', alter_sys=True)\n")
    assert cli.run(["region", "--samples", "3"]) == cli.EXIT_OK
    assert proc.stdout == capsys.readouterr().out


def test_run_leaves_the_environment_alone(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    before = dict(os.environ)
    assert cli.run(["region", "--samples", "3", "--out", str(tmp_path / "r.csv")]) == cli.EXIT_OK
    assert dict(os.environ) == before
